#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Smoke: every workload at tiny scale, untraced and traced, prints a last
   line with exactly the result keys and every metric that BENCHMARK.json
   names, each with its unit.
2. Negative: a stored row with one logical flag flipped, or one motion value
   moved beyond tolerance (with the store's hashes made consistent again, so
   only the output checks can catch it), is counted as failed; so is every
   row of a pass that raises.
3. Bare directory: with only BENCHMARK.json and perfbench/, the command
   exits non-zero without printing a result.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench_cmd(workload: str, trace: int) -> list[str]:
    return [*BENCH["command"], "--workload", workload, "--seed", "5", "--seconds", "1",
            "--trace", str(trace), "--scale", "tiny"]


def smoke() -> None:
    for w in BENCH["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(bench_cmd(w["name"], trace), cwd=run.ROOT,
                                  capture_output=True, text=True, timeout=180)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in BENCH[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, sorted(set(got) ^ set(want)) or [k for k in got if got[k] != want[k]]
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            print(f"smoke {w['name']} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} checked", flush=True)


def _rewrite_row(store: Path, edit) -> None:
    """Apply edit to the first row it accepts, then re-hash like an honest writer."""
    manifest_path = store / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for rel, meta in manifest["segments"].items():
        if rel.endswith("crossings.jsonl"):
            continue
        path = store / rel
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            row = json.loads(line)
            if edit(row):
                lines[i] = json.dumps(row, sort_keys=True, separators=(",", ":"))
                data = ("\n".join(lines) + "\n").encode()
                path.write_bytes(data)
                meta["sha256"] = hashlib.sha256(data).hexdigest()
                manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
                return
    raise AssertionError("no row to edit")


def flip_flag(row) -> bool:
    row["logical"]["moving"] = not row["logical"]["moving"]
    return True


def bump_motion(row) -> bool:
    if not row.get("motion"):
        return False
    row["motion"]["scene"] += 0.5
    return True


def negative(ws) -> None:
    import checks
    import workloads

    work = run.OUT / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for name, edits in (("frames", (flip_flag, bump_motion)), ("replay", (flip_flag, bump_motion))):
            wl = workloads.WORKLOADS[name](ws, 5, workloads.TINY, work)
            wl.setup()
            for k, edit in enumerate((None, *edits)):
                out = work / f"{name}-{k}"
                wl.run_pass(out)
                if edit is not None:
                    _rewrite_row(out, edit)
                ws.store.Store(out).verify()  # hashes are consistent again
                attempted, failed, _ = checks.check(wl, out, None)
                label = "clean" if edit is None else edit.__name__
                assert (failed == 0) == (edit is None), (name, label, failed, attempted)
                print(f"negative {name} {label}: failed_frac {failed / attempted:.4f}")

        wl = workloads.WORKLOADS["replay"](ws, 5, workloads.TINY, work)
        wl.setup()

        def broken(*args, **kwargs):
            raise RuntimeError("injected failure")

        wl.run_pass = broken
        passes = run.Passes(wl, checks, None)
        passes.one()
        assert passes.broken and passes.failed == passes.attempted > 0, vars(passes)
        print(f"negative replay raising pass: failed {passes.failed}/{passes.attempted}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bare_directory() -> None:
    bare = run.OUT / f"bare-{os.getpid()}"
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for p in BENCH["paths"]:
            shutil.copytree(run.ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(bench_cmd(BENCH["workloads"][0]["name"], 0), cwd=bare,
                              capture_output=True, text=True, timeout=180)
        assert done.returncode != 0 and "correct" not in done.stdout, (done.returncode, done.stdout)
        print(f"bare directory: exit {done.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    run.pin_threads()
    ws = run.load_package()
    run.OUT.mkdir(exist_ok=True)
    bare_directory()
    negative(ws)
    smoke()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
