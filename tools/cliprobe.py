#!/usr/bin/env python3
"""Fresh-process memory and wall time of ward-sentinel commands, per row.

    python3 tools/cliprobe.py --parent OLD_TREE --change NEW_TREE \
        [--lengths 7200,86400] [--pairs 6] [--out CLIPROBE.json]
    python3 tools/cliprobe.py --change TREE --lengths 60,600 --pairs 1

A tree is a source checkout; its package is imported from TREE/src. The
inputs are made once, with `simulate` from the first tree given: one noisy
room with a safety zone and a walker per length (seconds, so rows), a
`--config` file that gives the room that zone, and frame labels written from
the simulated ground truth, for `evaluate frames`. Each command then runs once
per tree, length and pair as its own child process, the trees in alternating
order from pair to pair. A child's peak RSS and
CPU times come from `os.wait4`, which gives that child alone (a maximum over
all children is what `RUSAGE_CHILDREN` would give); its wall time is taken
around the spawn and the wait. Linux carries a parent's peak RSS into its
child at exec, so this script imports nothing that would make its own peak
large: simulation, too, runs as a child.

Per command and tree it reports the median of each measure per length, and
per pair the growth per row, (peak at the longest length - peak at the
shortest) / (row difference), and the wall per row on the same difference,
which leaves start-up out. With two trees it counts the pairs in which the
change grew less and ran faster, and it checks that both trees wrote
byte-identical outputs. The last line of standard output is the JSON report,
also written to --out when given. The exit code is 1 if a child failed or
the outputs differ, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

START_TS = 1_709_251_200  # 2024-03-01T00:00:00Z
SPAWN = "import sys; sys.path.insert(0, sys.argv[1]); from ward_sentinel.cli import main; sys.exit(main(sys.argv[2:]))"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Each command's arguments; {inp} is the length's input directory, {out} the
# output, which is compared across trees byte for byte. run-detections has no
# zone, so it crosses no crossing code; run-detections-zone does. The two
# report commands read the simulated ground-truth states and observation log.
# evaluate-frames scores the ground truth as predictions against labels that
# make_inputs writes from it (labels_from_ground_truth).
COMMANDS = {
    "run-detections": ["run", "--detections", "{inp}/detections.jsonl", "--out", "{out}"],
    "run-detections-zone": ["--config", "{inp}/config.json",
                            "run", "--detections", "{inp}/detections.jsonl", "--out", "{out}"],
    "ingest-canonical": ["ingest", "--adapter", "canonical", "--input", "{inp}/detections.jsonl", "--store", "{out}"],
    "trends-cohort-log": ["trends", "--states", "{inp}/ground_truth.jsonl", "--log", "{inp}/observations.csv",
                          "--cohort", "--out", "{out}"],
    "evaluate-trends": ["evaluate", "trends", "--log", "{inp}/observations.csv",
                        "--states", "{inp}/ground_truth.jsonl", "--out", "{out}"],
    "evaluate-frames": ["evaluate", "frames", "--labels", "{inp}/labels.jsonl",
                        "--preds", "{inp}/ground_truth.jsonl", "--out", "{out}"],
}
ROLES = ("patient", "staff", "other")  # the package's tie order for a primary role


def spec(seconds: int) -> dict:
    """One noisy room: the patient alone, then a staff visit, and a walker
    crossing the safety zone in the first sixth of the run."""
    half = seconds // 2
    return {
        "seed": 7,
        "duration_s": seconds,
        "session_id": "room",
        "start_ts": START_TS,
        "schedule": [
            {"start_s": 0, "end_s": half, "patients": 1, "motion": 0.2},
            {"start_s": half, "end_s": seconds, "patients": 1, "staff": 1, "motion": 1.0},
        ],
        "tracks": [{"role": "staff", "waypoints": [[seconds // 12, 250, 430], [seconds // 6, 850, 430]]}],
        "zone": [[400, 300], [700, 300], [700, 560], [400, 560]],
        "noise": {"p_miss": 0.05, "p_spur": 0.05, "p_role": 0.05},
    }


def child(tree: Path, argv: list[str], cwd: Path) -> dict:
    """Run one command of a tree as a child; its exit code, wall, CPU and peak RSS."""
    env = {**os.environ, **{v: "1" for v in THREAD_VARS}}
    t0 = time.perf_counter()
    with open(cwd / "stderr.txt", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", SPAWN, str(tree / "src"), *argv],
            cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024,  # KiB on Linux
        "stderr": (cwd / "stderr.txt").read_text()[-500:],
    }


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
    return digest.hexdigest()


def labels_from_ground_truth(rows: Path, labels: Path) -> None:
    """One frame label per canonical row, a line at a time and with json only,
    so that this process stays small: the row's session_id, ts and boxes, and
    on each person box the role its scores rank first."""
    with open(rows) as src, open(labels, "w") as dst:
        for line in src:
            row = json.loads(line)
            for box, scores in zip(row["boxes"], row["roles"]):
                if box["cls"] == "person":
                    box["role"] = max(ROLES, key=lambda r: scores[r])
            dst.write(json.dumps({"session_id": row["session_id"], "ts": row["ts"], "boxes": row["boxes"]}) + "\n")


def make_inputs(tree: Path, lengths: list[int], work: Path) -> dict[int, Path]:
    inputs = {}
    for n in lengths:
        inp = work / f"input-{n}"
        inp.mkdir()
        scenario = spec(n)
        (inp / "spec.json").write_text(json.dumps(scenario))
        (inp / "config.json").write_text(json.dumps({"zones": {scenario["session_id"]: scenario["zone"]}}))
        done = child(tree, ["simulate", "--spec", str(inp / "spec.json"), "--out", str(inp)], inp)
        if done["code"] != 0:
            raise SystemExit(f"simulate {n} s failed: {done['stderr']}")
        labels_from_ground_truth(inp / "ground_truth.jsonl", inp / "labels.jsonl")
        inputs[n] = inp
    return inputs


def per_row(values: dict[int, float], lo: int, hi: int, scale: float) -> float:
    return (values[hi] - values[lo]) * scale / (hi - lo)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, help="tree to compare against")
    ap.add_argument("--change", type=Path, required=True, help="tree under test")
    ap.add_argument("--lengths", default="7200,86400", help="comma-separated run lengths in seconds")
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--out", type=Path, help="also write the JSON report here")
    args = ap.parse_args(argv)
    lengths = sorted(int(x) for x in args.lengths.split(","))
    if len(lengths) < 2 or args.pairs < 1:
        ap.error("--lengths needs two or more lengths and --pairs one or more")
    trees = {"change": args.change.resolve()}
    if args.parent:
        trees = {"parent": args.parent.resolve(), **trees}
    lo, hi = lengths[0], lengths[-1]

    work = Path(tempfile.mkdtemp(prefix="cliprobe-"))
    runs = []
    try:
        inputs = make_inputs(next(iter(trees.values())), lengths, work)
        for pair in range(args.pairs):
            order = list(trees) if pair % 2 == 0 else list(reversed(trees))
            for command in COMMANDS:
                for n in lengths:
                    for name in order:
                        out = work / f"out-{name}"
                        argv = [a.format(inp=inputs[n], out=out) for a in COMMANDS[command]]
                        run = child(trees[name], argv, work)
                        run.update(tree=name, command=command, rows=n, pair=pair,
                                   output=tree_digest(out) if out.exists() else None)
                        shutil.rmtree(out, ignore_errors=True)
                        if run["code"] == 0:
                            del run["stderr"]
                        runs.append(run)
                        print(f"pair {pair} {command} {n} {name}: exit {run['code']}, "
                              f"{run['wall_s']:.2f} s, {run['maxrss_mb']:.1f} MB", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def of(name, command, key):
        """{pair: {rows: value}} for one tree and command."""
        table: dict[int, dict[int, float]] = {}
        for r in runs:
            if r["tree"] == name and r["command"] == command:
                table.setdefault(r["pair"], {})[r["rows"]] = r[key]
        return table

    summary = {}
    for command in COMMANDS:
        entry = {}
        for name in trees:
            rss, wall = of(name, command, "maxrss_mb"), of(name, command, "wall_s")
            growth = [per_row(rss[p], lo, hi, 1024) for p in sorted(rss)]
            wall_row = [per_row(wall[p], lo, hi, 1000) for p in sorted(wall)]
            entry[name] = {
                "maxrss_mb": {n: statistics.median(rss[p][n] for p in rss) for n in lengths},
                "wall_s": {n: statistics.median(wall[p][n] for p in wall) for n in lengths},
                "growth_kb_per_row": statistics.median(growth),
                "wall_ms_per_row": statistics.median(wall_row),
                "growth_kb_per_row_by_pair": growth,
                "wall_ms_per_row_by_pair": wall_row,
            }
        if "parent" in trees:
            p, c = entry["parent"], entry["change"]
            entry["pairs_change_grew_less"] = sum(
                a < b for a, b in zip(c["growth_kb_per_row_by_pair"], p["growth_kb_per_row_by_pair"]))
            entry["pairs_change_ran_faster"] = sum(
                a < b for a, b in zip(c["wall_ms_per_row_by_pair"], p["wall_ms_per_row_by_pair"]))
        outputs = {(r["rows"], r["output"]) for r in runs if r["command"] == command}
        entry["outputs_identical"] = len(outputs) == len(lengths) and None not in {o for _, o in outputs}
        summary[command] = entry

    failed = [r for r in runs if r["code"] != 0]
    report = {
        "trees": {k: str(v) for k, v in trees.items()},
        "lengths": lengths,
        "pairs": args.pairs,
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "summary": summary,
        "failed": failed,
        "runs": runs,
    }
    text = json.dumps(report, sort_keys=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(text)
    return 1 if failed or not all(e["outputs_identical"] for e in summary.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
