#!/usr/bin/env python3
"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record_reference.py [--workload NAME ...]

Runs one pass of every input variant at full scale, requires it to pass the
reference-free checks (store integrity, one row per input second, the
brute-force state recomputation, the motion schedule), and writes
perfbench/reference/<workload>.json. Re-record only when a change is meant
to alter what the program computes, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=("frames", "replay", "reports"))
    args = ap.parse_args()
    run.pin_threads()
    ws = run.load_package()
    import checks
    import workloads

    run.REFERENCE_DIR.mkdir(exist_ok=True)
    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / f"record-{os.getpid()}"
    try:
        for name in args.workload or ("frames", "replay", "reports"):
            variants = {}
            for v in range(workloads.VARIANTS):
                workdir.mkdir()
                wl = workloads.WORKLOADS[name](ws, v, workloads.FULL, workdir)
                wl.setup()
                out = workdir / "pass"
                wl.run_pass(out)
                attempted, failed, notes = checks.check(wl, out, None)
                if failed or notes:
                    print(f"{name} variant {v}: {failed}/{attempted} failed {notes}", file=sys.stderr)
                    return 1
                variants[str(v)] = checks.digest(wl, out)
                shutil.rmtree(workdir)
                print(f"{name} variant {v}: {attempted} checked")
            path = run.REFERENCE_DIR / f"{name}.json"
            path.write_text(json.dumps({"ward_sentinel": ws.version, "variants": variants},
                                       sort_keys=True, separators=(",", ":")) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
