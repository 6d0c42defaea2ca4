#!/usr/bin/env python3
"""Run-to-run spread and drift of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload frames,replay,reports --seeds 0-9

Runs the benchmark untraced for `run_seconds` from BENCHMARK.json, once per
seed and workload, interleaving the workloads seed by seed so that slow and
fast spells of a shared machine fall on all of them alike. It makes two such
sets, one after the other. For each set, workload and end-to-end metric it
prints the median and the distance between the first and third quartile as a
share of the median, next to the metric's bound; for the second set it also
prints how much worse its median is than the first set's, as a share of the
first, next to the same bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def one_set(bench, names, seed_list, label) -> dict:
    values = {w: {m["name"]: [] for m in bench["end_to_end"]} for w in names}
    for seed in seed_list:
        for w in names:
            cmd = [*bench["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            wall = time.perf_counter() - t0
            result = json.loads(done.stdout.strip().splitlines()[-1])
            print(f"set {label} {w} seed {seed} ({wall:.0f} s): correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
            for k, v in result["metrics"].items():
                values[w][k].append(v["value"])
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    args = ap.parse_args()
    if len(args.seeds) < 2:
        ap.error("--seeds needs at least two seeds for quartiles")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload.split(",")
    sets = [one_set(bench, names, args.seeds, k + 1) for k in range(SETS)]
    for w in names:
        worst_spread = worst_drift = 0.0
        for m in bench["end_to_end"]:
            medians = []
            for k, values in enumerate(sets, 1):
                q1, med, q3 = statistics.quantiles(values[w][m["name"]], n=4)
                spread = (q3 - q1) / med
                worst_spread = max(worst_spread, spread / m["bound"])
                medians.append(med)
                line = (f"{w} {m['name']} set {k}: median {med:.6g} {m['unit']}, "
                        f"spread {spread:.4f} (bound {m['bound']}, {spread / m['bound']:.2f} of it)")
                if k > 1:
                    worse = (med - medians[0]) / medians[0]
                    if m["better"] == "higher":
                        worse = -worse
                    worst_drift = max(worst_drift, worse / m["bound"])
                    line += f"; worse than set 1 by {worse:+.4f} ({worse / m['bound']:+.2f} of bound)"
                print(line)
        print(f"{w}: worst spread {worst_spread:.2f} of bound (target below 0.33), "
              f"worst drift {worst_drift:.2f} of bound (must stay below 1)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
