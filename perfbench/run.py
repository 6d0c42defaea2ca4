#!/usr/bin/env python3
"""ward-sentinel benchmark: seeded workloads through the public API.

    python3 perfbench/run.py --workload {frames,replay,reports} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/` directory. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones, measured untraced; with `--trace 1` they are the
per-layer span self times and counters of a separate traced run.
End-to-end times are scaled to a reference machine speed measured during the
run (calibrate.py); the raw figures are on the info line.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFERENCE_DIR = HERE / "reference"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MODULES = ("model", "imageops", "flow", "geometry", "logic", "schema", "store",
           "pipeline", "simulator", "trends", "evaluation")
SETUP_REPEATS = {"frames": 9, "replay": 7, "reports": 5}
IMPORT_REPEATS = 9
CAL_BLOCK = 5  # calibration kernel samples before each pass, set-up and import
TRACED_PASSES = {"frames": 2, "replay": 3, "reports": 3}
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import ward_sentinel; print(time.perf_counter() - t)"
)

clock = time.perf_counter


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("frames", "replay", "reports"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured pass time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input size; tiny is for the self-test and has no reference")
    return ap.parse_args(argv)


def pin_threads() -> None:
    """Re-exec with every BLAS/OpenMP pool at one thread, before numpy loads."""
    if all(os.environ.get(v) == "1" for v in THREAD_VARS):
        return
    env = {**os.environ, **{v: "1" for v in THREAD_VARS}}
    script = str(Path(sys.argv[0]).resolve())
    os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]], env)


def load_package() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("ward_sentinel")
    if Path(pkg.__file__).resolve().parent != (SRC / "ward_sentinel").resolve():
        raise ImportError(f"ward_sentinel imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(version=pkg.__version__, **{
        m: importlib.import_module(f"ward_sentinel.{m}") for m in MODULES
    })


def import_seconds(cal) -> list[float]:
    """Package import time in fresh interpreters."""
    out = []
    for _ in range(IMPORT_REPEATS):
        cal.sample(CAL_BLOCK)
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def environment(ws) -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ward_sentinel": ws.version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def tail(samples: list[float]) -> tuple[float, str]:
    """p99, or with under 1000 samples the highest percentile with 10 beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n >= 1000:
        return xs[math.ceil(0.99 * n) - 1], "p99"
    if n < 11:
        return xs[-1], "max"
    return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f}"


def load_reference(workload: str, variant: int, scale: str):
    path = REFERENCE_DIR / f"{workload}.json"
    if scale != "full" or not path.exists():
        return None
    return json.loads(path.read_text())["variants"].get(str(variant))


class Passes:
    """Runs checked passes and accumulates what they measured."""

    def __init__(self, wl, checks, ref):
        self.wl, self.checks, self.ref = wl, checks, ref
        self.attempted = self.failed = 0
        self.rates: list[float] = []
        self.rows = 0
        self.elapsed = 0.0
        # Pass time and row latencies at reference machine speed: each pass's
        # figures divided by the slowdown measured during that pass.
        self.scaled_elapsed = 0.0
        self.scaled_latencies = array.array("d")
        self.notes: list[str] = []
        self.broken = False
        self._n = 0

    def expected_items(self) -> int:
        if self.wl.name == "reports":
            return max(1, len(self.checks.items(self.ref))) if self.ref else 1
        return sum(len(v) for v in self.wl.expected.values())

    def one(self, latencies=None, tracer=None, cal=None) -> bool:
        wl = self.wl
        out = wl.workdir / f"pass-{self._n}"
        self._n += 1
        wl.result = None
        try:
            if cal is not None:
                first_sample, first_row = cal.count(), len(latencies)
                cal.sample(CAL_BLOCK)
                spent = cal.spent
                rows, elapsed = wl.run_pass(out, latencies, cal)
                elapsed -= cal.spent - spent
            elif tracer is None:
                rows, elapsed = wl.run_pass(out)
            else:
                with tracer.span("bench"):
                    rows, elapsed = wl.run_pass(out)
        except Exception:
            n = self.expected_items()
            self.attempted += n
            self.failed += n
            self.notes.append(traceback.format_exc())
            self.broken = True
            return False
        attempted, failed, notes = self.checks.check(wl, out, self.ref)
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += attempted
        self.failed += failed
        self.notes += notes
        self.rates.append(rows / elapsed)
        self.rows += rows
        self.elapsed += elapsed
        if cal is not None:
            slow = cal.slowdown(first_sample)
            self.scaled_elapsed += elapsed / slow
            self.scaled_latencies.extend(x / slow for x in latencies[first_row:])
        return True

    def for_seconds(self, seconds: float, latencies=None, cal=None) -> None:
        self.rows, self.elapsed, self.rates = 0, 0.0, []
        self.scaled_elapsed, self.scaled_latencies = 0.0, array.array("d")
        while not self.broken and self.one(latencies, cal=cal) and self.elapsed < seconds:
            pass

    def rate(self) -> float:
        """Rows completed per second of pass time, over the passes since the last reset."""
        return self.rows / self.elapsed if self.elapsed else 0.0


def rss_mb() -> float:
    """Current resident set size, or 0.0 where /proc is not available."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        return 0.0


def timed_setup(wl, cal) -> float:
    cal.sample(CAL_BLOCK)
    t0 = clock()
    wl.setup()
    return clock() - t0


def end_to_end(args, ws, wl, checks, ref) -> tuple[Passes, dict, dict]:
    from calibrate import Calibrator

    cal = Calibrator()
    imports = import_seconds(cal)
    setups = [timed_setup(wl, cal)]
    setup_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_rss_mb = rss_mb()
    passes = Passes(wl, checks, ref)
    passes.one()  # warm-up: checked, not timed
    # Peak over one set-up and one full pass: the timed passes repeat that work
    # and would only add the benchmark's own latency samples, and the other
    # set-up repeats run after them.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = array.array("d")
    cal.phase = "pass"
    passes.for_seconds(args.seconds, latencies, cal)
    cal.phase = "setup"
    setups += [timed_setup(wl, cal) for _ in range(SETUP_REPEATS[wl.name] - 1)]
    ms = [x * 1e3 for x in latencies] or [0.0]
    scaled_ms = [x * 1e3 for x in passes.scaled_latencies] or [0.0]
    raw = {
        "rows_per_s": passes.rate(),
        "row_ms_p50": statistics.median(ms),
        "row_ms_tail": tail(ms)[0],
        "setup_s": statistics.median(imports) + statistics.median(setups),
    }
    # Times at reference machine speed (calibrate.py): each pass's by the
    # slowdown measured during it, set-up's by that measured around set-ups.
    slow_setup = cal.slowdown()
    tail_ms, label = tail(scaled_ms)
    metrics = {
        "rows_per_s": (passes.rows / passes.scaled_elapsed if passes.scaled_elapsed else 0.0, "rows/s"),
        "row_ms_p50": (statistics.median(scaled_ms), "ms"),
        "row_ms_tail": (tail_ms, "ms"),
        "setup_s": (raw["setup_s"] / slow_setup, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {
        "raw": raw,
        "slowdown": {"pass": passes.elapsed / passes.scaled_elapsed if passes.scaled_elapsed else 0.0,
                     "setup": slow_setup},
        "calibration_samples": {k: len(v) for k, v in cal.samples.items()},
        "calibration_s": cal.spent,
        "passes": len(passes.rates),
        "rows": passes.rows,
        "pass_s": passes.elapsed,
        "pass_rows_per_s": passes.rates,
        "row_ms_tail_percentile": label,
        "row_samples": len(latencies),
        "import_s": imports,
        "input_generation_s": setups,
        "setup_peak_rss_mb": setup_peak_mb,
        "rss_after_setup_mb": setup_rss_mb,
        "pass_adds_mb": peak_rss_mb - setup_rss_mb,
    }
    return passes, metrics, info


def traced(args, ws, wl, checks, ref) -> tuple[Passes, dict, dict]:
    import spans as tracing

    tr = tracing.Tracer()
    with tracing.installed(ws, tr):
        setup_root = tr.open("bench.setup")
        wl.setup()
        tr.close(setup_root)
    passes = Passes(wl, checks, ref)
    passes.one()  # warm-up
    passes.for_seconds(args.seconds)
    untraced_rate = passes.rate()

    roots, snapshots, walls = [], [], []
    passes.rows, passes.elapsed = 0, 0.0
    for _ in range(TRACED_PASSES[wl.name]):
        tr.counters.clear()
        tr.flow_stages.clear()
        root = len(tr.names)
        with tracing.installed(ws, tr):
            ok = passes.one(tracer=tr)
        if not ok:
            break
        roots.append(root)
        walls.append(tr.ends[root] - tr.starts[root])
        snapshots.append((dict(tr.counters), dict(tr.flow_stages)))

    by_root = tr.self_times([setup_root, *roots])
    per_pass = [by_root[r] for r in roots] or [{}]
    k = len(per_pass)
    metrics: dict = {}
    layer_sum = 0.0
    for name in tracing.LAYER_NAMES:
        self_s = sum(p[name][0] for p in per_pass if name in p) / k
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.calls"] = (per_pass[0][name][1] if name in per_pass[0] else 0, "count")
        if name != "bench":
            layer_sum += self_s
    setup = by_root[setup_root]
    for name in tracing.SETUP_NAMES:
        metrics[f"{name}.self_s"] = (setup[name][0] if name in setup else 0.0, "s")
        metrics[f"{name}.calls"] = (setup[name][1] if name in setup else 0, "count")
    metrics["setup.geometry.rasterize.self_s"] = (
        setup["geometry.rasterize"][0] if "geometry.rasterize" in setup else 0.0, "s")
    metrics["setup.wall_s"] = (tr.ends[setup_root] - tr.starts[setup_root], "s")

    counters, stages = snapshots[0] if snapshots else ({}, {})
    for stage in tracing.FLOW_STAGES:
        metrics[f"flow.{stage}_s"] = (sum(s[1].get(stage, 0.0) for s in snapshots) / k, "s")
    rows_per_pass = sum(len(v) for v in wl.expected.values()) if wl.name != "reports" else 0
    metrics["flow.pairs_per_row"] = (
        counters.get("flow.pairs", 0) / rows_per_pass if rows_per_pass else 0.0, "ratio")
    units = {"geometry.crossings": "count", "logic.uniform_fallbacks": "count",
             "schema.bytes_out": "B", "schema.bytes_in": "B",
             "store.segments_sealed": "count", "store.bytes_written": "B"}
    for key, unit in units.items():
        metrics[key] = (counters.get(key, 0), unit)

    # Same-work check: counters and call counts repeat across the traced passes.
    # Their digest is printed, so runs of the same code and seed can be compared.
    fingerprint = [
        json.dumps({"counters": c, "calls": {n: v[1] for n, v in p.items()}}, sort_keys=True)
        for (c, _), p in zip(snapshots, per_pass)
    ]
    repeat = bool(fingerprint) and all(f == fingerprint[0] for f in fingerprint)
    if not repeat:
        passes.notes.append("deterministic counters differ between traced passes")
    traced_rate = passes.rate()
    metrics["trace.counters_repeat"] = (int(repeat), "bool")
    metrics["trace.wall_s"] = (sum(walls) / k, "s")
    metrics["trace.layer_self_sum_s"] = (layer_sum, "s")
    metrics["trace.untraced_rows_per_s"] = (untraced_rate, "rows/s")
    metrics["trace.traced_rows_per_s"] = (traced_rate, "rows/s")
    metrics["trace.overhead_frac"] = (
        1.0 - traced_rate / untraced_rate if untraced_rate else 0.0, "fraction")
    metrics["failed_frac"] = (passes.failed / max(1, passes.attempted), "fraction")

    spans = OUT / f"spans-{wl.name}-{args.scale}-seed{args.seed}.csv"
    tr.write(spans)
    info = {"traced_passes": len(roots), "spans": str(spans.relative_to(ROOT)),
            "span_count": len(tr.names),
            "counters_digest": hashlib.sha256(fingerprint[0].encode()).hexdigest()[:16]
            if fingerprint else None}
    return passes, metrics, info


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "ward_sentinel" / "__init__.py").is_file():
        print(f"error: no package source at {SRC.relative_to(ROOT)}/ward_sentinel; "
              "run from a source checkout", file=sys.stderr)
        return 2
    pin_threads()
    ws = load_package()
    import checks
    import workloads

    variant = args.seed % workloads.VARIANTS
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    ref = load_reference(args.workload, variant, args.scale)
    try:
        wl = workloads.WORKLOADS[args.workload](ws, variant, workloads.SCALES[args.scale], workdir)
        run = traced if args.trace else end_to_end
        passes, metrics, info = run(args, ws, wl, checks, ref)
    except Exception:  # set-up raised: the run produced nothing checkable
        passes, metrics, info = Passes(None, checks, ref), {}, {}
        passes.attempted = passes.failed = 1
        passes.broken = True
        passes.notes.append(traceback.format_exc())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(ws)
    record = {
        "workload": args.workload, "seed": args.seed, "variant": variant,
        "scale": args.scale, "trace": args.trace, "reference": ref is not None,
        "environment": env, "info": info, "notes": passes.notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    for note in passes.notes:
        print(note, file=sys.stderr)
    print("environment: " + json.dumps(env, sort_keys=True))
    print("info: " + json.dumps({"variant": variant, "reference": ref is not None, **info}, sort_keys=True))
    print(json.dumps({
        "correct": passes.failed == 0 and not passes.broken and passes.attempted > 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
