"""Span tracer that wraps the package's public functions from outside.

Each function is wrapped where it is looked up: `run_pipeline` finds
`preprocess`, `farneback_flow`, `validate_record` and the rest as globals of
`ward_sentinel.pipeline`, the store finds `dumps_row` as a global of
`ward_sentinel.store`, and so on. Patching those names (and a few class
attributes for methods) records a span per call without touching the
package's source.

Spans are (name, start, end, parent) rows kept in memory; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import logging
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

clock = time.perf_counter

# Every traced name; metrics report `<name>.self_s` and `<name>.calls` for each.
# "bench" is the per-pass root span: its self time is the harness's own code.
LAYER_NAMES = (
    "pipeline.run_pipeline",
    "pipeline.frame_source",
    "pipeline.rows_source",
    "pipeline.preprocess",
    "pipeline.detector.detect",
    "imageops.resize_bilinear",
    "imageops.resize_bicubic",
    "imageops.to_grayscale",
    "imageops.to_uint8",
    "flow.farneback_flow",
    "flow.roi_motion",
    "model.validate_record",
    "logic.attribute_roles",
    "logic.SmoothingWindow.push",
    "logic.derive_state",
    "geometry.expand_polygon",
    "geometry.rasterize",
    "geometry.bed_roi_from_detection",
    "geometry.detect_crossings",
    "schema.read_rows_jsonl",
    "schema.loads_row",
    "schema.dumps_row",
    "store.append",
    "store.append_crossing",
    "store.seal",
    "store.verify",
    "store.iter_rows",
    "trends.aggregate_hourly",
    "trends.assisted_trends",
    "trends.cohort_average",
    "evaluation.trend_accuracy",
    "evaluation.fit_logistic",
    "evaluation.evaluate_frames",
    "evaluation.match_boxes",
    "bench",
)
# Set-up only layers, reported from the traced set-up.
SETUP_NAMES = ("simulator.generate", "simulator.frames")
# Deterministic per-pass counters recorded at the wrapped boundaries.
COUNTERS = (
    "flow.pairs",
    "geometry.crossings",
    "logic.uniform_fallbacks",
    "schema.bytes_out",
    "schema.bytes_in",
    "store.segments_sealed",
    "store.bytes_written",
)
FLOW_STAGES = ("pyramid", "poly_exp", "update")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counters: dict = defaultdict(float)
        self.flow_stages: dict = defaultdict(float)

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(clock())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = clock()
        self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] += n

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, name, fn, after=None):
        """fn wrapped in a span; after(result, args) records counters."""

        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, name, fn):
        """fn returns an iterator; each step of it becomes one span."""

        def traced(*args, **kwargs):
            return self._steps(name, fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def _steps(self, name, iterator):
        iterator = iter(iterator)
        while True:
            i = self.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.close(i)
            yield item

    def self_times(self, roots: list[int]) -> dict:
        """Per root span: {name: [self_s, calls]} over that root's subtree."""
        n = len(self.names)
        child = [0.0] * n
        root_of = [0] * n
        for i in range(n):
            p = self.parents[i]
            root_of[i] = i if p < 0 else root_of[p]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = {r: defaultdict(lambda: [0.0, 0]) for r in roots}
        for i in range(n):
            agg = out.get(root_of[i])
            if agg is None:
                continue
            entry = agg[self.names[i]]
            entry[0] += self.ends[i] - self.starts[i] - child[i]
            entry[1] += 1
        return out

    def write(self, path: Path) -> None:
        """Spans as CSV: name,start_s,end_s,parent (times from the first span)."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, s, e, p in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(f"{name},{s - t0:.9f},{e - t0:.9f},{p}\n")


class _FallbackCounter(logging.Handler):
    def __init__(self, tracer: Tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        if "uniform" in record.getMessage():
            self.tracer.count("logic.uniform_fallbacks")


def _patch_table(ws, tr: Tracer):
    """(owner, attribute, replacement) for every traced lookup site."""
    p, st, sc, sim = ws.pipeline, ws.store, ws.schema, ws.simulator
    tb, ev, lg = ws.trends, ws.evaluation, ws.logic

    def crossings(result, args):
        tr.count("geometry.crossings", len(result))

    def bytes_out(result, args):
        tr.count("schema.bytes_out", len(result))

    def bytes_in(result, args):
        tr.count("schema.bytes_in", len(args[0]))

    def sealed(result, args):
        root = args[0].store.root
        tr.count("store.segments_sealed", len(result))
        tr.count("store.bytes_written", sum((root / rel).stat().st_size for rel in result))

    orig_flow = p.farneback_flow

    def farneback_flow(prev, cur, params, timings=None):
        stages: dict = {}
        i = tr.open("flow.farneback_flow")
        try:
            result = orig_flow(prev, cur, params, timings=stages)
        finally:
            tr.close(i)
        tr.count("flow.pairs")
        for k, v in stages.items():
            tr.flow_stages[k] += v
        return result

    w, wi = tr.wrap, tr.wrap_iter
    loads = w("schema.loads_row", sc.loads_row, bytes_in)
    return [
        (p, "run_pipeline", w("pipeline.run_pipeline", p.run_pipeline)),
        (p, "frame_source", wi("pipeline.frame_source", p.frame_source)),
        (p, "rows_source", wi("pipeline.rows_source", p.rows_source)),
        (p, "preprocess", w("pipeline.preprocess", p.preprocess)),
        (p.SyntheticDetector, "detect", w("pipeline.detector.detect", p.SyntheticDetector.detect)),
        (p, "resize_bilinear", w("imageops.resize_bilinear", p.resize_bilinear)),
        (p, "resize_bicubic", w("imageops.resize_bicubic", p.resize_bicubic)),
        (p, "to_grayscale", w("imageops.to_grayscale", p.to_grayscale)),
        (p, "to_uint8", w("imageops.to_uint8", p.to_uint8)),
        (p, "farneback_flow", farneback_flow),
        (p, "roi_motion", w("flow.roi_motion", p.roi_motion)),
        (p, "validate_record", w("model.validate_record", p.validate_record)),
        (p, "attribute_roles", w("logic.attribute_roles", p.attribute_roles)),
        (lg.SmoothingWindow, "push", w("logic.SmoothingWindow.push", lg.SmoothingWindow.push)),
        (p, "derive_state", w("logic.derive_state", p.derive_state)),
        (p, "expand_polygon", w("geometry.expand_polygon", p.expand_polygon)),
        (p, "rasterize", w("geometry.rasterize", p.rasterize)),
        (p, "bed_roi_from_detection", w("geometry.bed_roi_from_detection", p.bed_roi_from_detection)),
        (p, "detect_crossings", w("geometry.detect_crossings", p.detect_crossings, crossings)),
        (sc, "read_rows_jsonl", w("schema.read_rows_jsonl", sc.read_rows_jsonl)),
        (sc, "loads_row", loads),
        (st, "loads_row", loads),
        (st, "dumps_row", w("schema.dumps_row", st.dumps_row, bytes_out)),
        (st.SessionWriter, "append", w("store.append", st.SessionWriter.append)),
        (st.SessionWriter, "append_crossing", w("store.append_crossing", st.SessionWriter.append_crossing)),
        (st.SessionWriter, "seal", w("store.seal", st.SessionWriter.seal, sealed)),
        (st.Store, "verify", w("store.verify", st.Store.verify)),
        (st.Store, "iter_rows", wi("store.iter_rows", st.Store.iter_rows)),
        (tb, "aggregate_hourly", w("trends.aggregate_hourly", tb.aggregate_hourly)),
        (tb, "assisted_trends", w("trends.assisted_trends", tb.assisted_trends)),
        (tb, "cohort_average", w("trends.cohort_average", tb.cohort_average)),
        (ev, "trend_accuracy", w("evaluation.trend_accuracy", ev.trend_accuracy)),
        (ev, "fit_logistic", w("evaluation.fit_logistic", ev.fit_logistic)),
        (ev, "evaluate_frames", w("evaluation.evaluate_frames", ev.evaluate_frames)),
        (ev, "match_boxes", w("evaluation.match_boxes", ev.match_boxes)),
        (sim, "generate", w("simulator.generate", sim.generate)),
        (sim.SimulationResult, "frames", wi("simulator.frames", sim.SimulationResult.frames)),
        (sim, "rasterize", w("geometry.rasterize", sim.rasterize)),
        (sim, "expand_polygon", w("geometry.expand_polygon", sim.expand_polygon)),
    ]


@contextmanager
def installed(ws, tr: Tracer):
    """Patch every traced lookup site for the duration of the block."""
    table = _patch_table(ws, tr)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in table]
    handler = _FallbackCounter(tr)
    logic_log = logging.getLogger(ws.logic.__name__)
    for owner, attr, fn in table:
        setattr(owner, attr, fn)
    logic_log.addHandler(handler)
    try:
        yield tr
    finally:
        logic_log.removeHandler(handler)
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
