"""Streaming runtime: preprocessing, the detector port, per-second inference,
persistence, and external ingest. Recorded detection records pass straight to
validation; frames go through the detector port and role attribution. Both
ingest adapters feed one parse-validate loop that rejects a bad row by its line.

Inference never touches the store: a session's `_SessionState.step` turns one
second into its row and zone crossings, which `run_pipeline` hands to the
run's one store writer. The state is the smoothing window, the safety zone
(an exact point test at analysis resolution for crossings, a bool mask at
flow resolution for motion) and the previous flow frame, whose pyramid
expansions are kept so each frame is expanded once; a gap of more than one
second drops it. Preprocessing builds the flow image straight from the
captured pixels; the analysis and detector-resolution images are resized only
when a detector port reads them, and after detection only the flow image is
kept. The writer streams rows into `.tmp` segments in fixed chunks, so memory
does not grow with run length, and seals every session under one manifest
save; a run that raises, while writing or sealing, leaves the manifest as it
was. Resuming a session on the same UTC date still rewrites that date's
segment (ROADMAP.md, item 1). Within a session the stages are strictly
sequential (flow needs the previous frame, the window needs order). The zone's
mask is rasterized on a session's first frame pair, so replay never builds it.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import zip_longest
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import AdapterError, MalformedRecord, SchemaMismatch, TooSmallInput, UnknownAdapter, ValidationError
from .flow import FlowFrame, MotionRecord, farneback_flow, roi_motion
from .geometry import CrossingEvent, Polygon, Zone, bed_roi_from_detection, detect_crossings, expand_polygon, rasterize
from .imageops import resize_bilinear, resize_bicubic, resize_luma_via, to_uint8
from .imageops import to_grayscale  # noqa: F401  (a lookup site perfbench/spans.py wraps)
from .logic import SmoothingWindow, attribute_roles, derive_state
from .model import (
    ANALYSIS_DIMS,
    DETECTOR_DIMS,
    FLOW_DIMS,
    ROLES,
    BoundingBox,
    DetectionRecord,
    Frame,
    PipelineConfig,
    RoleDistribution,
    slot_init,
    text_lines,
    validate_record,
)
from .schema import CanonicalRow, jsonl_lines, loads_row, shared_id
from .simulator import SimulationResult
from .store import Store

MIN_INPUT_DIM = 64


@dataclass(frozen=True)
class PreprocessedFrame:
    """The three working resolutions derived from one captured frame.

    Only the flow image is made up front, straight from the captured pixels.
    The float analysis image, and `analysis` and `detector` made from it, are
    built on first read and kept from then on, so a detector port that never
    reads them costs no resize or conversion.
    """

    flow_gray: np.ndarray  # 480x270, float64 luma
    pixels: np.ndarray  # the captured frame, (height, width, channels) uint8

    @cached_property
    def analysis_float(self) -> np.ndarray:
        """1088x612, float64 (bilinear), the source of the two below."""
        return resize_bilinear(self.pixels, *ANALYSIS_DIMS)

    @cached_property
    def analysis(self) -> np.ndarray:
        """1088x612, uint8, original channel count."""
        return to_uint8(self.analysis_float)

    @cached_property
    def detector(self) -> np.ndarray:
        """608x608, uint8 (bicubic, Catmull-Rom)."""
        return to_uint8(resize_bicubic(self.analysis_float, *DETECTOR_DIMS))


def preprocess(frame: Frame) -> PreprocessedFrame:
    """Derive the working resolutions of a captured frame.

    The 480x270 flow image is the BT.601 luma of the bilinear 1088x612
    analysis image, resized bilinearly, and is computed without building that
    image (bit for bit the same). The analysis image is bilinear and the
    detector image bicubic from it, both made on first read. Aspect ratios
    are not letterboxed (fixed output resolutions).
    """
    height, width = frame.pixels.shape[:2]
    if min(width, height) < MIN_INPUT_DIM:
        raise TooSmallInput(f"frame {width}x{height} below minimum {MIN_INPUT_DIM}px")
    flow_gray = resize_luma_via(frame.pixels, *ANALYSIS_DIMS, *FLOW_DIMS)
    return PreprocessedFrame(flow_gray=flow_gray, pixels=frame.pixels)


@dataclass(frozen=True)
class DetectorOutput:
    """Raw detector port result for one frame.

    role_confidences runs parallel to boxes: per-role detector scores that
    attribute_roles turns into distributions. Non-person entries are ignored;
    a person whose entry is None or empty gets the uniform fallback.
    """

    boxes: tuple[BoundingBox, ...]
    role_confidences: tuple[Optional[Mapping[str, float]], ...]


class DetectorPort:
    """Boundary to the object detector; the model itself lives elsewhere."""

    def detect(
        self, session_id: str, ts: int, frame: Optional[PreprocessedFrame]
    ) -> DetectorOutput:
        raise NotImplementedError


class SyntheticDetector(DetectorPort):
    """Serves a simulation's detections as raw per-role confidences."""

    def __init__(self, sim: SimulationResult):
        self._by_ts = sim.detections_by_ts()
        self._session_id = sim.spec.session_id

    def detect(self, session_id, ts, frame=None) -> DetectorOutput:
        if session_id != self._session_id or ts not in self._by_ts:
            raise AdapterError("no synthetic detections", session_id, ts)
        rec = self._by_ts[ts]
        confidences = tuple(
            None if r is None else {r.primary(): r.scores[r.primary()]}
            for r in rec.roles
        )
        return DetectorOutput(boxes=rec.boxes, role_confidences=confidences)


@slot_init
@dataclass(frozen=True, slots=True)
class SourceItem:
    """One second of input: a frame, a recorded DetectionRecord with the item's
    session_id and ts, or both, plus any recorded motion for that same second
    (a MotionRecord holds only magnitudes; the item's second is its own).
    Without a record, the detector port supplies the detections, which is why
    the item keeps its own session_id and ts.
    """

    session_id: str
    ts: int
    frame: Optional[Frame] = None
    record: Optional[DetectionRecord] = None
    motion: Optional[MotionRecord] = None


def frame_source(frames: Iterable[Frame]) -> Iterator[SourceItem]:
    for f in frames:
        yield SourceItem(session_id=f.session_id, ts=f.ts, frame=f)


def rows_source(rows: Iterable[CanonicalRow]) -> Iterator[SourceItem]:
    """Replay canonical rows (detections plus any recorded motion)."""
    for row in rows:
        rec = row.record
        # Positional (no frame): keyword arguments cost about 1 us more per item.
        yield SourceItem(rec.session_id, rec.ts, None, rec, row.motion)


# The whole flow image as an ROI.
_SCENE = np.ones(FLOW_DIMS[::-1], dtype=bool)
_SCENE.flags.writeable = False
_NO_CROSSINGS: tuple[CrossingEvent, ...] = ()


def _detected(
    detector: Optional[DetectorPort], session_id: str, ts: int, pre: Optional[PreprocessedFrame]
) -> DetectionRecord:
    """The detector port's record for one second, roles attributed to its
    person boxes; a failure inside the port is one AdapterError with context."""
    if detector is None:
        raise AdapterError("source item has no detections and no detector port is configured", session_id, ts)
    try:
        det = detector.detect(session_id, ts, pre)
    except AdapterError:
        raise
    except Exception as e:
        raise AdapterError(str(e), session_id, ts) from e
    boxes, confs = det.boxes, det.role_confidences
    if len(confs) != len(boxes):
        raise AdapterError(f"{len(confs)} role confidences for {len(boxes)} boxes", session_id, ts)
    attributed = iter(attribute_roles([c or {} for b, c in zip(boxes, confs) if b.cls == "person"]))
    roles = tuple(next(attributed) if b.cls == "person" else None for b in boxes)
    return DetectionRecord(session_id, ts, boxes, roles)


class _SessionState:
    """One session's inference state: window, previous flow frame, and the
    safety zone as an analysis-resolution Zone (crossings) whose flow-resolution
    mask (motion) is rasterized on the first frame pair; no store."""

    def __init__(self, cfg: PipelineConfig, session_id: str):
        self.cfg = cfg
        self.window = SmoothingWindow(cfg.smoothing_window_s)
        self.prev_frame: Optional[FlowFrame] = None
        self.zone: Optional[Zone] = None
        verts = cfg.zone_for(session_id)
        if verts:
            self.zone = Zone(expand_polygon(Polygon(verts), cfg.safety_zone_expansion), *ANALYSIS_DIMS)

    @cached_property
    def zone_flow(self) -> Optional[np.ndarray]:
        """The zone's motion mask at flow resolution, or None without a zone
        or when the mask is empty; only frame mode reads it."""
        if self.zone is None:
            return None
        sx, sy = FLOW_DIMS[0] / ANALYSIS_DIMS[0], FLOW_DIMS[1] / ANALYSIS_DIMS[1]
        flow_zone = Polygon(tuple((x * sx, y * sy) for x, y in self.zone.polygon.vertices))
        mask = rasterize(flow_zone, *FLOW_DIMS)
        return mask if mask.any() else None

    def step(
        self, item: SourceItem, detector: Optional[DetectorPort]
    ) -> tuple[CanonicalRow, Sequence[CrossingEvent]]:
        """One second's row and zone crossings.

        preprocess -> the item's recorded record, or the detector port's output
        with attributed roles -> validate -> optical flow against the previous
        frame -> per-ROI motion -> crossings against the window's newest record
        -> window update -> logical state. A gap longer than one second drops
        the previous flow frame (motion restarts), and the smoothing window
        applies its own gap rule.
        """
        window, ts = self.window, item.ts
        contiguous = window.last_ts == ts - 1
        if not contiguous:
            self.prev_frame = None
        pre = None if item.frame is None else preprocess(item.frame)
        rec = item.record
        if rec is None:
            rec = _detected(detector, item.session_id, ts, pre)
        elif rec.session_id != item.session_id or rec.ts != ts:
            raise MalformedRecord(f"record {rec.session_id}@{rec.ts} on source item {item.session_id}@{ts}")
        rec = validate_record(rec, ANALYSIS_DIMS)
        # Only the flow image outlives detection; the analysis images go now.
        cur_frame = None if pre is None else FlowFrame(pre.flow_gray)
        pre = None

        motion = item.motion
        if cur_frame is not None:
            if motion is None and self.prev_frame is not None:
                flow = farneback_flow(self.prev_frame, cur_frame, self.cfg.flow)
                mags = {"scene": roi_motion(flow, _SCENE)}
                bed_mask = bed_roi_from_detection(rec, *FLOW_DIMS)
                if bed_mask is not None:
                    mags["bed"] = roi_motion(flow, bed_mask)
                if self.zone_flow is not None:
                    mags["safety_zone"] = roi_motion(flow, self.zone_flow)
                motion = MotionRecord(mags)
            self.prev_frame = cur_frame

        crossings = _NO_CROSSINGS
        if self.zone is not None and contiguous:
            crossings = detect_crossings(window.newest, rec, self.zone)
        window.push(rec, motion)
        return CanonicalRow(rec, motion, derive_state(window, self.cfg)), crossings


@dataclass
class PipelineStats:
    sessions: int
    rows: int
    crossings: int
    elapsed_s: float
    sealed_segments: list[str]


def run_pipeline(
    source: Iterable[SourceItem],
    cfg: PipelineConfig,
    store: Store,
    detector: Optional[DetectorPort] = None,
) -> PipelineStats:
    """Step each item through its session's state and persist what it returns.

    A session's state is made when its first item arrives. Each second's
    crossings, then its row, go to the run's one store writer, which seals
    every session once the source is exhausted, or discards the run on any
    exception, from the source or from sealing included.
    """
    t0 = time.perf_counter()
    states: dict[str, _SessionState] = {}
    rows = crossings = 0
    with store.writer() as writer:
        for item in source:
            st = states.get(item.session_id)
            if st is None:
                st = states[item.session_id] = _SessionState(cfg, item.session_id)
            row, events = st.step(item, detector)
            if events:
                for event in events:
                    writer.append_crossing(event)
                crossings += len(events)
            writer.append(row)
            rows += 1
    return PipelineStats(len(states), rows, crossings, time.perf_counter() - t0, writer.sealed)


@dataclass(frozen=True)
class IngestReport:
    rows_ok: int
    rows_rejected: int
    errors: tuple[tuple[int, str], ...]  # (line number, message)
    sealed_segments: tuple[str, ...]

    def summary(self) -> str:
        lines = [f"ingested {self.rows_ok} rows, rejected {self.rows_rejected}"]
        lines += [f"  line {n}: {msg}" for n, msg in self.errors]
        return "\n".join(lines)


def _canonical_rows(path) -> Iterator[tuple[int, Callable[[], CanonicalRow]]]:
    """Adapter for canonical JSONL: one row per non-blank line."""
    for lineno, line in jsonl_lines(path):
        yield lineno, partial(loads_row, line)


def _flat_csv_row(lines: list[dict]) -> CanonicalRow:
    """One record from the flat-csv lines of one session-second."""
    try:
        boxes = tuple(
            BoundingBox(raw["cls"], *(float(raw[k]) for k in ("x", "y", "w", "h", "conf")))
            for raw in lines
        )
        roles = tuple(
            RoleDistribution({r: float(raw[r]) for r in ROLES})
            if raw["cls"] == "person"
            else None
            for raw in lines
        )
        first = lines[0]
        record = DetectionRecord(shared_id(first["session_id"]), int(first["ts"]), boxes, roles)
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaMismatch(f"bad flat-csv line: {e}") from None
    return CanonicalRow(record)


def _flat_csv_rows(path) -> Iterator[tuple[int, Callable[[], CanonicalRow]]]:
    """Adapter for a flat per-box CSV export.

    Columns: session_id,ts,cls,x,y,w,h,conf,patient,staff,other (role columns
    empty for non-person rows). Lines sharing session_id and integer ts form
    one record, numbered by its first line; a line whose ts is not an integer
    is a record of its own, which fails to parse. A line is numbered by the
    file line it starts on, past quoted line breaks and blank lines.
    """
    groups: dict[tuple[str, int], list[tuple[int, dict]]] = {}
    reader = csv.reader(text_lines(path, newline=""))
    header = next(reader, None)
    required = {"session_id", "ts", "cls", "x", "y", "w", "h", "conf"}
    if header is None or not required <= set(header):
        raise SchemaMismatch(f"flat-csv needs columns {sorted(required)}, got {header}")
    lineno = reader.line_num + 1
    for fields in reader:
        if fields:  # a blank line holds no record
            raw = dict(zip_longest(header, fields))
            try:
                key = (raw["session_id"], int(raw["ts"]))
            except (TypeError, ValueError):
                yield lineno, partial(_flat_csv_row, [raw])
            else:
                groups.setdefault(key, []).append((lineno, raw))
        lineno = reader.line_num + 1
    for members in groups.values():
        yield members[0][0], partial(_flat_csv_row, [raw for _, raw in members])


ADAPTERS = {"canonical": _canonical_rows, "flat-csv": _flat_csv_rows}


def ingest_external(path, adapter: str, store: Store) -> IngestReport:
    """Map an external export into the canonical store.

    The adapter yields (line number, parse) pairs. Each row is parsed and
    validated; one that fails either step, or repeats an earlier row's
    session and ts, is rejected with its line number and the rest are
    ingested. The kept rows go to one store writer in session then ts order,
    which seals every session together and, on any exception, discards them
    together. Re-ingesting the same file leaves the store byte-identical.
    """
    if adapter not in ADAPTERS:
        raise UnknownAdapter(f"unknown adapter {adapter!r}; available: {tuple(ADAPTERS)}")

    errors: list[tuple[int, str]] = []
    rows: dict[tuple[str, int], CanonicalRow] = {}
    for lineno, parse in ADAPTERS[adapter](path):
        try:
            row = parse()
            rec = validate_record(row.record, ANALYSIS_DIMS)
        except ValidationError as e:
            errors.append((lineno, str(e)))
            continue
        key = (rec.session_id, rec.ts)
        if key in rows:
            errors.append((lineno, f"duplicate ts {rec.ts} for session {rec.session_id}"))
            continue
        rows[key] = CanonicalRow(rec, row.motion, row.logical)

    with store.writer() as writer:
        for _, row in sorted(rows.items()):
            writer.append(row)
    return IngestReport(
        rows_ok=len(rows),
        rows_rejected=len(errors),
        errors=tuple(sorted(errors)),
        sealed_segments=tuple(writer.sealed),
    )
