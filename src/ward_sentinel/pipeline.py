"""Streaming runtime: preprocessing, the detector port, per-second inference,
persistence, and external ingest. Recorded detection records pass straight to
validation; frames go through the detector port and role attribution. Both
ingest adapters feed one parse-validate loop that rejects a bad row by its line.

Per-session inference state is the smoothing window and the previous flow
frame, a FlowFrame that keeps the polynomial expansions of its pyramid levels
from the pair it was the current frame of, so each frame is expanded once; a
gap of more than one second drops it. Preprocessing builds the flow image
straight from the captured pixels; the 1088x612 analysis image, and the
detector-resolution image made from it, are resized only when a detector
port reads `PreprocessedFrame.analysis` or `.detector`. After detection only
the flow image of a frame is kept. The store writer stages every row until
the run ends, so memory grows with run length, and resuming a session on the
same UTC date rewrites that date's segment (ROADMAP.md, item 3). Sessions
are independent; within a session the stages are strictly sequential (flow
needs the previous frame, the window needs order).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import groupby, zip_longest
from typing import Callable, Iterable, Iterator, Mapping, Optional

import numpy as np

from .errors import AdapterError, MalformedRecord, SchemaMismatch, TooSmallInput, UnknownAdapter, ValidationError
from .flow import FlowFrame, MotionRecord, farneback_flow, roi_motion
from .geometry import Polygon, RoiMask, bed_roi_from_detection, detect_crossings, expand_polygon, rasterize
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
    validate_record,
)
from .schema import CanonicalRow, jsonl_lines, loads_row
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
    if min(frame.width, frame.height) < MIN_INPUT_DIM:
        raise TooSmallInput(
            f"frame {frame.width}x{frame.height} below minimum {MIN_INPUT_DIM}px"
        )
    flow_gray = resize_luma_via(frame.pixels, *ANALYSIS_DIMS, *FLOW_DIMS)
    return PreprocessedFrame(flow_gray=flow_gray, pixels=frame.pixels)


@dataclass(frozen=True)
class DetectorOutput:
    """Raw detector port result for one frame.

    role_confidences runs parallel to boxes: per-role detector scores that
    attribute_roles turns into distributions. Non-person entries are ignored;
    a person whose entry is None or empty gets the flagged uniform fallback.
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


@dataclass(frozen=True)
class SourceItem:
    """One second of input: a frame, a recorded DetectionRecord with the item's
    session_id and ts, or both, plus any recorded motion for that same second.
    Without a record, the detector port supplies the detections.
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
        yield SourceItem(session_id=rec.session_id, ts=rec.ts, record=rec, motion=row.motion)


def _scale_record(rec: DetectionRecord, sx: float, sy: float) -> DetectionRecord:
    boxes = tuple(
        replace(b, x=b.x * sx, y=b.y * sy, w=b.w * sx, h=b.h * sy) for b in rec.boxes
    )
    return replace(rec, boxes=boxes)


def _scale_polygon(p: Polygon, sx: float, sy: float) -> Polygon:
    return Polygon(tuple((x * sx, y * sy) for x, y in p.vertices))


class _SessionState:
    def __init__(self, cfg: PipelineConfig, session_id: str, store: Store):
        self.window = SmoothingWindow(cfg.smoothing_window_s)
        self.prev_frame: Optional[FlowFrame] = None
        self.writer = store.writer(session_id)
        self.zone_analysis: Optional[RoiMask] = None
        self.zone_flow: Optional[RoiMask] = None
        verts = cfg.zone_for(session_id)
        if verts:
            zone = expand_polygon(Polygon(verts), cfg.safety_zone_expansion)
            self.zone_analysis = rasterize(zone, *ANALYSIS_DIMS, kind="safety_zone")
            fx = FLOW_DIMS[0] / ANALYSIS_DIMS[0]
            fy = FLOW_DIMS[1] / ANALYSIS_DIMS[1]
            self.zone_flow = rasterize(
                _scale_polygon(zone, fx, fy), *FLOW_DIMS, kind="safety_zone"
            )


@dataclass
class PipelineStats:
    sessions: int = 0
    rows: int = 0
    crossings: int = 0
    elapsed_s: float = 0.0
    sealed_segments: list[str] = field(default_factory=list)


def run_pipeline(
    source: Iterable[SourceItem],
    cfg: PipelineConfig,
    store: Store,
    detector: Optional[DetectorPort] = None,
) -> PipelineStats:
    """Drive the per-second chain and persist canonical rows.

    For each item: preprocess -> the item's recorded record, or the detector
    port's output with attributed roles -> validate -> optical flow against
    the previous frame -> per-ROI motion -> window update -> logical state ->
    append. A source gap longer than one second drops the previous flow frame
    (motion restarts), and the smoothing window applies its own gap rule.
    """
    t0 = time.perf_counter()
    stats = PipelineStats()
    states: dict[str, _SessionState] = {}
    scene_mask = RoiMask.scene(*FLOW_DIMS)
    fx = FLOW_DIMS[0] / ANALYSIS_DIMS[0]
    fy = FLOW_DIMS[1] / ANALYSIS_DIMS[1]

    for item in source:
        st = states.get(item.session_id)
        if st is None:
            st = states[item.session_id] = _SessionState(cfg, item.session_id, store)
            stats.sessions += 1
        contiguous = st.window.last_ts == item.ts - 1
        if not contiguous:
            st.prev_frame = None

        pre: Optional[PreprocessedFrame] = None
        if item.frame is not None:
            pre = preprocess(item.frame)

        rec = item.record
        if rec is None:
            if detector is None:
                raise AdapterError(
                    "source item has no detections and no detector port is configured",
                    item.session_id,
                    item.ts,
                )
            try:
                det = detector.detect(item.session_id, item.ts, pre)
            except AdapterError:
                raise
            except Exception as e:
                raise AdapterError(str(e), item.session_id, item.ts) from e
            if len(det.role_confidences) != len(det.boxes):
                raise AdapterError(
                    f"{len(det.role_confidences)} role confidences for {len(det.boxes)} boxes",
                    item.session_id,
                    item.ts,
                )
            confs = zip(det.boxes, det.role_confidences)
            person_confs = [c or {} for b, c in confs if b.cls == "person"]
            attributed = iter(attribute_roles(person_confs))
            roles = tuple(
                next(attributed) if b.cls == "person" else None for b in det.boxes
            )
            rec = DetectionRecord(item.session_id, item.ts, det.boxes, roles)
        elif (rec.session_id, rec.ts) != (item.session_id, item.ts):
            raise MalformedRecord(
                f"record {rec.session_id}@{rec.ts} on source item {item.session_id}@{item.ts}"
            )
        rec = validate_record(rec, ANALYSIS_DIMS)
        # Only the flow image outlives detection; the analysis images go now.
        cur_frame = None if pre is None else FlowFrame(pre.flow_gray)
        pre = None

        motion = item.motion
        if motion is not None and (motion.session_id, motion.ts) != (item.session_id, item.ts):
            raise MalformedRecord(
                f"motion {motion.session_id}@{motion.ts} on source item {item.session_id}@{item.ts}"
            )
        if motion is None and cur_frame is not None and st.prev_frame is not None:
            flow = farneback_flow(st.prev_frame, cur_frame, cfg.flow)
            mags = {"scene": roi_motion(flow, scene_mask)}
            bed_mask = bed_roi_from_detection(_scale_record(rec, fx, fy), *FLOW_DIMS)
            if bed_mask is not None and bed_mask.count():
                mags["bed"] = roi_motion(flow, bed_mask)
            if st.zone_flow is not None and st.zone_flow.count():
                mags["safety_zone"] = roi_motion(flow, st.zone_flow)
            motion = MotionRecord(item.session_id, item.ts, mags)
        if cur_frame is not None:
            st.prev_frame = cur_frame

        if st.zone_analysis is not None and contiguous:
            for event in detect_crossings(st.window.newest, rec, st.zone_analysis):
                st.writer.append_crossing(event)
                stats.crossings += 1

        st.window.push(rec, motion)
        logical = derive_state(st.window, cfg)
        st.writer.append(CanonicalRow(record=rec, motion=motion, logical=logical))
        stats.rows += 1

    for st in states.values():
        stats.sealed_segments.extend(st.writer.seal())
    stats.elapsed_s = time.perf_counter() - t0
    return stats


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
        record = DetectionRecord(first["session_id"], int(first["ts"]), boxes, roles)
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
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
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
    ingested. Re-ingesting the same file leaves the store byte-identical.
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

    sealed: list[str] = []
    for sid, group in groupby(sorted(rows.items()), key=lambda pair: pair[0][0]):
        writer = store.writer(sid)
        for _, row in group:
            writer.append(row)
        sealed.extend(writer.seal())
    return IngestReport(
        rows_ok=len(rows),
        rows_rejected=len(errors),
        errors=tuple(sorted(errors)),
        sealed_segments=tuple(sealed),
    )
