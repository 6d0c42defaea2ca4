"""Canonical JSONL record schema and frame-label parsing.

One object per monitored second:

    {"session_id": ..., "ts": ..., "boxes": [{"cls","x","y","w","h","conf"}],
     "roles": [null | {"patient","staff","other"}],
     "motion": {"scene","bed","safety_zone"},      # optional, keys per ROI
     "logical": {"person_alone","patient_alone","supervised_by_staff",
                 "moving","smoothed_person_count"}} # optional

motion/logical are absent on ingest and filled by the pipeline. Rows are
serialized with sorted keys and no whitespace so identical content is
byte-identical. Floats survive the round trip exactly (repr-based JSON);
NaN and Infinity are rejected on read, and each value is checked once on
construction or decode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .errors import SchemaMismatch
from .evaluation import FrameLabel
from .flow import MotionRecord
from .logic import LogicalState
from .model import BoundingBox, DetectionRecord, RoleDistribution

SCHEMA_VERSION = 1
_MOTION_KEYS = ("scene", "bed", "safety_zone")
_LOGICAL_FLAGS = ("person_alone", "patient_alone", "supervised_by_staff", "moving")


@dataclass(frozen=True)
class CanonicalRow:
    record: DetectionRecord
    motion: Optional[MotionRecord] = None
    logical: Optional[LogicalState] = None


def row_to_obj(row: CanonicalRow) -> dict:
    rec = row.record
    obj = {
        "session_id": rec.session_id,
        "ts": rec.ts,
        "boxes": [
            {"cls": b.cls, "x": b.x, "y": b.y, "w": b.w, "h": b.h, "conf": b.confidence}
            for b in rec.boxes
        ],
        "roles": [None if r is None else dict(r.scores) for r in rec.roles],
    }
    if row.motion is not None:
        obj["motion"] = dict(row.motion.magnitudes)
    if row.logical is not None:
        s = row.logical
        obj["logical"] = {
            "person_alone": s.person_alone,
            "patient_alone": s.patient_alone,
            "supervised_by_staff": s.supervised_by_staff,
            "moving": s.moving,
            "smoothed_person_count": s.smoothed_person_count,
        }
    return obj


ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps_row(row: CanonicalRow) -> str:
    return ENCODER.encode(row_to_obj(row))


def _session_and_ts(obj: dict) -> tuple[str, int]:
    """A parsed object's session_id (a str) and ts (exactly an int, not a bool)."""
    session_id, ts = obj["session_id"], obj["ts"]
    if type(session_id) is not str:
        raise TypeError(f"session_id must be a string, got {session_id!r}")
    if type(ts) is not int:
        raise TypeError(f"ts must be an integer, got {ts!r}")
    return session_id, ts


def _check_number(value, name: str) -> None:
    """A stored magnitude or count is a JSON number: bool and str are not."""
    if type(value) is not float and type(value) is not int:
        raise TypeError(f"{name} must be a number, got {value!r}")


def obj_to_row(obj: dict) -> CanonicalRow:
    """The row of a parsed canonical object; each value is checked once."""
    try:
        session_id, ts = _session_and_ts(obj)
        boxes = tuple(
            [BoundingBox(b["cls"], b["x"], b["y"], b["w"], b["h"], b["conf"]) for b in obj["boxes"]]
        )
        roles = tuple([None if r is None else RoleDistribution(r) for r in obj["roles"]])
        record = DetectionRecord(session_id, ts, boxes, roles)
        motion = None
        if obj.get("motion") is not None:
            mags = obj["motion"]
            if type(mags) is not dict:
                raise TypeError(f"motion must be an object, got {mags!r}")
            unknown = set(mags) - set(_MOTION_KEYS)
            if unknown:
                raise SchemaMismatch(f"unknown motion keys {sorted(unknown)}")
            for k, v in mags.items():
                _check_number(v, f"motion {k}")
            motion = MotionRecord(session_id, ts, mags)
        logical = None
        if obj.get("logical") is not None:
            lg = obj["logical"]
            flags = {k: lg[k] for k in _LOGICAL_FLAGS}
            for k, v in flags.items():
                if type(v) is not bool:
                    raise TypeError(f"logical {k} must be true or false, got {v!r}")
            count = lg["smoothed_person_count"]
            _check_number(count, "smoothed_person_count")
            logical = LogicalState(
                session_id=session_id, ts=ts, smoothed_person_count=float(count), **flags
            )
        return CanonicalRow(record, motion, logical)
    except SchemaMismatch:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaMismatch(f"bad canonical row: {e}") from None


def _reject_constant(name: str):
    raise SchemaMismatch(f"non-finite number {name} is not allowed")


# NaN/Infinity are not JSON; Python's decoder accepts them unless told not to.
# Every JSON input (rows, frame labels, config, scenario specs, the store
# manifest) is decoded with this one decoder.
DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def loads_row(line: str) -> CanonicalRow:
    try:
        obj = DECODER.decode(line)
    except json.JSONDecodeError as e:
        raise SchemaMismatch(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise SchemaMismatch("canonical row must be a JSON object")
    return obj_to_row(obj)


def obj_to_label(obj: dict) -> FrameLabel:
    try:
        session_id, ts = _session_and_ts(obj)
        return FrameLabel(
            session_id=session_id,
            ts=ts,
            boxes=tuple(
                BoundingBox(b["cls"], b["x"], b["y"], b["w"], b["h"], b.get("conf", 1.0))
                for b in obj["boxes"]
            ),
            roles=tuple(b.get("role") for b in obj["boxes"]),
            in_bed=obj.get("in_bed"),
            exceptions=obj.get("exceptions", ()),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaMismatch(f"bad frame label: {e}") from None


def jsonl_lines(path) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped line) for each non-blank line of a file."""
    with open(path) as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield i, line


def parse_jsonl(path, parse: Callable[[str], object]) -> Iterator:
    """parse(line) for each non-blank line of a file; a SchemaMismatch names path:line."""
    for i, line in jsonl_lines(path):
        try:
            item = parse(line)
        except SchemaMismatch as e:
            raise SchemaMismatch(f"{path}:{i}: {e}") from None
        yield item


def _label(line: str) -> FrameLabel:
    try:
        return obj_to_label(DECODER.decode(line))
    except json.JSONDecodeError as e:
        raise SchemaMismatch(str(e)) from None


def read_labels_jsonl(path) -> list[FrameLabel]:
    return list(parse_jsonl(path, _label))


def read_rows_jsonl(path) -> list[CanonicalRow]:
    """A list on purpose: a lazy reader measured slower on replay (CHANGES.md)."""
    return list(parse_jsonl(path, loads_row))


def write_rows_jsonl(rows, path) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(dumps_row(row) + "\n")
