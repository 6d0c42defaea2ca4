"""Canonical JSONL record schema and frame-label parsing.

One object per monitored second:

    {"session_id": ..., "ts": ..., "boxes": [{"cls","x","y","w","h","conf"}],
     "roles": [null | {"patient","staff","other"}],
     "motion": {"scene","bed","safety_zone"},      # optional, keys per ROI
     "logical": {"person_alone","patient_alone","supervised_by_staff",
                 "moving","smoothed_person_count"}} # optional

motion/logical are absent on ingest and filled by the pipeline. A row is
stored as ENCODER (sorted keys, no whitespace) writes it, so identical content
is byte-identical. dumps_row writes those bytes from fixed templates, keys in
sorted order: {"boxes":[...],"logical":{...},"motion":{...},"roles":[...],
"session_id":...,"ts":...} without logical or motion when None, a box
{"cls","conf","h","w","x","y"}, a role {"other","patient","staff"}, motion keys
in sorted() order. As in ENCODER, a plain float is float.__repr__ (stored floats
are finite by construction), a plain int int.__repr__, a bool true/false and a
str encode_basestring_ascii; any other value (a float subclass, np.int64, a
motion key that is not a str) goes through ENCODER, for its bytes or its
TypeError. Floats survive the round trip exactly; NaN and Infinity are rejected
on read, and each value is checked once on construction or decode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, Optional

from .errors import SchemaMismatch
from .evaluation import FrameLabel
from .flow import MotionRecord
from .logic import LogicalState
from .model import BoundingBox, DetectionRecord, RoleDistribution

SCHEMA_VERSION = 1
_MOTION_KEYS = ("scene", "bed", "safety_zone")
_MOTION_KEY_SET = frozenset(_MOTION_KEYS)
_LOGICAL_FLAGS = ("person_alone", "patient_alone", "supervised_by_staff", "moving")


@dataclass(frozen=True, slots=True)
class CanonicalRow:
    record: DetectionRecord
    motion: Optional[MotionRecord] = None
    logical: Optional[LogicalState] = None


ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

_BOX = '{"cls":%s,"conf":%s,"h":%s,"w":%s,"x":%s,"y":%s}'
_ROLE = '{"other":%s,"patient":%s,"staff":%s}'
_LOGICAL = (
    '"logical":{"moving":%s,"patient_alone":%s,"person_alone":%s,'
    '"smoothed_person_count":%s,"supervised_by_staff":%s},'
)


def _value(v) -> str:
    """v as ENCODER writes it, without ENCODER's call for the common types."""
    t = type(v)
    if t is float or t is int:
        return repr(v)
    if t is bool:
        return "true" if v else "false"
    return encode_basestring_ascii(v) if t is str else ENCODER.encode(v)


def dumps_row(row: CanonicalRow) -> str:
    """ENCODER.encode of the row's canonical object (module docstring)."""
    rec, lg, v = row.record, row.logical, _value
    boxes = [_BOX % (v(b.cls), v(b.confidence), v(b.h), v(b.w), v(b.x), v(b.y)) for b in rec.boxes]
    roles = [
        "null" if r is None
        else _ROLE % (v(r.scores["other"]), v(r.scores["patient"]), v(r.scores["staff"]))
        for r in rec.roles
    ]
    text = '{"boxes":[' + ",".join(boxes) + "],"
    if lg is not None:
        text += _LOGICAL % (v(lg.moving), v(lg.patient_alone), v(lg.person_alone),
                            v(lg.smoothed_person_count), v(lg.supervised_by_staff))
    if row.motion is not None:
        mags = row.motion.magnitudes
        try:
            pairs = [encode_basestring_ascii(k) + ":" + v(mags[k]) for k in sorted(mags)]
            text += '"motion":{' + ",".join(pairs) + "},"
        except TypeError:  # a key that is not a str
            text += '"motion":' + ENCODER.encode(mags) + ","
    text += '"roles":[' + ",".join(roles) + '],"session_id":' + v(rec.session_id)
    return text + ',"ts":' + v(rec.ts) + "}"


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
        motion = logical = None
        mags = obj.get("motion")
        if mags is not None:
            if type(mags) is not dict:
                raise TypeError(f"motion must be an object, got {mags!r}")
            if not mags.keys() <= _MOTION_KEY_SET:
                unknown = sorted(mags.keys() - _MOTION_KEY_SET)
                raise SchemaMismatch(f"unknown motion keys {unknown}")
            for k, v in mags.items():
                if type(v) is not float:
                    _check_number(v, f"motion {k}")
            motion = MotionRecord(session_id, ts, mags)
        lg = obj.get("logical")
        if lg is not None:
            flags = a, b, c, d = [lg[k] for k in _LOGICAL_FLAGS]
            if not (type(a) is type(b) is type(c) is type(d) is bool):
                k, v = next((k, v) for k, v in zip(_LOGICAL_FLAGS, flags) if type(v) is not bool)
                raise TypeError(f"logical {k} must be true or false, got {v!r}")
            count = lg["smoothed_person_count"]
            if type(count) is not float:
                _check_number(count, "smoothed_person_count")
            logical = LogicalState(session_id, ts, a, b, c, d, float(count))
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
