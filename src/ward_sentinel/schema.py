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
in sorted() order. The record types hold each value in the one type it is
stored as, so each has one text, the one ENCODER writes: a box class is a
CLASSES entry, the session id exactly a str (encode_basestring_ascii), ts
exactly an int (%d), a flag a bool (true/false) and every other number a
plain int or float (%r; a numpy scalar from a detector port is converted on
construction, and stored floats are finite by construction). A motion holds
only its magnitudes: the row's session id and ts are its record's, written
once. Floats survive the round trip exactly; NaN and Infinity are rejected
on read.
Each value is checked once, by the record type that holds it: obj_to_row only
maps JSON onto the constructors, so a row built through the API meets the
rules a read row does.

Decoded rows share their strings rather than each keeping the copies the JSON
scanner made for it: a box's cls is the CLASSES entry, role scores are keyed
by the ROLES entries and kept in ROLES order, motion magnitudes are keyed by
the ROI_KINDS entries, and the session id goes through sys.intern
(shared_id). Unlike a module-level cache, the interned table does not keep a
string alive: CPython 3.11 frees it with its last holder.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, Optional

from .errors import MalformedRecord, SchemaMismatch
from .evaluation import FrameLabel
from .flow import MotionRecord
from .logic import LogicalState
from .model import CLASSES, BoundingBox, DetectionRecord, RoleDistribution, slot_init

SCHEMA_VERSION = 1


@slot_init
@dataclass(frozen=True, slots=True)
class CanonicalRow:
    """One stored second. A logical must carry the record's session_id and
    ts, which are the only ones stored."""

    record: DetectionRecord
    motion: Optional[MotionRecord] = None
    logical: Optional[LogicalState] = None

    def __post_init__(self):
        rec, lg = self.record, self.logical
        if lg is not None and (lg.ts != rec.ts or lg.session_id != rec.session_id):
            raise MalformedRecord(f"logical {lg.session_id}@{lg.ts} on record {rec.session_id}@{rec.ts}")


ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# Box numbers and role scores are plain ints or floats (module docstring), so
# %r writes them as ENCODER does.
_BOX = '{"cls":%s,"conf":%r,"h":%r,"w":%r,"x":%r,"y":%r}'
_ROLE = '{"other":%r,"patient":%r,"staff":%r}'
_LOGICAL = (
    '"logical":{"moving":%s,"patient_alone":%s,"person_alone":%s,'
    '"smoothed_person_count":%r,"supervised_by_staff":%s},'
)
# What ENCODER writes for a box class (each a CLASSES entry) and for a bool:
# the per-row values that have a fixed text.
_CLASS_TEXT = {c: encode_basestring_ascii(c) for c in CLASSES}
_FLAG_TEXT = {True: "true", False: "false"}


def dumps_row(row: CanonicalRow) -> str:
    """ENCODER.encode of the row's canonical object (module docstring)."""
    rec, lg = row.record, row.logical
    boxes = [_BOX % (_CLASS_TEXT[b.cls], b.confidence, b.h, b.w, b.x, b.y) for b in rec.boxes]
    roles = [
        "null" if r is None else _ROLE % (r.scores["other"], r.scores["patient"], r.scores["staff"])
        for r in rec.roles
    ]
    text = '{"boxes":[' + ",".join(boxes) + "],"
    if lg is not None:
        flag = _FLAG_TEXT  # LogicalState keeps each flag a bool
        text += _LOGICAL % (flag[lg.moving], flag[lg.patient_alone], flag[lg.person_alone],
                            lg.smoothed_person_count, flag[lg.supervised_by_staff])
    if row.motion is not None:
        mags = row.motion.magnitudes  # ROI kinds to floats (MotionRecord)
        text += '"motion":{' + ",".join(['"%s":%r' % (k, mags[k]) for k in sorted(mags)]) + "},"
    text += '"roles":[' + ",".join(roles) + '],"session_id":' + encode_basestring_ascii(rec.session_id)
    return text + ',"ts":%d}' % rec.ts


def shared_id(session_id):
    """session_id through sys.intern when it is exactly a str, so that every
    row read with it holds one object; any other value is returned for the
    record type to reject."""
    return sys.intern(session_id) if type(session_id) is str else session_id


def obj_to_row(obj: dict) -> CanonicalRow:
    """The row of a parsed canonical object; the record types check each value."""
    try:
        session_id, ts = shared_id(obj["session_id"]), obj["ts"]
        boxes = [BoundingBox(b["cls"], b["x"], b["y"], b["w"], b["h"], b["conf"]) for b in obj["boxes"]]
        roles = [None if r is None else RoleDistribution(r) for r in obj["roles"]]
        record = DetectionRecord(session_id, ts, tuple(boxes), tuple(roles))
        mags, lg = obj.get("motion"), obj.get("logical")
        if mags is not None and type(mags) is not dict:
            raise TypeError(f"motion must be an object, got {mags!r}")
        return CanonicalRow(
            record,
            None if mags is None else MotionRecord(mags),
            None if lg is None else LogicalState(
                session_id, ts, lg["person_alone"], lg["patient_alone"],
                lg["supervised_by_staff"], lg["moving"], lg["smoothed_person_count"],
            ),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaMismatch(f"bad canonical row: {e}") from None


def _reject_constant(name: str):
    raise SchemaMismatch(f"non-finite number {name} is not allowed")


# NaN/Infinity are not JSON; Python's decoder accepts them unless told not to.
# Every JSON input (rows, frame labels, config, scenario specs, the store
# manifest) is decoded with this one decoder.
DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def loads_row(line: str) -> CanonicalRow:
    """The row of one line. A line that is exactly one JSON value is read by
    the decoder's scanner alone. Any other line (whitespace around the value,
    trailing data, invalid JSON, not a str) is read by DECODER.decode, so its
    result or error is decode's. The scanner raises StopIteration for an error
    at the first character, JSONDecodeError for one inside an object and
    TypeError for a line that is not a str."""
    try:
        obj, end = DECODER.scan_once(line, 0)
    except (StopIteration, json.JSONDecodeError, TypeError):
        end = -1
    if end != len(line):
        try:
            obj = DECODER.decode(line)
        except json.JSONDecodeError as e:
            raise SchemaMismatch(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise SchemaMismatch("canonical row must be a JSON object")
    return obj_to_row(obj)


def obj_to_label(obj: dict) -> FrameLabel:
    try:
        return FrameLabel(
            session_id=shared_id(obj["session_id"]),
            ts=obj["ts"],
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
