"""Canonical JSONL record schema and frame-label parsing.

One object per monitored second:

    {"session_id": ..., "ts": ..., "boxes": [{"cls","x","y","w","h","conf"}],
     "roles": [null | {"patient","staff","other"}],
     "motion": {"scene","bed","safety_zone"},      # optional, keys per ROI
     "logical": {"person_alone","patient_alone","supervised_by_staff",
                 "moving","smoothed_person_count"}} # optional

motion/logical are absent on ingest and filled by the pipeline. A row is
stored as ENCODER (sorted keys, no whitespace) writes it, so identical content
is byte-identical, keys in sorted order: {"boxes":[...],"logical":{...},
"motion":{...},"roles":[...],"session_id":...,"ts":...} without logical or
motion when None, a box {"cls","conf","h","w","x","y"}, a role
{"other","patient","staff"}, motion keys in sorted() order. dumps_row writes
those bytes with orjson, and _dumps_row_template, its reference path, from
fixed templates. The record types hold each value in the one type it is
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
import re
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, Optional

from .errors import MalformedRecord, SchemaMismatch, ValidationError
from .evaluation import FrameLabel
from .flow import MotionRecord
from .logic import LogicalState
from .model import CLASSES, BoundingBox, DetectionRecord, RoleDistribution, slot_init, text_lines

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


# orjson 3.8 writes a float as repr does except in exponent form (1e16,
# 1.5e-7 where repr writes 1e+16, 1.5e-07) and in [1e-5, 1e-4), which it
# writes positionally (0.0000152 where repr writes 1.52e-05). No key, class
# name or literal of a row body holds ".0000" or an "e" followed by "-" or a
# digit, so a body that does holds a float orjson may have written
# differently, and dumps_row writes that row by the template path instead.
# One regex for both patterns measured about four times slower than the
# "in" test plus this one.
_EXPONENT = re.compile(r"e[-0-9]")


def _dumps_row_template(row: CanonicalRow) -> str:
    """ENCODER.encode of the row's canonical object (module docstring), from
    fixed templates with %r for every number: the reference path of dumps_row."""
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


def dumps_row(row: CanonicalRow) -> str:
    """ENCODER.encode of the row's canonical object (module docstring).
    orjson writes the body, every key but session_id and ts, and those two
    are appended as the template path writes them. _dumps_row_template, the
    reference path, writes the row instead when orjson refuses the body (an
    int outside [-2**63, 2**64)) or holds ".0000" or a match of _EXPONENT, so
    that the bytes are the template path's for every row. orjson is
    imported here, not with the module, so that commands that encode no row
    never load it."""
    import orjson

    rec, lg = row.record, row.logical
    body = {
        "boxes": [
            {"cls": b.cls, "conf": b.confidence, "h": b.h, "w": b.w, "x": b.x, "y": b.y} for b in rec.boxes
        ],
        "roles": [None if r is None else r.scores for r in rec.roles],
    }
    if lg is not None:
        body["logical"] = {
            "moving": lg.moving, "patient_alone": lg.patient_alone, "person_alone": lg.person_alone,
            "smoothed_person_count": lg.smoothed_person_count, "supervised_by_staff": lg.supervised_by_staff,
        }
    if row.motion is not None:
        body["motion"] = row.motion.magnitudes
    try:
        text = orjson.dumps(body, option=orjson.OPT_SORT_KEYS).decode()
    except orjson.JSONEncodeError:
        return _dumps_row_template(row)
    if ".0000" in text or _EXPONENT.search(text):
        return _dumps_row_template(row)
    return text[:-1] + ',"session_id":' + encode_basestring_ascii(rec.session_id) + ',"ts":%d}' % rec.ts


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
# Rows are parsed by orjson first (loads_row); every other JSON input (frame
# labels, config, scenario specs, the store manifest), and any row orjson
# cannot be trusted with, is decoded with this one decoder.
DECODER = json.JSONDecoder(parse_constant=_reject_constant)

# orjson 3.8 reads an integer literal outside [-2**63, 2**64) as a float where
# json keeps the int (-9223372036854775809 becomes -9.223372036854776e+18).
# A box coordinate is the one stored value that takes such a float without a
# ValidationError, which would change its type, its stored text and the text
# of a clamp error; loads_row reads a row with a coordinate this large by
# DECODER instead.
_ORJSON_EXACT = 2.0**63


def _loads_row_json(line: str) -> CanonicalRow:
    """The row of one line, by DECODER alone. A line that is exactly one JSON
    value is read by the decoder's scanner alone. Any other line (whitespace
    around the value, trailing data, invalid JSON, not a str) is read by
    DECODER.decode, so its result or error is decode's. The scanner raises
    StopIteration for an error at the first character, JSONDecodeError for
    one inside an object and TypeError for a line that is not a str."""
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


def loads_row(line: str) -> CanonicalRow:
    """The row of one line: orjson parses it and obj_to_row builds the row.
    _loads_row_json, the DECODER path, reads the line instead, and gives its
    row or its error, when the line is not exactly a str, when orjson refuses
    it, when obj_to_row raises a ValidationError (so every error and message
    is DECODER's), or when a box's x, y, w or h has a magnitude of 2**63 or
    more (_ORJSON_EXACT). Both paths give equal rows for every other line.
    orjson is imported here, not with the module, so that commands that
    decode no row never load it."""
    import orjson

    if type(line) is str:
        try:
            row = obj_to_row(orjson.loads(line))
        except (orjson.JSONDecodeError, ValidationError):
            pass
        else:
            big = _ORJSON_EXACT
            for b in row.record.boxes:
                if not (-big < b.x < big and -big < b.y < big and -big < b.w < big and -big < b.h < big):
                    break
            else:
                return row
    return _loads_row_json(line)


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
    """(1-based line number, stripped line) for each non-blank line of a
    file read as UTF-8 (text_lines)."""
    for i, line in enumerate(text_lines(path), start=1):
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
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(dumps_row(row) + "\n")
