"""loads_row parses a stored row with orjson and hands every line orjson cannot
be trusted with to the json decoder path, _loads_row_json. For any line the
two must agree: equal rows, down to the bytes dumps_row writes and the type of
every box field, or the same error class with the same message.

dumps_row writes a row's body with orjson and hands every row orjson would
write differently to the template path, _dumps_row_template. For any row both
must write what ENCODER writes for the row's canonical object."""

import re
from collections import Counter

import orjson
import pytest
from hypothesis import given, settings, strategies as st

from ward_sentinel import schema
from ward_sentinel.errors import SchemaMismatch
from ward_sentinel.flow import ROI_KINDS, MotionRecord
from ward_sentinel.logic import LogicalState
from ward_sentinel.model import CLASSES, TS_MAX, TS_MIN, BoundingBox, DetectionRecord, RoleDistribution
from ward_sentinel.schema import ENCODER, CanonicalRow, _dumps_row_template, _loads_row_json, dumps_row, loads_row

BOX_FIELDS = ("x", "y", "w", "h", "confidence")


def _outcome(read, line):
    """A row as its stored bytes and its box field types, or an error as its class and text."""
    try:
        row = read(line)
    except Exception as e:  # noqa: BLE001  (the error itself is the outcome)
        return type(e), str(e)
    return dumps_row(row), [tuple(type(getattr(b, k)) for k in BOX_FIELDS) for b in row.record.boxes]


def _assert_same(line):
    got = _outcome(loads_row, line)
    assert got == _outcome(_loads_row_json, line)
    return got


_COORD = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False))
_SIZE = st.one_of(st.integers(min_value=1), st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
_CONF = st.one_of(st.integers(0, 1), st.floats(0.0, 1.0))
_MAGNITUDE = st.one_of(st.integers(min_value=0, max_value=2**70), st.floats(min_value=0.0, allow_infinity=False))
_SESSION = st.one_of(st.text(max_size=8), st.sampled_from(["zimmer-é", "\ud800", "a\udcff", "\x00"]))


@st.composite
def _roles(draw):
    p = draw(st.floats(0.0, 1.0))
    s = draw(st.floats(0.0, 1.0 - p))
    return RoleDistribution({"patient": p, "staff": s, "other": 1.0 - p - s})


@st.composite
def _rows(draw, coord=_COORD, size=_SIZE, conf=_CONF, magnitude=_MAGNITUDE, session=_SESSION, roles=_roles()):
    session_id, ts = draw(session), draw(st.integers(TS_MIN, TS_MAX))
    box = st.builds(BoundingBox, st.sampled_from(CLASSES), coord, coord, size, size, conf)
    boxes = draw(st.lists(box, max_size=4))
    role_list = [draw(st.one_of(st.none(), roles)) for _ in boxes]
    motion = None
    if draw(st.booleans()):
        kinds = draw(st.lists(st.sampled_from(ROI_KINDS), unique=True))
        motion = MotionRecord({k: draw(magnitude) for k in kinds})
    logical = None
    if draw(st.booleans()):
        alone = draw(st.booleans())
        logical = LogicalState(
            session_id, ts, alone, alone and draw(st.booleans()), not alone and draw(st.booleans()),
            draw(st.booleans()), draw(magnitude),
        )
    return CanonicalRow(DetectionRecord(session_id, ts, tuple(boxes), tuple(role_list)), motion, logical)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_rows())
def test_written_rows_read_back_alike_on_both_paths(row):
    line = dumps_row(row)
    assert _assert_same(line)[0] == line


# A stored row, with int and float box fields, all three motion kinds and a logical.
GOOD = dumps_row(CanonicalRow(
    DetectionRecord(
        "room-1", 1_700_000_000,
        (BoundingBox("bed", 300, 200.5, 400, 250.25, 0.92), BoundingBox("person", 410.75, 260, 80.5, 140, 1)),
        (None, RoleDistribution({"patient": 0.9, "staff": 0.05, "other": 0.05})),
    ),
    MotionRecord({"bed": 0.5, "safety_zone": 0, "scene": 1.25}),
    LogicalState("room-1", 1_700_000_000, True, True, False, True, 1.0),
))
# A string, a number, a literal or one other character.
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|true|false|null|.', re.S)
_VALUES = [
    "-9223372036854775809", "18446744073709551616", "9223372036854775808", "-9223372036854775808",
    "1e400", "-1e400", "1e-400", "NaN", "Infinity", "-0", "0", "0.5", "1", "2.0", "1E2", "1.7976931348623157e308",
    '"\\ud800"', '"\\udcff\\ud800"', '"s"', '"person"', "true", "false", "null", "[]", "{}",
]
_SYNTAX = [
    "\ufeff", " ", "\t", "\r\n", "\n", "\x0c", "\u00a0",
    '"ts":5,', '"session_id":"t",', '"x":-9223372036854775809,', '"boxes":[],', '"motion":null,', '"logical":null,',
    "{", "}", "[", "]", ",", ":", '"',
]


@st.composite
def _mutated_lines(draw):
    """GOOD with one to three edits: a value swapped for another (most
    often, so that many lines still parse), or a token inserted, replaced or
    deleted; duplicate keys come from inserting a key that GOOD has."""
    tokens = _TOKEN.findall(GOOD)
    values = [i for i, t in enumerate(tokens) if t not in "{}[],:" and tokens[i + 1] != ":"]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("value",) * 5 + ("insert", "replace", "delete")))
        if op == "value":
            tokens[draw(st.sampled_from(values))] = draw(st.sampled_from(_VALUES))
            continue
        i = draw(st.integers(0, len(tokens) - 1))
        if op == "insert":
            tokens.insert(i, draw(st.sampled_from(_VALUES + _SYNTAX)))
        elif op == "replace":
            tokens[i] = draw(st.sampled_from(_VALUES + _SYNTAX))
        else:
            del tokens[i]
    return "".join(tokens)


def test_mutations_start_from_a_row_both_paths_read():
    assert "".join(_TOKEN.findall(GOOD)) == GOOD
    assert _assert_same(GOOD)[0] == GOOD


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(_mutated_lines())
def test_mutated_rows_read_alike_on_both_paths(line):
    _assert_same(line)


def test_an_int_box_coordinate_beyond_int64_stays_an_int():
    line = GOOD.replace('"x":300,', '"x":-9223372036854775809,')
    assert type(orjson.loads(line)["boxes"][0]["x"]) is float  # what the guard is for
    row = loads_row(line)
    x = row.record.boxes[0].x
    assert type(x) is int and x == -9223372036854775809
    assert dumps_row(row) == line
    assert _assert_same(line)[0] == line


def test_a_ts_beyond_uint64_is_outside_the_utc_dates():
    line = GOOD.replace('"ts":1700000000', '"ts":18446744073709551616')
    message = "bad canonical row: ts 18446744073709551616 is outside the UTC dates 0001-01-01 to 9999-12-31"
    with pytest.raises(SchemaMismatch) as err:
        loads_row(line)
    assert str(err.value) == message
    assert _assert_same(line) == (SchemaMismatch, message)


def test_an_infinite_motion_literal_is_refused_with_the_json_message():
    line = GOOD.replace('"scene":1.25', '"scene":1e400')
    message = "bad canonical row: motion magnitude for scene must be finite and >= 0: inf"
    assert _assert_same(line) == (SchemaMismatch, message)


class _Text(str):
    pass


@pytest.mark.parametrize(
    "line",
    [GOOD.encode(), bytearray(GOOD.encode()), memoryview(GOOD.encode()), _Text(GOOD), None],
    ids=["bytes", "bytearray", "memoryview", "str-subclass", "none"],
)
def test_a_line_that_is_not_exactly_a_str_is_read_by_json_alone(line):
    _assert_same(line)


def _canonical(row):
    """The canonical object of a row, as the module docstring of schema gives it."""
    rec, lg = row.record, row.logical
    obj = {
        "session_id": rec.session_id,
        "ts": rec.ts,
        "boxes": [{"cls": b.cls, "x": b.x, "y": b.y, "w": b.w, "h": b.h, "conf": b.confidence} for b in rec.boxes],
        "roles": [None if r is None else dict(r.scores) for r in rec.roles],
    }
    if row.motion is not None:
        obj["motion"] = dict(row.motion.magnitudes)
    if lg is not None:
        obj["logical"] = {
            "person_alone": lg.person_alone, "patient_alone": lg.patient_alone,
            "supervised_by_staff": lg.supervised_by_staff, "moving": lg.moving,
            "smoothed_person_count": lg.smoothed_person_count,
        }
    return obj


# Numbers that orjson 3.8 writes otherwise than repr (exponent form below 1e-5
# and from 1e16, positional form in [1e-5, 1e-4)) or refuses (an int outside
# [-2**63, 2**64)), the ints at those bounds, and -0.0.
_TINY = st.floats(0.0, 1e-5, exclude_min=True, exclude_max=True)
_SMALL = st.floats(1e-5, 1e-4, exclude_max=True)
_HUGE = st.floats(min_value=1e16, allow_infinity=False)
_BOUNDS = st.sampled_from([-(2**63) - 1, -(2**63), 2**63 - 1, 2**63, 2**64 - 1, 2**64])
_EDGE = st.one_of(_TINY, _SMALL, _HUGE, st.just(-0.0), st.just(0.0))
_EDGE_COORD = st.one_of(_EDGE, _EDGE.map(lambda v: -v), _BOUNDS, _COORD)
_EDGE_SIZE = st.one_of(_TINY, _SMALL, _HUGE, _BOUNDS.filter(lambda v: v > 0), _SIZE)
_EDGE_FRACTION = st.one_of(_TINY, _SMALL, st.just(-0.0), st.just(0.0), st.floats(0.0, 1.0))
_ESCAPED = st.sampled_from(["zimmer-é", "\x00", 'a"b', "back\\slash", "tab\t", "\u2028", "\ud800"])


@st.composite
def _edge_roles(draw):
    p = draw(_EDGE_FRACTION)
    s = draw(st.one_of(_TINY, _SMALL, st.just(0.0), st.floats(0.0, 1.0 - p)).filter(lambda v: p + v <= 1.0))
    return RoleDistribution({"patient": p, "staff": s, "other": 1.0 - p - s})


_EDGE_ROWS = _rows(
    coord=_EDGE_COORD, size=_EDGE_SIZE, conf=_EDGE_FRACTION,
    magnitude=st.one_of(_TINY, _SMALL, _HUGE, st.just(-0.0), _BOUNDS.filter(lambda v: v >= 0), _MAGNITUDE),
    session=st.one_of(_ESCAPED, _SESSION), roles=_edge_roles(),
)


def _counting_template(monkeypatch):
    """Patch dumps_row's reference path to count its calls; returns the count."""
    calls = Counter()
    template = schema._dumps_row_template

    def counted(row):
        calls["template"] += 1
        return template(row)

    monkeypatch.setattr(schema, "_dumps_row_template", counted)
    return calls


def _path_of(calls, row):
    """Which path dumps_row takes for row, having checked it writes the
    reference bytes, which are ENCODER's."""
    before = calls["template"]
    line = schema.dumps_row(row)
    path = "orjson" if calls["template"] == before else "template"
    assert line == _dumps_row_template(row) == ENCODER.encode(_canonical(row))
    return path


@pytest.mark.parametrize("rows,n", [(_rows(), 400), (_EDGE_ROWS, 600)], ids=["rows", "edge-rows"])
def test_both_encoder_paths_write_encoder_bytes_and_each_is_taken(monkeypatch, rows, n):
    calls = _counting_template(monkeypatch)
    paths = Counter()

    @settings(max_examples=n, deadline=None, derandomize=True, database=None)
    @given(rows)
    def check(row):
        paths[_path_of(calls, row)] += 1

    check()
    assert paths["orjson"] > 0 and paths["template"] > 0, paths


def _row_with(x=1.0, w=2.0, conf=0.5, magnitude=0.25, count=1.0, session_id="room-1"):
    return CanonicalRow(
        DetectionRecord(session_id, 1_700_000_000, (BoundingBox("person", x, 3.0, w, 4.0, conf),),
                        (RoleDistribution({"patient": 0.9, "staff": 0.05, "other": 0.05}),)),
        MotionRecord({"scene": magnitude, "bed": 0.5}),
        LogicalState(session_id, 1_700_000_000, True, True, False, True, count),
    )


# One value in each range where orjson writes a number otherwise than repr or
# refuses it: each must take the template path.
_DIFFERS = {
    "tiny-x": dict(x=1.5e-7), "tiny-w": dict(w=5e-324), "tiny-conf": dict(conf=2.5e-6),
    "small-x": dict(x=1.52e-5), "small-x-negative": dict(x=-1e-5), "small-magnitude": dict(magnitude=9.99e-5),
    "huge-x": dict(x=1e16), "huge-w": dict(w=1.7976931348623157e308), "huge-count": dict(count=2.5e17),
    "int-below-int64": dict(x=-(2**63) - 1), "int-at-uint64": dict(x=2**64), "int-w-at-uint64": dict(w=2**64),
}
# Values next to those ranges that orjson writes as repr does: the orjson path.
_SAME = {
    "plain": dict(), "negative-zero-x": dict(x=-0.0), "zero-magnitude": dict(magnitude=0.0),
    "int-at-int64-min": dict(x=-(2**63)), "int-below-uint64": dict(x=2**64 - 1), "int-at-2**63": dict(w=2**63),
    "just-under-1e16": dict(x=9999999999999998.0), "at-1e-4": dict(conf=1e-4), "non-ascii-id": dict(session_id="zimmer-é"),
    "nul-id": dict(session_id="\x00"), "quote-id": dict(session_id='a"b'), "surrogate-id": dict(session_id="\udcff"),
}


@pytest.mark.parametrize("fields,path", [(f, "template") for f in _DIFFERS.values()]
                         + [(f, "orjson") for f in _SAME.values()], ids=[*_DIFFERS, *_SAME])
def test_a_row_takes_the_template_path_exactly_where_orjson_writes_otherwise(monkeypatch, fields, path):
    row = _row_with(**fields)
    assert _path_of(_counting_template(monkeypatch), row) == path
    assert loads_row(dumps_row(row)) == row
