"""loads_row parses a stored row with orjson and hands every line orjson cannot
be trusted with to the json decoder path, _loads_row_json. For any line the
two must agree: equal rows, down to the bytes dumps_row writes and the type of
every box field, or the same error class with the same message."""

import re

import orjson
import pytest
from hypothesis import given, settings, strategies as st

from ward_sentinel.errors import SchemaMismatch
from ward_sentinel.flow import ROI_KINDS, MotionRecord
from ward_sentinel.logic import LogicalState
from ward_sentinel.model import CLASSES, TS_MAX, TS_MIN, BoundingBox, DetectionRecord, RoleDistribution
from ward_sentinel.schema import CanonicalRow, _loads_row_json, dumps_row, loads_row

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
def _rows(draw):
    session_id, ts = draw(_SESSION), draw(st.integers(TS_MIN, TS_MAX))
    box = st.builds(BoundingBox, st.sampled_from(CLASSES), _COORD, _COORD, _SIZE, _SIZE, _CONF)
    boxes = draw(st.lists(box, max_size=4))
    roles = [draw(st.one_of(st.none(), _roles())) for _ in boxes]
    motion = None
    if draw(st.booleans()):
        kinds = draw(st.lists(st.sampled_from(ROI_KINDS), unique=True))
        motion = MotionRecord({k: draw(_MAGNITUDE) for k in kinds})
    logical = None
    if draw(st.booleans()):
        alone = draw(st.booleans())
        logical = LogicalState(
            session_id, ts, alone, alone and draw(st.booleans()), not alone and draw(st.booleans()),
            draw(st.booleans()), draw(_MAGNITUDE),
        )
    return CanonicalRow(DetectionRecord(session_id, ts, tuple(boxes), tuple(roles)), motion, logical)


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
