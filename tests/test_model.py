import inspect
import itertools
import json
import pickle
import re
from dataclasses import MISSING, FrozenInstanceError, InitVar, dataclass, field, fields, replace
from functools import partial
from types import MappingProxyType

import numpy as np
import pytest

from ward_sentinel.errors import MalformedRecord, SchemaMismatch
from ward_sentinel.model import (
    ANALYSIS_DIMS,
    CLASSES,
    ROLES,
    BoundingBox,
    DetectionRecord,
    Frame,
    PipelineConfig,
    TS_MAX,
    TS_MIN,
    RoleDistribution,
    slot_init,
    validate_record,
)
from ward_sentinel.evaluation import FrameLabel
from ward_sentinel.flow import ROI_KINDS, MotionRecord
from ward_sentinel.logic import LogicalState
from ward_sentinel.pipeline import ADAPTERS, SourceItem
from ward_sentinel.schema import (
    DECODER,
    CanonicalRow,
    dumps_row,
    loads_row,
    obj_to_label,
    obj_to_row,
    parse_jsonl,
    read_labels_jsonl,
    read_rows_jsonl,
)

from conftest import make_record, person_box, role_dist


def test_clamp_negative_origin():
    rec = DetectionRecord(
        "s", 10, (BoundingBox("person", -3, 0, 50, 50, 0.9),), (role_dist("patient"),)
    )
    out = validate_record(rec, (100, 100))
    box = out.boxes[0]
    assert (box.x, box.y, box.w, box.h) == (0, 0, 47, 50)


def test_clamp_overhanging_edge():
    rec = DetectionRecord("s", 10, (BoundingBox("bed", 80, 90, 50, 50, 0.9),), (None,))
    out = validate_record(rec, (100, 100))
    box = out.boxes[0]
    assert (box.x, box.y, box.w, box.h) == (80, 90, 20, 10)


def test_person_without_role_rejected():
    rec = DetectionRecord("s", 10, (person_box(),), (None,))
    with pytest.raises(MalformedRecord):
        validate_record(rec, (1088, 612))


def test_role_count_mismatch_rejected():
    rec = DetectionRecord("s", 10, (person_box(),), (role_dist("patient"), None))
    with pytest.raises(MalformedRecord):
        validate_record(rec, (1088, 612))


def test_box_fully_outside_rejected():
    rec = DetectionRecord(
        "s", 10, (BoundingBox("person", 200, 200, 30, 30, 0.5),), (role_dist("staff"),)
    )
    with pytest.raises(MalformedRecord):
        validate_record(rec, (100, 100))


def test_non_person_role_realigned_to_none():
    rec = DetectionRecord(
        "s", 10, (BoundingBox("bed", 10, 10, 30, 30, 0.9),), (role_dist("patient"),)
    )
    out = validate_record(rec, (100, 100))
    assert out.roles == (None,)


def test_role_distribution_sum_enforced():
    with pytest.raises(ValueError):
        RoleDistribution({"patient": 0.5, "staff": 0.5, "other": 0.1})
    with pytest.raises(ValueError):
        RoleDistribution({"patient": 1.0, "staff": 0.0})


def test_role_distribution_range_enforced_when_the_sum_is_one():
    with pytest.raises(ValueError, match=r"score for patient out of \[0, 1\]: 1.25"):
        RoleDistribution({"patient": 1.25, "staff": -0.125, "other": -0.125})
    with pytest.raises(ValueError, match=r"score for other out of \[0, 1\]: -0.5"):
        RoleDistribution({"other": -0.5, "patient": 0.75, "staff": 0.75})


def test_role_distribution_tie_breaks_patient_first():
    d = RoleDistribution({"patient": 0.4, "staff": 0.4, "other": 0.2})
    assert d.primary() == "patient"
    d = RoleDistribution({"patient": 0.1, "staff": 0.45, "other": 0.45})
    assert d.primary() == "staff"


BAD_FRAME_BUFFERS = {
    "two-channels": (np.zeros((8, 10, 2), np.uint8), r"pixel buffer shape (8, 10, 2) is not (height, width, 1 or 3)"),
    "no-channel-axis": (np.zeros((8, 10), np.uint8), r"pixel buffer shape (8, 10) is not (height, width, 1 or 3)"),
    "no-rows": (np.zeros((0, 10, 3), np.uint8), "frame dimensions must be >= 1"),
    "no-columns": (np.zeros((8, 0, 1), np.uint8), "frame dimensions must be >= 1"),
    "float": (np.zeros((8, 10, 1)), "pixel buffer must be uint8"),
}


@pytest.mark.parametrize("pixels,message", BAD_FRAME_BUFFERS.values(), ids=BAD_FRAME_BUFFERS.keys())
def test_frame_buffer_validation(pixels, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Frame("s", 0, pixels)


@pytest.mark.parametrize("channels", [1, 3])
def test_frame_buffer_is_read_only(channels):
    f = Frame("s", 0, np.zeros((8, 10, channels), dtype=np.uint8))
    with pytest.raises(ValueError):
        f.pixels[0, 0, 0] = 1  # read-only after construction


def test_config_defaults_match_published_values():
    cfg = PipelineConfig()
    assert cfg.smoothing_window_s == 5
    assert cfg.safety_zone_expansion == 0.10
    assert (cfg.day_start_hour, cfg.night_start_hour) == (6, 21)
    assert (cfg.flow.pyr_scale, cfg.flow.levels, cfg.flow.winsize) == (0.5, 3, 15)
    assert (cfg.flow.iterations, cfg.flow.poly_n, cfg.flow.poly_sigma) == (3, 5, 1.2)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        PipelineConfig(smoothing_window_s=0)
    with pytest.raises(ValueError):
        PipelineConfig(iou_threshold=1.0)
    with pytest.raises(TypeError):
        PipelineConfig.from_dict({"motion_aggregation": "median"})  # unknown key


def test_validated_record_roundtrips_bit_exact(rng):
    for _ in range(50):
        n = int(rng.integers(0, 4))
        primaries = [str(rng.choice(("patient", "staff", "other"))) for _ in range(n)]
        rec = make_record("sess-7", int(rng.integers(0, 2**31)), primaries)
        rec = validate_record(rec, (1088, 612))
        row = CanonicalRow(rec)
        parsed = loads_row(dumps_row(row))
        assert parsed.record == rec
        assert dumps_row(parsed) == dumps_row(row)


def test_roundtrip_preserves_awkward_floats():
    box = BoundingBox("person", 0.1 + 0.2, 5.1e-17, 1e-3, 612.0, 1 / 3)
    rec = DetectionRecord("s", 1, (box,), (role_dist("other", conf=1 / 7),))
    parsed = loads_row(dumps_row(CanonicalRow(rec)))
    assert parsed.record == rec


NON_FINITE = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")}


@pytest.mark.parametrize("field", ("x", "y", "w", "h"))
@pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_box_rejects_non_finite_geometry(field, value):
    geometry = {"x": 10.0, "y": 10.0, "w": 20.0, "h": 30.0, field: value}
    with pytest.raises(ValueError, match="finite"):
        BoundingBox("person", confidence=0.5, **geometry)


@pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_motion_and_state_reject_non_finite(value):
    # The store must never seal a row that loads_row refuses.
    with pytest.raises(ValueError, match="finite"):
        MotionRecord({"scene": value})
    with pytest.raises(ValueError, match="finite"):
        LogicalState("s", 7, True, True, False, False, value)


def _full_row_obj() -> dict:
    rec = make_record("s", 7, ["patient"])
    motion = MotionRecord({"scene": 0.3, "bed": 0.1})
    state = LogicalState("s", 7, True, True, False, False, 1.0)
    return json.loads(dumps_row(CanonicalRow(rec, motion, state)))


# Path to each numeric field of a row; box 1 is the person box.
NUMERIC_FIELDS = {
    "box.x": ("boxes", 1, "x"),
    "box.y": ("boxes", 1, "y"),
    "box.w": ("boxes", 1, "w"),
    "box.h": ("boxes", 1, "h"),
    "box.conf": ("boxes", 1, "conf"),
    "motion.scene": ("motion", "scene"),
    "logical.smoothed_person_count": ("logical", "smoothed_person_count"),
}


@pytest.mark.parametrize("path", NUMERIC_FIELDS.values(), ids=NUMERIC_FIELDS.keys())
@pytest.mark.parametrize("token", ("NaN", "Infinity", "-Infinity"))
def test_loads_row_rejects_non_finite_numbers(path, token):
    obj = _full_row_obj()
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = 12345.25  # placeholder swapped for the bare token below
    line = json.dumps(obj, sort_keys=True, separators=(",", ":")).replace("12345.25", token)
    assert loads_row(line.replace(token, "1.0"))  # the row is otherwise valid
    with pytest.raises(SchemaMismatch, match=re.escape(token)):
        loads_row(line)


LABEL = {"session_id": "s", "ts": 1709251200, "boxes": [{"cls": "bed", "x": 1, "y": 2, "w": 30, "h": 40}]}
BAD_LABEL_KEYS = {
    "ts-float": ({"ts": 1709251200.9}, "ts must be an integer, got 1709251200.9"),
    "ts-string": ({"ts": "1709251200"}, "ts must be an integer, got '1709251200'"),
    "session-int-ts-bool": ({"session_id": 7, "ts": True}, "session_id must be a string, got 7"),
    "ts-bool": ({"ts": True}, "ts must be an integer, got True"),
}


@pytest.mark.parametrize("override,message", BAD_LABEL_KEYS.values(), ids=BAD_LABEL_KEYS.keys())
def test_obj_to_label_rejects_what_obj_to_row_rejects(override, message):
    label = obj_to_label(LABEL)
    assert (label.session_id, label.ts) == ("s", 1709251200)
    with pytest.raises(SchemaMismatch, match=re.escape(f"bad frame label: {message}")):
        obj_to_label(dict(LABEL, **override))
    row = json.loads(dumps_row(CanonicalRow(make_record("s", 1709251200))))
    with pytest.raises(SchemaMismatch, match=re.escape(f"bad canonical row: {message}")):
        loads_row(json.dumps(dict(row, **override)))


JSONL_READ_ERRORS = {
    "row-not-json": (read_rows_jsonl, "{not json", "invalid JSON: Expecting property name"),
    "row-bad-key": (read_rows_jsonl, '{"session_id": 5}', "bad canonical row: "),
    "label-not-json": (read_labels_jsonl, "{not json", "Expecting property name"),
    "label-bad-key": (read_labels_jsonl, json.dumps(dict(LABEL, ts=True)), "bad frame label: ts must"),
}


@pytest.mark.parametrize("read,bad,message", JSONL_READ_ERRORS.values(), ids=JSONL_READ_ERRORS.keys())
def test_jsonl_readers_name_path_and_file_line(tmp_path, read, bad, message):
    good = json.dumps(LABEL) if read is read_labels_jsonl else dumps_row(CanonicalRow(make_record("s", 1)))
    path = tmp_path / "in.jsonl"
    path.write_text(f"{good}\n\n  \n{bad}\n{good}\n")
    with pytest.raises(SchemaMismatch, match=f"^{re.escape(f'{path}:4: {message}')}"):
        read(path)


def test_parse_jsonl_leaves_an_error_thrown_in_by_the_consumer_as_it_is(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text(dumps_row(CanonicalRow(make_record("s", 1))) + "\n")
    rows = parse_jsonl(path, loads_row)
    next(rows)
    with pytest.raises(SchemaMismatch, match="^from the consumer$"):
        rows.throw(SchemaMismatch("from the consumer"))


# ---- each value checked once ----------------------------------------------


def _clamped_by_replace(box, frame_w, frame_h):
    """Oracle: the clamp as it was, rebuilding every box through replace()."""
    left = min(max(box.x, 0.0), frame_w)
    top = min(max(box.y, 0.0), frame_h)
    right = min(max(box.x2, 0.0), frame_w)
    bottom = min(max(box.y2, 0.0), frame_h)
    return replace(box, x=left, y=top, w=right - left, h=bottom - top)


def _fields(box):
    values = (box.cls, box.x, box.y, box.w, box.h, box.confidence)
    return values, tuple(map(type, values))


def test_clamped_equals_the_replace_oracle_and_reuses_unchanged_boxes(rng):
    frame = (1088, 612)
    boxes = [
        BoundingBox("bed", 5, 5, 10, 10, 0.9),  # ints: rebuilt fields equal, box kept
        BoundingBox("bed", 5.0, 5.0, 10, 10, 0.9),  # (x + w) - x is 10.0, not 10: rebuilt
        BoundingBox("bed", 5.0, 5, 10, 10, 0.9),  # only the width's type changes: rebuilt
        BoundingBox("bed", 5, 5.0, 10, 10, 0.9),  # only the height's type changes: rebuilt
        BoundingBox("person", 0.0, -0.0, 1088.0, 612.0, 0.5),
        BoundingBox("chair", -0.0, 3.5, 4.0, 2.0, 0.5),
        # Far edges exactly on the frame: the edge keeps the box's own type.
        BoundingBox("bed", 88, 12, 1000.0, 600.0, 0.9),
        BoundingBox("bed", 88.0, 12.0, 1000, 600, 0.9),
        BoundingBox("chair", 1000, 600, 88, 12, 0.5),
        BoundingBox("chair", 1000, 600, 100, 50, 0.5),  # past the far edges: ints
    ]
    for _ in range(3000):
        x, y = rng.uniform(-300, 1200), rng.uniform(-300, 700)
        w, h = rng.uniform(1e-6, 800) ** rng.choice((1.0, 0.5)), rng.uniform(1e-6, 500)
        boxes.append(BoundingBox("person", float(x), float(y), float(w), float(h), 0.5))
    kept = rebuilt = 0
    for box in boxes:
        try:
            want = _clamped_by_replace(box, *frame)
        except ValueError:  # the oracle's constructor refuses a box outside the frame
            with pytest.raises(MalformedRecord):
                box.clamped(*frame)
            continue
        got = box.clamped(*frame)
        assert _fields(got) == _fields(want)
        assert dumps_row(CanonicalRow(DetectionRecord("s", 1, (got,), (None,)))) == dumps_row(
            CanonicalRow(DetectionRecord("s", 1, (want,), (None,)))
        )
        if _fields(want) == _fields(box):
            assert got is box
            kept += 1
        else:
            assert got is not box and got == want
            rebuilt += 1
        assert got.clamped(*frame) is got  # a clamped box clamps to itself
    assert boxes[0].clamped(*frame) is boxes[0]
    assert type(boxes[1].clamped(*frame).w) is float
    assert kept and rebuilt


def _argmax_role(scores):
    """Oracle: the argmax over ROLES with ties broken patient > staff > other."""
    return max(ROLES, key=lambda r: (scores[r], -ROLES.index(r)))


def test_primary_role_is_the_tie_broken_argmax(rng):
    grid = (0.0, 0.25, 0.5, 1 / 3, 0.125, 0.375, 0.75, 1.0)
    dists = [{"patient": a, "staff": b, "other": 1.0 - a - b} for a in grid for b in grid if a + b <= 1.0]
    dists.append({r: 1.0 / 3.0 for r in ROLES})
    for _ in range(500):
        p = rng.dirichlet((0.5, 0.5, 0.5))
        dists.append(dict(zip(ROLES, map(float, p))))
    for scores in dists:
        try:
            dist = RoleDistribution(scores)
        except ValueError:
            continue
        assert dist.primary() == _argmax_role(scores)
    assert RoleDistribution.uniform().primary() == "patient"


def test_validate_record_returns_the_record_when_nothing_changes():
    rec = DetectionRecord("s", 3, (BoundingBox("bed", 5, 5, 10, 10, 0.9),), (None,))
    assert validate_record(rec, (100, 100)) is rec
    out = validate_record(make_record("s", 3, ["patient", "staff"]), ANALYSIS_DIMS)
    assert validate_record(out, ANALYSIS_DIMS) is out
    moved = DetectionRecord("s", 3, (BoundingBox("bed", -5, 5, 10, 10, 0.9),), (None,))
    assert validate_record(moved, (100, 100)) is not moved
    retyped = DetectionRecord("s", 3, (BoundingBox("bed", 5.0, 5.0, 10, 10, 0.9),), (None,))
    out = validate_record(retyped, (100, 100))
    assert out is not retyped and dumps_row(CanonicalRow(out)).count('"w":10.0') == 1
    realigned = DetectionRecord("s", 3, (BoundingBox("bed", 5, 5, 10, 10, 0.9),), (role_dist("staff"),))
    assert validate_record(realigned, (100, 100)).roles == (None,)


def _constructed_row(obj: dict) -> CanonicalRow:
    """Oracle: a parsed object built through the public constructors only,
    with the decoder's session_id/ts, motion-key and value-type rules: the
    logical flags are JSON booleans, the count and the motion magnitudes JSON
    numbers."""
    session_id, ts = obj["session_id"], obj["ts"]
    if type(session_id) is not str or type(ts) is not int:
        raise TypeError("session_id/ts type")
    boxes = tuple(BoundingBox(b["cls"], b["x"], b["y"], b["w"], b["h"], b["conf"]) for b in obj["boxes"])
    roles = tuple(None if r is None else RoleDistribution(r) for r in obj["roles"])
    motion = logical = None
    if obj.get("motion") is not None:
        if not isinstance(obj["motion"], dict):
            raise TypeError("motion is not an object")
        if set(obj["motion"]) - {"scene", "bed", "safety_zone"}:
            raise ValueError("unknown motion key")
        if not all(type(v) in (int, float) for v in obj["motion"].values()):
            raise TypeError("motion value type")
        motion = MotionRecord(obj["motion"])
    if obj.get("logical") is not None:
        lg = obj["logical"]
        flags = [lg[k] for k in ("person_alone", "patient_alone", "supervised_by_staff", "moving")]
        count = lg["smoothed_person_count"]
        if not all(type(f) is bool for f in flags) or type(count) not in (int, float):
            raise TypeError("logical value type")
        logical = LogicalState(session_id, ts, *flags, float(count))
    return CanonicalRow(DetectionRecord(session_id, ts, boxes, roles), motion, logical)


def _valid_lines(rng, n=40):
    lines = []
    for k in range(n):
        primaries = [str(rng.choice(ROLES)) for _ in range(int(rng.integers(0, 4)))]
        rec = validate_record(make_record("s", 1_700_000_000 + k, primaries, bed=bool(k % 2)), ANALYSIS_DIMS)
        motion = MotionRecord({"scene": float(rng.uniform(0, 2)), "bed": 0.25})
        alone = len(primaries) < 2
        state = LogicalState("s", rec.ts, alone, alone and "patient" in primaries, False, True, float(len(primaries)))
        lines.append(dumps_row(CanonicalRow(rec, motion if k % 3 else None, state if k % 4 else None)))
    lines.append('{"boxes":[{"cls":"bed","conf":1,"h":20,"w":10,"x":5,"y":0}],"roles":[null],"session_id":"s","ts":7}')
    return lines


def _mutations(obj, rng):
    """(name, mutated copy) pairs, each changing one field of a valid row."""
    persons = [i for i, r in enumerate(obj["roles"]) if r is not None]
    i = int(rng.integers(len(obj["boxes"]))) if obj["boxes"] else None
    p = int(rng.choice(persons)) if persons else None
    role = str(rng.choice(ROLES))
    out = []

    def mutate(name, edit):
        copy = json.loads(json.dumps(obj))
        edit(copy)
        out.append((name, copy))

    if i is not None:
        for key in ("x", "y", "w", "h", "conf"):
            mutate(f"box.{key}=inf", lambda o, key=key: o["boxes"][i].__setitem__(key, float("inf")))
        mutate("conf<0", lambda o: o["boxes"][i].__setitem__("conf", -0.01))
        mutate("conf>1", lambda o: o["boxes"][i].__setitem__("conf", 1.5))
        mutate("w=0", lambda o: o["boxes"][i].__setitem__("w", 0))
        mutate("h<0", lambda o: o["boxes"][i].__setitem__("h", -2.5))
        mutate("cls", lambda o: o["boxes"][i].__setitem__("cls", "dog"))
        mutate("no-conf", lambda o: o["boxes"][i].pop("conf"))
        mutate("x-str", lambda o: o["boxes"][i].__setitem__("x", "1.0"))
        mutate("box-bool", lambda o: o["boxes"][i].__setitem__(str(rng.choice(["x", "y", "w", "h", "conf"])), True))
    if p is not None:
        mutate("role=inf", lambda o: o["roles"][p].__setitem__(role, float("inf")))
        mutate("roles-sum-1.15", lambda o: o["roles"][p].__setitem__(role, o["roles"][p][role] + 0.15))
        mutate("role-missing", lambda o: o["roles"][p].pop(role))
        mutate("role-extra", lambda o: o["roles"][p].__setitem__("visitor", 0.0))
        mutate("role<0", lambda o: o["roles"][p].__setitem__(role, -0.05))
        mutate("role-bool", lambda o: o["roles"].__setitem__(p, {"patient": True, "staff": False, "other": False}))
        mutate("roles-list", lambda o: o["roles"].__setitem__(p, list(ROLES)))
        out_of_range = {"patient": 1.25, "staff": -0.125, "other": -0.125}  # sums to exactly 1
        mutate("roles-out-of-range", lambda o: o["roles"].__setitem__(p, out_of_range))
    mutate("ts-bool", lambda o: o.__setitem__("ts", True))
    mutate("ts-float", lambda o: o.__setitem__("ts", float(o["ts"])))
    mutate("session-int", lambda o: o.__setitem__("session_id", 7))
    mutate("motion-key", lambda o: o.__setitem__("motion", {"scene": 0.5, "hall": 0.1}))
    mutate("motion=inf", lambda o: o.__setitem__("motion", {"scene": float("inf")}))
    mutate("motion-bool", lambda o: o.__setitem__("motion", {"scene": True}))
    mutate("motion-str", lambda o: o.__setitem__("motion", {"scene": "0.5", "bed": 0.25}))
    mutate("motion-list", lambda o: o.__setitem__("motion", []))
    mutate("motion-int", lambda o: o.__setitem__("motion", {"scene": 1, "bed": 0}))
    if "logical" in obj:
        mutate("count=inf", lambda o: o["logical"].__setitem__("smoothed_person_count", float("inf")))
        mutate("count-str", lambda o: o["logical"].__setitem__("smoothed_person_count", "1.5"))
        mutate("count-bool", lambda o: o["logical"].__setitem__("smoothed_person_count", True))
        mutate("count-int", lambda o: o["logical"].__setitem__("smoothed_person_count", 2))
        flag = str(rng.choice(["person_alone", "patient_alone", "supervised_by_staff", "moving"]))
        mutate("flag-str", lambda o: o["logical"].__setitem__(flag, "false"))
        mutate("flag-int", lambda o: o["logical"].__setitem__(flag, int(o["logical"][flag])))
        mutate("flag-null", lambda o: o["logical"].__setitem__(flag, None))
    return out


def test_loads_row_rejects_exactly_what_the_constructors_reject(rng):
    kinds = set()
    for line in _valid_lines(rng):
        for name, obj in [("valid", json.loads(line))] + _mutations(json.loads(line), rng):
            # Non-finite values are written as 1e999, which json parses as inf.
            text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
            text = text.replace("-Infinity", "-1e999").replace("Infinity", "1e999")
            try:
                want = _constructed_row(json.loads(text))
            except (KeyError, TypeError, ValueError):
                with pytest.raises(SchemaMismatch):
                    loads_row(text)
                kinds.add(name)
                continue
            got = loads_row(text)
            assert got == want and dumps_row(got) == dumps_row(want), name
    assert {"box.w=inf", "conf>1", "h<0", "roles-sum-1.15", "role-missing", "role-extra"} <= kinds
    assert {"cls", "ts-bool", "ts-float", "motion-key", "count=inf", "roles-list"} <= kinds
    assert {"motion-bool", "motion-str", "motion-list", "count-str", "count-bool"} <= kinds
    assert {"flag-str", "flag-int", "flag-null", "box-bool", "role-bool"} <= kinds
    assert not {"motion-int", "count-int"} & kinds


def _loads_row_by_decode(line):
    """Oracle: loads_row as it read a line before the scanner path, through
    DECODER.decode alone."""
    try:
        obj = DECODER.decode(line)
    except json.JSONDecodeError as e:
        raise SchemaMismatch(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise SchemaMismatch("canonical row must be a JSON object")
    return obj_to_row(obj)


def _outcome(read, line):
    try:
        return "row", read(line)
    except Exception as e:  # noqa: BLE001  (the error itself is the outcome)
        return type(e), str(e)


GOOD_LINE = '{"boxes":[{"cls":"bed","conf":1,"h":20,"w":10,"x":5,"y":0}],"roles":[null],"session_id":"s","ts":7}'
# Lines the scanner alone does not read, each with the outcome loads_row gives.
SCANNER_FALLBACKS = {
    "trailing-data": (GOOD_LINE + "x", "invalid JSON: Extra data: line 1 column 100 (char 99)"),
    "trailing-brace": (GOOD_LINE + "}", "invalid JSON: Extra data: line 1 column 100 (char 99)"),
    "two-objects": (GOOD_LINE + GOOD_LINE, "invalid JSON: Extra data: line 1 column 100 (char 99)"),
    "two-objects-spaced": (GOOD_LINE + " " + GOOD_LINE, "invalid JSON: Extra data: line 1 column 101 (char 100)"),
    "leading-space": (" " + GOOD_LINE, None),
    "trailing-newline": (GOOD_LINE + "\n", None),
    "both-whitespace": ("\t" + GOOD_LINE + " \r\n", None),
    "only-whitespace": ("  ", "invalid JSON: Expecting value: line 1 column 3 (char 2)"),
    "empty": ("", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    "array": ("[1]", "canonical row must be a JSON object"),
    "number": ("7", "canonical row must be a JSON object"),
    "string": ('"row"', "canonical row must be a JSON object"),
    "null": ("null", "canonical row must be a JSON object"),
    "spaced-array": (" [] ", "canonical row must be a JSON object"),
    "number-then-data": ("7 8", "invalid JSON: Extra data: line 1 column 3 (char 2)"),
    "missing-value": ('{"ts":}', "invalid JSON: Expecting value: line 1 column 7 (char 6)"),
    "bare-key": ("{not json", "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    "unterminated": (GOOD_LINE[:-1], "invalid JSON: Expecting ',' delimiter: line 1 column 99 (char 98)"),
    "unterminated-string": ('{"session_id":"s', "invalid JSON: Unterminated string starting at: line 1 column 15 (char 14)"),
    "bad-in-list": ('{"boxes":[1 2]}', "invalid JSON: Expecting ',' delimiter: line 1 column 13 (char 12)"),
    "nan": (GOOD_LINE.replace('"x":5', '"x":NaN'), "non-finite number NaN is not allowed"),
    "infinity-then-data": (GOOD_LINE.replace('"ts":7', '"ts":-Infinity') + "x", "non-finite number -Infinity is not allowed"),
    "spaced-infinity": (" " + GOOD_LINE.replace('"ts":7', '"ts":Infinity'), "non-finite number Infinity is not allowed"),
}


@pytest.mark.parametrize("line,message", SCANNER_FALLBACKS.values(), ids=SCANNER_FALLBACKS.keys())
def test_loads_row_reads_each_line_as_decode_did(line, message):
    got = _outcome(loads_row, line)
    assert got == _outcome(_loads_row_by_decode, line)
    assert got == (("row", loads_row(GOOD_LINE)) if message is None else (SchemaMismatch, message))


def test_loads_row_builds_the_row_of_the_parsed_object(rng):
    lines = _valid_lines(rng)
    for line in lines:
        assert loads_row(line) == obj_to_row(json.loads(line))
        assert _outcome(loads_row, line) == _outcome(_loads_row_by_decode, line)
        for name, obj in _mutations(json.loads(line), rng):
            text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
            assert _outcome(loads_row, text) == _outcome(_loads_row_by_decode, text), name
    # A line that is not a str fails as the decoder fails on it.
    assert _outcome(loads_row, lines[0].encode()) == _outcome(_loads_row_by_decode, lines[0].encode())


def test_valid_rows_round_trip_byte_for_byte_and_validate_once(rng):
    for line in _valid_lines(rng):
        row = loads_row(line)
        assert dumps_row(row) == line
        once = validate_record(row.record, ANALYSIS_DIMS)
        assert validate_record(once, ANALYSIS_DIMS) is once


LOGICAL_KEYS = ("person_alone", "patient_alone", "supervised_by_staff", "moving", "smoothed_person_count")
MOTION_SUBSETS = [keys for n in range(4) for keys in itertools.combinations(("scene", "bed", "safety_zone"), n)]
# Values a row may hold, by where they may stand: JSON int and float (a bool
# is rejected wherever a number stands), the signed zero, the smallest
# subnormal, a float past 2**53 and a big int.
ANY_COORD = (-0.0, 0, -3, 0.1 + 0.2, 1e16, 2**70, np.float64(0.1))
SIZES = (5e-324, 1e16, 2**70, 7, 12.5, 1 / 3, np.float64(2.5))
CONFS = (-0.0, 5e-324, 0, 1, 0.25, 1 / 3)
SCORES = (
    (0.8, 0.1, 0.1), (1, 0, 0), (0.5, 0.5, 0), (-0.0, 1, 0.0),
    (1.0, 5e-324, 0.0), (1 / 3, 1 / 3, 1 / 3),
)
MAGNITUDES = (0.0, -0.0, 5e-324, 1e16, 2**70, 3, 0.1 + 0.2)
COUNTS = (0, 2, 1.5, -0.0, 5e-324, 1e16, 2**70)
SESSION_IDS = ("s", 'quo"te', "back\\slash", "caf\u00e9", "line\u2028sep", "ctrl\x01", "")
TIMESTAMPS = (0, -5, 1_709_251_200, TS_MIN, TS_MAX)  # the first and last second of the calendar


def _expected_obj(row: CanonicalRow) -> dict:
    """The canonical object of a row, field by field."""
    rec = row.record
    obj = {
        "session_id": rec.session_id,
        "ts": rec.ts,
        "boxes": [
            {"cls": str(b.cls), "x": b.x, "y": b.y, "w": b.w, "h": b.h, "conf": b.confidence}
            for b in rec.boxes
        ],
        "roles": [None if r is None else dict(r.scores) for r in rec.roles],
    }
    if row.motion is not None:
        obj["motion"] = dict(row.motion.magnitudes)
    if row.logical is not None:
        obj["logical"] = {k: getattr(row.logical, k) for k in LOGICAL_KEYS}
    return obj


def _random_row(rng, k: int) -> CanonicalRow:
    def pick(values):
        return values[int(rng.integers(len(values)))]

    boxes, roles = [], []
    for _ in range(int(rng.integers(0, 4))):
        cls = pick((str, np.str_, _Label))(pick(CLASSES))  # any str type: the box holds its text
        boxes.append(BoundingBox(cls, pick(ANY_COORD), pick(ANY_COORD), pick(SIZES), pick(SIZES), pick(CONFS)))
        scores = dict(zip(ROLES, pick(SCORES)))
        roles.append(RoleDistribution(scores) if cls == "person" and k % 5 else None)
    session_id, ts = pick(SESSION_IDS), pick(TIMESTAMPS)
    rec = DetectionRecord(session_id, ts, tuple(boxes), tuple(roles))
    keys = MOTION_SUBSETS[k % len(MOTION_SUBSETS)]
    motion = None if k % 9 == 8 else MotionRecord({m: pick(MAGNITUDES) for m in keys})
    logical = None
    if k % 4:
        alone = bool(rng.integers(2))
        flags = (alone, alone and bool(rng.integers(2)), not alone and bool(rng.integers(2)), bool(rng.integers(2)))
        logical = LogicalState(session_id, ts, *flags, pick(COUNTS))
    return CanonicalRow(rec, motion, logical)


def test_dumps_row_writes_the_sorted_compact_json_of_the_row(rng):
    seen = set()
    for k in range(600):
        row = _random_row(rng, k)
        want = json.dumps(_expected_obj(row), sort_keys=True, separators=(",", ":"))
        assert dumps_row(row) == want
        if row.motion is not None:
            seen.add(tuple(sorted(row.motion.magnitudes)))
        seen.add(("boxes", len(row.record.boxes)))
        seen.add(("roles-none", all(r is None for r in row.record.roles)))
        seen.add(("session", row.record.session_id))
    assert {tuple(sorted(keys)) for keys in MOTION_SUBSETS} <= seen
    assert {("boxes", 0), ("roles-none", True), ("roles-none", False)} <= seen
    assert {("session", sid) for sid in SESSION_IDS} <= seen


def test_dumps_row_keeps_the_json_encoders_bytes_and_errors_for_other_values():
    box = BoundingBox("person", np.float64(0.1) + 0.2, 5.0, np.float64(1e16), 2**70, np.float64(0.5))
    rec = DetectionRecord("s", 7, (box,), (role_dist("staff"),))
    row = CanonicalRow(rec)
    assert dumps_row(row) == json.dumps(_expected_obj(row), sort_keys=True, separators=(",", ":"))
    assert '"x":0.30000000000000004' in dumps_row(row)
    with pytest.raises(ValueError, match=re.escape("unknown motion keys [1, 2]")):  # keys that are not str
        MotionRecord({2: 0.5, 1: 0.25})
    with pytest.raises(TypeError, match="int64"):
        dumps_row(CanonicalRow(DetectionRecord("s", np.int64(7), (box,), (role_dist("staff"),))))


def test_stored_rows_read_back_as_written(rng):
    for k in range(600):
        line = dumps_row(_random_row(rng, k))
        assert dumps_row(loads_row(line)) == line


STATE = dict(person_alone=True, patient_alone=True, supervised_by_staff=False, moving=False, smoothed_person_count=1.0)
# One case per stored-value rule: the record type that holds the value, the
# values that break the rule, and the message its reader names.
CONSTRUCTOR_REJECTS = {
    "session-int": (DetectionRecord, {"session_id": 7}, "session_id must be a string, got 7"),
    "ts-bool": (DetectionRecord, {"ts": True}, "ts must be an integer, got True"),
    "ts-float": (DetectionRecord, {"ts": 7.0}, "ts must be an integer, got 7.0"),
    "ts-past-9999": (DetectionRecord, {"ts": TS_MAX + 1}, f"ts {TS_MAX + 1} is outside the UTC dates 0001-01-01 to 9999-12-31"),
    "ts-before-year-1": (DetectionRecord, {"ts": TS_MIN - 1}, f"ts {TS_MIN - 1} is outside the UTC dates 0001-01-01 to 9999-12-31"),
    "label-ts-huge": (FrameLabel, {"ts": 86400 * 10**12}, f"ts {86400 * 10**12} is outside the UTC dates 0001-01-01 to 9999-12-31"),
    "logical-ts-huge": (LogicalState, {"ts": 2**70}, f"ts {2**70} is outside the UTC dates 0001-01-01 to 9999-12-31"),
    "label-session-int": (FrameLabel, {"session_id": 7}, "session_id must be a string, got 7"),
    "label-ts-bool": (FrameLabel, {"ts": True}, "ts must be an integer, got True"),
    "logical-session-none": (LogicalState, {"session_id": None}, "session_id must be a string, got None"),
    "logical-ts-bool": (LogicalState, {"ts": True}, "ts must be an integer, got True"),
    "logical-ts-float": (LogicalState, {"ts": 7.0}, "ts must be an integer, got 7.0"),
    "motion-key": (MotionRecord, {"scene": 0.5, "foo": 1.0, "bar": 2.0}, "unknown motion keys ['bar', 'foo']"),
    "motion-bool": (MotionRecord, {"scene": True}, "motion scene must be a number, got True"),
    "motion-str": (MotionRecord, {"bed": "0.5"}, "motion bed must be a number, got '0.5'"),
    "motion-null": (MotionRecord, {"bed": None}, "motion bed must be a number, got None"),
    "motion-negative": (MotionRecord, {"safety_zone": -0.5}, "motion magnitude for safety_zone must be finite and >= 0: -0.5"),
    "flag-int": (LogicalState, {"moving": 0}, "logical moving must be true or false, got 0"),
    "flag-str": (LogicalState, {"person_alone": "true"}, "logical person_alone must be true or false, got 'true'"),
    "flag-null": (LogicalState, {"supervised_by_staff": None}, "logical supervised_by_staff must be true or false, got None"),
    "count-bool": (LogicalState, {"smoothed_person_count": True}, "smoothed_person_count must be a number, got True"),
    "count-str": (LogicalState, {"smoothed_person_count": "1.5"}, "smoothed_person_count must be a number, got '1.5'"),
}


@pytest.mark.parametrize("record_type,values,message", CONSTRUCTOR_REJECTS.values(), ids=CONSTRUCTOR_REJECTS.keys())
def test_each_stored_value_rule_fails_on_construction_with_the_readers_message(record_type, values, message):
    # A bad session_id or ts is a row key, whatever record type it is given to;
    # a motion holds neither.
    keys = {k: values[k] for k in ("session_id", "ts") if k in values}
    rest = {k: v for k, v in values.items() if k not in keys}
    session_keys = {"session_id": "s", "ts": 7, **keys}
    if record_type is MotionRecord:
        build, override = partial(MotionRecord, magnitudes=rest), {"motion": rest}
    elif record_type is LogicalState:
        state = dict(STATE, **rest)
        build, override = partial(LogicalState, **session_keys, **state), dict(keys, logical=state)
    else:
        build, override = partial(record_type, **session_keys, boxes=(), roles=(), **rest), values
    with pytest.raises((TypeError, ValueError), match=f"^{re.escape(message)}$"):
        build()
    if record_type is FrameLabel:
        read, source, prefix = obj_to_label, dict(LABEL, **override), "bad frame label: "
    else:
        read, source, prefix = loads_row, json.dumps(dict(_full_row_obj(), **override)), "bad canonical row: "
    with pytest.raises(SchemaMismatch, match=f"^{re.escape(prefix + message)}$"):
        read(source)


# A bool where a box number or a role score stands: the values, the message.
BOOL_NUMBERS = {
    "box-x": ("box", {"x": True}, "box x must be a number, got True"),
    "box-h-conf": ("box", {"h": True, "conf": False}, "box h must be a number, got True"),
    "box-conf": ("box", {"conf": False}, "box conf must be a number, got False"),
    "score-staff": ("role", {"staff": False}, "score for staff must be a number, got False"),
    "scores": ("role", {"patient": True, "staff": False, "other": False}, "score for patient must be a number, got True"),
}


@pytest.mark.parametrize("where,values,message", BOOL_NUMBERS.values(), ids=BOOL_NUMBERS.keys())
def test_a_bool_is_no_box_number_or_role_score(where, values, message):
    box = dict(dict(x=10.0, y=10.0, w=20.0, h=30.0, conf=0.5), **values if where == "box" else {})
    scores = dict(dict(patient=0.8, staff=0.1, other=0.1), **values if where == "role" else {})
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        if where == "box":
            BoundingBox("person", box["x"], box["y"], box["w"], box["h"], box["conf"])
        else:
            RoleDistribution(scores)
    obj = _full_row_obj()  # box 1 is the person box, role 1 its distribution
    obj["boxes"][1].update(box)
    obj["roles"][1] = scores
    with pytest.raises(SchemaMismatch, match=f"^{re.escape('bad canonical row: ' + message)}$"):
        loads_row(json.dumps(obj))
    if where == "box":
        label = dict(LABEL, boxes=[{"cls": "bed", **box}])
        with pytest.raises(SchemaMismatch, match=f"^{re.escape('bad frame label: ' + message)}$"):
            obj_to_label(label)


def test_box_and_role_numbers_are_kept_as_plain_ints_and_floats():
    box = BoundingBox("bed", np.int64(3), np.float32(0.5), np.uint8(20), 2**70, np.float64(0.25))
    assert [(v, type(v)) for v in (box.x, box.y, box.w, box.h, box.confidence)] == [
        (3, int), (0.5, float), (20, int), (2**70, int), (0.25, float)
    ]
    role = RoleDistribution({"patient": np.float64(0.5), "staff": np.float32(0.25), "other": 0.25})
    assert [(r, type(v)) for r, v in role.scores.items()] == [("patient", float), ("staff", float), ("other", float)]
    for bad in ("1", None, np.bool_(True)):
        with pytest.raises(TypeError, match="^box x must be a number, got "):
            BoundingBox("bed", bad, 0.0, 1.0, 1.0, 0.5)


def test_numbers_are_stored_as_floats_in_motion_and_state():
    motion = MotionRecord({"scene": 2, "bed": np.float32(0.5), "safety_zone": 2**70})
    assert [(k, type(v)) for k, v in motion.magnitudes.items()] == [
        ("scene", float), ("bed", float), ("safety_zone", float)
    ]
    state = LogicalState("s", 7, False, False, True, True, 2)
    assert type(state.smoothed_person_count) is float
    row = CanonicalRow(make_record("s", 7), motion, state)
    assert '"smoothed_person_count":2.0' in dumps_row(row) and '"scene":2.0' in dumps_row(row)


# ---- decoded rows share their strings ----------------------------------------


def _is_one_of(value, entries) -> bool:
    return any(value is e for e in entries)


def test_decoded_rows_share_their_strings(tmp_path):
    """Rows read from separate lines, a flat-csv export and frame labels hold
    the CLASSES, ROLES and ROI_KINDS entries themselves, and one session id
    object; role scores are in ROLES order."""
    sid = "ward-3 bed-12"  # not an identifier, so no literal of it is interned
    motion = MotionRecord({"safety_zone": 0.0, "scene": 0.42, "bed": 0.13})
    row = CanonicalRow(make_record(sid, 7, ["patient", "staff"]), motion)
    line = dumps_row(row)
    decoded = [loads_row(line), loads_row(line)]
    csv_path = tmp_path / "in.csv"
    csv_path.write_text(
        "session_id,ts,cls,x,y,w,h,conf,patient,staff,other\n"
        f"{sid},7,person,10,10,40,90,0.8,0.9,0.05,0.05\n"
        f"{sid},7,bed,300,250,380,240,0.92,,,\n"
        f"{sid},8,chair,12,10,40,90,0.8,,,\n"
    )
    flat = [parse() for _, parse in ADAPTERS["flat-csv"](csv_path)]
    label_line = json.dumps({"session_id": sid, "ts": 7, "boxes": [
        {"cls": "person", "x": 1, "y": 2, "w": 30, "h": 40, "role": "staff"},
        {"cls": "bed", "x": 5, "y": 6, "w": 70, "h": 80},
    ]})
    labels = [obj_to_label(json.loads(label_line)) for _ in range(2)]

    records = [r.record for r in decoded + flat]
    assert len(flat) == 2 and {b.cls for rec in records for b in rec.boxes} == set(CLASSES)
    for box in [b for rec in records for b in rec.boxes] + [b for lab in labels for b in lab.boxes]:
        assert _is_one_of(box.cls, CLASSES)
    scores = [role.scores for rec in records for role in rec.roles if role is not None]
    assert len(scores) == 5 and all(k is r for s in scores for k, r in zip(s, ROLES, strict=True))
    for r in decoded:
        assert r.motion.magnitudes == motion.magnitudes
        assert all(_is_one_of(k, ROI_KINDS) for k in r.motion.magnitudes)
    ids = [rec.session_id for rec in records] + [lab.session_id for lab in labels]
    assert ids == [sid] * len(ids) and all(i is ids[0] for i in ids)
    assert [dumps_row(r) for r in decoded] == [line, line]


class _Label(str):
    pass


class _CaseBlind(str):
    """A str that equals any str of the same text in any case."""

    def __eq__(self, other):
        return isinstance(other, str) and self.lower() == other.lower()

    def __hash__(self):
        return hash(self.lower())


class _Posing(str):
    """A str whose str() claims to be a person, whatever its text."""

    def __str__(self):
        return "person"


@pytest.mark.parametrize(
    "cls", [_Label("person"), np.str_("person"), _CaseBlind("person")], ids=["subclass", "numpy", "case-blind"]
)
def test_a_str_subclass_box_class_is_its_classes_entry(cls):
    plain = make_record("s", 7, ["patient"], bed=False)
    box = replace(plain.boxes[0], cls=cls)
    assert box.cls is CLASSES[0]
    subclassed = DetectionRecord("s", 7, (box,), plain.roles)
    assert dumps_row(CanonicalRow(subclassed)) == dumps_row(CanonicalRow(plain))


@pytest.mark.parametrize(
    "cls", ["Person", _Label("sofa"), _CaseBlind("BED"), ["person"], {"person": 1}, None, 1, b"person", _Posing("sofa")]
)
def test_an_unknown_or_unhashable_box_class_keeps_its_message(cls):
    with pytest.raises(ValueError, match=f"^{re.escape(f'unknown box class {cls!r}')}$"):
        BoundingBox(cls, 1.0, 2.0, 30.0, 40.0, 0.9)


def test_role_scores_are_kept_in_roles_order_and_compare_as_before():
    values = {"patient": 0.25, "staff": 0.5, "other": 0.25}
    dists = [RoleDistribution({r: values[r] for r in order}) for order in itertools.permutations(ROLES)]
    dists.append(RoleDistribution(MappingProxyType(values)))
    for d in dists:
        assert d == dists[0] and d.primary() == "staff"
        assert list(d.scores.items()) == [(r, values[r]) for r in ROLES]
    assert RoleDistribution({"other": 0.25, "staff": 0.25, "patient": 0.5}) != dists[0]


# ---- the record types' slot_init constructors -------------------------------


def _record_cases():
    """(type, positional arguments, a bad value by field, its error and message)."""
    box = BoundingBox("person", 1.0, 2.0, 30.0, 40.0, 0.9)
    role = RoleDistribution({"patient": 0.8, "staff": 0.1, "other": 0.1})
    record = DetectionRecord("s", 7, (box,), (role,))
    motion = MotionRecord({"scene": 0.5})
    state = LogicalState("s", 7, True, True, False, False, 1.0)
    return {
        BoundingBox: (("bed", 1.0, 2.0, 3.0, 4.0, 0.5), {"w": 0.0}, ValueError, "box width/height must be positive"),
        RoleDistribution: (({"patient": 0.2, "staff": 0.7, "other": 0.1},), {"scores": {"patient": 1.0}}, ValueError, "role scores must cover exactly ('patient', 'staff', 'other')"),
        DetectionRecord: (("s", 7, (box,), (role,)), {"ts": 7.0}, TypeError, "ts must be an integer, got 7.0"),
        MotionRecord: (({"bed": 0.25},), {"magnitudes": {"bed": -1.0}}, ValueError, "motion magnitude for bed must be finite and >= 0: -1.0"),
        LogicalState: (("s", 7, True, False, False, True, 1.0), {"moving": 1}, TypeError, "logical moving must be true or false, got 1"),
        CanonicalRow: ((record, motion, state), {"logical": replace(state, ts=8)}, MalformedRecord, "logical s@8 on record s@7"),
        SourceItem: (("s", 7, None, record, motion), None, None, None),
    }


RECORD_TYPES = (BoundingBox, RoleDistribution, DetectionRecord, MotionRecord, LogicalState, CanonicalRow, SourceItem)


@pytest.mark.parametrize("record_type", RECORD_TYPES, ids=lambda t: t.__name__)
def test_record_constructors_keep_the_dataclass_contract(record_type):
    args, bad, error, message = _record_cases()[record_type]
    init_fields = [f for f in fields(record_type) if f.init]
    names = [f.name for f in init_fields]
    # The signature is the dataclass's: init fields in order, their defaults and annotations.
    params = list(inspect.signature(record_type).parameters.values())
    assert [(p.name, p.kind, p.default, p.annotation) for p in params] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         inspect.Parameter.empty if f.default is MISSING else f.default, f.type)
        for f in init_fields
    ]
    obj = record_type(*args)
    assert obj == record_type(**dict(zip(names, args)))
    assert [getattr(obj, n) for n in names] == list(args)
    short = [a for a, f in zip(args, init_fields) if f.default is MISSING]
    assert record_type(*short) == replace(obj, **{f.name: f.default for f in init_fields if f.default is not MISSING})
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, args[0])
        with pytest.raises(FrozenInstanceError):
            delattr(obj, name)
    assert replace(obj) == obj and replace(obj) is not obj
    compared = tuple(getattr(obj, f.name) for f in fields(obj) if f.compare)
    try:
        want = hash(compared)
    except TypeError:  # a field holds a dict
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
    else:
        assert hash(obj) == want == hash(record_type(*args))
    shown = ", ".join(f"{f.name}={getattr(obj, f.name)!r}" for f in fields(obj) if f.repr)
    assert repr(obj) == f"{record_type.__qualname__}({shown})"
    copy = pickle.loads(pickle.dumps(obj))
    assert copy == obj and type(copy) is record_type
    assert [getattr(copy, f.name) for f in fields(obj)] == [getattr(obj, f.name) for f in fields(obj)]
    if bad is not None:
        with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
            replace(obj, **bad)
        assert "__post_init__" in [entry.name for entry in raised.traceback]


@pytest.mark.parametrize("record_type", RECORD_TYPES, ids=lambda t: t.__name__)
def test_record_types_compare_every_value_they_are_given(record_type):
    # A value that == ignores could differ between a record and its stored
    # row without any check seeing it.
    assert [f.name for f in fields(record_type) if f.init and not f.compare] == []


@pytest.mark.parametrize("record_type", RECORD_TYPES, ids=lambda t: t.__name__)
def test_record_constructors_store_fields_through_their_slots(record_type):
    # The dataclass __init__ of a frozen class sets each field through
    # object.__setattr__; slot_init's calls each slot's own descriptor.
    init = record_type.__init__
    names = [f.name for f in fields(record_type) if f.init]
    assert "__setattr__" not in init.__code__.co_names
    setters = {name: cell.cell_contents for name, cell in zip(init.__code__.co_freevars, init.__closure__)}
    for name in names:
        setter = setters[f"_set_{name}"]
        assert setter.__self__ is record_type.__dict__[name] and setter.__name__ == "__set__"


def test_slot_init_refuses_what_it_cannot_rebuild():
    @dataclass(frozen=True, slots=True)
    class Plain:
        a: int
        b: int = 2

    assert slot_init(Plain)(1).b == 2
    unhandled = {
        "not-frozen": dataclass(slots=True),
        "not-slotted": dataclass(frozen=True),
    }
    for name, make in unhandled.items():
        cls = make(type(name, (), {"__annotations__": {"a": "int"}}))
        with pytest.raises(TypeError, match=f"^slot_init cannot rebuild the __init__ of {name}$"):
            slot_init(cls)

    @dataclass(frozen=True, slots=True)
    class Factory:
        a: list = field(default_factory=list)

    @dataclass(frozen=True, slots=True)
    class KwOnly:
        a: int = field(kw_only=True)

    @dataclass(frozen=True, slots=True)
    class WithInitVar:
        a: int
        b: InitVar[int]

        def __post_init__(self, b):
            pass

    @dataclass(frozen=True, slots=True)
    class NotInitWithDefault:
        a: int
        b: int = field(init=False, default=3)

    for cls in (Factory, KwOnly, WithInitVar, NotInitWithDefault):
        with pytest.raises(TypeError, match="^slot_init cannot rebuild the __init__ of "):
            slot_init(cls)
