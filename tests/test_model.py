import json
import re

import numpy as np
import pytest

from ward_sentinel.errors import MalformedRecord, SchemaMismatch
from ward_sentinel.model import (
    BoundingBox,
    DetectionRecord,
    Frame,
    PipelineConfig,
    RoleDistribution,
    validate_record,
)
from ward_sentinel.flow import MotionRecord
from ward_sentinel.logic import LogicalState
from ward_sentinel.schema import CanonicalRow, dumps_row, loads_row, obj_to_label

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


def test_role_distribution_tie_breaks_patient_first():
    d = RoleDistribution({"patient": 0.4, "staff": 0.4, "other": 0.2})
    assert d.primary() == "patient"
    d = RoleDistribution({"patient": 0.1, "staff": 0.45, "other": 0.45})
    assert d.primary() == "staff"


def test_frame_buffer_validation():
    with pytest.raises(ValueError):
        Frame("s", 0, 10, 10, "RGB", np.zeros((10, 10, 1), dtype=np.uint8))
    f = Frame("s", 0, 10, 8, "NIR", np.zeros((8, 10, 1), dtype=np.uint8))
    assert f.channels == 1
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
        MotionRecord("s", 7, {"scene": value})
    with pytest.raises(ValueError, match="finite"):
        LogicalState("s", 7, True, True, False, False, value)


def _full_row_obj() -> dict:
    rec = make_record("s", 7, ["patient"])
    motion = MotionRecord("s", 7, {"scene": 0.3, "bed": 0.1})
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
