import hashlib
import json
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from ward_sentinel.errors import (
    AdapterError,
    MalformedRecord,
    NonMonotonicTimestamp,
    SchemaMismatch,
    TooSmallInput,
    UnknownAdapter,
    ValidationError,
)
from ward_sentinel import pipeline
from ward_sentinel.flow import MotionRecord
from ward_sentinel.geometry import CrossingEvent
from ward_sentinel.imageops import (
    _luma_plan,
    resize_bicubic,
    resize_bilinear,
    resize_luma_via,
    to_grayscale,
    to_uint8,
)
from ward_sentinel.logic import LogicalState
from ward_sentinel.model import (
    ANALYSIS_DIMS,
    DETECTOR_DIMS,
    FLOW_DIMS,
    ROLES,
    BoundingBox,
    DetectionRecord,
    Frame,
    PipelineConfig,
    RoleDistribution,
)
from ward_sentinel.pipeline import (
    DetectorOutput,
    DetectorPort,
    SourceItem,
    SyntheticDetector,
    frame_source,
    ingest_external,
    preprocess,
    rows_source,
    run_pipeline,
)
from ward_sentinel.schema import CanonicalRow, dumps_row, write_rows_jsonl
from ward_sentinel.simulator import NoiseModel, ScenarioSpec, ScheduleInterval, generate
from ward_sentinel import store as store_mod
from ward_sentinel.model import TS_MAX, TS_MIN
from ward_sentinel.store import CHUNK_LINES, Store

from conftest import make_record

CFG = PipelineConfig()
FLAT_CSV_HEADER = "session_id,ts,cls,x,y,w,h,conf,patient,staff,other\n"


def nir_frame(ts=0, width=960, height=540, value=128, session="s"):
    pixels = np.full((height, width, 1), value, dtype=np.uint8)
    return Frame(session, ts, width, height, "NIR", pixels)


class TestResize:
    def test_bilinear_identity_bit_exact(self, rng):
        img = rng.integers(0, 256, size=(50, 70, 3)).astype(np.float64)
        assert np.array_equal(resize_bilinear(img, 70, 50), img)

    @pytest.mark.parametrize("shape", [(540, 960, 1), (50, 70, 3), (33, 47), (612, 1088, 1)])
    def test_bilinear_of_uint8_is_bilinear_of_its_float64_copy(self, rng, shape):
        img = rng.integers(0, 256, size=shape, dtype=np.uint8)
        for out_w, out_h in ((1088, 612), (480, 270), (shape[1], shape[0])):
            out = resize_bilinear(img, out_w, out_h)
            assert out.dtype == np.float64
            assert np.array_equal(out, resize_bilinear(img.astype(np.float64), out_w, out_h))

    def test_to_uint8_rounds_then_clips(self, rng):
        img = rng.uniform(-300.0, 600.0, size=(61, 83, 3))
        img[0, :4, 0] = [-0.5, 0.5, 254.5, 255.49]
        assert np.array_equal(to_uint8(img), np.clip(np.rint(img), 0, 255).astype(np.uint8))

    def test_bilinear_exact_two_to_one_average(self):
        img = np.array([[0.0, 100.0], [50.0, 150.0]])
        out = resize_bilinear(img, 1, 1)
        assert out[0, 0] == pytest.approx(75.0)

    # Downscales on both stages, the identity first stage, upscales, sizes off
    # the band height and an extreme aspect ratio.
    @pytest.mark.parametrize(
        "w,h", [(960, 540), (1920, 1080), (1088, 612), (640, 480), (481, 271), (2000, 90), (64, 64)]
    )
    @pytest.mark.parametrize("channels", [1, 3])
    def test_luma_via_is_byte_equal_to_the_two_stage_formula(self, rng, w, h, channels):
        img = rng.integers(0, 256, size=(h, w, channels), dtype=np.uint8)
        got = resize_luma_via(img, *ANALYSIS_DIMS, *FLOW_DIMS)
        ref = resize_bilinear(to_grayscale(resize_bilinear(img, *ANALYSIS_DIMS)), *FLOW_DIMS)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "shape,mid,out",
        [
            ((50, 70, 3), (70, 50), (70, 50)),  # both stages the same size
            ((50, 70), (131, 97), (33, 47)),  # 2-D input, up then down
            ((90, 61, 3), (40, 200), (300, 7)),  # opposite directions per axis
            ((17, 23, 1), (23, 17), (480, 270)),  # identity, then upscale
        ],
    )
    def test_luma_via_other_sizes(self, rng, shape, mid, out):
        img = rng.integers(0, 256, size=shape, dtype=np.uint8)
        ref = resize_bilinear(to_grayscale(resize_bilinear(img, *mid)), *out)
        assert resize_luma_via(img, *mid, *out).tobytes() == ref.tobytes()

    def test_luma_plan_is_cached_and_read_only(self):
        plan = _luma_plan(960, 540, *ANALYSIS_DIMS, *FLOW_DIMS)
        assert _luma_plan(960, 540, *ANALYSIS_DIMS, *FLOW_DIMS) is plan
        x1, x2, bands = plan
        _, ins, y1, y2 = bands[0]
        for taps in (x1, x2, y1, y2):
            assert not any(a.flags.writeable for a in taps)
        assert not ins.flags.writeable
        # 960 of the 1088 intermediate columns are read, 480 x 2 taps
        assert len(x1[0]) == 960

    def test_bicubic_constant_preserved(self):
        img = np.full((64, 64), 113.0)
        out = resize_bicubic(img, 37, 51)
        assert np.allclose(out, 113.0)

    def test_bicubic_matches_linear_ramp(self):
        # cubic interpolation reproduces linear signals exactly (interior)
        img = np.tile(np.arange(64, dtype=float), (16, 1))
        out = resize_bicubic(img, 128, 16)
        dst = (np.arange(128) + 0.5) * (64 / 128) - 0.5
        assert np.allclose(out[8, 4:-4], dst[4:-4], atol=1e-9)


class TestPreprocess:
    def test_output_resolutions(self, rng):
        pixels = rng.integers(0, 256, size=(1080, 1920, 3), dtype=np.uint8)
        pre = preprocess(Frame("s", 0, 1920, 1080, "RGB", pixels))
        assert pre.analysis.shape == (612, 1088, 3)
        assert pre.detector.shape == (608, 608, 3)
        assert pre.flow_gray.shape == (270, 480)

    def test_analysis_identity_when_already_sized(self, rng):
        pixels = rng.integers(0, 256, size=(612, 1088, 3), dtype=np.uint8)
        pre = preprocess(Frame("s", 0, 1088, 612, "RGB", pixels))
        assert np.array_equal(pre.analysis, pixels)

    def test_constant_frame_constant_outputs(self):
        pre = preprocess(nir_frame(value=77))
        assert np.all(np.abs(pre.analysis.astype(int) - 77) <= 1)
        assert np.all(np.abs(pre.detector.astype(int) - 77) <= 1)
        assert np.all(np.abs(pre.flow_gray - 77) <= 1)

    def test_too_small_input(self):
        with pytest.raises(TooSmallInput):
            preprocess(nir_frame(width=60, height=200))

    def test_lazy_detector_equals_the_eager_resize(self, rng):
        pixels = rng.integers(0, 256, size=(540, 960, 3), dtype=np.uint8)
        pre = preprocess(Frame("s", 0, 960, 540, "RGB", pixels))
        analysis = resize_bilinear(pixels.astype(np.float64), *ANALYSIS_DIMS)
        eager = to_uint8(resize_bicubic(analysis, *DETECTOR_DIMS))
        assert pre.detector.dtype == np.uint8 and pre.detector.shape == (608, 608, 3)
        assert np.array_equal(pre.detector, eager)
        assert pre.detector is pre.detector  # resized on the first read only

    def test_lazy_analysis_equals_the_eager_conversion(self, rng):
        pixels = rng.integers(0, 256, size=(540, 960, 3), dtype=np.uint8)
        pre = preprocess(Frame("s", 0, 960, 540, "RGB", pixels))
        eager = to_uint8(resize_bilinear(pixels.astype(np.float64), *ANALYSIS_DIMS))
        assert pre.analysis.dtype == np.uint8 and pre.analysis.shape == (612, 1088, 3)
        assert np.array_equal(pre.analysis, eager)
        assert pre.analysis is pre.analysis  # converted on the first read only

    @pytest.mark.parametrize("mode,channels", [("NIR", 1), ("RGB", 3)])
    def test_analysis_image_is_built_on_first_read_only(self, rng, mode, channels):
        pixels = rng.integers(0, 256, size=(540, 960, channels), dtype=np.uint8)
        pre = preprocess(Frame("s", 0, 960, 540, mode, pixels))
        ref = resize_bilinear(to_grayscale(resize_bilinear(pixels, *ANALYSIS_DIMS)), *FLOW_DIMS)
        assert pre.flow_gray.tobytes() == ref.tobytes()
        assert "analysis_float" not in pre.__dict__
        analysis = pre.analysis_float
        assert "analysis_float" in pre.__dict__ and pre.analysis_float is analysis
        assert analysis.tobytes() == resize_bilinear(pixels, *ANALYSIS_DIMS).tobytes()


def _scenario(duration=120, **kwargs):
    schedule = kwargs.pop(
        "schedule", (ScheduleInterval(0, duration, patients=1, motion=0.0),)
    )
    return ScenarioSpec(seed=21, duration_s=duration, schedule=schedule, **kwargs)


class TestRunPipeline:
    def test_one_hour_replay_has_3600_contiguous_rows(self, tmp_path):
        sim = generate(_scenario(duration=3600), CFG)
        store = Store(tmp_path / "store")
        stats = run_pipeline(
            rows_source(CanonicalRow(r, sim.motions.get(r.ts)) for r in sim.records),
            CFG,
            store,
        )
        assert stats.rows == 3600
        rows = list(store.iter_rows())
        assert len(rows) == 3600
        ts = [r.record.ts for r in rows]
        assert ts == list(range(ts[0], ts[0] + 3600))
        assert all(r.logical is not None for r in rows)

    def test_source_gap_resets_window_and_motion(self, tmp_path):
        sim = generate(_scenario(duration=100), CFG)
        items = []
        for r in sim.records:
            if 40 <= r.ts - sim.spec.start_ts < 70:
                continue  # 30-second hole
            items.append(
                SourceItem(
                    session_id=r.session_id,
                    ts=r.ts,
                    record=r,
                    motion=sim.motions.get(r.ts),
                )
            )
        store = Store(tmp_path / "store")
        stats = run_pipeline(iter(items), CFG, store)
        assert stats.rows == 70
        rows = list(store.iter_rows())
        stored_ts = {r.record.ts for r in rows}
        gap = {sim.spec.start_ts + t for t in range(40, 70)}
        assert not (stored_ts & gap)  # nothing fabricated
        first_after = next(
            r for r in rows if r.record.ts == sim.spec.start_ts + 70
        )
        assert first_after.logical.smoothed_person_count == 1.0  # window restarted

    def test_with_frames_computes_motion(self, tmp_path):
        spec = _scenario(
            duration=30,
            schedule=(ScheduleInterval(0, 30, patients=1, motion=2.0),),
        )
        sim = generate(spec, CFG)
        store = Store(tmp_path / "store")
        stats = run_pipeline(
            frame_source(sim.frames()), CFG, store, detector=SyntheticDetector(sim)
        )
        assert stats.rows / stats.elapsed_s >= 1.0  # the real-time budget
        rows = list(store.iter_rows())
        assert rows[0].motion is None  # no previous frame yet
        scene = [r.motion.magnitudes["scene"] for r in rows[1:]]
        assert all(m > CFG.moving_threshold for m in scene)
        assert np.mean(scene) == pytest.approx(2.0, abs=0.4)
        assert all(r.logical.moving for r in rows[6:])
        # bed ROI motion present because the simulator always reports a bed
        assert "bed" in rows[1].motion.magnitudes

    def test_frame_mode_never_resizes_for_the_detector(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("the detector-resolution resize ran")

        monkeypatch.setattr(pipeline, "resize_bicubic", refuse)
        sim = generate(_scenario(duration=4), CFG)
        stats = run_pipeline(
            frame_source(sim.frames()), CFG, Store(tmp_path / "store"), detector=SyntheticDetector(sim)
        )
        assert stats.rows == 4

    def test_frame_mode_never_converts_the_analysis_image(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("the analysis image was converted to uint8")

        monkeypatch.setattr(pipeline, "to_uint8", refuse)
        sim = generate(_scenario(duration=4), CFG)
        stats = run_pipeline(
            frame_source(sim.frames()), CFG, Store(tmp_path / "store"), detector=SyntheticDetector(sim)
        )
        assert stats.rows == 4

    def test_frame_mode_never_builds_the_analysis_image(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("the analysis image was built")

        monkeypatch.setattr(pipeline, "resize_bilinear", refuse)
        monkeypatch.setattr(pipeline, "to_grayscale", refuse)
        sim = generate(_scenario(duration=4), CFG)
        stats = run_pipeline(
            frame_source(sim.frames()), CFG, Store(tmp_path / "store"), detector=SyntheticDetector(sim)
        )
        assert stats.rows == 4

    def test_flow_cache_matches_plain_arrays_and_a_gap_drops_it(self, tmp_path, monkeypatch):
        spec = _scenario(duration=9, schedule=(ScheduleInterval(0, 9, patients=1, motion=1.5),))
        sim = generate(spec, CFG)
        frames = [f for f in sim.frames() if f.ts - spec.start_ts not in (4, 5)]  # a 3 s gap
        real = pipeline.farneback_flow
        calls = []

        def spy(prev, cur, params):
            already_expanded = bool(prev.expansions)
            field = real(prev, cur, params)
            calls.append((prev, cur, already_expanded, field))
            return field

        monkeypatch.setattr(pipeline, "farneback_flow", spy)
        run_pipeline(frame_source(frames), CFG, Store(tmp_path / "store"), detector=SyntheticDetector(sim))
        # pairs (0,1) (1,2) (2,3), the gap, then (6,7) (7,8)
        assert len(calls) == 5
        for prev, cur, _, field in calls:
            plain = real(prev.gray, cur.gray, CFG.flow)
            assert np.array_equal(field.dx, plain.dx) and np.array_equal(field.dy, plain.dy)
        assert [c[2] for c in calls] == [False, True, True, False, True]
        for before, after in ((0, 1), (1, 2), (3, 4)):
            assert calls[after][0] is calls[before][1]
        # the frame before the gap is never a previous frame again
        assert calls[3][0] is not calls[2][1]

    def test_zone_crossings_written(self, tmp_path):
        from ward_sentinel.simulator import OccupantTrack

        zone = ((400.0, 300.0), (700.0, 300.0), (700.0, 560.0), (400.0, 560.0))
        track = OccupantTrack("staff", ((50, 100.0, 430.0), (150, 550.0, 430.0)))
        spec = _scenario(duration=200, tracks=(track,), zone=zone)
        sim = generate(spec, CFG)
        cfg = PipelineConfig(zones={"sim": zone})
        store = Store(tmp_path / "store")
        stats = run_pipeline(
            rows_source(CanonicalRow(r, sim.motions.get(r.ts)) for r in sim.records),
            cfg,
            store,
        )
        assert stats.crossings == len(sim.gt_crossings) == 1
        crossing_file = tmp_path / "store" / "sessions" / "sim" / "crossings.jsonl"
        assert crossing_file.exists()
        assert '"direction":"entry"' in crossing_file.read_text()

    def test_default_zone_applies_only_to_sessions_without_their_own(self, tmp_path):
        from ward_sentinel.simulator import OccupantTrack

        zone = ((400.0, 300.0), (700.0, 300.0), (700.0, 560.0), (400.0, 560.0))
        corner = ((900.0, 20.0), (1060.0, 20.0), (1060.0, 120.0), (900.0, 120.0))
        track = OccupantTrack("staff", ((50, 100.0, 430.0), (150, 550.0, 430.0)))
        rows = []
        for sid in ("own", "fallback"):
            sim = generate(_scenario(duration=200, tracks=(track,), session_id=sid), CFG)
            rows += [CanonicalRow(r, sim.motions.get(r.ts)) for r in sim.records]
        cfg = PipelineConfig(zones={"default": zone, "own": corner})
        stats = run_pipeline(rows_source(rows), cfg, Store(tmp_path / "store"))
        sessions = tmp_path / "store" / "sessions"
        assert stats.crossings == 1
        assert not (sessions / "own" / "crossings.jsonl").exists()
        crossings = (sessions / "fallback" / "crossings.jsonl").read_text().splitlines()
        assert [json.loads(c)["direction"] for c in crossings] == ["entry"]

    def test_missing_detector_for_bare_item(self, tmp_path):
        item = SourceItem(session_id="s", ts=1, record=None, motion=None)
        with pytest.raises(AdapterError):
            run_pipeline(iter([item]), CFG, Store(tmp_path / "store"))

    def test_detector_adapter_error_propagates_once(self, tmp_path):
        class MissingDetector(DetectorPort):
            def detect(self, session_id, ts, frame=None):
                raise AdapterError("no recorded detections", session_id, ts)

        item = SourceItem(session_id="s", ts=1)
        with pytest.raises(AdapterError) as info:
            run_pipeline(iter([item]), CFG, Store(tmp_path / "store"), detector=MissingDetector())
        assert str(info.value) == "no recorded detections [session=s ts=1]"
        assert info.value.__cause__ is None

    @pytest.mark.parametrize("n_confidences", [1, 3], ids=["short", "long"])
    def test_role_confidences_must_parallel_boxes(self, tmp_path, n_confidences):
        rec = make_record("s", 7, ["patient"])  # a bed and one person

        class FixedDetector(DetectorPort):
            def detect(self, session_id, ts, frame=None):
                confs = (None, {"patient": 0.9}, {"staff": 0.8})[:n_confidences]
                return DetectorOutput(boxes=rec.boxes, role_confidences=confs)

        item = SourceItem(session_id="s", ts=7)
        with pytest.raises(AdapterError) as info:
            run_pipeline(iter([item]), CFG, Store(tmp_path / "store"), detector=FixedDetector())
        assert str(info.value) == f"{n_confidences} role confidences for 2 boxes [session=s ts=7]"
        assert (info.value.session_id, info.value.ts) == ("s", 7)

    @pytest.mark.parametrize("key", [("other", 7), ("s", 8)], ids=["session", "ts"])
    def test_record_must_match_item_key(self, tmp_path, key):
        item = SourceItem(session_id="s", ts=7, record=make_record(*key, ["patient"]))
        with pytest.raises(MalformedRecord):
            run_pipeline(iter([item]), CFG, Store(tmp_path / "store"))

    @pytest.mark.parametrize("key", [("other", 7), ("s", 6)], ids=["session", "ts"])
    def test_motion_must_match_item_key(self, tmp_path, key):
        item = SourceItem(
            session_id="s",
            ts=7,
            record=make_record("s", 7, ["patient"]),
            motion=MotionRecord(*key, {"scene": 2.0}),
        )
        with pytest.raises(MalformedRecord) as info:
            run_pipeline(iter([item]), CFG, Store(tmp_path / "store"))
        assert str(info.value) == f"motion {key[0]}@{key[1]} on record s@7"
        assert not (tmp_path / "store").exists()

    def test_motion_key_that_is_no_roi_kind_raises_and_leaves_no_store(self, tmp_path):
        def source():
            for ts, kind in ((7, "scene"), (8, "foo")):
                yield SourceItem("s", ts, None, make_record("s", ts, ["patient"]), MotionRecord("s", ts, {kind: 0.5}))

        with pytest.raises(ValueError, match=re.escape("unknown motion keys ['foo']")):
            run_pipeline(source(), CFG, Store(tmp_path / "store"))
        assert not (tmp_path / "store").exists()

    def test_frame_and_replay_modes_store_identical_bytes(self, tmp_path):
        from ward_sentinel.simulator import OccupantTrack

        zone = ((400.0, 300.0), (700.0, 300.0), (700.0, 560.0), (400.0, 560.0))
        track = OccupantTrack("staff", ((1, 100.0, 430.0), (9, 550.0, 430.0)))
        spec = _scenario(
            duration=10,
            schedule=(ScheduleInterval(0, 10, patients=1, motion=1.0),),
            tracks=(track,),
            zone=zone,
            noise=NoiseModel(p_miss=0.1, p_spur=0.1, p_role=0.1),
        )
        sim = generate(spec, CFG)
        cfg = PipelineConfig(zones={"sim": zone})
        frames_store = Store(tmp_path / "frames")
        run_pipeline(frame_source(sim.frames()), cfg, frames_store, detector=SyntheticDetector(sim))
        run_pipeline(rows_source(frames_store.iter_rows()), cfg, Store(tmp_path / "replay"))

        def tree(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        frames_tree = tree(tmp_path / "frames")
        assert any(p.name == "crossings.jsonl" for p in frames_tree)
        assert tree(tmp_path / "replay") == frames_tree

    @pytest.mark.parametrize("mode", ["frames", "replay"])
    def test_session_step_returns_what_run_pipeline_stores_without_a_store(self, tmp_path, monkeypatch, mode):
        from dataclasses import asdict

        from ward_sentinel.simulator import OccupantTrack
        from ward_sentinel.store import SessionWriter

        zone = ((400.0, 300.0), (700.0, 300.0), (700.0, 560.0), (400.0, 560.0))
        track = OccupantTrack("staff", ((2, 100.0, 430.0), (7, 650.0, 430.0)))
        spec = _scenario(
            duration=8,
            schedule=(ScheduleInterval(0, 8, patients=1, motion=1.0),),
            tracks=(track,),
            zone=zone,
            noise=NoiseModel(p_miss=0.1, p_spur=0.1, p_role=0.1),
        )
        sim = generate(spec, CFG)
        cfg = PipelineConfig(zones={"sim": zone})
        gap = spec.start_ts + 2
        if mode == "frames":
            frames = [f for f in sim.frames() if f.ts != gap]
            items, detector = list(frame_source(frames)), SyntheticDetector(sim)
        else:
            rows = [CanonicalRow(r, sim.motions.get(r.ts)) for r in sim.records if r.ts != gap]
            items, detector = list(rows_source(rows)), None

        def refuse(*args, **kwargs):
            raise AssertionError("a step touched the store")

        with monkeypatch.context() as m:
            for owner, attr in ((Store, "__init__"), (Store, "writer"), (SessionWriter, "__init__")):
                m.setattr(owner, attr, refuse)
            state = pipeline._SessionState(cfg, "sim")
            lines, events = [], []
            for item in items:
                row, crossings = state.step(item, detector)
                lines.append(dumps_row(row))
                events += [asdict(e) for e in crossings]
        assert not any(isinstance(v, (Store, SessionWriter)) for v in vars(state).values())

        stats = run_pipeline(iter(items), cfg, Store(tmp_path / "store"), detector=detector)
        session = tmp_path / "store" / "sessions" / "sim"
        stored = [line for seg in stats.sealed_segments if not seg.endswith("crossings.jsonl")
                  for line in (tmp_path / "store" / seg).read_text().splitlines()]
        assert lines == stored and len(lines) == 7
        assert events and events == [json.loads(c) for c in (session / "crossings.jsonl").read_text().splitlines()]
        assert stats.crossings == len(events)

    def test_numpy_numbers_from_a_detector_port_store_the_bytes_of_equal_python_numbers(self, tmp_path):
        sim = generate(_scenario(duration=8, schedule=(ScheduleInterval(0, 8, patients=1, staff=1),)), CFG)

        class ConvertingDetector(DetectorPort):
            """The simulation's boxes and role confidences with each number passed through convert."""

            def __init__(self, convert):
                self.convert = convert

            def detect(self, session_id, ts, frame=None):
                rec, c = sim.detections_by_ts()[ts], self.convert
                boxes = tuple(BoundingBox(b.cls, c(b.x), c(b.y), c(b.w), c(b.h), c(b.confidence)) for b in rec.boxes)
                confs = tuple(None if r is None else {r.primary(): c(r.scores[r.primary()])} for r in rec.roles)
                return DetectorOutput(boxes, confs)

        trees = []
        for name, convert in (("numpy", np.float32), ("python", lambda v: float(np.float32(v)))):
            items = [SourceItem(sim.spec.session_id, r.ts) for r in sim.records]
            run_pipeline(iter(items), CFG, Store(tmp_path / name), detector=ConvertingDetector(convert))
            root = tmp_path / name
            trees.append({p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()})
        assert trees[0] == trees[1] and len(trees[0]) > 1

    def test_other_detector_failure_wrapped_once(self, tmp_path):
        class BrokenDetector(DetectorPort):
            def detect(self, session_id, ts, frame=None):
                raise RuntimeError("model crashed")

        item = SourceItem(session_id="s", ts=1)
        with pytest.raises(AdapterError) as info:
            run_pipeline(iter([item]), CFG, Store(tmp_path / "store"), detector=BrokenDetector())
        assert str(info.value) == "model crashed [session=s ts=1]"
        assert (info.value.session_id, info.value.ts) == ("s", 1)
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_end_to_end_determinism(self, tmp_path):
        spec = _scenario(duration=150, noise=NoiseModel(p_miss=0.1))
        digests = []
        for name in ("a", "b"):
            sim = generate(spec, CFG)
            store = Store(tmp_path / name)
            run_pipeline(
                rows_source(CanonicalRow(r, sim.motions.get(r.ts)) for r in sim.records),
                CFG,
                store,
            )
            import hashlib

            tree = {}
            for p in sorted((tmp_path / name).rglob("*")):
                if p.is_file():
                    tree[str(p.relative_to(tmp_path / name))] = hashlib.sha256(
                        p.read_bytes()
                    ).hexdigest()
            digests.append(tree)
        assert digests[0] == digests[1]


def _walker_streams(rng, session_ids, seconds):
    """Interleaved random streams of 0-4 persons each: walkers that step, jump
    past the matching gate, leave and return, a bed box in some seconds, gaps,
    anchors on the grid of pixel edges and centers, and anchors on the frame's
    bottom edge (boxes that reach y = 612, or past it and are clamped there)."""
    fw, fh = ANALYSIS_DIMS
    bed = BoundingBox("bed", 300.0, 250.0, 380.0, 240.0, 0.9)
    walkers = {sid: [[rng.uniform(0, fw), rng.uniform(0, fh), False] for _ in range(4)] for sid in session_ids}
    ts = {sid: 1_700_000_000 for sid in session_ids}
    rows = []
    for _ in range(seconds):
        for sid in session_ids:
            ts[sid] += 1 + (int(rng.integers(1, 4)) if rng.uniform() < 0.04 else 0)
            boxes, roles = ([bed], [None]) if rng.uniform() < 0.5 else ([], [])
            for walker in walkers[sid]:
                if rng.uniform() < 0.1:
                    walker[2] = not walker[2]  # leaves or comes back
                if not walker[2]:
                    continue
                x, y, _ = walker
                kind = rng.uniform()
                if kind < 0.05:
                    x, y = rng.uniform(0, fw), rng.uniform(0, fh)  # beyond the gate
                else:
                    x = min(max(x + rng.normal(0, 30), 5.0), fw)
                    y = min(max(y + rng.normal(0, 30), 25.0), fh + 15.0)
                if kind > 0.8:
                    y = float(fh)  # exactly on the bottom edge
                elif kind > 0.6:
                    x, y = round(2 * x) / 2, round(2 * y) / 2  # pixel edges and centers
                walker[:2] = x, y
                w, h = 10.0, 20.0
                boxes.append(BoundingBox("person", x - w / 2, y - h, w, h, 0.8))
                roles.append(RoleDistribution({"patient": 0.8, "staff": 0.1, "other": 0.1}))
            rows.append(CanonicalRow(DetectionRecord(sid, ts[sid], tuple(boxes), tuple(roles))))
    return rows


def _raster_crossings(rows, cfg):
    """Oracle: every consecutive pair of a session's validated records, anchors
    matched by np.hypot of every pair, membership read from the rasterized
    1088x612 mask at the pixel under each anchor clamped to the frame."""
    from test_geometry import _match_by_hypot_of_every_pair

    from ward_sentinel.geometry import Polygon, anchor_point, expand_polygon, rasterize
    from ward_sentinel.model import validate_record

    fw, fh = ANALYSIS_DIMS
    gate = 0.15 * float(np.hypot(fw, fh))

    def inside(mask, x, y):
        return bool(mask[min(max(int(np.floor(y)), 0), fh - 1), min(max(int(np.floor(x)), 0), fw - 1)])

    events, prev, masks = {}, {}, {}
    for row in rows:
        cur = validate_record(row.record, ANALYSIS_DIMS)
        sid = cur.session_id
        if sid not in masks:
            masks[sid] = rasterize(expand_polygon(Polygon(cfg.zone_for(sid)), cfg.safety_zone_expansion), fw, fh).bits
        last, prev[sid] = prev.get(sid), cur
        if last is None or cur.ts != last.ts + 1:
            continue
        ci = cur.person_indices()
        pa = [anchor_point(last.boxes[i]) for i in last.person_indices()]
        ca = [anchor_point(cur.boxes[i]) for i in ci]
        for i, j in _match_by_hypot_of_every_pair(pa, ca, gate):
            was, now = inside(masks[sid], *pa[i]), inside(masks[sid], *ca[j])
            if was != now:
                event = {"direction": "exit" if was else "entry", "person_index": ci[j], "session_id": sid, "ts": cur.ts}
                events.setdefault(sid, []).append(event)
    return events


class TestCrossingParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_crossings_equal_the_pairwise_raster_oracle(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        sids = ("a", "b")
        # float vertices, some past the frame's edges; "b" reaches below the bottom edge
        zones = {
            sid: tuple((cx + r * np.cos(t), cy + r * np.sin(t)) for t, r in zip(
                np.sort(rng.uniform(0, 2 * np.pi, 7)), rng.uniform(80, 300, 7)))
            for sid, (cx, cy) in zip(sids, ((rng.uniform(300, 800), rng.uniform(200, 400)), (544.0, 600.0)))
        }
        cfg = PipelineConfig(zones=zones)
        rows = _walker_streams(rng, sids, 400)
        stats = run_pipeline(rows_source(rows), cfg, Store(tmp_path / "store"))
        want = _raster_crossings(rows, cfg)
        assert stats.crossings == sum(map(len, want.values())) > 0
        for sid in sids:
            path = tmp_path / "store" / "sessions" / sid / "crossings.jsonl"
            got = [json.loads(line) for line in path.read_text().splitlines()] if path.exists() else []
            assert got == want.get(sid, [])


class TestStore:
    def test_verify_detects_tampering(self, tmp_path):
        sim = generate(_scenario(duration=50), CFG)
        store = Store(tmp_path / "store")
        run_pipeline(
            rows_source(CanonicalRow(r) for r in sim.records), CFG, store
        )
        assert store.verify() >= 1
        segment = next((tmp_path / "store" / "sessions").rglob("*.jsonl"))
        segment.write_text(segment.read_text() + "tail\n")
        with pytest.raises(ValidationError):
            store.verify()

    def test_writer_enforces_order(self, tmp_path):
        store = Store(tmp_path / "store")
        with pytest.raises(NonMonotonicTimestamp), store.writer() as w:
            w.append(CanonicalRow(make_record("s", 100)))
            w.append(CanonicalRow(make_record("s", 101)))
            w.append(CanonicalRow(make_record("t", 100)))  # each session has its own order
            w.append(CanonicalRow(make_record("s", 101)))
        assert not store.root.exists()

    def test_writer_stores_a_crossing_as_one_sorted_line(self, tmp_path):
        store = Store(tmp_path / "store")
        with store.writer() as w:
            w.append(CanonicalRow(make_record("a", 7)))
            w.append_crossing(CrossingEvent("a", 7, "exit", 0))
        crossings = (tmp_path / "store" / "sessions" / "a" / "crossings.jsonl").read_text()
        assert crossings == '{"direction":"exit","person_index":0,"session_id":"a","ts":7}\n'

    @pytest.mark.parametrize("part", ["motion", "logical"])
    @pytest.mark.parametrize("key", [("b", 7), ("a", 99), ("c", 5)], ids=["session", "ts", "both"])
    def test_row_whose_motion_or_state_has_another_key_never_reaches_the_writer(self, tmp_path, part, key):
        store = Store(tmp_path / "store")
        with store.writer() as w:
            w.append(CanonicalRow(make_record("a", 6)))
            other = {
                "motion": MotionRecord(*key, {"scene": 0.5}),
                "logical": LogicalState(*key, True, True, False, False, 1.0),
            }[part]
            with pytest.raises(MalformedRecord) as info:
                w.append(CanonicalRow(make_record("a", 7), **{part: other}))
            assert str(info.value) == f"{part} {key[0]}@{key[1]} on record a@7"
        assert [r.record.ts for r in store.iter_rows()] == [6]

    def test_rows_partitioned_by_date(self, tmp_path):
        store = Store(tmp_path / "store")
        day = 86400
        with store.writer() as w:
            w.append(CanonicalRow(make_record("s", day - 1)))
            w.append(CanonicalRow(make_record("s", day)))
        files = sorted(
            p.name for p in (tmp_path / "store" / "sessions" / "s").glob("*.jsonl")
        )
        assert files == ["1970-01-01.jsonl", "1970-01-02.jsonl"]

    @pytest.mark.parametrize("session_id", ["", ".", "..", "../out", "a/b", "a\\b", "a\0b"])
    @pytest.mark.parametrize("crossing", [False, True], ids=["row", "crossing"])
    def test_writer_refuses_session_id_that_is_not_one_path_component(self, tmp_path, session_id, crossing):
        with pytest.raises(MalformedRecord, match="not a single path component"), Store(tmp_path / "store").writer() as w:
            w.append(CanonicalRow(make_record("ok", 7)))
            if crossing:
                w.append_crossing(CrossingEvent(session_id, 7, "exit", 0))
            w.append(CanonicalRow(make_record(session_id, 7)))
        assert not any(tmp_path.iterdir())

    def test_iter_rows_names_segment_and_line_of_bad_row(self, tmp_path):
        store = Store(tmp_path / "store")
        with store.writer() as w:
            for ts in (100, 101, 102):
                w.append(CanonicalRow(make_record("s", ts)))
        segment = tmp_path / "store" / "sessions" / "s" / "1970-01-01.jsonl"
        lines = segment.read_text().splitlines()
        lines[1] = lines[1].replace('"ts":101', '"ts":"x"')
        segment.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaMismatch, match=re.escape(f"{segment}:2: bad canonical row")):
            list(store.iter_rows())

    @staticmethod
    def _sealed(root, days_by_session, crossing=None):
        """A store with one row per listed day per session, plus one crossing if given."""
        store = Store(root)
        with store.writer() as w:
            for sid, days in days_by_session.items():
                for day in days:
                    w.append(CanonicalRow(make_record(sid, day * 86400 + 7)))
                if crossing == sid:
                    w.append_crossing(CrossingEvent(sid, days[0] * 86400 + 7, "exit", 0))
        return store

    def test_iter_rows_follows_manifest_order_and_session_filter(self, tmp_path):
        store = self._sealed(tmp_path / "store", {"a-b": [0, 1], "a": [0, 1]}, crossing="a")
        assert (tmp_path / "store" / "sessions" / "a" / "crossings.jsonl").exists()
        # Path order puts sessions/a/ before sessions/a-b/; the raw keys would not.
        assert [(r.record.session_id, r.record.ts // 86400) for r in store.iter_rows()] == [
            ("a", 0), ("a", 1), ("a-b", 0), ("a-b", 1)
        ]
        assert {r.record.session_id for r in store.iter_rows("a")} == {"a"}
        assert list(store.iter_rows("absent")) == []

    def test_iter_rows_skips_segment_the_manifest_does_not_list(self, tmp_path):
        store = self._sealed(tmp_path / "store", {"a": [0], "b": [0]})
        listed = tmp_path / "store" / "sessions" / "a" / "1970-01-01.jsonl"
        (listed.parent / "1970-01-01.copy.jsonl").write_bytes(listed.read_bytes())
        stray = tmp_path / "store" / "sessions" / "c"
        stray.mkdir()
        (stray / "1970-01-01.jsonl").write_bytes(listed.read_bytes())
        assert store.verify() == 2
        assert [r.record.session_id for r in store.iter_rows()] == ["a", "b"]

    def test_missing_listed_segment_raises_the_same_error_in_every_reader(self, tmp_path):
        store = self._sealed(tmp_path / "store", {"a": [0, 1], "b": [0]})
        (tmp_path / "store" / "sessions" / "a" / "1970-01-02.jsonl").unlink()
        message = "manifest segment missing on disk: sessions/a/1970-01-02.jsonl"
        for read in (store.verify, lambda: list(store.iter_rows()), lambda: list(store.iter_rows("b"))):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                read()

    @pytest.mark.parametrize(
        "key",
        [
            "../x.jsonl",
            "sessions/../../x.jsonl",
            "sessions/a/../x.jsonl",
            "sessions/../x.jsonl",
            "sessions/a/x.txt",
            "/abs/x.jsonl",
            "other/a/x.jsonl",
        ],
    )
    def test_manifest_key_outside_sessions_layout_is_rejected_unread(self, tmp_path, key, monkeypatch):
        store = self._sealed(tmp_path / "store", {"a": [0]})
        manifest = json.loads(store.manifest_path.read_text())
        manifest["segments"][key] = dict(manifest["segments"]["sessions/a/1970-01-01.jsonl"])
        store.manifest_path.write_text(json.dumps(manifest))
        opened = []
        monkeypatch.setattr("builtins.open", lambda *a, **k: opened.append(a))
        for read in (store.verify, lambda: list(store.iter_rows())):
            with pytest.raises(ValidationError, match="manifest segment key .* is not sessions/"):
                read()
        assert opened == []

    def test_verify_reads_an_entry_without_sha256_as_a_mismatch(self, tmp_path):
        store = self._sealed(tmp_path / "store", {"a": [0]})
        store.manifest_path.write_text(
            json.dumps({"schema_version": 1, "segments": {"sessions/a/1970-01-01.jsonl": {"rows": 1}}})
        )
        with pytest.raises(ValidationError, match="^segment hash mismatch: sessions/a/1970-01-01.jsonl$"):
            store.verify()

    @pytest.mark.parametrize(
        "content",
        [
            "{not json",
            "[]",
            '{"schema_version": 1}',
            '{"schema_version": 1, "segments": []}',
            '{"schema_version": 1, "segments": {"sessions/a/1970-01-01.jsonl": 5}}',
        ],
        ids=["not-json", "not-object", "no-segments", "segments-not-object", "entry-not-object"],
    )
    def test_corrupt_manifest_is_a_validation_error(self, tmp_path, content):
        store = Store(tmp_path / "store")
        store.root.mkdir()
        store.manifest_path.write_text(content)
        for read in (store.load_manifest, store.verify, lambda: list(store.iter_rows())):
            with pytest.raises(ValidationError, match=re.escape(str(store.manifest_path))):
                read()


def _tree(root) -> dict:
    """Every path under root, files mapped to their bytes and directories to None."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


class TestStreamingWriter:
    T = 1_709_251_200  # 2024-03-01T00:00:00Z

    def _rows(self, sid, n, start=T):
        return [CanonicalRow(make_record(sid, ts, ["patient"])) for ts in range(start, start + n)]

    def test_a_full_chunk_goes_to_the_tmp_file_and_seal_moves_it_into_place(self, tmp_path):
        store = Store(tmp_path / "store")
        rows = self._rows("s", CHUNK_LINES + 3)
        with store.writer() as w:
            for row in rows[:CHUNK_LINES - 1]:
                w.append(row)
            assert not store.root.exists()  # nothing is written before the first chunk fills
            for row in rows[CHUNK_LINES - 1:]:
                w.append(row)
            tmp = store.root / "sessions" / "s" / "2024-03-01.jsonl.tmp"
            assert tmp.read_text() == "".join(dumps_row(r) + "\n" for r in rows[:CHUNK_LINES])
            assert [p.name for p in store.root.rglob("*") if p.is_file()] == [tmp.name]
        assert w.sealed == ["sessions/s/2024-03-01.jsonl"]
        data = "".join(dumps_row(r) + "\n" for r in rows).encode()
        assert (store.root / "sessions" / "s" / "2024-03-01.jsonl").read_bytes() == data
        assert store.load_manifest()["segments"] == {
            "sessions/s/2024-03-01.jsonl": {"sha256": hashlib.sha256(data).hexdigest(), "rows": len(rows)}
        }
        assert sorted(p.name for p in store.root.rglob("*")) == ["2024-03-01.jsonl", "manifest.json", "s", "sessions"]

    def test_a_date_change_flushes_the_previous_date(self, tmp_path):
        store = Store(tmp_path / "store")
        session = store.root / "sessions" / "s"
        with store.writer() as w:
            for row in self._rows("s", 3, self.T - 2):
                w.append(row)
            assert sorted(p.name for p in session.iterdir()) == ["2024-02-29.jsonl.tmp"]
            assert len((session / "2024-02-29.jsonl.tmp").read_text().splitlines()) == 2
        assert w.sealed == ["sessions/s/2024-02-29.jsonl", "sessions/s/2024-03-01.jsonl"]

    def test_first_flush_truncates_a_tmp_file_left_by_a_killed_run(self, tmp_path):
        store = Store(tmp_path / "store")
        session = store.root / "sessions" / "s"
        session.mkdir(parents=True)
        (session / "2024-03-01.jsonl.tmp").write_text("left over\n")
        rows = self._rows("s", 2)
        with store.writer() as w:
            for row in rows:
                w.append(row)
        assert (session / "2024-03-01.jsonl").read_text() == "".join(dumps_row(r) + "\n" for r in rows)
        assert [r.record.ts for r in store.iter_rows()] == [self.T, self.T + 1]

    def test_rows_at_the_ends_of_the_calendar_are_stored(self, tmp_path):
        store = Store(tmp_path / "store")
        with store.writer() as w:
            for ts in (TS_MIN, TS_MAX):
                w.append(CanonicalRow(make_record("s", ts)))
        assert w.sealed == ["sessions/s/0001-01-01.jsonl", "sessions/s/9999-12-31.jsonl"]
        assert [r.record.ts for r in store.iter_rows()] == [TS_MIN, TS_MAX]

    def test_manifest_is_replaced_through_a_tmp_file(self, tmp_path, monkeypatch):
        store = Store(tmp_path / "store")
        with store.writer() as w:
            w.append(CanonicalRow(make_record("s", self.T)))
        before = store.manifest_path.read_bytes()
        replaced = []
        real_replace = store_mod.os.replace

        def replace(src, dst):
            replaced.append((Path(src).name, Path(dst).name))
            if Path(dst).name == "manifest.json":
                raise OSError("disk gone")
            real_replace(src, dst)

        monkeypatch.setattr(store_mod.os, "replace", replace)
        with pytest.raises(OSError, match="disk gone"), store.writer() as w:
            w.append(CanonicalRow(make_record("t", self.T)))
        assert replaced == [("2024-03-01.jsonl.tmp", "2024-03-01.jsonl"), ("manifest.json.tmp", "manifest.json")]
        assert store.manifest_path.read_bytes() == before  # never half written
        assert not (store.root / "manifest.json.tmp").exists()  # the failed save removes its .tmp
        monkeypatch.undo()
        with store.writer() as w:
            w.append(CanonicalRow(make_record("t", self.T)))
        manifest = store.load_manifest()
        assert store.manifest_path.read_text() == json.dumps(manifest, sort_keys=True, indent=1) + "\n"
        assert not (store.root / "manifest.json.tmp").exists()

    def _old_store(self, root) -> Store:
        store = Store(root)
        with store.writer() as w:
            for row in self._rows("old", 5):
                w.append(row)
            w.append_crossing(CrossingEvent("old", self.T + 1, "exit", 0))
        return store

    @pytest.mark.parametrize("existing", [True, False], ids=["existing-store", "new-store"])
    @pytest.mark.parametrize("entry", ["run_pipeline", "ingest_external"])
    def test_failed_run_leaves_the_store_as_it_was(self, tmp_path, monkeypatch, entry, existing):
        root = tmp_path / "store"
        store = self._old_store(root) if existing else Store(root)
        before = _tree(tmp_path)
        n = CHUNK_LINES + 90  # rows per session: each fills one chunk before the error
        a, b = self._rows("a", n), self._rows("b", n)
        if entry == "run_pipeline":
            call = partial(run_pipeline, rows_source(r for pair in zip(a, b) for r in pair), CFG, store)
        else:
            path = tmp_path / "in.jsonl"
            write_rows_jsonl(b + a, path)
            call = partial(ingest_external, path, "canonical", store)
            before = _tree(tmp_path)
        real_dumps, calls, tmp_seen = store_mod.dumps_row, [], []

        def failing_dumps(row):
            calls.append(row)
            if len(calls) == 2 * n - 20:  # after a's and b's first flush
                tmp_seen.extend(sorted(p.relative_to(root) for p in root.rglob("*.tmp")))
                raise RuntimeError("encoder fault")
            return real_dumps(row)

        monkeypatch.setattr(store_mod, "dumps_row", failing_dumps)
        with pytest.raises(RuntimeError, match="encoder fault"):
            call()
        assert [str(p) for p in tmp_seen] == ["sessions/a/2024-03-01.jsonl.tmp", "sessions/b/2024-03-01.jsonl.tmp"]
        assert _tree(tmp_path) == before

    def test_successful_run_leaves_no_tmp_file(self, tmp_path):
        store = self._old_store(tmp_path / "store")
        n = 2 * CHUNK_LINES + 5
        run_pipeline(rows_source(self._rows("a", n)), CFG, store)
        assert not list(store.root.rglob("*.tmp"))
        assert store.verify() == 3
        assert [r.record.ts for r in store.iter_rows("a")] == list(range(self.T, self.T + n))

    @pytest.mark.parametrize("entry", ["run_pipeline", "ingest_external"])
    def test_a_failing_seal_step_leaves_the_manifest_as_it_was(self, tmp_path, monkeypatch, entry):
        store = self._old_store(tmp_path / "store")
        before, old_rows = store.manifest_path.read_bytes(), [dumps_row(r) for r in store.iter_rows()]
        a, b = self._rows("a", CHUNK_LINES + 5), self._rows("b", CHUNK_LINES + 5)
        if entry == "run_pipeline":
            # a is seen first, so sealed first, but b fills a chunk and makes its directory first
            call = partial(run_pipeline, rows_source([a[0], *b, *a[1:]]), CFG, store)
        else:
            path = tmp_path / "in.jsonl"
            write_rows_jsonl(b + a, path)
            call = partial(ingest_external, path, "canonical", store)
        real_replace, replaced = store_mod.os.replace, []

        def replace(src, dst):
            if Path(src).parent.name == "b":  # the second session's segment
                raise OSError("disk gone")
            replaced.append(Path(dst).relative_to(store.root).as_posix())
            real_replace(src, dst)

        monkeypatch.setattr(store_mod.os, "replace", replace)
        with pytest.raises(OSError, match="disk gone"):
            call()
        monkeypatch.undo()
        assert replaced == ["sessions/a/2024-03-01.jsonl"]
        assert store.manifest_path.read_bytes() == before
        assert store.verify() == 2
        assert [dumps_row(r) for r in store.iter_rows()] == old_rows
        assert not list(store.root.rglob("*.tmp"))
        # The segment moved into place before the failure stays on disk, unlisted.
        files = sorted(p.relative_to(store.root).as_posix() for p in store.root.rglob("*") if p.is_file())
        assert files == [
            "manifest.json", *replaced, "sessions/old/2024-03-01.jsonl", "sessions/old/crossings.jsonl"
        ]
        assert not (store.root / "sessions" / "b").exists()

    def test_runs_that_overlap_keep_each_others_manifest_entries(self, tmp_path):
        store = Store(tmp_path / "store")
        with store.writer() as first:
            first.append(CanonicalRow(make_record("x", self.T)))
            with store.writer() as second:
                second.append(CanonicalRow(make_record("y", self.T)))
        assert sorted(store.load_manifest()["segments"]) == sorted(first.sealed + second.sealed)
        assert store.verify() == 2

    def test_one_writer_of_interleaved_sessions_stores_what_one_run_per_session_stores(self, tmp_path):
        n = CHUNK_LINES + 40  # a full chunk, and a date change 20 rows in
        rows = {sid: self._rows(sid, n, self.T - 20) for sid in ("a", "b")}
        crossed = {"a": {self.T - 3, self.T + 5}, "b": {self.T + 5, self.T + 400}}

        def write(w, sid, row):
            ts = row.record.ts
            if ts in crossed[sid]:
                w.append_crossing(CrossingEvent(sid, ts, "entry" if ts % 2 else "exit", 0))
            w.append(row)

        together = Store(tmp_path / "together")
        with together.writer() as w:
            for pair in zip(rows["a"], rows["b"]):
                for sid, row in zip(("a", "b"), pair):
                    write(w, sid, row)
        apart = Store(tmp_path / "apart")
        for sid in ("a", "b"):
            with apart.writer() as w:
                for row in rows[sid]:
                    write(w, sid, row)
        assert len(w.sealed) == 3

        def tree(root):
            return {p.relative_to(root): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}

        assert tree(together.root) == tree(apart.root)
        assert sum(p.name == "crossings.jsonl" for p in tree(together.root)) == 2


class TestIngest:
    def _rows(self, n=10, session="ing"):
        return [CanonicalRow(make_record(session, 1000 + i, ["patient"])) for i in range(n)]

    def test_round_trip_row_count(self, tmp_path):
        path = tmp_path / "in.jsonl"
        write_rows_jsonl(self._rows(), path)
        report = ingest_external(path, "canonical", Store(tmp_path / "store"))
        assert report.rows_ok == 10 and report.rows_rejected == 0

    def test_bad_rows_rejected_with_line_numbers(self, tmp_path):
        path = tmp_path / "in.jsonl"
        lines = [dumps_row(r) for r in self._rows(4)]
        lines.insert(2, '{"session_id": "ing", "ts": "not-a-number"}')
        path.write_text("\n".join(lines) + "\n")
        report = ingest_external(path, "canonical", Store(tmp_path / "store"))
        assert report.rows_ok == 4
        assert report.rows_rejected == 1
        assert report.errors[0][0] == 3  # 1-based line number

    def test_non_finite_box_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "in.jsonl"
        lines = [dumps_row(r) for r in self._rows(4)]
        lines[1] = lines[1].replace('"x":50.0', '"x":NaN')
        assert "NaN" in lines[1]
        path.write_text("\n".join(lines) + "\n")
        store = Store(tmp_path / "store")
        report = ingest_external(path, "canonical", store)
        assert (report.rows_ok, report.rows_rejected) == (3, 1)
        assert report.errors[0][0] == 2
        assert "NaN" in report.errors[0][1]
        assert [r.record.ts for r in store.iter_rows()] == [1000, 1002, 1003]
        assert "NaN" not in (tmp_path / "store" / "sessions" / "ing" / "1970-01-01.jsonl").read_text()

    def test_adapter_row_whose_motion_or_state_has_another_key_is_rejected_by_its_line(self, tmp_path, monkeypatch):
        def keyed_rows(path):
            yield 1, lambda: CanonicalRow(make_record("a", 1, ["patient"]))
            yield 2, lambda: CanonicalRow(make_record("a", 2, ["patient"]), MotionRecord("b", 99, {"scene": 0.5}))
            yield 3, lambda: CanonicalRow(
                make_record("a", 3, ["patient"]), logical=LogicalState("c", 5, True, True, False, False, 1.0)
            )

        monkeypatch.setitem(pipeline.ADAPTERS, "keyed", keyed_rows)
        store = Store(tmp_path / "store")
        report = ingest_external(tmp_path / "unused", "keyed", store)
        assert (report.rows_ok, report.rows_rejected) == (1, 2)
        assert report.errors == ((2, "motion b@99 on record a@2"), (3, "logical c@5 on record a@3"))
        assert [(r.record.session_id, r.record.ts) for r in store.iter_rows()] == [("a", 1)]

    def test_double_ingest_idempotent(self, tmp_path):
        path = tmp_path / "in.jsonl"
        write_rows_jsonl(self._rows(), path)
        store = Store(tmp_path / "store")
        ingest_external(path, "canonical", store)
        first = {
            p: p.read_bytes() for p in sorted((tmp_path / "store").rglob("*")) if p.is_file()
        }
        ingest_external(path, "canonical", store)
        second = {
            p: p.read_bytes() for p in sorted((tmp_path / "store").rglob("*")) if p.is_file()
        }
        assert first == second

    def test_unknown_adapter(self, tmp_path):
        with pytest.raises(UnknownAdapter):
            ingest_external(tmp_path / "x", "bigquery", Store(tmp_path / "store"))

    def test_flat_csv_adapter(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            "session_id,ts,cls,x,y,w,h,conf,patient,staff,other\n"
            "r1,100,person,10,10,40,90,0.8,0.9,0.05,0.05\n"
            "r1,100,bed,300,250,380,240,0.92,,,\n"
            "r1,101,person,12,10,40,90,0.8,0.1,0.8,0.1\n"
        )
        store = Store(tmp_path / "store")
        report = ingest_external(path, "flat-csv", store)
        assert report.rows_ok == 2
        rows = list(store.iter_rows())
        assert rows[0].record.person_count() == 1
        assert rows[0].record.boxes[1].cls == "bed" or rows[0].record.boxes[0].cls == "bed"
        assert rows[1].record.roles[0].primary() == "staff"

    @pytest.mark.parametrize(
        "bad_line",
        [
            "r1,abc,person,10,10,40,90,0.8,0.9,0.05,0.05",
            "r1,101,person,ten,10,40,90,0.8,0.9,0.05,0.05",
            "r1,101,person,nan,10,40,90,0.8,0.9,0.05,0.05",
            "r1,101,sofa,10,10,40,90,0.8,,,",
            "r1,101,person,10,10,40,90,1.5,0.9,0.05,0.05",
            "r1,101,person,10,10,40,90,0.8,0.9,0.2,0.05",
            "r1,101,person,10,10,40,90,0.8,,,",
        ],
        ids=[
            "ts-not-integer",
            "x-not-numeric",
            "nan-geometry",
            "unknown-class",
            "confidence-above-one",
            "roles-sum-1.15",
            "person-empty-roles",
        ],
    )
    def test_flat_csv_bad_line_rejected_with_line_number(self, tmp_path, bad_line):
        path = tmp_path / "in.csv"
        path.write_text(
            FLAT_CSV_HEADER
            + "r1,100,person,10,10,40,90,0.8,0.9,0.05,0.05\n"
            + bad_line
            + "\n"
            + "r1,102,person,12,10,40,90,0.8,0.1,0.8,0.1\n"
        )
        store = Store(tmp_path / "store")
        report = ingest_external(path, "flat-csv", store)
        assert (report.rows_ok, report.rows_rejected) == (2, 1)
        assert report.errors[0][0] == 3
        assert [r.record.ts for r in store.iter_rows()] == [100, 102]

    @pytest.mark.parametrize(
        "before_bad",
        ['"r\n1",100,person,10,10,40,90,0.8,0.9,0.05,0.05\n', "r1,100,bed,300,250,380,240,0.92,,,\n\n"],
        ids=["quoted-line-break", "blank-line"],
    )
    def test_flat_csv_line_numbers_count_file_lines(self, tmp_path, before_bad):
        path = tmp_path / "in.csv"
        path.write_text(
            FLAT_CSV_HEADER
            + before_bad
            + "r1,abc,person,10,10,40,90,0.8,0.9,0.05,0.05\n"  # file line 4
            + "r1,101,person,12,10,40,90,0.8,0.1,0.8,0.1\n"
        )
        report = ingest_external(path, "flat-csv", Store(tmp_path / "store"))
        assert (report.rows_ok, report.rows_rejected) == (2, 1)
        assert [n for n, _ in report.errors] == [4]

    def test_flat_csv_record_with_one_bad_line_rejected_whole(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            FLAT_CSV_HEADER
            + "r1,100,person,10,10,40,90,0.8,0.9,0.05,0.05\n"
            + "r1,100,bed,nan,250,380,240,0.92,,,\n"
            + "r1,101,person,12,10,40,90,0.8,0.1,0.8,0.1\n"
        )
        store = Store(tmp_path / "store")
        report = ingest_external(path, "flat-csv", store)
        assert (report.rows_ok, report.rows_rejected) == (1, 1)
        assert [n for n, _ in report.errors] == [2]
        assert [r.record.ts for r in store.iter_rows()] == [101]

    def test_flat_csv_line_without_a_session_id_is_rejected_by_its_line(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            "ts,cls,x,y,w,h,conf,patient,staff,other,session_id\n"
            + "100,person,10,10,40,90,0.8,0.9,0.05,0.05,r1\n"
            + "101,person,10,10,40,90,0.8,0.9,0.05,0.05\n"  # the session_id field is missing
        )
        report = ingest_external(path, "flat-csv", Store(tmp_path / "store"))
        assert (report.rows_ok, report.rows_rejected) == (1, 1)
        assert report.errors == ((3, "bad flat-csv line: session_id must be a string, got None"),)

    def test_duplicate_ts_keeps_first_line(self, tmp_path):
        path = tmp_path / "in.jsonl"
        rows = self._rows(3)
        write_rows_jsonl(rows + [CanonicalRow(make_record("ing", 1001, ["staff"]))], path)
        store = Store(tmp_path / "store")
        report = ingest_external(path, "canonical", store)
        assert (report.rows_ok, report.rows_rejected) == (3, 1)
        assert report.errors == ((4, "duplicate ts 1001 for session ing"),)
        assert [dumps_row(r) for r in store.iter_rows()] == [dumps_row(r) for r in rows]


# A store built by the pipeline from hand-made rows, pinned byte for byte: two
# sessions, one straddling UTC midnight with a 12 s gap (longer than the 5 s
# window), walkers that enter and leave the safety zone, boxes the clamp
# rebuilds (a stored w of 10.0 from an int 10, a box past each frame edge),
# int geometry the clamp keeps, int role scores and every motion-key subset.
GOLDEN_MIDNIGHT = 1_709_337_600  # 2024-03-02T00:00:00Z
GOLDEN_ZONE = ((400.0, 300.0), (700.0, 300.0), (700.0, 560.0), (400.0, 560.0))
GOLDEN_STORE = {  # manifest key: sha256 of the file
    "sessions/ward-a/2024-03-01.jsonl": "4887f821c6b73f276aef400e9dcc5534a85e38c63a9df1a6547f543fd3d53e87",
    "sessions/ward-a/2024-03-02.jsonl": "6c041b10f7ee2d1b6921c3fa1d5e9f3e1d595435fe8b3960ec48c4e437bebe56",
    "sessions/ward-a/crossings.jsonl": "688ce166d4eac192db3a23799d82313ec65b72cf0a67f9a2bce4d4f3fe65c6e4",
    "sessions/ward-b/2024-03-01.jsonl": "7602a599223ce8140e9dc29239504e3d40c70e0cce0dabb75264f98995770fb7",
    "sessions/ward-b/crossings.jsonl": "a2d04fd6bde302f8ad24ab1f7c0133c3e6f5d26bf64637f0bff434405da9c0cb",
}
GOLDEN_MANIFEST = "a034cfab772b92a6d3d00a55f1805538c552cf891e919a14b564516c505965c7"  # manifest.json


def _golden_record(session_id: str, ts: int, t: int, walker_x: float, walker_role: str) -> CanonicalRow:
    def person(x, y, w, h, conf, scores):
        return BoundingBox("person", x, y, w, h, conf), RoleDistribution(dict(zip(ROLES, scores)))

    walker_scores = (0.9, 0.05, 0.05) if walker_role == "patient" else (0.05, 0.9, 0.05)
    pairs = [
        (BoundingBox("bed", 300.0, 250.0, 380.0, 240.0, 0.92), None),
        person(walker_x, 340.0, 40.0, 90.0, 0.81, walker_scores),
    ]
    if t % 2:
        pairs.append((BoundingBox("chair", 5.0, 5.0, 10, 10, 0.5), None))  # stored as w 10.0, h 10.0
    else:
        pairs.append((BoundingBox("chair", 20, 30, 40, 50, 1), None))  # stored as ints
    if t % 7 < 3:
        pairs.append(person(900.0, 100.0 + t, 50.0, 110.0, 0.66, (0, 1, 0)))
    if t % 11 == 0:
        pairs.append(person(-12.5, 200.0, 60.0, 120.0, 0.7, (0.2, 0.2, 0.6)))  # past the left edge
    if t % 13 == 0:
        pairs.append((BoundingBox("chair", 1080.0, 600.0, 20.0, 30.0, 0.4), None))  # past the right and bottom
    boxes, roles = zip(*pairs)
    motion = None
    if t % 10 != 9:
        keys = ("scene", "bed", "safety_zone")  # every subset, by the bits of t
        mags = {k: (t % 9) * 0.125 + i for i, k in enumerate(keys) if (t >> i) & 1}
        motion = MotionRecord(session_id, ts, mags)
    return CanonicalRow(DetectionRecord(session_id, ts, boxes, roles), motion)


def _golden_rows() -> list[CanonicalRow]:
    rows = []
    start_a = GOLDEN_MIDNIGHT - 25
    for t in range(70):
        if 30 <= t < 42:
            continue  # the gap
        x = 100.0 + 25.0 * t if t < 30 else 825.0 - 25.0 * (t - 42)
        rows.append((start_a + t, 0, _golden_record("ward-a", start_a + t, t, x, "patient")))
    start_b = GOLDEN_MIDNIGHT - 40
    for t in range(40):
        x = 520.0 - 30.0 * t if t < 15 else 100.0 + 30.0 * (t - 15)
        rows.append((start_b + t, 1, _golden_record("ward-b", start_b + t, t, x, "staff")))
    return [row for *_, row in sorted(rows, key=lambda e: e[:2])]


def test_pipeline_store_bytes_are_pinned(tmp_path):
    cfg = PipelineConfig(zones={"default": GOLDEN_ZONE})
    store = Store(tmp_path / "store")
    stats = run_pipeline(rows_source(_golden_rows()), cfg, store)
    assert stats.rows == 98 and stats.sessions == 2
    segments = store.load_manifest()["segments"]
    digests = {rel: hashlib.sha256((tmp_path / "store" / rel).read_bytes()).hexdigest() for rel in segments}
    stored = "".join((tmp_path / "store" / rel).read_text() for rel in sorted(segments))
    assert '"direction":"entry"' in stored and '"direction":"exit"' in stored
    assert '"h":10.0,"w":10.0,"x":5.0' in stored and '"h":50,"w":40,"x":20,"y":30' in stored
    assert digests == GOLDEN_STORE
    assert hashlib.sha256((tmp_path / "store" / "manifest.json").read_bytes()).hexdigest() == GOLDEN_MANIFEST
