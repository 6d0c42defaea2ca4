import json
import re

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
from ward_sentinel.imageops import (
    _luma_plan,
    resize_bicubic,
    resize_bilinear,
    resize_luma_via,
    to_grayscale,
    to_uint8,
)
from ward_sentinel.model import ANALYSIS_DIMS, DETECTOR_DIMS, FLOW_DIMS, Frame, PipelineConfig
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
from ward_sentinel.store import Store

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
        assert str(info.value) == f"motion {key[0]}@{key[1]} on source item s@7"

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
        w = store.writer("s")
        w.append(CanonicalRow(make_record("s", 100)))
        with pytest.raises(NonMonotonicTimestamp):
            w.append(CanonicalRow(make_record("s", 100)))

    def test_rows_partitioned_by_date(self, tmp_path):
        store = Store(tmp_path / "store")
        w = store.writer("s")
        day = 86400
        w.append(CanonicalRow(make_record("s", day - 1)))
        w.append(CanonicalRow(make_record("s", day)))
        w.seal()
        files = sorted(
            p.name for p in (tmp_path / "store" / "sessions" / "s").glob("*.jsonl")
        )
        assert files == ["1970-01-01.jsonl", "1970-01-02.jsonl"]

    @pytest.mark.parametrize("session_id", ["", ".", "..", "../out", "a/b", "a\\b", "a\0b"])
    def test_writer_refuses_session_id_that_is_not_one_path_component(self, tmp_path, session_id):
        with pytest.raises(MalformedRecord, match="not a single path component"):
            Store(tmp_path / "store").writer(session_id)
        assert not any(p.is_file() for p in tmp_path.rglob("*"))

    def test_iter_rows_names_segment_and_line_of_bad_row(self, tmp_path):
        store = Store(tmp_path / "store")
        w = store.writer("s")
        for ts in (100, 101, 102):
            w.append(CanonicalRow(make_record("s", ts)))
        w.seal()
        segment = tmp_path / "store" / "sessions" / "s" / "1970-01-01.jsonl"
        lines = segment.read_text().splitlines()
        lines[1] = lines[1].replace('"ts":101', '"ts":"x"')
        segment.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaMismatch, match=re.escape(f"{segment}:2: bad canonical row")):
            list(store.iter_rows())


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

    def test_duplicate_ts_keeps_first_line(self, tmp_path):
        path = tmp_path / "in.jsonl"
        rows = self._rows(3)
        write_rows_jsonl(rows + [CanonicalRow(make_record("ing", 1001, ["staff"]))], path)
        store = Store(tmp_path / "store")
        report = ingest_external(path, "canonical", store)
        assert (report.rows_ok, report.rows_rejected) == (3, 1)
        assert report.errors == ((4, "duplicate ts 1001 for session ing"),)
        assert [dumps_row(r) for r in store.iter_rows()] == [dumps_row(r) for r in rows]
