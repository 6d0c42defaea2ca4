import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ward_sentinel.errors import EmptyWindow, NonMonotonicTimestamp
from ward_sentinel.evaluation import FrameLabel, evaluate_frames
from ward_sentinel.flow import MotionRecord
from ward_sentinel.logic import (
    LogicalState,
    SmoothingWindow,
    attribute_roles,
    derive_state,
    occupancy,
    record_facts,
)
from ward_sentinel.model import ROLES, BoundingBox, DetectionRecord, PipelineConfig, RoleDistribution

from conftest import ROLE_ORDER, make_record, person_indices, random_stream, role_dist


def brute_force_state(records_by_ts, motions_by_ts, ts, cfg):
    """Oracle: re-read the raw records for one second from scratch.

    Window content is exactly the records with timestamp in
    (ts - window, ts], scanned in ascending order.
    """
    window = [
        records_by_ts[t]
        for t in range(ts - cfg.smoothing_window_s + 1, ts + 1)
        if t in records_by_ts
    ]
    counts = [len(person_indices(r)) for r in window]
    avg = sum(counts) / len(counts)
    # Roles past the end of boxes, or boxes past the end of roles, are unread.
    primaries = [
        role.primary()
        for r in window
        for b, role in zip(r.boxes, r.roles)
        if b.cls == "person" and role is not None
    ]
    any_patient = "patient" in primaries
    any_staff = "staff" in primaries
    scene = [
        motions_by_ts[r.ts].magnitudes["scene"]
        for r in window
        if r.ts in motions_by_ts
    ]
    moving = bool(scene) and sum(scene) / len(scene) > cfg.moving_threshold
    return LogicalState(
        session_id=window[-1].session_id,
        ts=ts,
        person_alone=avg < 2.0,
        patient_alone=avg < 2.0 and any_patient,
        supervised_by_staff=avg >= 2.0 and any_staff,
        moving=moving,
        smoothed_person_count=avg,
    )


class TestAttributeRoles:
    def test_patient_high_confidence(self):
        (dist,) = attribute_roles([{"patient": 0.9}])
        assert dist.scores == pytest.approx({"patient": 0.9, "staff": 0.05, "other": 0.05})
        assert dist.primary() == "patient"

    def test_staff_low_confidence(self):
        (dist,) = attribute_roles([{"staff": 0.4}])
        assert dist.scores == pytest.approx({"staff": 0.4, "patient": 0.3, "other": 0.3})

    def test_tie_breaks_to_patient(self):
        (dist,) = attribute_roles([{"patient": 0.5, "staff": 0.5}])
        assert dist.primary() == "patient"
        assert dist.scores == {"patient": 0.5, "staff": 0.25, "other": 0.25}

    def test_multiple_confidences_argmax_wins(self):
        (dist,) = attribute_roles([{"patient": 0.2, "staff": 0.7, "other": 0.1}])
        assert dist.scores == pytest.approx({"staff": 0.7, "patient": 0.15, "other": 0.15})

    @pytest.mark.parametrize("confs", [{}, {"bed": 0.9}])
    def test_no_signal_yields_uniform(self, confs, caplog):
        with caplog.at_level(logging.WARNING, logger="ward_sentinel.logic"):
            (dist,) = attribute_roles([confs])
        assert dist.scores == RoleDistribution.uniform().scores
        assert dist.scores == pytest.approx({r: 1 / 3 for r in ("patient", "staff", "other")})
        assert ["uniform" in r.getMessage() for r in caplog.records] == [True]

    @pytest.mark.parametrize("confs", [{"patient": 0.2}, {"staff": 1 / 3}, {"other": 0.0, "staff": 0.1}])
    def test_top_confidence_not_above_the_residual_yields_uniform(self, confs, caplog):
        # Splitting 1 - c would put the other roles at or above c.
        with caplog.at_level(logging.WARNING, logger="ward_sentinel.logic"):
            (dist,) = attribute_roles([confs])
        assert dist.scores == RoleDistribution.uniform().scores
        assert ["uniform" in r.getMessage() for r in caplog.records] == [True]

    def test_out_of_range_confidence_still_raises(self):
        with pytest.raises(ValueError, match=r"^score for patient out of \[0, 1\]: -0.5$"):
            attribute_roles([{"patient": -0.5}])

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.dictionaries(
        st.sampled_from(ROLES + ("bed",)),
        st.floats(0.0, 1.0) | st.sampled_from([0.0, 1 / 3, 0.3333333333333333, 0.33333333333333337, 0.5, 1.0]),
    ))
    def test_primary_is_the_top_role_or_the_uniform_fallback(self, confs):
        # The fallback holds exactly when the scores are uniform, so a stored
        # row's scores say whether it was taken.
        (dist,) = attribute_roles([confs])
        known = {r: c for r, c in confs.items() if r in ROLES}
        uniform = dist.scores == RoleDistribution.uniform().scores
        if not known:
            assert uniform
            return
        c = max(known.values())
        top = next(r for r in ROLES if known.get(r) == c)  # ties: patient > staff > other
        assert uniform == (c <= (1.0 - c) / 2.0)
        if not uniform:
            assert dist.primary() == top and dist.scores[top] == c


class TestSmoothingWindow:
    cfg = PipelineConfig()

    def test_eviction_keeps_last_five(self):
        w = SmoothingWindow(5)
        for ts in range(100, 106):
            w.push(make_record("s", ts, ["patient"] * (ts - 100)))
        assert len(w) == 5
        # seconds 101..105 hold 1..5 people; keeping 100 (0 people) would give 2.5
        assert derive_state(w, self.cfg).smoothed_person_count == 3.0

    def test_long_gap_resets(self):
        w = SmoothingWindow(5)
        w.push(make_record("s", 100))
        w.push(make_record("s", 110))
        assert len(w) == 1
        assert w.last_ts == 110

    def test_short_gap_keeps_recent(self):
        w = SmoothingWindow(5)
        w.push(make_record("s", 100, ["patient"]))
        w.push(make_record("s", 103, ["patient"] * 4))
        assert len(w) == 2
        assert derive_state(w, self.cfg).smoothed_person_count == 2.5

    def test_duplicate_ts_rejected(self):
        w = SmoothingWindow(5)
        w.push(make_record("s", 100))
        with pytest.raises(NonMonotonicTimestamp, match="^session s: ts 100 not after 100$"):
            w.push(make_record("s", 100))
        with pytest.raises(NonMonotonicTimestamp, match="^session s: ts 99 not after 100$"):
            w.push(make_record("s", 99))


class TestDeriveState:
    cfg = PipelineConfig()

    def _run(self, counts_roles, motions=None):
        w = SmoothingWindow(self.cfg.smoothing_window_s)
        for i, primaries in enumerate(counts_roles):
            ts = 1000 + i
            motion = None
            if motions is not None and motions[i] is not None:
                motion = MotionRecord({"scene": motions[i]})
            w.push(make_record("s", ts, primaries), motion)
        return derive_state(w, self.cfg)

    def test_patient_alone_quiet_room(self):
        state = self._run([["patient"]] * 5, motions=[0.0] * 5)
        assert state.person_alone and state.patient_alone
        assert not state.supervised_by_staff and not state.moving
        assert state.smoothed_person_count == 1.0

    def test_average_below_two_is_alone(self):
        counts = [1, 1, 1, 3, 3]
        state = self._run([["patient"] * c for c in counts])
        assert state.smoothed_person_count == pytest.approx(1.8)
        assert state.person_alone

    def test_two_with_staff_is_supervised(self):
        state = self._run([["patient", "staff"]] * 5)
        assert state.supervised_by_staff and not state.person_alone

    def test_two_without_staff_not_supervised(self):
        state = self._run([["patient", "other"]] * 5)
        assert not state.supervised_by_staff and not state.person_alone

    def test_moving_thresholds_window_mean(self):
        state = self._run([["patient"]] * 5, motions=[0.0, 0.0, 2.0, 2.0, 2.0])
        assert state.moving  # mean 1.2 > 0.5
        state = self._run([["patient"]] * 5, motions=[0.0, 0.0, 0.0, 0.0, 2.0])
        assert not state.moving  # mean 0.4 < 0.5

    def test_bed_only_motion_left_out_of_moving_mean(self):
        w = SmoothingWindow(self.cfg.smoothing_window_s)
        w.push(make_record("s", 1000, ["patient"]), MotionRecord({"scene": 0.6}))
        w.push(make_record("s", 1001, ["patient"]), MotionRecord({"bed": 0.0}))
        # the bed-only second is not a scene reading of 0: the mean stays 0.6
        assert derive_state(w, self.cfg).moving

    def test_no_motion_data_means_not_moving(self):
        state = self._run([["patient"]] * 3, motions=[None, None, None])
        assert not state.moving

    def test_empty_window_raises(self):
        with pytest.raises(EmptyWindow):
            derive_state(SmoothingWindow(5), self.cfg)


def reference_random_stream(rng, session_id, n_seconds, start_ts=1_700_000_000, gap_p=0.02):
    """random_stream as first written: rng.choice and a fresh make_record per second."""
    records, motions = [], {}
    ts = start_ts
    for _ in range(n_seconds):
        ts += 1 + (int(rng.integers(2, 30)) if rng.uniform() < gap_p else 0)
        count = int(rng.integers(0, 5))
        primaries = [str(rng.choice(ROLE_ORDER)) for _ in range(count)]
        records.append(make_record(session_id, ts, primaries))
        if rng.uniform() < 0.9:
            motions[ts] = MotionRecord({"scene": float(rng.uniform(0, 1.5))})
    return records, motions


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_stream_equals_the_reference_generator(seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    records, motions = random_stream(rng, "s", 3000, gap_p=0.05)
    ref_records, ref_motions = reference_random_stream(ref_rng, "s", 3000, gap_p=0.05)
    assert records == ref_records and motions == ref_motions
    assert rng.integers(0, 1 << 62) == ref_rng.integers(0, 1 << 62)  # same number of draws


class TestOracleEquivalence:
    @pytest.mark.parametrize("window_s", [1, 2, 5, 7])
    def test_streaming_equals_brute_force(self, window_s):
        cfg = PipelineConfig(smoothing_window_s=window_s)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            records, motions = random_stream(rng, f"s{seed}", 2000)
            by_ts = {r.ts: r for r in records}
            w = SmoothingWindow(cfg.smoothing_window_s)
            for rec in records:
                w.push(rec, motions.get(rec.ts))
                got = derive_state(w, cfg)
                expected = brute_force_state(by_ts, motions, rec.ts, cfg)
                assert got == expected  # exact, including the float average

    def test_unvalidated_records_equal_brute_force(self):
        # Persons without a role, non-person boxes with one, and roles tuples
        # shorter or longer than the boxes: the window judges them as the
        # oracle does, counting every person box and reading zipped roles.
        cfg = PipelineConfig()
        rng = np.random.default_rng(5)
        by_ts, w = {}, SmoothingWindow(cfg.smoothing_window_s)
        for ts in range(400):
            n = int(rng.integers(0, 5))
            classes = [str(rng.choice(("person", "bed", "chair"))) for _ in range(n)]
            boxes = tuple(BoundingBox(c, 10.0, 10.0, 5.0, 5.0, 0.5) for c in classes)
            m = n + int(rng.integers(-2, 2)) if rng.uniform() < 0.3 else n
            roles = tuple(
                None if rng.uniform() < 0.3 else role_dist(str(rng.choice(ROLES)))
                for _ in range(max(m, 0))
            )
            rec = by_ts[ts] = DetectionRecord("s", ts, boxes, roles)
            w.push(rec)
            assert derive_state(w, cfg) == brute_force_state(by_ts, {}, ts, cfg)

    def test_record_facts_equal_the_reference(self):
        # Unvalidated records: roles tuples shorter and longer than the boxes,
        # persons without a role and non-person boxes with one.
        def reference(rec):
            primaries = {
                r.primary() for b, r in zip(rec.boxes, rec.roles) if r is not None and b.cls == "person"
            }
            return len(person_indices(rec)), "patient" in primaries, "staff" in primaries

        rng = np.random.default_rng(8)
        shorter = longer = 0
        for ts in range(3000):
            n = int(rng.integers(0, 6))
            classes = [str(rng.choice(("person", "person", "bed", "chair"))) for _ in range(n)]
            boxes = tuple(BoundingBox(c, 10.0, 10.0, 5.0, 5.0, 0.5) for c in classes)
            m = max(n + int(rng.integers(-3, 4)), 0)
            shorter += m < n
            longer += m > n
            roles = tuple(
                None if rng.uniform() < 0.3 else role_dist(str(rng.choice(ROLES))) for _ in range(m)
            )
            rec = DetectionRecord("s", ts, boxes, roles)
            got, want = record_facts(rec), reference(rec)
            assert got == want and list(map(type, got)) == [int, bool, bool]
        assert shorter > 500 and longer > 500

    def test_every_person_box_counts_without_a_role(self):
        w = SmoothingWindow(5)
        w.push(DetectionRecord("s", 0, (BoundingBox("person", 10.0, 10.0, 5.0, 5.0, 0.5),), ()))
        assert derive_state(w, PipelineConfig()).smoothed_person_count == 1.0

    def test_one_second_state_frame_fallback_and_occupancy_agree(self):
        # Inference, frame evaluation's fallback and the rule itself read
        # each record alike; an empty label makes a predicted alone an fp.
        cfg = PipelineConfig(smoothing_window_s=1)
        records, _ = random_stream(np.random.default_rng(11), "s", 600)
        for rec in records:
            w = SmoothingWindow(1)
            w.push(rec)
            state = derive_state(w, cfg)
            flags = occupancy(*record_facts(rec))
            assert (state.person_alone, state.patient_alone, state.supervised_by_staff) == flags
            report = evaluate_frames([FrameLabel(rec.session_id, rec.ts, (), ())], [rec])
            assert report.patient_alone.fp == flags[1]

    def test_patient_alone_implies_person_alone(self):
        cfg = PipelineConfig()
        rng = np.random.default_rng(99)
        records, motions = random_stream(rng, "s", 3000)
        w = SmoothingWindow(cfg.smoothing_window_s)
        for rec in records:
            w.push(rec, motions.get(rec.ts))
            state = derive_state(w, cfg)
            assert state.person_alone or not state.patient_alone
            assert not (state.supervised_by_staff and state.person_alone)


class TestGlitchRobustness:
    def test_single_second_spike_never_flips_alone(self):
        cfg = PipelineConfig()
        for spike in (2, 3, 4, 5):
            for pos in range(4, 26):
                w = SmoothingWindow(cfg.smoothing_window_s)
                flipped = False
                for i in range(30):
                    count = spike if i == pos else 1
                    w.push(make_record("s", 500 + i, ["patient"] * count))
                    if i >= 4:  # past warm-up
                        flipped |= not derive_state(w, cfg).person_alone
                assert not flipped, f"spike {spike} at {pos} flipped person_alone"
