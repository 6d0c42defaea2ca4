import re

import numpy as np
import pytest

from ward_sentinel.errors import (
    EmptyPeriod,
    MisalignedFrames,
    NonConvergence,
    NoOverlap,
    SingleClassTarget,
    UnsortedInput,
)
from ward_sentinel import evaluation
from ward_sentinel.evaluation import (
    FrameLabel,
    evaluate_frames,
    frame_id,
    fit_logistic,
    iou,
    manual_accuracy,
    match_boxes,
    prf1,
    trend_accuracy,
)
from ward_sentinel.logic import LogicalState
from ward_sentinel.model import BoundingBox, DetectionRecord, PipelineConfig
from ward_sentinel.trends import ObservationLog

from conftest import role_dist

MIDNIGHT = 1709251200  # 2024-03-01T00:00:00Z


def greedy_match_oracle(preds, gts, threshold):
    """Plain-loop re-implementation of greedy-by-confidence matching."""
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].confidence, i))
    taken = set()
    matches = []
    for pi in order:
        candidates = []
        for j in range(len(gts)):
            if j in taken:
                continue
            v = iou(preds[pi], gts[j])
            if v >= threshold:
                candidates.append((v, -j))  # highest IoU, then lowest index
        if candidates:
            v, negj = max(candidates)
            taken.add(-negj)
            matches.append((pi, -negj))
    tp = len(matches)
    return tp, len(preds) - tp, len(gts) - tp, sorted(matches)


def majority_rule_accuracy(x, y):
    """Closed-form accuracy of a monotone single-feature classifier:
    each x-group is predicted as its own majority y."""
    x = np.asarray(x)
    y = np.asarray(y)
    total = 0
    for v in np.unique(x):
        ys = y[x == v]
        total += max(int((ys == 1).sum()), int((ys == 0).sum()))
    return total / len(y)


def box(x, y, w, h, conf=1.0, cls="person"):
    return BoundingBox(cls, x, y, w, h, conf)


class TestIoU:
    def test_identical_boxes(self):
        assert iou(box(0, 0, 10, 10), box(0, 0, 10, 10)) == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        assert iou(box(0, 0, 10, 10), box(20, 20, 5, 5)) == 0.0

    def test_half_overlap(self):
        assert iou(box(0, 0, 10, 10), box(5, 0, 10, 10)) == pytest.approx(1 / 3)


class TestMatchBoxes:
    def test_exact_match(self):
        tp, fp, fn, matches = match_boxes([box(0, 0, 10, 10)], [box(0, 0, 10, 10)], 0.5)
        assert (tp, fp, fn) == (1, 0, 0) and matches == [(0, 0)]

    def test_disjoint(self):
        tp, fp, fn, _ = match_boxes([box(0, 0, 10, 10)], [box(50, 50, 10, 10)], 0.5)
        assert (tp, fp, fn) == (0, 1, 1)

    def test_confidence_order_decides_contention(self):
        gt = [box(0, 0, 10, 10)]
        preds = [box(1, 0, 10, 10, conf=0.6), box(0, 0, 10, 10, conf=0.9)]
        tp, fp, fn, matches = match_boxes(preds, gt, 0.5)
        assert (tp, fp, fn) == (1, 1, 0)
        assert matches == [(1, 0)]  # high-confidence pred claims the gt

    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(300):
            n_p, n_g = int(rng.integers(0, 7)), int(rng.integers(0, 7))
            preds = [
                box(rng.uniform(0, 80), rng.uniform(0, 80), rng.uniform(5, 40),
                    rng.uniform(5, 40), conf=float(rng.uniform(0.05, 1.0)))
                for _ in range(n_p)
            ]
            gts = [
                box(rng.uniform(0, 80), rng.uniform(0, 80), rng.uniform(5, 40),
                    rng.uniform(5, 40))
                for _ in range(n_g)
            ]
            tp, fp, fn, matches = match_boxes(preds, gts, 0.5)
            assert (tp, fp, fn, sorted(matches)) == greedy_match_oracle(preds, gts, 0.5)


class TestPrf1:
    def test_balanced_point_nine(self):
        assert prf1(9, 1, 1) == pytest.approx((0.9, 0.9, 0.9))

    def test_degenerate_zero(self):
        assert prf1(0, 0, 5) == (0.0, 0.0, 0.0)
        assert prf1(0, 0, 0) == (0.0, 0.0, 0.0)

    def test_headline_arithmetic_shape(self):
        # the published headline F1 of 0.92 corresponds to 92/8/8 counts
        p, r, f1 = prf1(92, 8, 8)
        assert (p, r, f1) == pytest.approx((0.92, 0.92, 0.92), abs=1e-9)

    def test_swapping_fp_fn_swaps_p_and_r(self, rng):
        for _ in range(20):
            tp, fp, fn = (int(v) for v in rng.integers(0, 50, size=3))
            p1, r1, f1a = prf1(tp, fp, fn)
            p2, r2, f1b = prf1(tp, fn, fp)
            assert (p1, r1) == (r2, p2)
            assert f1a == pytest.approx(f1b)


def fit_logistic_reference(x, y):
    """Oracle: fit_logistic's Newton loop as it was when every iteration
    computed X @ w afresh and the accuracy re-read expit(X @ w)."""
    from scipy.special import expit

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    X = np.column_stack([np.ones_like(x), x])
    w = np.zeros(2)

    def penalized_loglik(wv):
        eta = X @ wv
        return float(np.sum(y * eta - np.logaddexp(0.0, eta)) - 0.5 * evaluation.RIDGE * wv @ wv)

    ll = penalized_loglik(w)
    for _ in range(evaluation.MAX_NEWTON_ITER):
        eta = X @ w
        p = expit(eta)
        grad = X.T @ (y - p) - evaluation.RIDGE * w
        if np.linalg.norm(grad) <= evaluation.GRAD_TOL:
            break
        weights = p * (1.0 - p)
        hess = X.T @ (weights[:, None] * X) + evaluation.RIDGE * np.eye(2)
        step = np.linalg.solve(hess, grad)
        t = 1.0
        for _ in range(40):
            cand = w + t * step
            cand_ll = penalized_loglik(cand)
            if cand_ll >= ll - 1e-12:
                w, ll = cand, cand_ll
                break
            t *= 0.5
        else:
            raise NonConvergence("step halving failed to improve the objective")
    else:
        raise NonConvergence("no convergence")
    return w, float(np.mean((expit(X @ w) >= 0.5) == (y > 0.5)))


class TestFitLogistic:
    def test_weights_and_accuracy_bits_equal_the_reference_loop(self, rng):
        cases = []
        for _ in range(30):  # random, of any balance and agreement
            n = int(rng.integers(2, 600))
            x = (rng.uniform(size=n) < rng.uniform(0.05, 0.95)).astype(float)
            y = (rng.uniform(size=n) < rng.uniform(0.05, 0.95)).astype(float)
            y[:2] = (0.0, 1.0)
            cases.append((x, y))
        for n in (2, 10, 1000):  # separable
            y = np.array([0.0, 1.0] * (n // 2))
            cases.append((y, y))
            cases.append((1.0 - y, y))
        for n in (3, 50, 801):  # one class but a single flipped second
            for cls in (0.0, 1.0):
                y = np.full(n, cls)
                y[int(rng.integers(n))] = 1.0 - cls
                cases.append((y.copy(), y))
                cases.append((np.full(n, cls), y))
                cases.append((rng.uniform(size=n), y))
        for x, y in cases:
            w, acc = fit_logistic(x, y)
            want_w, want_acc = fit_logistic_reference(x, y)
            assert w.dtype == want_w.dtype and w.tobytes() == want_w.tobytes()
            assert np.float64(acc).tobytes() == np.float64(want_acc).tobytes()

    def test_identity_is_perfect(self):
        y = np.array([0.0, 1.0] * 50)
        _, acc = fit_logistic(y, y)
        assert acc == 1.0

    def test_independent_balanced_is_majority(self, rng):
        x = (rng.uniform(size=4000) < 0.5).astype(float)
        y = (rng.uniform(size=4000) < 0.5).astype(float)
        _, acc = fit_logistic(x, y)
        assert acc == pytest.approx(majority_rule_accuracy(x, y), abs=1e-9)
        assert acc == pytest.approx(max(y.mean(), 1 - y.mean()), abs=0.02)

    def test_agreement_fraction_recovered(self, rng):
        # x agrees with y on an exact fraction of seconds
        n = 2500
        y = (rng.uniform(size=n) < 0.5).astype(float)
        x = y.copy()
        flip = rng.choice(n, size=400, replace=False)
        x[flip] = 1 - x[flip]
        _, acc = fit_logistic(x, y)
        assert acc == pytest.approx(majority_rule_accuracy(x, y), abs=1e-9)
        assert acc == pytest.approx(1 - 400 / n, abs=1e-9)

    def test_matches_majority_oracle_on_random_data(self, rng):
        for _ in range(40):
            n = int(rng.integers(20, 400))
            x = (rng.uniform(size=n) < rng.uniform(0.2, 0.8)).astype(float)
            y = (rng.uniform(size=n) < rng.uniform(0.2, 0.8)).astype(float)
            if y.min() == y.max():
                continue
            _, acc = fit_logistic(x, y)
            assert acc == pytest.approx(majority_rule_accuracy(x, y), abs=1e-9)

    def test_single_class_raises(self):
        with pytest.raises(SingleClassTarget):
            fit_logistic(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_separable_converges_with_finite_weights(self):
        y = np.array([0.0] * 500 + [1.0] * 500)
        w, acc = fit_logistic(y, y)
        assert acc == 1.0
        assert np.all(np.isfinite(w))

    def test_exhausted_newton_iterations_raise_non_convergence(self, monkeypatch):
        y = np.array([0.0] * 500 + [1.0] * 500)
        monkeypatch.setattr(evaluation, "MAX_NEWTON_ITER", 2)
        message = f"gradient norm above {evaluation.GRAD_TOL} after 2 iterations"
        with pytest.raises(NonConvergence, match=f"^{re.escape(message)}$"):
            fit_logistic(y, y)


class TestManualAccuracy:
    def test_examples(self):
        assert manual_accuracy([1, 1, 0, 1], [1, 0, 0, 1]) == pytest.approx(0.75)
        assert manual_accuracy([1, 0], [1, 0]) == 1.0
        assert manual_accuracy([1, 0], [0, 1]) == 0.0

    def test_symmetry(self, rng):
        x = rng.integers(0, 2, size=100)
        y = rng.integers(0, 2, size=100)
        assert manual_accuracy(x, y) == manual_accuracy(y, x)

    def test_empty_raises(self):
        with pytest.raises(EmptyPeriod):
            manual_accuracy([], [])


def _alone_states(flags, start=MIDNIGHT, session="s"):
    return [
        LogicalState(
            session_id=session,
            ts=start + i,
            person_alone=True,
            patient_alone=bool(f),
            supervised_by_staff=False,
            moving=False,
            smoothed_person_count=1.0,
        )
        for i, f in enumerate(flags)
    ]


class TestTrendAccuracy:
    cfg = PipelineConfig()

    def test_perfect_log_match(self):
        flags = [i < 43200 for i in range(86400)]
        states = _alone_states(flags)
        log = ObservationLog("s", ((MIDNIGHT, MIDNIGHT + 43200),))
        report = trend_accuracy(states, log, self.cfg)
        assert {r.period for r in report.rows} == {"day", "night", "full"}
        for r in report.rows:
            assert r.accuracy == pytest.approx(1.0)

    def test_single_class_night_uses_manual(self):
        # ground truth alone all night; AI noisy: logistic infeasible at night
        flags = []
        for i in range(86400):
            hour = (i // 3600) % 24
            flags.append(i % 97 != 0 if (hour >= 21 or hour < 6) else False)
        states = _alone_states(flags)
        log_intervals = (
            (MIDNIGHT, MIDNIGHT + 6 * 3600),
            (MIDNIGHT + 21 * 3600, MIDNIGHT + 86400),
        )
        log = ObservationLog("s", log_intervals)
        report = trend_accuracy(states, log, self.cfg)
        methods = {r.period: r.method for r in report.rows}
        assert methods["night"] == "manual"  # y all-alone at night
        assert methods["full"] == "logistic"

    def test_periods_respect_day_boundaries(self):
        flags = [True] * 86400
        states = _alone_states(flags)
        log = ObservationLog("s", ((MIDNIGHT, MIDNIGHT + 86400),))
        report = trend_accuracy(states, log, self.cfg)
        seconds = {r.period: r.seconds for r in report.rows}
        assert seconds["day"] == 15 * 3600
        assert seconds["night"] == 9 * 3600
        assert seconds["full"] == 86400

    def test_no_states_raises(self):
        with pytest.raises(NoOverlap):
            trend_accuracy([], ObservationLog("s", ()), self.cfg)

    def test_out_of_order_states_raise(self):
        states = _alone_states([10 <= i < 20 for i in range(30)])
        log = ObservationLog("s", ((MIDNIGHT + 10, MIDNIGHT + 20),))
        assert trend_accuracy(states, log, self.cfg).summary["full"]["mean"] == pytest.approx(1.0)
        states[5], states[15] = states[15], states[5]
        with pytest.raises(UnsortedInput, match="states not strictly increasing"):
            trend_accuracy(states, log, self.cfg)

    def test_summary_statistics_across_days(self):
        flags = [True] * (2 * 86400)
        states = _alone_states(flags)
        log = ObservationLog("s", ((MIDNIGHT, MIDNIGHT + 2 * 86400),))
        report = trend_accuracy(states, log, self.cfg)
        assert report.summary["full"]["n"] == 2
        assert report.summary["full"]["mean"] == pytest.approx(1.0)
        assert report.summary["full"]["std"] == pytest.approx(0.0)


def _label(ts, boxes_roles, exceptions=(), session="s"):
    boxes = tuple(b for b, _ in boxes_roles)
    roles = tuple(r for _, r in boxes_roles)
    return FrameLabel(session, ts, boxes, roles, exceptions=tuple(exceptions))


BAD_FRAME_LABELS = {
    "exceptions-string": (dict(exceptions="none"), "exceptions must be a list of strings, got 'none'"),
    "exceptions-empty-string": (dict(exceptions=""), "exceptions must be a list of strings, got ''"),
    "exceptions-non-string": (dict(exceptions=[1, None]), "exceptions must be a list of strings, got [1, None]"),
    "in-bed-int": (dict(in_bed=7), "in_bed must be true, false or null, got 7"),
    "in-bed-one": (dict(in_bed=1), "in_bed must be true, false or null, got 1"),
    "in-bed-string": (dict(in_bed="true"), "in_bed must be true, false or null, got 'true'"),
    "role-unknown": (dict(roles=("nurse",)), "role must be one of patient, staff, other, got 'nurse'"),
}


class TestFrameLabel:
    BOX = BoundingBox("person", 0.0, 0.0, 10.0, 10.0, 1.0)

    @pytest.mark.parametrize("fields,message", BAD_FRAME_LABELS.values(), ids=BAD_FRAME_LABELS.keys())
    def test_malformed_fields_are_rejected(self, fields, message):
        kwargs = dict(dict(session_id="s", ts=0, boxes=(self.BOX,), roles=("patient",)), **fields)
        with pytest.raises(ValueError, match=re.escape(message)):
            FrameLabel(**kwargs)

    @pytest.mark.parametrize("in_bed", [True, False, None])
    @pytest.mark.parametrize("role", ["patient", "staff", "other"])
    def test_valid_fields_are_kept(self, in_bed, role):
        label = FrameLabel("s", 0, [self.BOX], [role], in_bed=in_bed, exceptions=["hard to see"])
        assert (label.in_bed, label.roles, label.exceptions) == (in_bed, (role,), ("hard to see",))


def _pred(ts, boxes_roles, session="s"):
    boxes = tuple(b for b, _ in boxes_roles)
    roles = tuple(None if r is None else role_dist(r) for _, r in boxes_roles)
    return DetectionRecord(session, ts, boxes, roles)


def _patient_alone(preds, truths):
    """evaluate_frames' patient-alone counts over one frame per flag: a label
    alone exactly where truths says so, and a pred_alone map holding preds
    for records whose own instantaneous flag is False."""
    lone_patient = [(box(0, 0, 10, 10), "patient")]
    labels = [_label(ts, lone_patient if y else []) for ts, y in enumerate(truths)]
    records = [_pred(ts, []) for ts in range(len(truths))]
    pred_alone = {frame_id("s", ts): p for ts, p in enumerate(preds)}
    return evaluate_frames(labels, records, pred_alone=pred_alone).patient_alone


class TestPatientAlone:
    def test_perfect_agreement(self):
        m = _patient_alone([True, False, True], [True, False, True])
        assert (m.tp, m.fp, m.fn) == (2, 0, 0)
        assert m.f1 == pytest.approx(1.0)

    def test_inverted_predictions(self):
        m = _patient_alone([True, False], [False, True])
        assert (m.tp, m.fp, m.fn) == (0, 1, 1)
        assert m.f1 == 0.0

    def test_constructed_confusion(self):
        preds = [True] * 100 + [False] * 8
        labels = [True] * 92 + [False] * 8 + [True] * 8
        m = _patient_alone(preds, labels)
        assert (m.tp, m.fp, m.fn) == (92, 8, 8)
        assert m.f1 == pytest.approx(0.92, abs=1e-9)

    def test_without_a_map_each_record_gives_its_instantaneous_flag(self):
        lone_patient = [(box(0, 0, 10, 10), "patient")]
        pair = lone_patient + [(box(50, 0, 10, 10), "staff")]
        labels = [_label(0, lone_patient), _label(1, lone_patient), _label(2, [])]
        preds = [_pred(0, lone_patient), _pred(1, pair), _pred(2, lone_patient)]
        m = evaluate_frames(labels, preds).patient_alone
        assert (m.tp, m.fp, m.fn) == (1, 1, 1)

    def test_excluded_frames_are_not_counted(self):
        lone_patient = [(box(0, 0, 10, 10), "patient")]
        labels = [_label(0, lone_patient), _label(1, lone_patient, exceptions=("blurred",))]
        preds = [_pred(0, lone_patient), _pred(1, [])]
        m = evaluate_frames(labels, preds).patient_alone
        assert (m.tp, m.fp, m.fn) == (1, 0, 0)
        m = evaluate_frames(labels, preds, exclude_exceptions=False).patient_alone
        assert (m.tp, m.fp, m.fn) == (1, 0, 1)

    def test_frame_id_is_the_labels_key(self):
        assert frame_id("room-1", 1709251200) == "room-1:1709251200"
        assert _label(7, [], session="room-1").frame_id == "room-1:7"


class TestEvaluateFrames:
    def test_headline_numbers_through_full_pipeline(self):
        """Constructed corpus tuned to the published headline metrics:
        every class at F1 0.92 (so macro F1 0.92) and patient role F1 0.98."""
        labels, preds = [], []
        ts = 0
        person, bed, chair = (
            box(10, 10, 30, 60),
            box(100, 100, 120, 60, cls="bed"),
            box(300, 40, 40, 40, cls="chair"),
        )

        def persons(n, role="patient"):
            return [(box(10 + 70 * i, 10, 30, 60, conf=0.9), role) for i in range(n)]

        # 92 true positives per class; persons correctly labeled patient
        for _ in range(92):
            labels.append(_label(ts, persons(1) + [(bed, None), (chair, None)]))
            preds.append(_pred(ts, persons(1) + [(bed, None), (chair, None)]))
            ts += 1
        # 8 false positives per class (prediction on an empty frame);
        # predicted persons here are wrongly patient -> patient-role FPs
        for i in range(8):
            labels.append(_label(ts, []))
            preds.append(_pred(ts, persons(1) + [(bed, None), (chair, None)]))
            ts += 1
        # 8 false negatives per class (missed frames)
        for i in range(8):
            labels.append(_label(ts, persons(1) + [(bed, None), (chair, None)]))
            preds.append(_pred(ts, []))
            ts += 1
        report = evaluate_frames(labels, preds, iou_threshold=0.5)
        for cls in ("person", "bed", "chair"):
            assert report.per_class[cls].f1 == pytest.approx(0.92, abs=1e-9)
        assert report.macro_f1 == pytest.approx(0.92, abs=1e-9)

    def test_patient_role_headline(self):
        # matched persons: 98 correctly patient, 2 predicted patient on
        # gt staff (FP), 2 predicted staff on gt patient (FN) -> F1 0.98
        labels, preds = [], []
        ts = 0
        for gt_role, pred_role, n in (
            ("patient", "patient", 98),
            ("staff", "patient", 2),
            ("patient", "staff", 2),
        ):
            for _ in range(n):
                labels.append(_label(ts, [(box(10, 10, 30, 60), gt_role)]))
                preds.append(_pred(ts, [(box(10, 10, 30, 60, conf=0.9), pred_role)]))
                ts += 1
        report = evaluate_frames(labels, preds)
        assert (report.patient_role.tp, report.patient_role.fp, report.patient_role.fn) == (
            98,
            2,
            2,
        )
        assert report.patient_role.f1 == pytest.approx(0.98, abs=1e-9)

    def test_unmatched_patients_count_as_role_false_positives_and_misses(self):
        near, staffed = box(10, 10, 30, 60), box(150, 10, 30, 60)
        far = [box(10 + 120 * i, 300, 30, 60) for i in range(4)]
        labels = [
            _label(0, [(near, "patient"), (far[0], "patient"), (staffed, "staff")]),
            _label(1, [(near, "staff"), (far[1], "patient"), (far[3], "patient")]),
        ]
        preds = [
            _pred(0, [(near, "patient"), (far[2], "patient"), (staffed, "patient")]),
            _pred(1, [(far[2], "patient"), (far[3], None), (box(600, 10, 30, 60), "other")]),
        ]
        role = evaluate_frames(labels, preds).patient_role
        # tp: the one matched patient pair. fp: far[2] unmatched in both frames,
        # and a patient predicted on labelled staff. fn: far[0] and far[1]
        # unmatched, and far[3] matched to a person with no role distribution.
        assert (role.tp, role.fp, role.fn) == (1, 3, 3)

    def test_exception_frames_are_pure_filter(self):
        clean_labels = [_label(0, [(box(0, 0, 10, 10), "patient")])]
        clean_preds = [_pred(0, [(box(0, 0, 10, 10, conf=0.9), "patient")])]
        noisy_labels = clean_labels + [
            _label(1, [(box(0, 0, 10, 10), "staff")], exceptions=("frame exception",))
        ]
        noisy_preds = clean_preds + [_pred(1, [])]
        base = evaluate_frames(clean_labels, clean_preds)
        filtered = evaluate_frames(noisy_labels, noisy_preds)
        assert filtered.per_class == base.per_class
        assert filtered.frames_excluded == 1
        kept = evaluate_frames(noisy_labels, noisy_preds, exclude_exceptions=False)
        assert kept.per_class["person"].fn == 1

    def test_misaligned_frame_sets(self):
        labels = [_label(0, [(box(0, 0, 10, 10), "patient")])]
        with pytest.raises(MisalignedFrames):
            evaluate_frames(labels, [])

    @pytest.mark.parametrize("side", ["label", "prediction"])
    def test_a_repeated_frame_key_is_rejected(self, side):
        # A repeated label would be counted twice; a repeated prediction would
        # shadow the earlier one. Both sides still cover the same keys.
        person = [(box(0, 0, 10, 10), "patient")]
        labels = [_label(ts, person) for ts in (0, 1)]
        preds = [_pred(ts, person) for ts in (0, 1)]
        if side == "label":
            labels.append(_label(1, person))
        else:
            preds.insert(1, _pred(0, []))
        message = f"{side} frame ('s', {1 if side == 'label' else 0}) is listed more than once"
        with pytest.raises(MisalignedFrames, match=f"^{re.escape(message)}$"):
            evaluate_frames(labels, preds)
