"""Frame-level detection metrics and trend accuracy against observation logs.

Detection matching is greedy in descending prediction confidence at a fixed
IoU threshold (the standard detection protocol); role and alone metrics are
binary classification counts on top of that. Trend accuracy compares the
per-second alone stream with logged ground truth per patient-day and period,
using a single-feature logistic regression where both classes are present
and the plain agreement fraction where they are not.

scipy is imported inside the function that calls it, so the read and replay
commands start without loading it; tests/test_cli.py enforces this.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from datetime import date
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import (
    EmptyPeriod,
    MisalignedFrames,
    NoOverlap,
    NonConvergence,
    SingleClassTarget,
)
from .logic import LogicalState, occupancy, record_facts
from .model import BoundingBox, CLASSES, DetectionRecord, PipelineConfig, ROLES, check_session_and_ts
from .trends import ObservationLog, _columns, _logged_alone, _run_starts, _utc_hour

RIDGE = 1e-6
GRAD_TOL = 1e-8
MAX_NEWTON_ITER = 50
PERIODS = ("day", "night", "full")


def frame_id(session_id: str, ts: int) -> str:
    """A frame's key in pred_alone maps and reports: "session:ts"."""
    return f"{session_id}:{ts}"


@dataclass(frozen=True)
class FrameLabel:
    """Manual annotation of one frame: gt boxes, person roles, scene tags."""

    session_id: str
    ts: int
    boxes: tuple[BoundingBox, ...]
    roles: tuple[Optional[str], ...]
    in_bed: Optional[bool] = None
    exceptions: tuple[str, ...] = ()

    def __post_init__(self):
        check_session_and_ts(self.session_id, self.ts)
        if not isinstance(self.exceptions, (list, tuple)) or not all(
            isinstance(e, str) for e in self.exceptions
        ):
            raise ValueError(f"exceptions must be a list of strings, got {self.exceptions!r}")
        if self.in_bed is not None and not isinstance(self.in_bed, bool):
            raise ValueError(f"in_bed must be true, false or null, got {self.in_bed!r}")
        object.__setattr__(self, "boxes", tuple(self.boxes))
        object.__setattr__(self, "roles", tuple(self.roles))
        object.__setattr__(self, "exceptions", tuple(self.exceptions))
        if len(self.roles) != len(self.boxes):
            raise ValueError("roles must be parallel to boxes")
        for b, r in zip(self.boxes, self.roles):
            if (b.cls == "person") != (r is not None):
                raise ValueError("exactly person boxes carry a role label")
            if r is not None and r not in ROLES:
                raise ValueError(f"role must be one of {', '.join(ROLES)}, got {r!r}")

    @property
    def frame_id(self) -> str:
        return frame_id(self.session_id, self.ts)

    def alone_flag(self) -> bool:
        persons = [r for b, r in zip(self.boxes, self.roles) if b.cls == "person"]
        return occupancy(len(persons), "patient" in persons, "staff" in persons)[1]


@dataclass(frozen=True)
class ClassMetrics:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @staticmethod
    def from_counts(tp: int, fp: int, fn: int) -> "ClassMetrics":
        p, r, f1 = prf1(tp, fp, fn)
        return ClassMetrics(tp, fp, fn, p, r, f1)


@dataclass(frozen=True)
class EvalReport:
    per_class: dict[str, ClassMetrics]
    macro_f1: float
    patient_role: ClassMetrics
    patient_alone: ClassMetrics
    frames_evaluated: int
    frames_excluded: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TrendAccuracyRow:
    session_id: str
    date: date
    period: str
    method: str  # "logistic" | "manual"
    accuracy: float
    seconds: int


@dataclass(frozen=True)
class TrendAccuracyReport:
    rows: tuple[TrendAccuracyRow, ...]
    summary: dict[str, dict]  # period -> {mean, std, n}

    @classmethod
    def from_rows(cls, rows: Sequence[TrendAccuracyRow]) -> "TrendAccuracyReport":
        """Summarize rows per period: mean, population std and n across patient-days."""
        summary = {}
        for period in PERIODS:
            accs = [r.accuracy for r in rows if r.period == period]
            if accs:
                summary[period] = {
                    "mean": float(np.mean(accs)),
                    "std": float(np.std(accs)),
                    "n": len(accs),
                }
        return cls(rows=tuple(rows), summary=summary)

    def to_dict(self) -> dict:
        """Each row's fields, with its date as an ISO string, and the summary."""
        return {
            "rows": [{**asdict(r), "date": r.date.isoformat()} for r in self.rows],
            "summary": self.summary,
        }


def iou(a: BoundingBox, b: BoundingBox) -> float:
    ix = min(a.x2, b.x2) - max(a.x, b.x)
    iy = min(a.y2, b.y2) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.w * a.h + b.w * b.h - inter
    return inter / union


def match_boxes(
    preds: Sequence[BoundingBox],
    gts: Sequence[BoundingBox],
    iou_threshold: float,
) -> tuple[int, int, int, list[tuple[int, int]]]:
    """Greedy confidence-ordered matching within one frame and class.

    Each prediction, in descending confidence order, claims the unmatched
    ground-truth box with the highest IoU at or above the threshold.
    Returns (TP, FP, FN, matches) with matches as (pred_idx, gt_idx) pairs.
    """
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].confidence, i))
    taken = [False] * len(gts)
    matches = []
    for pi in order:
        best_j = -1
        best_iou = -1.0
        for j, gt in enumerate(gts):
            if taken[j]:
                continue
            v = iou(preds[pi], gt)
            if v >= iou_threshold and v > best_iou:
                best_iou = v
                best_j = j
        if best_j >= 0:
            taken[best_j] = True
            matches.append((pi, best_j))
    tp = len(matches)
    return tp, len(preds) - tp, len(gts) - tp, matches


def prf1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall, F1 with the zero-denominator convention of 0."""
    if tp < 0 or fp < 0 or fn < 0:
        raise ValueError("counts must be non-negative")
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def evaluate_frames(
    labels: Sequence[FrameLabel],
    preds: Sequence[DetectionRecord],
    iou_threshold: float = 0.5,
    pred_alone: Optional[Mapping[str, bool]] = None,
    exclude_exceptions: bool = True,
) -> EvalReport:
    """Full frame-level report over aligned label/prediction frame sets.

    Each (session_id, ts) must appear once among the labels and once among
    the predictions; a repeated or unmatched key raises MisalignedFrames.

    One pass counts each kept frame once. pred_alone optionally maps each
    frame_id to the pipeline's smoothed patient_alone; without it the flag
    is derived instantaneously from the prediction record. Exception-tagged
    frames are dropped from all metrics when exclude_exceptions is set.
    """
    by_key = {(p.session_id, p.ts): p for p in preds}
    label_keys = {(l.session_id, l.ts) for l in labels}
    for what, frames, keys in (("label", labels, label_keys), ("prediction", preds, by_key)):
        if len(keys) != len(frames):
            listed = Counter((f.session_id, f.ts) for f in frames)
            repeated = next(k for k, n in listed.items() if n > 1)
            raise MisalignedFrames(f"{what} frame {repeated} is listed more than once")
    if label_keys != set(by_key):
        missing = sorted(label_keys ^ set(by_key))[:3]
        raise MisalignedFrames(f"label/prediction frame sets differ, e.g. {missing}")

    counts = {c: [0, 0, 0] for c in CLASSES}  # tp, fp, fn
    role_counts = [0, 0, 0]
    alone_counts = [0, 0, 0]
    excluded = 0
    for label in labels:
        if exclude_exceptions and label.exceptions:
            excluded += 1
            continue
        rec = by_key[(label.session_id, label.ts)]
        for cls in CLASSES:
            p_idx = [i for i, b in enumerate(rec.boxes) if b.cls == cls]
            g_idx = [i for i, b in enumerate(label.boxes) if b.cls == cls]
            tp, fp, fn, matches = match_boxes(
                [rec.boxes[i] for i in p_idx],
                [label.boxes[i] for i in g_idx],
                iou_threshold,
            )
            counts[cls][0] += tp
            counts[cls][1] += fp
            counts[cls][2] += fn
            if cls == "person":
                # Every predicted patient not in a patient pair is a false
                # positive, and every labelled one a miss, matched or not.
                roles = [rec.roles[i] for i in p_idx]
                pred_patient = [r is not None and r.primary() == "patient" for r in roles]
                gt_patient = [label.roles[i] == "patient" for i in g_idx]
                both = sum(pred_patient[mi] and gt_patient[mj] for mi, mj in matches)
                role_counts[0] += both
                role_counts[1] += sum(pred_patient) - both
                role_counts[2] += sum(gt_patient) - both
        alone = bool(pred_alone[label.frame_id]) if pred_alone is not None else occupancy(*record_facts(rec))[1]
        truth = label.alone_flag()
        alone_counts[0] += alone and truth
        alone_counts[1] += alone and not truth
        alone_counts[2] += truth and not alone

    per_class = {c: ClassMetrics.from_counts(*counts[c]) for c in CLASSES}
    macro_f1 = sum(m.f1 for m in per_class.values()) / len(CLASSES)
    return EvalReport(
        per_class=per_class,
        macro_f1=macro_f1,
        patient_role=ClassMetrics.from_counts(*role_counts),
        patient_alone=ClassMetrics.from_counts(*alone_counts),
        frames_evaluated=len(labels) - excluded,
        frames_excluded=excluded,
    )


def fit_logistic(
    x: Sequence[float], y: Sequence[float]
) -> tuple[np.ndarray, float]:
    """Intercept-plus-one-feature logistic regression by Newton-Raphson.

    A tiny L2 ridge keeps the optimum finite on separable data; iteration
    stops when the penalized gradient norm drops below GRAD_TOL. Returns the
    weights (intercept, slope) and the in-sample accuracy at threshold 0.5.
    """
    from scipy.special import expit

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size == 0:
        raise ValueError("x and y must be equal-length non-empty vectors")
    classes = np.unique(y)
    if classes.size < 2:
        raise SingleClassTarget(
            "target has a single class; use manual_accuracy instead"
        )

    X = np.column_stack([np.ones_like(x), x])
    w = np.zeros(2)

    def penalized_loglik(wv):
        """The objective at wv, and X @ wv, which the next iteration reuses."""
        eta = X @ wv
        return float(np.sum(y * eta - np.logaddexp(0.0, eta)) - 0.5 * RIDGE * wv @ wv), eta

    ll, eta = penalized_loglik(w)
    for _ in range(MAX_NEWTON_ITER):
        p = expit(eta)
        grad = X.T @ (y - p) - RIDGE * w
        if np.linalg.norm(grad) <= GRAD_TOL:
            break
        weights = p * (1.0 - p)
        hess = X.T @ (weights[:, None] * X) + RIDGE * np.eye(2)
        step = np.linalg.solve(hess, grad)
        # damped Newton: halve until the penalized objective improves
        t = 1.0
        for _ in range(40):
            cand = w + t * step
            cand_ll, cand_eta = penalized_loglik(cand)
            if cand_ll >= ll - 1e-12:
                w, ll, eta = cand, cand_ll, cand_eta
                break
            t *= 0.5
        else:
            raise NonConvergence("step halving failed to improve the objective")
    else:
        raise NonConvergence(
            f"gradient norm above {GRAD_TOL} after {MAX_NEWTON_ITER} iterations"
        )
    accuracy = float(np.mean((p >= 0.5) == (y > 0.5)))  # p is expit(X @ w) for the final w
    return w, accuracy


def manual_accuracy(x: Sequence[float], y: Sequence[float]) -> float:
    """Proportion of positions where prediction and ground truth agree."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError("x and y must have equal length")
    if x.size == 0:
        raise EmptyPeriod("cannot score an empty period")
    return float(np.mean(x == y))


def trend_accuracy(
    states: Sequence[LogicalState],
    log: ObservationLog,
    cfg: PipelineConfig = PipelineConfig(),
) -> TrendAccuracyReport:
    """Per patient-day and period accuracy of the alone stream vs the log.

    Analysis runs at the per-second level over one session's states, sorted
    by strictly increasing ts. Days are UTC days (ts // 86400) and the day
    period is the UTC hours [day_start_hour, night_start_hour). Periods with
    both classes in the ground truth are scored by logistic-regression
    accuracy, single-class periods by the agreement fraction. The summary
    reports the mean and the population standard deviation across
    patient-days.
    """
    if not states:
        raise NoOverlap("no states to evaluate")
    ts, alone, _, _ = _columns(states)
    truth = _logged_alone(log, ts)
    days = ts // 86400
    hours = (ts // 3600) % 24
    daytime = (cfg.day_start_hour <= hours) & (hours < cfg.night_start_hour)
    starts = _run_starts(days).tolist()
    rows = []
    for start, end in zip(starts, starts[1:] + [len(ts)]):
        day = _utc_hour(int(days[start]) * 24)[0]
        x_day, y_day, in_day = alone[start:end], truth[start:end], daytime[start:end]
        for period, mask in zip(PERIODS, (in_day, ~in_day, None)):
            x = (x_day if mask is None else x_day[mask]).astype(np.float64)
            if not x.size:
                continue
            y = (y_day if mask is None else y_day[mask]).astype(np.float64)
            try:
                _, acc = fit_logistic(x, y)
                method = "logistic"
            except SingleClassTarget:
                acc = manual_accuracy(x, y)
                method = "manual"
            rows.append(
                TrendAccuracyRow(
                    session_id=states[0].session_id,
                    date=day,
                    period=period,
                    method=method,
                    accuracy=acc,
                    seconds=x.size,
                )
            )
    return TrendAccuracyReport.from_rows(rows)
