"""Role attribution, trailing-window smoothing, and logical state derivation.

The per-second states follow the published rules: "person alone" when the
average number of detected people over the smoothing window is below two,
"patient alone" additionally requires a patient classification somewhere in
the window, and "supervised by staff" requires an average of two or more
plus a staff classification. Smoothing runs over a trailing window so states
can be emitted causally in real time.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from math import inf
from typing import Mapping, Optional, Sequence

from .errors import EmptyWindow, OutOfOrderRecord
from .flow import MotionRecord
from .model import DetectionRecord, PipelineConfig, ROLES, RoleDistribution

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LogicalState:
    session_id: str
    ts: int
    person_alone: bool
    patient_alone: bool
    supervised_by_staff: bool
    moving: bool
    smoothed_person_count: float

    def __post_init__(self):
        if not 0.0 <= self.smoothed_person_count < inf:
            raise ValueError("smoothed_person_count must be finite and >= 0")
        if self.patient_alone and not self.person_alone:
            raise ValueError("patient_alone implies person_alone")
        if self.supervised_by_staff and self.person_alone:
            raise ValueError("supervised_by_staff implies not person_alone")


def attribute_roles(
    role_confidences: Sequence[Mapping[str, float]],
) -> list[RoleDistribution]:
    """Turn raw per-role detector confidences into full distributions.

    The highest-confidence role becomes the primary class and keeps its
    score c; the residual 1 - c is split equally across the two remaining
    roles. Ties break patient > staff > other. A person with no role signal
    gets a uniform distribution and is flagged.
    """
    out = []
    for i, confs in enumerate(role_confidences):
        known = {r: float(c) for r, c in confs.items() if r in ROLES}
        if not known:
            log.warning("person %d carries no role confidences; using uniform", i)
            out.append(RoleDistribution.uniform(fallback=True))
            continue
        primary = max(ROLES, key=lambda r: (known.get(r, -1.0), -ROLES.index(r)))
        c = known[primary]
        rest = (1.0 - c) / 2.0
        out.append(
            RoleDistribution({r: (c if r == primary else rest) for r in ROLES})
        )
    return out


class SmoothingWindow:
    """Trailing ring of the last smoothing_window_s seconds of one session.

    Entries are evicted once older than the window (a gap longer than the
    window therefore empties it), so the content always equals the raw
    records with ts in (now - window, now].
    """

    def __init__(self, window_s: int):
        if window_s < 1:
            raise ValueError("window must be >= 1 second")
        self.window_s = window_s
        self._entries: deque[tuple[DetectionRecord, Optional[MotionRecord]]] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def last_ts(self) -> Optional[int]:
        return self._entries[-1][0].ts if self._entries else None

    @property
    def newest(self) -> Optional[DetectionRecord]:
        return self._entries[-1][0] if self._entries else None

    def push(self, rec: DetectionRecord, motion: Optional[MotionRecord] = None) -> None:
        last = self.last_ts
        if last is not None and rec.ts <= last:
            raise OutOfOrderRecord(
                f"session {rec.session_id}: ts {rec.ts} not after {last}"
            )
        self._entries.append((rec, motion))
        cutoff = rec.ts - self.window_s
        while self._entries and self._entries[0][0].ts <= cutoff:
            self._entries.popleft()

    def records(self) -> list[DetectionRecord]:
        return [r for r, _ in self._entries]

    def motions(self) -> list[Optional[MotionRecord]]:
        return [m for _, m in self._entries]


def derive_state(w: SmoothingWindow, cfg: PipelineConfig) -> LogicalState:
    """Logical state for the window's newest second."""
    if len(w) == 0:
        raise EmptyWindow("cannot derive a state from an empty window")
    records = w.records()
    counts = [r.person_count() for r in records]
    avg = sum(counts) / len(counts)
    any_patient = any(r.has_primary_role("patient") for r in records)
    any_staff = any(r.has_primary_role("staff") for r in records)
    scene = [
        m.magnitudes["scene"]
        for m in w.motions()
        if m is not None and "scene" in m.magnitudes
    ]
    moving = bool(scene) and sum(scene) / len(scene) > cfg.moving_threshold
    newest = records[-1]
    return LogicalState(
        session_id=newest.session_id,
        ts=newest.ts,
        person_alone=avg < 2.0,
        patient_alone=avg < 2.0 and any_patient,
        supervised_by_staff=avg >= 2.0 and any_staff,
        moving=moving,
        smoothed_person_count=avg,
    )
