"""Role attribution, trailing-window smoothing, and logical state derivation.

The per-second states follow the published rules: "person alone" when the
average number of detected people over the smoothing window is below two,
"patient alone" additionally requires a patient classification somewhere in
the window, and "supervised by staff" requires an average of two or more
plus a staff classification. Smoothing runs over a trailing window so states
can be emitted causally in real time; the window keeps each second's facts
(person count, patient and staff presence, scene motion), judged once when
the second arrives, and every state re-sums them afresh.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from math import inf
from typing import Mapping, Optional, Sequence

from .errors import EmptyWindow, NonMonotonicTimestamp
from .flow import MotionRecord
from .model import DetectionRecord, PipelineConfig, ROLES, RoleDistribution, check_session_and_ts, real_number, slot_init

log = logging.getLogger(__name__)
_FLAGS = ("person_alone", "patient_alone", "supervised_by_staff", "moving")


@slot_init
@dataclass(frozen=True, slots=True)
class LogicalState:
    """One second's states. Checked on construction: session_id and ts as in
    DetectionRecord, the four flags are bools, and smoothed_person_count is a
    real number, not a bool, finite and >= 0, kept as a float.
    """

    session_id: str
    ts: int
    person_alone: bool
    patient_alone: bool
    supervised_by_staff: bool
    moving: bool
    smoothed_person_count: float

    def __post_init__(self):
        check_session_and_ts(self.session_id, self.ts)
        a, b, c, d = self.person_alone, self.patient_alone, self.supervised_by_staff, self.moving
        if not (type(a) is type(b) is type(c) is type(d) is bool):
            k = next(k for k in _FLAGS if type(getattr(self, k)) is not bool)
            raise TypeError(f"logical {k} must be true or false, got {getattr(self, k)!r}")
        count = self.smoothed_person_count
        if type(count) is not float:
            count = float(real_number("smoothed_person_count", count))
            object.__setattr__(self, "smoothed_person_count", count)
        if not 0.0 <= count < inf:
            raise ValueError("smoothed_person_count must be finite and >= 0")
        if b and not a:
            raise ValueError("patient_alone implies person_alone")
        if c and a:
            raise ValueError("supervised_by_staff implies not person_alone")


def occupancy(persons: float, patient: bool, staff: bool) -> tuple[bool, bool, bool]:
    """(person_alone, patient_alone, supervised_by_staff) for a person count or
    smoothed average, and whether a patient and a staff member are present:
    fewer than two people is alone, and two or more with staff is supervised.
    """
    alone = persons < 2
    return alone, alone and patient, not alone and staff


def record_facts(rec: DetectionRecord) -> tuple[int, bool, bool]:
    """rec's person count (every person box, with a role or not), and whether
    a person box's primary role is patient, and whether one is staff."""
    roles = rec.roles
    n_roles = len(roles)
    count, patient, staff = 0, False, False
    for i, b in enumerate(rec.boxes):
        if b.cls == "person":
            count += 1
            # Roles pair with boxes as zip does: a box past the end has none.
            if i < n_roles and (r := roles[i]) is not None:
                primary = r.primary()
                if primary == "patient":
                    patient = True
                elif primary == "staff":
                    staff = True
    return count, patient, staff


def attribute_roles(
    role_confidences: Sequence[Mapping[str, float]],
) -> list[RoleDistribution]:
    """Turn raw per-role detector confidences into full distributions.

    The highest-confidence role becomes the primary class and keeps its
    score c; the residual 1 - c is split equally across the two remaining
    roles. Ties break patient > staff > other. A person with no role signal,
    or whose top confidence c in [0, 1] is not above its residual share
    (1 - c) / 2 (so that splitting would make another role primary), gets
    RoleDistribution.uniform() and a warning; a kept c is above 1/3, so
    only the fallback is uniform, and a stored row's scores show it.
    """
    out = []
    for i, confs in enumerate(role_confidences):
        known = {r: float(c) for r, c in confs.items() if r in ROLES}
        if not known:
            log.warning("person %d carries no role confidences; using uniform", i)
            out.append(RoleDistribution.uniform())
            continue
        primary = max(ROLES, key=lambda r: (known.get(r, -1.0), -ROLES.index(r)))
        c = known[primary]
        rest = (1.0 - c) / 2.0
        if 0.0 <= c <= rest:
            log.warning("person %d's top role confidence %r is not above the residual share; using uniform", i, c)
            out.append(RoleDistribution.uniform())
            continue
        out.append(
            RoleDistribution({r: (c if r == primary else rest) for r in ROLES})
        )
    return out


class SmoothingWindow:
    """Trailing facts of the last smoothing_window_s seconds of one session.

    push judges each record once, keeping (ts, person count, patient present,
    staff present, scene motion or None) for its second, plus the newest
    record for the crossing check. Entries are evicted once older than the
    window (a gap longer than the window therefore empties it), so the
    content always equals the facts of the seconds with ts in (now - window,
    now].
    """

    def __init__(self, window_s: int):
        if window_s < 1:
            raise ValueError("window must be >= 1 second")
        self.window_s = window_s
        self.newest: Optional[DetectionRecord] = None
        self._seconds: deque[tuple[int, int, bool, bool, Optional[float]]] = deque()

    def __len__(self) -> int:
        return len(self._seconds)

    @property
    def last_ts(self) -> Optional[int]:
        return self.newest.ts if self.newest is not None else None

    def push(self, rec: DetectionRecord, motion: Optional[MotionRecord] = None) -> None:
        newest = self.newest
        if newest is not None and rec.ts <= newest.ts:
            raise NonMonotonicTimestamp(
                f"session {rec.session_id}: ts {rec.ts} not after {newest.ts}"
            )
        scene = motion.magnitudes.get("scene") if motion is not None else None
        self._seconds.append((rec.ts, *record_facts(rec), scene))
        self.newest = rec
        cutoff = rec.ts - self.window_s
        while self._seconds[0][0] <= cutoff:
            self._seconds.popleft()


def derive_state(w: SmoothingWindow, cfg: PipelineConfig) -> LogicalState:
    """Logical state for the window's newest second, from its per-second facts.

    Fresh sums in ts order, not running sums (which drift as values are
    subtracted), so a state is bit-identical to one re-read from the records.
    """
    if len(w) == 0:
        raise EmptyWindow("cannot derive a state from an empty window")
    count, patient, staff, scene = 0, False, False, []
    for _, n, p, s, m in w._seconds:
        count += n  # ints, so the sum is exact in any order
        patient |= p
        staff |= s
        if m is not None:
            scene.append(m)  # floats, summed below in ts order
    avg = count / len(w._seconds)
    moving = bool(scene) and sum(scene) / len(scene) > cfg.moving_threshold
    newest = w.newest
    # Positional, in field order: keyword arguments cost about 1 us more per state.
    flags = occupancy(avg, patient, staff)
    return LogicalState(newest.session_id, newest.ts, *flags, moving, avg)
