"""Synthetic monitoring sessions with known ground truth.

A scenario is a seeded schedule of room occupancy (counts by role, optional
scripted walking tracks) with a per-interval scene-motion level and a
detection noise model. Ground truth is derived from the schedule before
noise and before smoothing, so end-to-end comparisons measure the pipeline
rather than the generator. Camera frames are synthesized lazily as a
translating textured background whose shift rate realizes the scheduled
motion level exactly. The generator walks the schedule one interval at a
time, and its draw order is pinned by the golden test in tests/test_simulator.py.

scipy is imported inside the function that calls it, so the read and replay
commands start without loading it; tests/test_cli.py enforces this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, isfinite
from typing import Iterator, Optional

import numpy as np

from .errors import InvalidSchedule
from .flow import MotionRecord
from .geometry import CrossingEvent, Polygon, Zone, expand_polygon
from .geometry import rasterize  # noqa: F401  (a lookup site perfbench/spans.py wraps)
from .logic import LogicalState, occupancy
from .model import (
    ANALYSIS_DIMS,
    BoundingBox,
    DetectionRecord,
    Frame,
    PipelineConfig,
    ROLES,
    RoleDistribution,
)
from .model import check_int, check_session_and_ts, check_session_id, from_json, real_number

DEFAULT_START_TS = 1709251200  # 2024-03-01T00:00:00Z
PERSON_CONFIDENCE = 0.8
BED_CONFIDENCE = 0.92
SPURIOUS_CONFIDENCE = 0.5
PRIMARY_ROLE_CONFIDENCE = 0.9


@dataclass(frozen=True)
class ScheduleInterval:
    """Occupancy and scene motion (kept as a float) over [start_s, end_s)."""

    start_s: int
    end_s: int
    patients: int = 0
    staff: int = 0
    others: int = 0
    motion: float = 0.0

    def __post_init__(self):
        try:
            check_int("start_s", self.start_s)
            check_int("end_s", self.end_s)
            for name, v in self.counts().items():
                check_int(f"{name} count", v, 0)
            motion = float(real_number("motion", self.motion))
        except (TypeError, ValueError) as e:
            raise InvalidSchedule(str(e)) from None
        if not 0.0 <= motion < inf:
            raise InvalidSchedule(f"motion must be finite and >= 0, got {self.motion!r}")
        object.__setattr__(self, "motion", motion)

    def counts(self) -> dict[str, int]:
        return {"patient": self.patients, "staff": self.staff, "other": self.others}


@dataclass(frozen=True)
class OccupantTrack:
    """A scripted walker: position is piecewise-linear between waypoints.

    Waypoints are exactly (t_s, x, y), t_s an int and the anchor (foot position)
    in analysis coordinates, real numbers (not bools) kept as floats; the
    occupant exists from the first to the last one.
    """

    role: str
    waypoints: tuple[tuple[int, float, float], ...]

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        wps = tuple(
            (check_int("waypoint time", t), float(real_number("waypoint x", x)), float(real_number("waypoint y", y)))
            for t, x, y in self.waypoints
        )
        object.__setattr__(self, "waypoints", wps)
        if len(wps) < 2:
            raise ValueError("a track needs at least two waypoints")
        if not all(isfinite(x) and isfinite(y) for _, x, y in wps):
            raise InvalidSchedule(f"track waypoint coordinates must be finite: {wps}")
        for a, b in zip(wps, wps[1:]):
            if b[0] <= a[0]:
                raise ValueError("waypoint times must be strictly increasing")

    def active(self, t: int) -> bool:
        return self.waypoints[0][0] <= t <= self.waypoints[-1][0]

    def position(self, t: int) -> tuple[float, float]:
        wps = self.waypoints
        for a, b in zip(wps, wps[1:]):
            if a[0] <= t <= b[0]:
                f = (t - a[0]) / (b[0] - a[0])
                return (a[1] + f * (b[1] - a[1]), a[2] + f * (b[2] - a[2]))
        raise ValueError(f"track not active at t={t}")


@dataclass(frozen=True)
class NoiseModel:
    p_miss: float = 0.0
    p_spur: float = 0.0
    p_role: float = 0.0

    def __post_init__(self):
        for name in ("p_miss", "p_spur", "p_role"):
            v = float(real_number(name, getattr(self, name)))
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class ScenarioSpec:
    """A seeded scenario. Boxes, track waypoints and the zone are in analysis
    coordinates (ANALYSIS_DIMS), where the pipeline clamps boxes and judges
    zone crossings; raw_frame_dims (two positive ints) only sizes the
    synthesized frames."""

    seed: int
    duration_s: int
    schedule: tuple[ScheduleInterval, ...]
    tracks: tuple[OccupantTrack, ...] = ()
    noise: NoiseModel = field(default_factory=NoiseModel)
    session_id: str = "sim"
    start_ts: int = DEFAULT_START_TS
    raw_frame_dims: tuple[int, int] = (960, 540)
    zone: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self):
        check_int("seed", self.seed, 0)
        check_int("duration_s", self.duration_s, 1)
        check_session_and_ts(self.session_id, self.start_ts)
        check_session_and_ts(self.session_id, self.start_ts + self.duration_s - 1)
        check_session_id(self.session_id)
        w, h = self.raw_frame_dims
        dims = (check_int("raw frame width", w, 1), check_int("raw frame height", h, 1))
        object.__setattr__(self, "raw_frame_dims", dims)
        object.__setattr__(self, "zone", Polygon(self.zone).vertices if self.zone else None)
        object.__setattr__(self, "schedule", tuple(self.schedule))
        object.__setattr__(self, "tracks", tuple(self.tracks))
        if not self.schedule:
            raise InvalidSchedule("schedule is empty")
        cursor = 0
        for iv in self.schedule:
            if iv.start_s != cursor or iv.end_s <= iv.start_s:
                raise InvalidSchedule(
                    f"intervals must tile [0, {self.duration_s}) without gaps or "
                    f"overlap; got [{iv.start_s}, {iv.end_s}) at cursor {cursor}"
                )
            cursor = iv.end_s
        if cursor != self.duration_s:
            raise InvalidSchedule(f"schedule ends at {cursor}, expected {self.duration_s}")
        for tr in self.tracks:
            if tr.waypoints[0][0] < 0 or tr.waypoints[-1][0] >= self.duration_s:
                raise InvalidSchedule("track waypoints must lie within the scenario")

    def interval_at(self, t: int) -> ScheduleInterval:
        for iv in self.schedule:
            if iv.start_s <= t < iv.end_s:
                return iv
        raise InvalidSchedule(f"no interval at t={t}")

    def zone_polygon(self) -> Optional[Polygon]:
        return Polygon(self.zone) if self.zone else None


@dataclass(frozen=True)
class SimulationResult:
    spec: ScenarioSpec
    records: tuple[DetectionRecord, ...]
    motions: dict[int, MotionRecord]  # ts -> record, absent for the first second
    gt_states: tuple[LogicalState, ...]
    observation_log_intervals: tuple[tuple[int, int], ...]
    gt_crossings: tuple[CrossingEvent, ...]

    def frames(self) -> Iterator[Frame]:
        return _frame_stream(self.spec)

    def detections_by_ts(self) -> dict[int, DetectionRecord]:
        return {r.ts: r for r in self.records}


def _person_box(
    anchor_x: float, anchor_y: float, confidence: float = PERSON_CONFIDENCE
) -> BoundingBox:
    """Person box whose bottom-center sits at the given anchor, clamped inside."""
    fw, fh = ANALYSIS_DIMS
    w = 0.07 * fw
    h = 0.22 * fh
    x = min(max(anchor_x - w / 2.0, 0.0), fw - w)
    y = min(max(anchor_y - h, 0.0), fh - h)
    return BoundingBox("person", x, y, w, h, confidence)


def _bed_box() -> BoundingBox:
    fw, fh = ANALYSIS_DIMS
    return BoundingBox("bed", 0.30 * fw, 0.45 * fh, 0.35 * fw, 0.40 * fh, BED_CONFIDENCE)


def _static_anchor(role: str, index: int) -> tuple[float, float]:
    """Deterministic resting spot per occupant: patients on the bed, staff and
    visitors along the near wall."""
    fw, fh = ANALYSIS_DIMS
    if role == "patient":
        return (0.475 * fw + index * 0.04 * fw, 0.70 * fh)
    if role == "staff":
        return (0.15 * fw + index * 0.08 * fw, 0.40 * fh)
    return (0.80 * fw + index * 0.06 * fw, 0.40 * fh)


def generate(spec: ScenarioSpec, cfg: PipelineConfig = PipelineConfig()) -> SimulationResult:
    """Produce the detection stream, ground truth, and observation log.

    Same seed, same outputs: all randomness flows from one generator in a
    fixed per-second draw order. Noise touches only the emitted detections.
    """
    rng = np.random.default_rng(spec.seed)
    fw, fh = ANALYSIS_DIMS
    sid, noise = spec.session_id, spec.noise

    # The pipeline's membership rule: crossings are judged by the same Zone test.
    zone: Optional[Zone] = None
    if spec.zone is not None:
        zone = Zone(expand_polygon(spec.zone_polygon(), cfg.safety_zone_expansion), fw, fh)

    bed = _bed_box()  # boxes are immutable, so seconds share them
    # score templates: RoleDistribution copies its scores, so no instance is shared
    rest = (1.0 - PRIMARY_ROLE_CONFIDENCE) / 2.0
    scores = {p: {r: (PRIMARY_ROLE_CONFIDENCE if r == p else rest) for r in ROLES} for p in ROLES}
    swaps = {p: [r for r in ROLES if r != p] for p in ROLES}
    inside = [False] * len(spec.tracks)  # each track's zone containment a second earlier

    records = []
    motions: dict[int, MotionRecord] = {}
    gt_states = []
    gt_crossings: list[CrossingEvent] = []
    alone_runs: list[tuple[int, int]] = []
    run_start: Optional[int] = None

    for iv in spec.schedule:
        # (role, box) of each occupant at rest, in role order; a resting
        # occupant never moves, so only tracks can cross the zone
        resting = [
            (role, _person_box(*_static_anchor(role, k)))
            for role, count in iv.counts().items()
            for k in range(count)
        ]
        moving = bool(iv.motion > cfg.moving_threshold)  # a numpy threshold compares to np.bool_
        for t in range(iv.start_s, iv.end_s):
            ts = spec.start_ts + t
            occupants = resting.copy()
            for i, tr in enumerate(spec.tracks):
                if not tr.active(t):
                    continue
                x, y = tr.position(t)
                occupants.append((tr.role, _person_box(x, y)))
                if zone is not None:
                    now = zone.contains(x, y)
                    if t > tr.waypoints[0][0] and now != inside[i]:
                        direction = "exit" if inside[i] else "entry"
                        gt_crossings.append(CrossingEvent(sid, ts, direction, -1))
                    inside[i] = now

            # ground truth (pre-noise, pre-smoothing)
            count = len(occupants)
            present = {role for role, _ in occupants}
            alone, patient_alone, supervised = occupancy(count, "patient" in present, "staff" in present)
            # Positional, in field order: keyword arguments cost about 1 us more per state.
            gt_states.append(LogicalState(sid, ts, alone, patient_alone, supervised, moving, float(count)))
            if patient_alone and run_start is None:
                run_start = ts
            elif not patient_alone and run_start is not None:
                alone_runs.append((run_start, ts))
                run_start = None

            # noisy detection record. The draw order is part of the output: a miss
            # draw per occupant even at p_miss 0; random() is uniform() unscaled.
            boxes: list[BoundingBox] = [bed]
            roles: list[Optional[RoleDistribution]] = [None]
            for role, box in occupants:
                if rng.random() < noise.p_miss:
                    continue
                if noise.p_role > 0 and rng.random() < noise.p_role:
                    role = str(rng.choice(swaps[role]))
                boxes.append(box)
                roles.append(RoleDistribution(scores[role]))
            if noise.p_spur > 0 and rng.random() < noise.p_spur:
                sx = float(rng.uniform(0.05 * fw, 0.95 * fw))
                sy = float(rng.uniform(0.25 * fh, 0.95 * fh))
                boxes.append(_person_box(sx, sy, SPURIOUS_CONFIDENCE))
                roles.append(RoleDistribution(scores[str(rng.choice(ROLES))]))
            records.append(DetectionRecord(sid, ts, tuple(boxes), tuple(roles)))

            if t >= 1:
                motions[ts] = MotionRecord({"scene": iv.motion})

    if run_start is not None:
        alone_runs.append((run_start, spec.start_ts + spec.duration_s))

    return SimulationResult(
        spec=spec,
        records=tuple(records),
        motions=motions,
        gt_states=tuple(gt_states),
        observation_log_intervals=tuple(alone_runs),
        gt_crossings=tuple(gt_crossings),
    )


def _base_texture(spec: ScenarioSpec) -> np.ndarray:
    from scipy import ndimage

    rng = np.random.default_rng([spec.seed, 0xF1])
    rw, rh = spec.raw_frame_dims
    t = rng.uniform(0.0, 1.0, size=(rh, rw))
    t = ndimage.gaussian_filter(t, 3.0, mode="wrap")
    t -= t.min()
    t *= 190.0 / max(t.max(), 1e-9)
    return (t + 30.0).astype(np.uint8)


def _frame_stream(spec: ScenarioSpec) -> Iterator[Frame]:
    """Textured frames translating horizontally at the scheduled motion rate.

    The shift is applied at raw resolution scaled so the displacement at the
    flow analysis resolution equals the interval's motion level.
    """
    from .model import FLOW_DIMS

    base = _base_texture(spec)
    scale = spec.raw_frame_dims[0] / FLOW_DIMS[0]
    offset = 0
    for t in range(spec.duration_s):
        if t > 0:
            offset += int(round(spec.interval_at(t).motion * scale))
        pixels = np.roll(base, offset, axis=1)[:, :, None]
        yield Frame(spec.session_id, spec.start_ts + t, pixels)


def spec_from_dict(raw: dict) -> ScenarioSpec:
    """Build a ScenarioSpec from a plain-JSON mapping (the --spec file).

    An unknown key at the top level, in a schedule interval, in a track or in
    the noise model is rejected rather than ignored.
    """
    return from_json(
        ScenarioSpec, raw, "scenario spec",
        schedule=lambda ivs: [from_json(ScheduleInterval, iv, "schedule interval") for iv in ivs],
        tracks=lambda trs: [from_json(OccupantTrack, tr, "track") for tr in trs],
        noise=lambda noise: from_json(NoiseModel, noise, "noise"),
    )
