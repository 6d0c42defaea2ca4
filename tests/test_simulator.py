import hashlib
import itertools
import json
import re
from dataclasses import astuple

import numpy as np
import pytest

from ward_sentinel.errors import InvalidSchedule
from ward_sentinel.geometry import Zone, detect_crossings, expand_polygon
from ward_sentinel.logic import SmoothingWindow, derive_state
from ward_sentinel.model import ANALYSIS_DIMS, PipelineConfig
from ward_sentinel.schema import CanonicalRow, dumps_row
from ward_sentinel.simulator import (
    DEFAULT_START_TS,
    NoiseModel,
    OccupantTrack,
    ScenarioSpec,
    ScheduleInterval,
    generate,
    spec_from_dict,
)

from conftest import person_indices

CFG = PipelineConfig()


def simple_spec(duration=600, seed=11, **kwargs):
    schedule = kwargs.pop(
        "schedule", (ScheduleInterval(0, duration, patients=1, motion=0.0),)
    )
    return ScenarioSpec(seed=seed, duration_s=duration, schedule=schedule, **kwargs)


class TestScenarioValidation:
    def test_schedule_must_tile_duration(self):
        with pytest.raises(InvalidSchedule):
            ScenarioSpec(seed=1, duration_s=100, schedule=(ScheduleInterval(0, 50),))
        with pytest.raises(InvalidSchedule):
            ScenarioSpec(
                seed=1,
                duration_s=100,
                schedule=(ScheduleInterval(0, 60), ScheduleInterval(50, 100)),
            )
        with pytest.raises(InvalidSchedule):
            ScenarioSpec(
                seed=1,
                duration_s=100,
                schedule=(ScheduleInterval(10, 100),),
            )

    def test_noise_rates_bounded(self):
        with pytest.raises(ValueError):
            NoiseModel(p_miss=1.0)
        with pytest.raises(ValueError):
            NoiseModel(p_spur=-0.1)

    @pytest.mark.parametrize(
        "changes",
        [
            dict(patients=-1),
            dict(staff=1.5),
            dict(others=True),
            dict(patients="1"),
            dict(motion=-0.5),
            dict(motion=float("inf")),
            dict(motion=float("nan")),
        ],
        ids=repr,
    )
    def test_interval_counts_and_motion_checked(self, changes):
        with pytest.raises(InvalidSchedule):
            ScheduleInterval(0, 10, **changes)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_track_waypoints_must_be_finite(self, bad):
        with pytest.raises(InvalidSchedule):
            OccupantTrack("staff", ((0, bad, 10.0), (5, 20.0, 20.0)))
        with pytest.raises(InvalidSchedule):
            OccupantTrack("staff", ((0, 10.0, 10.0), (5, 20.0, bad)))

    def test_track_requires_waypoints_in_range(self):
        track = OccupantTrack("staff", ((0, 10, 10), (700, 20, 20)))
        with pytest.raises(InvalidSchedule):
            simple_spec(duration=600, tracks=(track,))


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        spec = simple_spec(
            duration=900,
            schedule=(
                ScheduleInterval(0, 450, patients=1, motion=0.8),
                ScheduleInterval(450, 900, patients=1, staff=2, motion=0.2),
            ),
            noise=NoiseModel(p_miss=0.1, p_spur=0.1, p_role=0.05),
        )
        a = generate(spec, CFG)
        b = generate(spec, CFG)
        dump_a = "\n".join(
            dumps_row(CanonicalRow(r, a.motions.get(r.ts), s))
            for r, s in zip(a.records, a.gt_states)
        )
        dump_b = "\n".join(
            dumps_row(CanonicalRow(r, b.motions.get(r.ts), s))
            for r, s in zip(b.records, b.gt_states)
        )
        assert dump_a == dump_b
        assert a.observation_log_intervals == b.observation_log_intervals

    def test_different_seed_differs(self):
        spec_a = simple_spec(seed=1, noise=NoiseModel(p_miss=0.3))
        spec_b = simple_spec(seed=2, noise=NoiseModel(p_miss=0.3))
        a = generate(spec_a, CFG)
        b = generate(spec_b, CFG)
        counts_a = [len(person_indices(r)) for r in a.records]
        counts_b = [len(person_indices(r)) for r in b.records]
        assert counts_a != counts_b

    def test_frames_deterministic(self):
        spec = simple_spec(duration=5, schedule=(ScheduleInterval(0, 5, patients=1, motion=1.0),))
        sim = generate(spec, CFG)
        f1 = [f.pixels.copy() for f in itertools.islice(sim.frames(), 3)]
        f2 = [f.pixels.copy() for f in itertools.islice(sim.frames(), 3)]
        for a, b in zip(f1, f2):
            assert np.array_equal(a, b)
        assert not np.array_equal(f1[0], f1[1])  # motion 1.0 shifts the texture


class TestGroundTruth:
    def test_noiseless_alone_hour(self):
        spec = simple_spec(duration=3600)
        sim = generate(spec, CFG)
        assert all(s.patient_alone for s in sim.gt_states)
        assert sim.observation_log_intervals == (
            (spec.start_ts, spec.start_ts + 3600),
        )

    def test_ground_truth_follows_schedule(self):
        spec = simple_spec(
            duration=300,
            schedule=(
                ScheduleInterval(0, 100, patients=1),
                ScheduleInterval(100, 200, patients=1, staff=2, motion=2.0),
                ScheduleInterval(200, 300),
            ),
        )
        sim = generate(spec, CFG)
        s0, s150, s250 = sim.gt_states[0], sim.gt_states[150], sim.gt_states[250]
        assert s0.patient_alone and not s0.supervised_by_staff and not s0.moving
        assert s150.supervised_by_staff and not s150.patient_alone and s150.moving
        assert not s250.patient_alone and s250.person_alone  # empty room
        assert sim.observation_log_intervals == ((spec.start_ts, spec.start_ts + 100),)

    def test_noiseless_detections_match_schedule_exactly(self):
        spec = simple_spec(duration=200, schedule=(ScheduleInterval(0, 200, patients=1, staff=1),))
        sim = generate(spec, CFG)
        for rec in sim.records:
            assert len(person_indices(rec)) == 2
            primaries = sorted(
                r.primary() for r in rec.roles if r is not None
            )
            assert primaries == ["patient", "staff"]

    def test_noiseless_pipeline_states_equal_ground_truth(self):
        spec = simple_spec(duration=400)
        sim = generate(spec, CFG)
        w = SmoothingWindow(CFG.smoothing_window_s)
        for rec, gt in zip(sim.records, sim.gt_states):
            w.push(rec, sim.motions.get(rec.ts))
            state = derive_state(w, CFG)
            if rec.ts >= spec.start_ts + CFG.smoothing_window_s:
                assert state == gt


class TestNoise:
    def test_miss_rate_statistics(self):
        spec = simple_spec(duration=5000, noise=NoiseModel(p_miss=0.2))
        sim = generate(spec, CFG)
        detected = sum(len(person_indices(r)) for r in sim.records)
        assert detected / 5000 == pytest.approx(0.8, abs=0.03)

    def test_spurious_rate_statistics(self):
        spec = simple_spec(duration=5000, noise=NoiseModel(p_spur=0.1))
        sim = generate(spec, CFG)
        extras = sum(max(0, len(person_indices(r)) - 1) for r in sim.records)
        assert extras / 5000 == pytest.approx(0.1, abs=0.02)

    def test_noise_does_not_touch_ground_truth(self):
        clean = generate(simple_spec(seed=5), CFG)
        noisy = generate(
            simple_spec(seed=5, noise=NoiseModel(p_miss=0.3, p_spur=0.3, p_role=0.3)),
            CFG,
        )
        assert clean.gt_states == noisy.gt_states
        assert clean.observation_log_intervals == noisy.observation_log_intervals


ZONE = ((400.0, 300.0), (700.0, 300.0), (700.0, 560.0), (400.0, 560.0))


class TestZoneCrossings:
    def _crossing_spec(self, cross_at=100):
        # staff walks from outside the zone to its center, crossing the
        # (expanded) boundary around t=cross_at
        track = OccupantTrack(
            "staff",
            (
                (cross_at - 50, 100.0, 430.0),
                (cross_at + 50, 550.0, 430.0),
            ),
        )
        return simple_spec(duration=300, tracks=(track,), zone=ZONE)

    def test_schedule_implied_entry_once(self):
        spec = self._crossing_spec()
        sim = generate(spec, CFG)
        entries = [e for e in sim.gt_crossings if e.direction == "entry"]
        assert len(entries) == 1
        # the monitored boundary is the 10%-expanded zone: left edge at
        # 550 + 1.1*(400-550) = 385, reached at t = 50 + (385-100)/4.5
        t_cross = 50 + (385 - 100) / 4.5
        assert abs(entries[0].ts - (spec.start_ts + t_cross)) <= 2

    def test_detector_stream_reproduces_crossing(self):
        spec = self._crossing_spec()
        sim = generate(spec, CFG)
        zone = Zone(expand_polygon(spec.zone_polygon(), CFG.safety_zone_expansion), *ANALYSIS_DIMS)
        events = []
        for prev, cur in zip(sim.records, sim.records[1:]):
            events.extend(detect_crossings(prev, cur, zone))
        entries = [e for e in events if e.direction == "entry"]
        assert [e.ts for e in entries] == [e.ts for e in sim.gt_crossings]


class TestSpecFromDict:
    def test_round_trip_fields(self):
        raw = {
            "seed": 9,
            "duration_s": 120,
            "session_id": "roomA",
            "schedule": [
                {"start_s": 0, "end_s": 60, "patients": 1, "motion": 1.5},
                {"start_s": 60, "end_s": 120, "patients": 1, "staff": 1},
            ],
            "tracks": [{"role": "staff", "waypoints": [[0, 10, 10], [50, 60, 60]]}],
            "noise": {"p_miss": 0.05},
            "zone": [[400, 300], [700, 300], [700, 560], [400, 560]],
        }
        spec = spec_from_dict(raw)
        assert spec.session_id == "roomA"
        assert spec.schedule[0].motion == 1.5
        assert spec.noise.p_miss == 0.05
        assert spec.tracks[0].waypoints[1] == (50, 60.0, 60.0)
        assert spec.zone_polygon().area() > 0

    def test_counts_are_not_coerced(self):
        raw = {"seed": 1, "duration_s": 10, "schedule": [{"start_s": 0, "end_s": 10, "patients": 1.5}]}
        with pytest.raises(InvalidSchedule):
            spec_from_dict(raw)

    def test_a_minimal_spec_takes_every_default_from_the_dataclasses(self):
        spec = spec_from_dict({"seed": 3, "duration_s": 10, "schedule": [{"start_s": 0, "end_s": 10}]})
        assert spec == ScenarioSpec(3, 10, (ScheduleInterval(0, 10),))
        assert (spec.session_id, spec.start_ts, spec.raw_frame_dims) == ("sim", DEFAULT_START_TS, (960, 540))
        assert (spec.noise, spec.tracks, spec.zone) == (NoiseModel(), (), None)

    def test_an_integer_motion_builds_the_float_interval(self):
        raw = {"seed": 1, "duration_s": 10, "schedule": [{"start_s": 0, "end_s": 10, "motion": 1}]}
        motion = spec_from_dict(raw).schedule[0].motion
        assert (motion, type(motion)) == (1.0, float)


MINIMAL_SPEC = {"seed": 1, "duration_s": 10, "schedule": [{"start_s": 0, "end_s": 10}]}
# One unknown key per section of the two JSON inputs: the builder, the input
# and the message that names the section and the key.
UNKNOWN_KEYS = {
    "config": (PipelineConfig.from_dict, {"window": 5}, "unknown config keys ['window']"),
    "flow": (PipelineConfig.from_dict, {"flow": {"level": 3}}, "unknown flow keys ['level']"),
    "spec": (spec_from_dict, dict(MINIMAL_SPEC, frame_dims=[9, 9]), "unknown scenario spec keys ['frame_dims']"),
    "interval": (
        spec_from_dict,
        dict(MINIMAL_SPEC, schedule=[{"start_s": 0, "end_s": 10, "staf": 1}]),
        "unknown schedule interval keys ['staf']",
    ),
    "track": (
        spec_from_dict,
        dict(MINIMAL_SPEC, tracks=[{"role": "staff", "waypoints": [[0, 1, 1], [5, 2, 2]], "speed": 2}]),
        "unknown track keys ['speed']",
    ),
    "noise": (spec_from_dict, dict(MINIMAL_SPEC, noise={"p_mis": 0.1}), "unknown noise keys ['p_mis']"),
}


@pytest.mark.parametrize("build,raw,message", UNKNOWN_KEYS.values(), ids=UNKNOWN_KEYS.keys())
def test_the_builder_names_an_unknown_key_and_its_section(build, raw, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        build(raw)


# Each golden spec reaches a branch of `generate`: several intervals (one an
# empty room), every noise draw on or off (a miss draw is taken even when
# p_miss is 0), tracks entering the zone in one interval and leaving it in
# another, two tracks crossing in the same second in opposite directions, a
# track that starts inside the zone, no zone, and a 1-second scenario.
GOLDEN_SCHEDULE = (
    ScheduleInterval(0, 40, patients=1, motion=0.2),
    ScheduleInterval(40, 95, patients=1, staff=2, others=1, motion=1.5),
    ScheduleInterval(95, 120),
    ScheduleInterval(120, 180, patients=2, others=2, motion=0.8),
    ScheduleInterval(180, 200, patients=1),
    ScheduleInterval(200, 230, patients=1, others=1, motion=0.5),
    ScheduleInterval(230, 260, patients=1),
)
GOLDEN_TRACKS = (
    OccupantTrack("staff", ((0, 100.0, 430.0), (40, 550.0, 430.0), (96, 900.0, 430.0))),
    OccupantTrack("patient", ((0, 550.0, 450.0), (30, 550.0, 100.0))),
    OccupantTrack("other", ((150, 900.0, 430.0), (179, 100.0, 430.0))),
    OccupantTrack("staff", ((100, 100.0, 430.0), (150, 550.0, 430.0))),
    OccupantTrack("other", ((100, 670.0, 400.0), (150, 220.0, 400.0))),
    OccupantTrack("patient", ((97, 50.0, 500.0), (99, 80.0, 500.0))),
)


def _golden_spec(seed, noise, zone=ZONE, duration=260, schedule=GOLDEN_SCHEDULE, tracks=GOLDEN_TRACKS):
    return ScenarioSpec(
        seed=seed,
        duration_s=duration,
        schedule=schedule,
        tracks=tracks,
        noise=NoiseModel(*noise),
        session_id=f"golden-{seed}",
        zone=zone,
    )


ONE_SECOND = (ScheduleInterval(0, 1, patients=1, staff=1, motion=2.0),)
GOLDEN = {  # name: (_golden_spec arguments, sha256)
    "all-noise-zone": (
        dict(seed=7, noise=(0.1, 0.2, 0.3)),
        "4694de4c772d2b5df094fda38725b472c50c276733e0c4da1a560277918547aa",
    ),
    "all-noise-no-zone": (
        dict(seed=8, noise=(0.1, 0.2, 0.3), zone=None),
        "1d86bd39eb81b7fc556080b2153d3eb14754858e74c0d2c2346ccec9174144ef",
    ),
    "no-miss": (
        dict(seed=9, noise=(0.0, 0.25, 0.25)),
        "e5e9b3bdb80aac971ca9c0417e1762d9b4dba2f79eabe7fd3e08a14035ced185",
    ),
    "miss-and-spurious": (
        dict(seed=10, noise=(0.2, 0.3, 0.0)),
        "58f290641fb575e20c07ebb4c2b3540160856bcdbd07c00f675d347b97a408d4",
    ),
    "role-only": (
        dict(seed=11, noise=(0.0, 0.0, 0.3)),
        "5e9037baa15c0c4286a9e5cfd1b37729dfb5143bc2826ecffbf040a23cae371f",
    ),
    "noiseless": (
        dict(seed=12, noise=(0.0, 0.0, 0.0)),
        "498248c06794b05f0b3688816101d3e397b875980b6963c6b41912ca85316252",
    ),
    "one-second": (
        dict(seed=13, noise=(0.2, 0.3, 0.4), duration=1, schedule=ONE_SECOND, tracks=()),
        "49d1ca41466f64044bec6c033a732de131b8496179975b47fbdd279459971d61",
    ),
}


def _golden_digest(sim) -> str:
    h = hashlib.sha256()
    for rec, gt in zip(sim.records, sim.gt_states, strict=True):
        h.update(dumps_row(CanonicalRow(rec, sim.motions.get(rec.ts), gt)).encode() + b"\n")
    tail = [sim.observation_log_intervals, [astuple(c) for c in sim.gt_crossings]]
    h.update(json.dumps(tail).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", GOLDEN)
def test_generate_output_is_pinned(name):
    """The exact bytes of every second, the observation log and the crossings.

    The digests were recorded from the per-second generator; a rewrite must
    keep its draw order and arithmetic to keep them."""
    kwargs, digest = GOLDEN[name]
    sim = generate(_golden_spec(**kwargs), CFG)
    assert sorted(sim.motions) == [r.ts for r in sim.records[1:]]
    assert _golden_digest(sim) == digest
