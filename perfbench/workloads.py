"""Seeded inputs and the timed pass of each workload.

A workload's inputs come only from its variant number (the `--seed` folded
onto the recorded reference variants). `setup()` builds the inputs;
`run_pass()` is one timed unit of program work and returns (rows, seconds).
The checks read what a pass wrote from its store directory (frames, replay)
or from `result` (reports).
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

clock = time.perf_counter

VARIANTS = 16  # --seed is folded onto this many recorded input variants
HOUR = 3600


@dataclass(frozen=True)
class Scale:
    frames_seconds: int  # video seconds per frames pass
    replay_rooms: int
    replay_seconds: int  # seconds per room
    reports_rooms: int
    reports_seconds: int
    label_every: int  # reports: one frame label per this many seconds


FULL = Scale(12, 4, 1800, 3, 2400, 10)
TINY = Scale(5, 2, 90, 2, 400, 10)
SCALES = {"full": FULL, "tiny": TINY}


def handed_over(source, latencies, cal):
    """Yield source items; time each from hand-over until the consumer asks again.

    Between items, outside the timed interval, `cal` may sample machine speed.
    """
    for item in source:
        t = clock()
        yield item
        latencies.append(clock() - t)
        cal.between_rows()


def pulled(source, latencies, cal):
    """Yield source items; time each from the request for it until the next request."""
    t = clock()
    for item in source:
        yield item
        latencies.append(clock() - t)
        cal.between_rows()
        t = clock()


def read_store(root: Path) -> tuple[dict, list]:
    """Rows per session (plain JSON objects, ts order) and crossing events."""
    rows: dict[str, list] = {}
    crossings = []
    for seg in sorted((root / "sessions").glob("*/*.jsonl")):
        objs = [json.loads(line) for line in seg.read_text().splitlines() if line]
        if seg.name == "crossings.jsonl":
            crossings += [[o["session_id"], o["ts"], o["direction"], o["person_index"]] for o in objs]
        else:
            rows.setdefault(seg.parent.name, []).extend(objs)
    return rows, sorted(crossings)


def _zone(rng, cx_range=(350.0, 650.0)) -> tuple:
    x0 = float(rng.uniform(*cx_range))
    y0 = float(rng.uniform(280.0, 340.0))
    w = float(rng.uniform(200.0, 300.0))
    h = float(rng.uniform(200.0, 240.0))
    return ((x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h))


def _crossing_walk(ws, rng, zone, t0: int, t1: int, role: str):
    """A walker that passes straight through the zone between t0 and t1."""
    (x0, y0), (x1, _), _, (_, y1) = zone
    y = float(rng.uniform(y0 + 30.0, y1 - 10.0))
    left, right = x0 - 140.0, x1 + 140.0
    if rng.uniform() < 0.5:
        left, right = right, left
    return ws.simulator.OccupantTrack(role, ((t0, left, y), (t1, right, y)))


# One room's hours as (kind, share of the duration): the mix is fixed so every
# variant does the same amount of work; the seed shuffles the order and draws
# the positions, motion levels and detection noise.
WARD_MIX = (
    ("alone", 0.17), ("alone", 0.17), ("alone", 0.13), ("alone", 0.07),
    ("staff", 0.10), ("staff", 0.07), ("visitors", 0.13), ("visitors", 0.10),
    ("away", 0.06),
)
OUTAGE_SHARES = (0.025, 0.05)  # camera outages, as shares of the duration


def _ward_schedule(ws, rng, duration: int):
    """Patient alone, staff rounds, visitors and a short absence, in seeded order."""
    SI = ws.simulator.ScheduleInterval
    lengths = [int(share * duration) for _, share in WARD_MIX]
    lengths[0] += duration - sum(lengths)
    out, t = [], 0
    for i in rng.permutation(len(WARD_MIX)):
        kind, end = WARD_MIX[i][0], t + lengths[i]
        if kind == "alone":
            iv = SI(t, end, patients=1, motion=float(rng.choice([0.0, 0.2])))
        elif kind == "staff":
            iv = SI(t, end, patients=1, staff=2, motion=float(rng.choice([1.0, 1.5])))
        elif kind == "visitors":
            iv = SI(t, end, patients=1, others=1, motion=float(rng.choice([0.3, 0.8])))
        else:
            iv = SI(t, end)
        out.append(iv)
        t = end
    return tuple(out)


def _ward_room(ws, rng, session_id: str, start_ts: int, duration: int, walkers: int):
    zone = _zone(rng)
    walk = max(4, min(30, duration // 10))
    tracks = []
    for _ in range(walkers):
        t0 = int(rng.integers(1, duration - walk - 1))
        role = "staff" if rng.uniform() < 0.7 else "other"
        tracks.append(_crossing_walk(ws, rng, zone, t0, t0 + walk, role))
    return ws.simulator.ScenarioSpec(
        seed=int(rng.integers(1 << 31)),
        duration_s=duration,
        schedule=_ward_schedule(ws, rng, duration),
        tracks=tuple(tracks),
        noise=ws.simulator.NoiseModel(p_miss=0.05, p_spur=0.05, p_role=0.01),
        session_id=session_id,
        start_ts=start_ts,
        zone=zone,
    )


def _outages(rng, duration: int, shares=OUTAGE_SHARES) -> list[tuple[int, int]]:
    """Camera outages as [start, end) offsets: fixed lengths, seeded places,
    one per equal slice of the stream, never at its first or last seconds."""
    cuts = []
    span = duration // len(shares)
    for k, share in enumerate(shares):
        length = max(2, int(share * duration))
        lo = k * span + 5
        start = int(rng.integers(lo, lo + span - length - 10))
        cuts.append((start, start + length))
    return cuts


def _kept(sim, cuts) -> list:
    """(record, motion) for each second outside the outages."""
    t0 = sim.spec.start_ts
    return [
        (r, sim.motions.get(r.ts))
        for r in sim.records
        if not any(a <= r.ts - t0 < b for a, b in cuts)
    ]


class Workload:
    name = ""

    def __init__(self, ws, variant: int, scale: Scale, workdir: Path):
        self.ws = ws
        self.variant = variant
        self.scale = scale
        self.workdir = workdir
        self.cfg = ws.model.PipelineConfig()

    def rng(self, *key) -> np.random.Generator:
        return np.random.default_rng([self.variant, *key])


class Frames(Workload):
    """One room, 960x540 frames through preprocess, flow and the synthetic detector."""

    name = "frames"

    def setup(self) -> None:
        ws, rng, d = self.ws, self.rng(1), self.scale.frames_seconds
        SI = ws.simulator.ScheduleInterval
        q = max(1, d // 4)
        edges = [0, q, 2 * q, 3 * q, d]
        high = [float(v) for v in rng.choice([1.0, 1.5, 2.0], size=2)]
        motions = [0.0, high[0], 0.0, high[1]]
        if rng.uniform() < 0.5:
            motions = motions[1:] + motions[:1]
        schedule = tuple(
            SI(edges[i], edges[i + 1], patients=1, staff=int(i == 2), motion=motions[i])
            for i in range(4)
            if edges[i + 1] > edges[i]
        )
        zone = _zone(rng, (380.0, 480.0))
        spec = ws.simulator.ScenarioSpec(
            seed=int(rng.integers(1 << 31)),
            duration_s=d,
            schedule=schedule,
            tracks=(_crossing_walk(ws, rng, zone, 0, d - 1, "staff"),),
            noise=ws.simulator.NoiseModel(p_miss=0.05, p_spur=0.05),
            session_id="cam-1",
            zone=zone,
        )
        self.cfg = replace(self.cfg, zones={spec.session_id: zone})
        self.spec = spec
        self.sim = ws.simulator.generate(spec, self.cfg)
        self.frames = list(self.sim.frames())
        self.detector = ws.pipeline.SyntheticDetector(self.sim)
        self.expected = {spec.session_id: [spec.start_ts + t for t in range(d)]}

    def run_pass(self, out: Path, latencies=None, cal=None) -> tuple[int, float]:
        p = self.ws.pipeline
        store = self.ws.store.Store(out)
        t0 = clock()
        source = p.frame_source(self.frames)
        if latencies is not None:
            source = handed_over(source, latencies, cal)
        stats = p.run_pipeline(source, self.cfg, store, detector=self.detector)
        return stats.rows, clock() - t0

    def scheduled_shift(self, ts: int) -> float:
        """Horizontal shift at flow resolution that the synthesized frames realise."""
        spec = self.spec
        scale = spec.raw_frame_dims[0] / self.ws.model.FLOW_DIMS[0]
        return round(spec.interval_at(ts - spec.start_ts).motion * scale) / scale


class Replay(Workload):
    """A four-room ward replayed from one canonical detections JSONL."""

    name = "replay"

    def setup(self) -> None:
        ws, s = self.ws, self.scale
        start = ws.simulator.DEFAULT_START_TS + 8 * HOUR
        zones, kept, self.expected, self.inputs = {}, [], {}, {}
        for k in range(s.replay_rooms):
            rng = self.rng(2, k)
            spec = _ward_room(ws, rng, f"room-{k + 1}", start, s.replay_seconds, walkers=3)
            zones[spec.session_id] = spec.zone
            room = _kept(ws.simulator.generate(spec, self.cfg), _outages(rng, spec.duration_s))
            kept += [(r.ts, k, r, m) for r, m in room]
            self.expected[spec.session_id] = [r.ts for r, _ in room]
        kept.sort(key=lambda e: e[:2])
        self.cfg = replace(self.cfg, zones=zones)
        self.jsonl = self.workdir / "replay-detections.jsonl"
        CanonicalRow = ws.schema.CanonicalRow
        ws.schema.write_rows_jsonl((CanonicalRow(r, m) for _, _, r, m in kept), self.jsonl)
        for line in self.jsonl.read_text().splitlines():
            obj = json.loads(line)
            self.inputs[(obj["session_id"], obj["ts"])] = obj

    def run_pass(self, out: Path, latencies=None, cal=None) -> tuple[int, float]:
        ws = self.ws
        store = ws.store.Store(out)
        t0 = clock()
        rows = ws.schema.read_rows_jsonl(self.jsonl)
        source = ws.pipeline.rows_source(rows)
        if latencies is not None:
            source = handed_over(source, latencies, cal)
        stats = ws.pipeline.run_pipeline(source, self.cfg, store)
        return stats.rows, clock() - t0


class Reports(Workload):
    """Trends and evaluation over a store of several room-days."""

    name = "reports"
    # Each room's stream straddles one of these clock times: 21:00 (day to
    # night), midnight (two room-days) and 06:00 (night to day).
    BOUNDARY_HOURS = (21, 24, 6, 15)

    def setup(self) -> None:
        ws, s = self.ws, self.scale
        base = ws.simulator.DEFAULT_START_TS
        noiseless = ws.simulator.NoiseModel()
        zones, sources, self.expected, self.logs, labels = {}, [], {}, {}, []
        for k in range(s.reports_rooms):
            rng = self.rng(3, k)
            d = s.reports_seconds
            start = base + self.BOUNDARY_HOURS[k % 4] * HOUR - d // 2 + int(rng.integers(-(d // 4), d // 4 + 1))
            spec = _ward_room(ws, rng, f"bed-{k + 1}", start, s.reports_seconds, walkers=2)
            zones[spec.session_id] = spec.zone
            cfg = replace(self.cfg, zones={})
            room = _kept(ws.simulator.generate(spec, cfg), _outages(rng, spec.duration_s, OUTAGE_SHARES[1:]))
            sources += room
            kept_ts = {r.ts for r, _ in room}
            self.expected[spec.session_id] = sorted(kept_ts)
            truth = ws.simulator.generate(replace(spec, noise=noiseless), cfg)
            self.logs[spec.session_id] = ws.trends.ObservationLog(
                spec.session_id, truth.observation_log_intervals
            )
            for rec in truth.records:
                if rec.ts in kept_ts and (rec.ts - start) % s.label_every == 0:
                    labels.append(ws.evaluation.FrameLabel(
                        rec.session_id, rec.ts, rec.boxes,
                        tuple(None if r is None else r.primary() for r in rec.roles),
                    ))
        self.cfg = replace(self.cfg, zones=zones)
        self.labels = labels
        # Positions of the labelled seconds among each session's stored rows.
        self.label_rows = {
            sid: [i for i, ts in enumerate(tss) if (ts - tss[0]) % s.label_every == 0]
            for sid, tss in self.expected.items()
        }
        self.store_dir = self.workdir / "reports-store"
        shutil.rmtree(self.store_dir, ignore_errors=True)
        CanonicalRow = ws.schema.CanonicalRow
        ws.pipeline.run_pipeline(
            ws.pipeline.rows_source(CanonicalRow(r, m) for r, m in sources),
            self.cfg,
            ws.store.Store(self.store_dir),
        )

    def run_pass(self, out: Path, latencies=None, cal=None) -> tuple[int, float]:
        ws, tr, ev = self.ws, self.ws.trends, self.ws.evaluation
        t0 = clock()
        store = ws.store.Store(self.store_dir)
        segments = store.verify()
        rows_iter = store.iter_rows()
        if latencies is not None:
            rows_iter = pulled(rows_iter, latencies, cal)
        by_session: dict[str, list] = {}
        for row in rows_iter:
            by_session.setdefault(row.record.session_id, []).append(row)
        sids = sorted(by_session)
        states = {sid: [r.logical for r in by_session[sid]] for sid in sids}
        hourly = [t for sid in sids for t in tr.aggregate_hourly(states[sid])]
        assisted = [t for sid in sids for t in tr.assisted_trends(states[sid], self.logs[sid])]
        accuracy = [ev.trend_accuracy(states[sid], self.logs[sid], self.cfg) for sid in sids]
        labelled = [by_session[sid][i] for sid in sids for i in self.label_rows[sid]]
        frame_report = ev.evaluate_frames(
            self.labels,
            [r.record for r in labelled],
            iou_threshold=self.cfg.iou_threshold,
            pred_alone={f"{r.record.session_id}:{r.record.ts}": r.logical.patient_alone for r in labelled},
        )
        self.result = {
            "segments": segments,
            "rows": by_session,
            "hourly": hourly,
            "cohort": tr.cohort_average(hourly),
            "assisted": assisted,
            "assisted_cohort": tr.cohort_average(assisted),
            "accuracy": accuracy,
            "frames": frame_report,
        }
        elapsed = clock() - t0
        return sum(len(v) for v in by_session.values()), elapsed


WORKLOADS = {w.name: w for w in (Frames, Replay, Reports)}
