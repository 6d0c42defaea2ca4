#!/usr/bin/env python3
"""The full chain on synthesized camera frames.

simulate -> preprocess -> detector port -> optical flow -> ROI motion ->
smoothing window -> logical states -> canonical store, then trends and the
trend-accuracy evaluation, all inside one short scripted scenario.
"""

import tempfile
from pathlib import Path

from ward_sentinel import Store, aggregate_hourly, trend_accuracy
from ward_sentinel.model import PipelineConfig
from ward_sentinel.pipeline import SyntheticDetector, frame_source, run_pipeline
from ward_sentinel.simulator import OccupantTrack, ScenarioSpec, ScheduleInterval, generate
from ward_sentinel.trends import ObservationLog

cfg = PipelineConfig()
zone = ((400.0, 300.0), (700.0, 300.0), (700.0, 560.0), (400.0, 560.0))
spec = ScenarioSpec(
    seed=99,
    duration_s=90,
    schedule=(
        ScheduleInterval(0, 45, patients=1, motion=0.0),
        ScheduleInterval(45, 90, patients=1, motion=2.0),
    ),
    tracks=(OccupantTrack("staff", ((20, 200.0, 430.0), (70, 560.0, 430.0))),),
    zone=zone,
    session_id="demo-e2e",
)
cfg = PipelineConfig(zones={"demo-e2e": zone})
sim = generate(spec, cfg)

with tempfile.TemporaryDirectory() as tmp:
    store = Store(Path(tmp) / "store")
    stats = run_pipeline(
        frame_source(sim.frames()), cfg, store, detector=SyntheticDetector(sim)
    )
    print(f"processed {stats.rows} frames at {stats.rows / stats.elapsed_s:.1f} fps "
          f"(budget is 1 fps), {stats.crossings} zone crossing(s)")
    print(f"store integrity: {store.verify()} sealed segment(s) verified")
    rows = list(store.iter_rows())

moving = [r.record.ts - spec.start_ts for r in rows if r.logical.moving]
print(f"seconds flagged moving: {moving[0]}..{moving[-1]} "
      f"(motion starts at t=45; the 5s window trails)")

states = [r.logical for r in rows]
for trend in aggregate_hourly(states):
    print(f"hour {trend.hour}: monitored={trend.monitored_minutes:.2f} min, "
          f"alone={trend.minutes['alone']:.2f}, moving={trend.minutes['moving']:.2f}")

log = ObservationLog(spec.session_id, sim.observation_log_intervals)
for row in trend_accuracy(states, log, cfg).rows:
    print(f"trend accuracy [{row.period}, {row.method}]: {row.accuracy:.3f}")
