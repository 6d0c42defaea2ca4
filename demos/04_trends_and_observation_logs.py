#!/usr/bin/env python3
"""Hourly trends, cohort averages, and label-assisted trends.

Simulates a noisy patient-day, aggregates the pipeline's logical states into
minutes-per-hour trends, then substitutes the logged ground-truth alone
intervals to produce the assisted variant.
"""

from ward_sentinel import Store, aggregate_hourly, assisted_trends, cohort_average
from ward_sentinel.model import PipelineConfig
from ward_sentinel.pipeline import rows_source, run_pipeline
from ward_sentinel.schema import CanonicalRow
from ward_sentinel.simulator import NoiseModel, ScenarioSpec, ScheduleInterval, generate
from ward_sentinel.trends import ObservationLog

import tempfile
from pathlib import Path

cfg = PipelineConfig()
spec = ScenarioSpec(
    seed=404,
    duration_s=6 * 3600,
    schedule=(
        ScheduleInterval(0, 2 * 3600, patients=1, motion=0.2),
        ScheduleInterval(2 * 3600, 2 * 3600 + 1800, patients=1, staff=2, motion=1.5),
        ScheduleInterval(2 * 3600 + 1800, 4 * 3600, patients=1, motion=1.0),
        ScheduleInterval(4 * 3600, 4 * 3600 + 1200),  # patient off the floor
        ScheduleInterval(4 * 3600 + 1200, 6 * 3600, patients=1),
    ),
    noise=NoiseModel(p_miss=0.05, p_spur=0.05),
    session_id="demo-day",
)
sim = generate(spec, cfg)

with tempfile.TemporaryDirectory() as tmp:
    store = Store(Path(tmp) / "store")
    run_pipeline(rows_source(CanonicalRow(r, sim.motions.get(r.ts)) for r in sim.records), cfg, store)
    states = [row.logical for row in store.iter_rows()]

print("hour  monitored  alone  moving  alone+moving  supervised")
trends = aggregate_hourly(states)
for t in trends:
    print(
        f"{t.hour:4d}  {t.monitored_minutes:9.1f}  {t.minutes['alone']:5.1f}  "
        f"{t.minutes['moving']:6.1f}  {t.minutes['alone_and_moving']:12.1f}  "
        f"{t.minutes['supervised_by_staff']:10.1f}"
    )

log = ObservationLog(spec.session_id, sim.observation_log_intervals)
assisted = assisted_trends(states, log)
print("\nassisted (logged alone substituted for the AI's):")
for t in assisted:
    print(f"{t.hour:4d}  alone={t.minutes['alone']:5.1f}  supervised={t.minutes['supervised_by_staff']:5.1f}")

print("\ncohort average across the patient-day rows (per hour of day):")
for row in cohort_average(trends):
    if row.patient_days:
        print(f"{row.hour:4d}  n={row.patient_days}  alone={row.minutes['alone']:.1f} min")
