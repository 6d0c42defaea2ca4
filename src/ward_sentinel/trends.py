"""Hourly trend aggregation, cohort averages, and label-assisted trends.

Trends are reported in minutes per clock hour (percentages derive directly).
Missing seconds are excluded from both numerator and denominator, so partial
hours still contribute with an explicit monitored-minutes denominator.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date, datetime, timezone
from functools import cache
from typing import Iterable, Optional, Sequence

from .errors import IntervalOutOfBounds, OverlappingIntervals, UnsortedInput, ValidationError
from .logic import LogicalState

TREND_KEYS = ("alone", "alone_and_moving", "supervised_by_staff", "moving")
# Trend key -> its minutes column in trends.csv and cohort.csv, in column order.
MINUTE_COLUMNS = {
    "alone": "alone_min",
    "moving": "moving_min",
    "alone_and_moving": "alone_moving_min",
    "supervised_by_staff": "supervised_min",
}
OBSLOG_CSV_HEADER = "session_id,start_ts,end_ts"


@cache
def _utc_hour(hour: int) -> tuple[date, int]:
    """The UTC (date, hour of day) of an hour number, ts // 3600."""
    dt = datetime.fromtimestamp(hour * 3600, tz=timezone.utc)
    return dt.date(), dt.hour


@dataclass(frozen=True)
class HourlyTrend:
    """Minutes spent in each logical state during one clock hour."""

    session_id: str
    date: date
    hour: int
    minutes: dict[str, float]
    monitored_minutes: float

    def __post_init__(self):
        if not 0 <= self.hour <= 23:
            raise ValueError("hour must be in 0..23")
        if not 0.0 <= self.monitored_minutes <= 60.0:
            raise ValueError("monitored_minutes must be in [0, 60]")
        for key in TREND_KEYS:
            v = self.minutes.get(key, 0.0)
            if v < 0 or v > self.monitored_minutes + 1e-9:
                raise ValueError(f"{key} minutes {v} exceed monitored {self.monitored_minutes}")


@dataclass(frozen=True)
class CohortHourlyTrend:
    """Cross-patient-day mean for one hour of day."""

    hour: int
    patient_days: int
    minutes: dict[str, Optional[float]]
    monitored_minutes: Optional[float]


@dataclass(frozen=True)
class ObservationLog:
    """Ground-truth intervals [start_ts, end_ts) during which the patient was alone."""

    session_id: str
    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "intervals", tuple((int(a), int(b)) for a, b in self.intervals)
        )
        for a, b in self.intervals:
            if b <= a:
                raise ValueError(f"empty or inverted interval [{a}, {b})")


def _flags(state: LogicalState, alone: bool) -> dict[str, bool]:
    """Trend flags for one second, with the alone status supplied by the caller."""
    return {
        "alone": alone,
        "alone_and_moving": alone and state.moving,
        "supervised_by_staff": state.supervised_by_staff,
        "moving": state.moving,
    }


def _aggregate(session_id: str, rows: Iterable[tuple[int, dict[str, bool]]]) -> list[HourlyTrend]:
    buckets: dict[tuple[date, int], dict] = {}
    for ts, flags in rows:
        key = _utc_hour(ts // 3600)
        bucket = buckets.setdefault(key, {"seconds": 0, **{k: 0 for k in TREND_KEYS}})
        bucket["seconds"] += 1
        for k in TREND_KEYS:
            bucket[k] += flags[k]
    out = []
    for (d, hour), bucket in sorted(buckets.items()):
        out.append(
            HourlyTrend(
                session_id=session_id,
                date=d,
                hour=hour,
                minutes={k: bucket[k] / 60.0 for k in TREND_KEYS},
                monitored_minutes=bucket["seconds"] / 60.0,
            )
        )
    return out


def aggregate_hourly(states: Sequence[LogicalState]) -> list[HourlyTrend]:
    """Per clock hour: minutes per state and monitored minutes.

    states must be one session's, sorted by strictly increasing ts; hours
    with no monitored seconds produce no row.
    """
    if not states:
        return []
    session_id = states[0].session_id
    for a, b in zip(states, states[1:]):
        if b.ts <= a.ts:
            raise UnsortedInput(f"states not strictly increasing at ts {b.ts}")
        if b.session_id != session_id:
            raise UnsortedInput("aggregate_hourly expects a single session")
    return _aggregate(session_id, ((s.ts, _flags(s, s.patient_alone)) for s in states))


def cohort_average(trends: Sequence[HourlyTrend]) -> list[CohortHourlyTrend]:
    """Unweighted mean across patient-day rows possessing each hour of day."""
    by_hour: dict[int, list[HourlyTrend]] = {}
    for t in trends:
        by_hour.setdefault(t.hour, []).append(t)
    out = []
    for hour in range(24):
        rows = by_hour.get(hour, [])
        if rows:
            minutes = {
                k: sum(r.minutes[k] for r in rows) / len(rows) for k in TREND_KEYS
            }
            monitored = sum(r.monitored_minutes for r in rows) / len(rows)
        else:
            minutes = {k: None for k in TREND_KEYS}
            monitored = None
        out.append(
            CohortHourlyTrend(
                hour=hour,
                patient_days=len(rows),
                minutes=minutes,
                monitored_minutes=monitored,
            )
        )
    return out


def log_to_states(log: ObservationLog, grid: Sequence[int]) -> list[bool]:
    """Per-second alone flags aligned with grid (a strictly increasing second grid).

    Intervals are half-open [start, end), must be sorted and non-overlapping,
    and must stay within the grid's span.
    """
    if not grid:
        return []
    for a, b in zip(grid, grid[1:]):
        if b <= a:
            raise UnsortedInput(f"states not strictly increasing at ts {b}")
    lo, hi = grid[0], grid[-1] + 1
    prev_end = None
    for a, b in log.intervals:
        if prev_end is not None and a < prev_end:
            raise OverlappingIntervals(
                f"interval [{a}, {b}) overlaps or precedes an earlier interval"
            )
        if a < lo or b > hi:
            raise IntervalOutOfBounds(
                f"interval [{a}, {b}) outside session span [{lo}, {hi})"
            )
        prev_end = b
    flags = []
    idx = 0
    intervals = log.intervals
    for ts in grid:
        while idx < len(intervals) and intervals[idx][1] <= ts:
            idx += 1
        flags.append(idx < len(intervals) and intervals[idx][0] <= ts < intervals[idx][1])
    return flags


def assisted_trends(
    states: Sequence[LogicalState], log: ObservationLog
) -> list[HourlyTrend]:
    """Hourly trends with logged alone status substituted for the AI's.

    moving and supervised_by_staff stay AI-predicted; alone (and through it
    alone_and_moving) comes from the observation log.
    """
    if not states:
        return []
    session_id = states[0].session_id
    grid = [s.ts for s in states]
    alone = log_to_states(log, grid)
    return _aggregate(
        session_id, ((s.ts, _flags(s, flag)) for s, flag in zip(states, alone))
    )


def _write_minutes_csv(path, lead_columns: Sequence[str], rows, lead) -> None:
    """A trend table: lead(row) under lead_columns, then monitored_min and
    MINUTE_COLUMNS to 6 decimals, with "" for an hour with no data (None)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*lead_columns, "monitored_min", *MINUTE_COLUMNS.values()])
        for r in rows:
            values = (r.monitored_minutes, *(r.minutes[k] for k in MINUTE_COLUMNS))
            writer.writerow([*lead(r), *("" if v is None else f"{v:.6f}" for v in values)])


def write_trend_csv(trends: Sequence[HourlyTrend], path) -> None:
    columns = ("session_id", "date", "hour")
    _write_minutes_csv(path, columns, trends, lambda t: (t.session_id, t.date.isoformat(), t.hour))


def write_cohort_csv(rows: Sequence[CohortHourlyTrend], path) -> None:
    _write_minutes_csv(path, ("hour", "patient_days"), rows, lambda r: (r.hour, r.patient_days))


def read_observation_csv(path) -> dict[str, ObservationLog]:
    """Load observation logs (session_id,start_ts,end_ts rows) grouped by session.

    A missing column, a non-integer ts or an empty or inverted interval raises
    ValidationError prefixed with path:line.
    """
    intervals: dict[str, list[tuple[int, int]]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                log = ObservationLog(row["session_id"], ((row["start_ts"], row["end_ts"]),))
            except KeyError as e:
                raise ValidationError(f"{path}:{reader.line_num}: missing column {e}") from None
            except (TypeError, ValueError) as e:
                raise ValidationError(f"{path}:{reader.line_num}: {e}") from None
            intervals.setdefault(log.session_id, []).extend(log.intervals)
    return {
        sid: ObservationLog(sid, tuple(sorted(iv))) for sid, iv in intervals.items()
    }


def write_observation_csv(logs: Sequence[ObservationLog], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OBSLOG_CSV_HEADER.split(","))
        for log in logs:
            for a, b in log.intervals:
                writer.writerow([log.session_id, a, b])
