"""Hourly trend aggregation, cohort averages, and label-assisted trends.

Trends are reported in minutes per clock hour (percentages derive directly).
Missing seconds are excluded from both numerator and denominator, so partial
hours still contribute with an explicit monitored-minutes denominator.

Each call takes one session's states in strictly increasing ts order and
works on them as numpy columns: int64 ts and one bool column per flag. Hourly
counts are sums over the runs of equal ts // 3600, and the logged alone flag
of each second is a binary search of its ts among the interval ends. Counts
leave numpy as Python ints, so every reported value is a plain float, int or
bool.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date, datetime, timezone
from functools import cache
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

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
_FLAG_COLUMNS = ("patient_alone", "supervised_by_staff", "moving")


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


def _first_unsorted(ts: np.ndarray) -> int:
    """Index i of the first pair ts[i], ts[i + 1] that does not increase, or len(ts)."""
    bad = np.flatnonzero(ts[1:] <= ts[:-1])
    return int(bad[0]) if bad.size else len(ts)


def _columns(states: Sequence[LogicalState]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """ts (int64) and the patient_alone, supervised_by_staff and moving flags
    (bool) of non-empty states.

    The states must be one session's, sorted by strictly increasing ts; the
    first adjacent pair that breaks either rule raises UnsortedInput, naming
    the ts fault when a pair breaks both.
    """
    # One list per column, not a tuple per state: tuples are objects the
    # cyclic GC tracks, and its collections also walk every row the caller holds.
    stamps = list(map(attrgetter("ts"), states))
    sids = list(map(attrgetter("session_id"), states))
    ts = np.array(stamps, dtype=np.int64)  # LogicalState bounds ts to TS_MIN..TS_MAX
    i = _first_unsorted(ts)
    if sids.count(sids[0]) != len(sids):
        j = next(j for j, (a, b) in enumerate(zip(sids, sids[1:])) if a != b)
        if j < i:
            raise UnsortedInput(f"states mix sessions at ts {stamps[j + 1]}: {sids[j]!r} then {sids[j + 1]!r}")
    if i < len(ts):
        raise UnsortedInput(f"states not strictly increasing at ts {stamps[i + 1]}")
    alone, supervised, moving = (np.fromiter(map(attrgetter(k), states), bool, len(states)) for k in _FLAG_COLUMNS)
    return ts, alone, supervised, moving


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values in a non-empty column."""
    return np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])


def _hourly(
    session_id: str, ts: np.ndarray, alone: np.ndarray, supervised: np.ndarray, moving: np.ndarray
) -> list[HourlyTrend]:
    """One HourlyTrend per clock hour with monitored seconds, in time order."""
    hours = ts // 3600
    starts = _run_starts(hours)
    flags = np.column_stack((alone, alone & moving, supervised, moving))  # TREND_KEYS order
    counts = np.add.reduceat(flags, starts, axis=0).tolist()
    seconds = np.diff(np.r_[starts, len(ts)]).tolist()
    return [
        HourlyTrend(
            session_id,
            *_utc_hour(hour),
            minutes={k: c / 60.0 for k, c in zip(TREND_KEYS, row)},
            monitored_minutes=n / 60.0,
        )
        for hour, row, n in zip(hours[starts].tolist(), counts, seconds)
    ]


def aggregate_hourly(states: Sequence[LogicalState]) -> list[HourlyTrend]:
    """Per clock hour: minutes per state and monitored minutes.

    states must be one session's, sorted by strictly increasing ts; hours
    with no monitored seconds produce no row.
    """
    if not states:
        return []
    ts, alone, supervised, moving = _columns(states)
    return _hourly(states[0].session_id, ts, alone, supervised, moving)


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


def _logged_alone(log: ObservationLog, ts: np.ndarray) -> np.ndarray:
    """The log's alone flag (bool) at each second of ts, a non-empty strictly
    increasing int64 column.

    The intervals are half-open [start, end), must be sorted and
    non-overlapping (else OverlappingIntervals), and must stay within the span
    [ts[0], ts[-1] + 1) (else IntervalOutOfBounds).
    """
    lo, hi = int(ts[0]), int(ts[-1]) + 1
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
    if not log.intervals:
        return np.zeros(len(ts), dtype=bool)
    starts = np.array([a for a, _ in log.intervals], dtype=np.int64)
    lasts = np.array([b - 1 for _, b in log.intervals], dtype=np.int64)
    idx = np.searchsorted(lasts, ts)  # the first interval that ends after each second
    inside = idx < len(starts)
    return inside & (starts[np.minimum(idx, len(starts) - 1)] <= ts)


def assisted_trends(
    states: Sequence[LogicalState], log: ObservationLog
) -> list[HourlyTrend]:
    """Hourly trends with logged alone status substituted for the AI's.

    moving and supervised_by_staff stay AI-predicted; alone (and through it
    alone_and_moving) comes from the observation log.
    """
    if not states:
        return []
    ts, _, supervised, moving = _columns(states)
    return _hourly(states[0].session_id, ts, _logged_alone(log, ts), supervised, moving)


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
