import re
from dataclasses import fields, is_dataclass
from datetime import datetime, timezone

import numpy as np
import pytest

from ward_sentinel.errors import (
    IntervalOutOfBounds,
    OverlappingIntervals,
    SingleClassTarget,
    UnsortedInput,
)
from ward_sentinel.evaluation import (
    PERIODS,
    TrendAccuracyReport,
    TrendAccuracyRow,
    fit_logistic,
    manual_accuracy,
    trend_accuracy,
)
from ward_sentinel.logic import LogicalState
from ward_sentinel.model import TS_MAX, TS_MIN, PipelineConfig
from ward_sentinel.trends import (
    TREND_KEYS,
    HourlyTrend,
    ObservationLog,
    aggregate_hourly,
    assisted_trends,
    cohort_average,
    read_observation_csv,
    write_observation_csv,
    write_trend_csv,
    _utc_hour,
)

MIDNIGHT = 1709251200  # 2024-03-01T00:00:00Z


def make_state(ts, alone=False, supervised=False, moving=False, session="s"):
    return LogicalState(
        session_id=session,
        ts=ts,
        person_alone=alone or not supervised,
        patient_alone=alone,
        supervised_by_staff=supervised,
        moving=moving,
        smoothed_person_count=1.0 if alone else 2.0,
    )


def test_utc_hour_matches_datetime_across_day_boundaries(rng):
    days = rng.integers(-400, 40_000, 400) * 86400
    offsets = rng.choice([0, 1, 3599, 3600, 43_200, 86_399], 400)
    jitter = rng.integers(-2, 3, 400)
    stamps = [int(t) for t in days + offsets + jitter]
    stamps += [int(t) for t in rng.integers(-(2**33), 2**33, 2000)]
    for ts in stamps:
        dt = datetime.fromtimestamp(ts, tz=timezone.utc)
        assert _utc_hour(ts // 3600) == (dt.date(), dt.hour), ts


class TestAggregateHourly:
    def test_full_hour_alone(self):
        states = [make_state(MIDNIGHT + i, alone=True) for i in range(3600)]
        (trend,) = aggregate_hourly(states)
        assert trend.hour == 0
        assert trend.minutes["alone"] == pytest.approx(60.0)
        assert trend.monitored_minutes == pytest.approx(60.0)

    def test_partial_monitoring(self):
        # 1800 present seconds, 900 alone
        states = [
            make_state(MIDNIGHT + 2 * i, alone=(i < 900)) for i in range(1800)
        ]
        (trend,) = aggregate_hourly(states)
        assert trend.monitored_minutes == pytest.approx(30.0)
        assert trend.minutes["alone"] == pytest.approx(15.0)

    def test_empty_hour_has_no_row(self):
        states = [make_state(MIDNIGHT + i, alone=True) for i in range(60)]
        states += [make_state(MIDNIGHT + 2 * 3600 + i, alone=True) for i in range(60)]
        trends = aggregate_hourly(states)
        assert [t.hour for t in trends] == [0, 2]

    def test_unsorted_rejected(self):
        states = [make_state(MIDNIGHT + 1), make_state(MIDNIGHT)]
        with pytest.raises(UnsortedInput):
            aggregate_hourly(states)

    def test_conservation_and_bounds(self, rng):
        states = [
            make_state(MIDNIGHT + int(t), alone=bool(rng.uniform() < 0.4),
                       moving=bool(rng.uniform() < 0.3))
            for t in sorted(rng.choice(86400, size=5000, replace=False))
        ]
        for t in aggregate_hourly(states):
            assert 0 <= t.monitored_minutes <= 60
            for key, v in t.minutes.items():
                assert 0 <= v <= t.monitored_minutes + 1e-9
            assert t.minutes["alone_and_moving"] <= min(
                t.minutes["alone"], t.minutes["moving"]
            ) + 1e-9

    def test_additive_over_disjoint_ranges(self):
        first = [make_state(MIDNIGHT + i, alone=True) for i in range(0, 600)]
        second = [make_state(MIDNIGHT + i, alone=True) for i in range(1800, 2400)]
        (joint,) = aggregate_hourly(first + second)
        (a,) = aggregate_hourly(first)
        (b,) = aggregate_hourly(second)
        assert joint.minutes["alone"] == pytest.approx(a.minutes["alone"] + b.minutes["alone"])
        assert joint.monitored_minutes == pytest.approx(
            a.monitored_minutes + b.monitored_minutes
        )


class TestCohortAverage:
    def _trend(self, hour, alone, date_str="2024-03-01"):
        from datetime import date

        return HourlyTrend(
            session_id="s",
            date=date.fromisoformat(date_str),
            hour=hour,
            minutes={
                "alone": alone,
                "alone_and_moving": 0.0,
                "supervised_by_staff": 0.0,
                "moving": 0.0,
            },
            monitored_minutes=60.0,
        )

    def test_mean_of_two_days(self):
        rows = cohort_average(
            [self._trend(14, 10.0), self._trend(14, 20.0, "2024-03-02")]
        )
        assert rows[14].minutes["alone"] == pytest.approx(15.0)
        assert rows[14].patient_days == 2

    def test_single_day_identity(self):
        rows = cohort_average([self._trend(3, 42.0)])
        assert rows[3].minutes["alone"] == pytest.approx(42.0)
        assert rows[3].patient_days == 1

    def test_hour_present_in_one_of_three_days(self):
        trends = [
            self._trend(10, 5.0, "2024-03-01"),
            self._trend(11, 6.0, "2024-03-02"),
            self._trend(12, 7.0, "2024-03-03"),
        ]
        rows = cohort_average(trends)
        assert rows[11].minutes["alone"] == pytest.approx(6.0)
        assert rows[11].patient_days == 1
        assert rows[5].patient_days == 0 and rows[5].minutes["alone"] is None

    def test_identical_trends_are_fixed_point(self):
        t = self._trend(8, 33.0)
        rows = cohort_average([t, t, t])
        assert rows[8].minutes["alone"] == pytest.approx(33.0)
        assert rows[8].monitored_minutes == pytest.approx(60.0)


class TestLoggedAlone:
    """The log's per-second alone flags, read through assisted_trends: its
    alone minutes count them, and its alone_and_moving minutes count them at
    the seconds marked moving."""

    hour = range(MIDNIGHT, MIDNIGHT + 3600)

    def _minutes(self, log, stamps, moving=()):
        (trend,) = assisted_trends([make_state(ts, moving=ts in moving) for ts in stamps], log)
        return trend.minutes

    def test_interval_marks_sixty_seconds(self):
        log = ObservationLog("s", ((MIDNIGHT + 100, MIDNIGHT + 160),))
        probes = {MIDNIGHT + t for t in (99, 100, 159, 160)}
        minutes = self._minutes(log, self.hour, moving=probes)
        assert minutes["alone"] == 60 / 60.0
        assert minutes["alone_and_moving"] == 2 / 60.0  # seconds 100 and 159, not 99 or 160

    def test_empty_log_all_not_alone(self):
        assert self._minutes(ObservationLog("s", ()), self.hour)["alone"] == 0.0

    def test_gappy_grid(self):
        grid = [MIDNIGHT + t for t in (0, 1, 2, 10, 11, 12)]
        log = ObservationLog("s", ((MIDNIGHT + 2, MIDNIGHT + 11),))
        flags = [self._minutes(log, grid, moving={ts})["alone_and_moving"] == 1 / 60.0 for ts in grid]
        assert flags == [False, False, True, True, False, False]


class TestAssistedTrends:
    def test_substitution_overrides_wrong_ai(self):
        # AI says never alone; the log says the first half hour was alone
        states = [make_state(MIDNIGHT + i, alone=False) for i in range(3600)]
        log = ObservationLog("s", ((MIDNIGHT, MIDNIGHT + 1800),))
        (trend,) = assisted_trends(states, log)
        assert trend.minutes["alone"] == pytest.approx(30.0)
        assert trend.minutes["supervised_by_staff"] == pytest.approx(0.0)

    def test_log_matching_ai_is_identity(self):
        states = [make_state(MIDNIGHT + i, alone=(i < 1200)) for i in range(3600)]
        log = ObservationLog("s", ((MIDNIGHT, MIDNIGHT + 1200),))
        (plain,) = aggregate_hourly(states)
        (assisted,) = assisted_trends(states, log)
        assert assisted == plain

    def test_moving_and_supervised_retained(self):
        states = [
            make_state(MIDNIGHT + i, alone=False, supervised=(i % 2 == 0), moving=True)
            for i in range(3600)
        ]
        log = ObservationLog("s", ((MIDNIGHT, MIDNIGHT + 600),))
        (assisted,) = assisted_trends(states, log)
        assert assisted.minutes["supervised_by_staff"] == pytest.approx(30.0)
        assert assisted.minutes["moving"] == pytest.approx(60.0)
        assert assisted.minutes["alone_and_moving"] == pytest.approx(10.0)


class TestCsvRoundTrip:
    def test_trend_csv_header(self, tmp_path):
        states = [make_state(MIDNIGHT + i, alone=True) for i in range(120)]
        path = tmp_path / "trends.csv"
        write_trend_csv(aggregate_hourly(states), path)
        header = path.read_text().splitlines()[0]
        assert header == (
            "session_id,date,hour,monitored_min,alone_min,moving_min,"
            "alone_moving_min,supervised_min"
        )

    def test_observation_csv_round_trip(self, tmp_path):
        logs = [
            ObservationLog("a", ((10, 50), (60, 90))),
            ObservationLog("b", ((0, 5),)),
        ]
        path = tmp_path / "obs.csv"
        write_observation_csv(logs, path)
        loaded = read_observation_csv(path)
        assert loaded["a"].intervals == ((10, 50), (60, 90))
        assert loaded["b"].intervals == ((0, 5),)


# Oracle: the per-second loops that trends.py and evaluation.trend_accuracy
# ran before they worked on numpy columns, kept verbatim but for the names.
def _oracle_utc_hour(hour):
    dt = datetime.fromtimestamp(hour * 3600, tz=timezone.utc)
    return dt.date(), dt.hour


def _oracle_flags(state, alone):
    return {
        "alone": alone,
        "alone_and_moving": alone and state.moving,
        "supervised_by_staff": state.supervised_by_staff,
        "moving": state.moving,
    }


def _oracle_aggregate(session_id, rows):
    buckets = {}
    for ts, flags in rows:
        key = _oracle_utc_hour(ts // 3600)
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


def _oracle_hourly(states):
    return _oracle_aggregate(states[0].session_id, ((s.ts, _oracle_flags(s, s.patient_alone)) for s in states))


def _oracle_logged_alone(log, grid):
    flags = []
    idx = 0
    intervals = log.intervals
    for ts in grid:
        while idx < len(intervals) and intervals[idx][1] <= ts:
            idx += 1
        flags.append(idx < len(intervals) and intervals[idx][0] <= ts < intervals[idx][1])
    return flags


def _oracle_assisted(states, log):
    alone = _oracle_logged_alone(log, [s.ts for s in states])
    return _oracle_aggregate(
        states[0].session_id, ((s.ts, _oracle_flags(s, flag)) for s, flag in zip(states, alone))
    )


def _oracle_trend_accuracy(states, log, cfg):
    def period_of(ts):
        hour = _oracle_utc_hour(ts // 3600)[1]
        return "day" if cfg.day_start_hour <= hour < cfg.night_start_hour else "night"

    truth = _oracle_logged_alone(log, [s.ts for s in states])
    by_day = {}
    for s, y in zip(states, truth):
        by_day.setdefault(_oracle_utc_hour(s.ts // 3600)[0], []).append((s.ts, s.patient_alone, y))
    rows = []
    for day, entries in sorted(by_day.items()):
        for period in PERIODS:
            if period == "full":
                selected = entries
            else:
                selected = [e for e in entries if period_of(e[0]) == period]
            if not selected:
                continue
            x = np.array([float(e[1]) for e in selected])
            y = np.array([float(e[2]) for e in selected])
            try:
                _, acc = fit_logistic(x, y)
                method = "logistic"
            except SingleClassTarget:
                acc = manual_accuracy(x, y)
                method = "manual"
            rows.append(TrendAccuracyRow(states[0].session_id, day, period, method, acc, len(selected)))
    return TrendAccuracyReport.from_rows(rows)


def _typed(v):
    """v as nested (type, value) pairs: == on two of these compares exact types
    and dict key order as well as values."""
    if is_dataclass(v):
        return type(v), tuple(_typed(getattr(v, f.name)) for f in fields(v))
    if isinstance(v, dict):
        return dict, tuple((k, _typed(x)) for k, x in v.items())
    if isinstance(v, (list, tuple)):
        return type(v), tuple(_typed(x) for x in v)
    return type(v), v


# Starts just before an hour, midnight, 06:00, 21:00, the epoch and a
# negative day, so streams cross each boundary the trends split on.
STREAM_STARTS = (
    MIDNIGHT - 90, MIDNIGHT + 6 * 3600 - 700, MIDNIGHT + 21 * 3600 - 1500, MIDNIGHT + 3600 * 13 - 5,
    -40, -3 * 86400 - 1200, -86400 + 21 * 3600 - 60,
)


def _random_stream(rng, k):
    """One session's states with gaps, and a log of intervals within its span."""
    steps = np.where(rng.uniform(size=int(rng.integers(1, 2500))) < 0.995, 1, rng.integers(2, 4000))
    steps[0] = 0
    grid = (STREAM_STARTS[k % len(STREAM_STARTS)] + int(rng.integers(-30, 30)) + np.cumsum(steps)).tolist()
    n = len(grid)
    # Runs of equal truth, predicted with a k-dependent error rate.
    truth = np.repeat(rng.uniform(size=n // 50 + 1) < 0.5, 50)[:n] if k % 5 else np.zeros(n, bool)
    pred = truth ^ (rng.uniform(size=n) < (0.0, 0.05, 0.4)[k % 3])
    person_alone = pred | (rng.uniform(size=n) < 0.5)
    supervised = ~person_alone & (rng.uniform(size=n) < 0.5)
    moving = rng.uniform(size=n) < 0.3
    states = [
        LogicalState("s", ts, bool(pa), bool(p), bool(su), bool(m), 1.0)
        for ts, pa, p, su, m in zip(grid, person_alone, pred, supervised, moving)
    ]
    # Intervals from the truth runs, cut at random inside gaps and at the
    # span's edges [grid[0], grid[-1] + 1).
    edges = np.flatnonzero(np.diff(np.r_[0, truth.astype(int), 0]))
    intervals = []
    for a, b in zip(edges[::2], edges[1::2]):
        start = grid[a] - int(rng.integers(0, grid[a] - grid[a - 1])) if a else grid[0]
        end = grid[b - 1] + 1 + (int(rng.integers(0, grid[b] - grid[b - 1])) if b < n else 0)
        intervals.append((start, end))
    return states, ObservationLog("s", tuple(intervals))


def test_columns_give_the_per_second_loops_results_with_their_types(rng):
    cfg = PipelineConfig()
    seen = set()
    for k in range(70):
        states, log = _random_stream(rng, k)
        grid = [s.ts for s in states]
        for got, want in (
            (aggregate_hourly(states), _oracle_hourly(states)),
            (assisted_trends(states, log), _oracle_assisted(states, log)),
            (trend_accuracy(states, log, cfg), _oracle_trend_accuracy(states, log, cfg)),
        ):
            assert _typed(got) == _typed(want), k
        seen.add("empty-log" if not log.intervals else "log")
        seen.add("negative" if grid[0] < 0 else "positive")
        seen |= {"gap" for a, b in zip(grid, grid[1:]) if b - a > 1}
        seen |= {"edge-start" for a, _ in log.intervals[:1] if a == grid[0]}
        seen |= {"edge-end" for _, b in log.intervals[-1:] if b == grid[-1] + 1}
        seen |= {r.method for r in trend_accuracy(states, log, cfg).rows}
        days = {ts // 86400 for ts in grid}
        hours = {ts // 3600 % 24 for ts in grid}
        seen |= {"days" for _ in range(len(days) > 1)} | {f"{h}:00" for h in (0, 6, 21) if {h, (h - 1) % 24} <= hours}
    assert seen >= {"empty-log", "log", "negative", "positive", "gap", "edge-start", "edge-end"}
    assert seen >= {"logistic", "manual", "days", "0:00", "6:00", "21:00"}


def test_empty_inputs():
    assert aggregate_hourly([]) == [] and assisted_trends([], ObservationLog("s", ((0, 1),))) == []


def _states(stamps, sessions=None):
    sessions = sessions or ["a"] * len(stamps)
    return [make_state(ts, alone=True, session=sid) for ts, sid in zip(stamps, sessions)]


ALL_THREE = {
    "hourly": lambda states, log: aggregate_hourly(states),
    "assisted": assisted_trends,
    "accuracy": trend_accuracy,
}
# Stamps and sessions of states that break a rule, and the exact error.
BAD_STATES = {
    "unsorted": ([10, 12, 11, 13], None, "states not strictly increasing at ts 11"),
    "repeated": ([10, 11, 11], None, "states not strictly increasing at ts 11"),
    "mixed": ([10, 11, 12], ["a", "a", "b"], "states mix sessions at ts 12: 'a' then 'b'"),
    "mixed-back": ([10, 11, 12], ["a", "b", "a"], "states mix sessions at ts 11: 'a' then 'b'"),
    "mixed-before-unsorted": ([10, 11, 9], ["a", "b", "b"], "states mix sessions at ts 11: 'a' then 'b'"),
    "unsorted-before-mixed": ([10, 9, 12], ["a", "a", "b"], "states not strictly increasing at ts 9"),
    "both-at-one-pair": ([10, 10, 12], ["a", "b", "b"], "states not strictly increasing at ts 10"),
}


@pytest.mark.parametrize("call", ALL_THREE.values(), ids=ALL_THREE.keys())
@pytest.mark.parametrize("stamps,sessions,message", BAD_STATES.values(), ids=BAD_STATES.keys())
def test_each_call_takes_one_sessions_states_in_increasing_ts(call, stamps, sessions, message):
    with pytest.raises(UnsortedInput, match=f"^{re.escape(message)}$"):
        call(_states(stamps, sessions), ObservationLog("a", ()))


@pytest.mark.parametrize("call", ALL_THREE.values(), ids=ALL_THREE.keys())
def test_two_sessions_in_one_call_are_rejected(call):
    states = _states(range(MIDNIGHT, MIDNIGHT + 120), ["a"] * 60 + ["b"] * 60)
    with pytest.raises(UnsortedInput, match=re.escape(f"states mix sessions at ts {MIDNIGHT + 60}: 'a' then 'b'")):
        call(states, ObservationLog("a", ((MIDNIGHT, MIDNIGHT + 30),)))


BAD_LOGS = {
    "overlap": (((10, 20), (15, 25)), OverlappingIntervals, "interval [15, 25) overlaps or precedes an earlier interval"),
    "unsorted": (((20, 25), (10, 15)), OverlappingIntervals, "interval [10, 15) overlaps or precedes an earlier interval"),
    "before-span": (((9, 12),), IntervalOutOfBounds, "interval [9, 12) outside session span [10, 40)"),
    "after-span": (((30, 41),), IntervalOutOfBounds, "interval [30, 41) outside session span [10, 40)"),
}


@pytest.mark.parametrize("intervals,error,message", BAD_LOGS.values(), ids=BAD_LOGS.keys())
def test_bad_logs_raise_the_same_error_in_every_call(intervals, error, message):
    states = _states(range(10, 40))
    log = ObservationLog("a", intervals)
    for call in (assisted_trends, trend_accuracy):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(states, log)


def test_interval_may_end_one_past_the_last_calendar_second():
    # The last second a LogicalState holds, and the first.
    states = [make_state(ts) for ts in (TS_MAX - 2, TS_MAX - 1, TS_MAX)]
    (trend,) = assisted_trends(states, ObservationLog("s", ((TS_MAX - 1, TS_MAX + 1),)))
    assert (trend.date.isoformat(), trend.hour, trend.minutes["alone"]) == ("9999-12-31", 23, 2 / 60.0)
    states = [make_state(ts) for ts in (TS_MIN, TS_MIN + 1)]
    (trend,) = assisted_trends(states, ObservationLog("s", ((TS_MIN, TS_MIN + 1),)))
    assert (trend.date.isoformat(), trend.hour, trend.minutes["alone"]) == ("0001-01-01", 0, 1 / 60.0)


@pytest.mark.parametrize("bad", [2**63, -(2**63) - 1, 1.5])
def test_ts_outside_int64_is_rejected(bad):
    # No LogicalState holds it, so no trend column meets it: an int past
    # int64 is outside the calendar too.
    if type(bad) is not int:
        with pytest.raises(TypeError, match=f"^ts must be an integer, got {re.escape(repr(bad))}$"):
            make_state(bad)
    else:
        with pytest.raises(ValueError, match=f"^ts {bad} is outside the UTC dates 0001-01-01 to 9999-12-31$"):
            make_state(bad)
