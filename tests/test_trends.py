from datetime import datetime, timezone

import pytest

from ward_sentinel.errors import IntervalOutOfBounds, OverlappingIntervals, UnsortedInput
from ward_sentinel.logic import LogicalState
from ward_sentinel.trends import (
    HourlyTrend,
    ObservationLog,
    aggregate_hourly,
    assisted_trends,
    cohort_average,
    log_to_states,
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


class TestLogToStates:
    grid = list(range(0, 3600))

    def test_interval_marks_sixty_seconds(self):
        log = ObservationLog("s", ((100, 160),))
        flags = log_to_states(log, self.grid)
        assert sum(flags) == 60
        assert flags[100] and flags[159] and not flags[160] and not flags[99]

    def test_empty_log_all_not_alone(self):
        assert sum(log_to_states(ObservationLog("s", ()), self.grid)) == 0

    def test_overlapping_rejected(self):
        log = ObservationLog("s", ((100, 200), (150, 260)))
        with pytest.raises(OverlappingIntervals):
            log_to_states(log, self.grid)

    def test_out_of_bounds_rejected(self):
        log = ObservationLog("s", ((3500, 3700),))
        with pytest.raises(IntervalOutOfBounds):
            log_to_states(log, self.grid)

    def test_gappy_grid(self):
        grid = [0, 1, 2, 10, 11, 12]
        log = ObservationLog("s", ((2, 11),))
        assert log_to_states(log, grid) == [False, False, True, True, False, False]


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
