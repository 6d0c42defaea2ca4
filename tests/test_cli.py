import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ward_sentinel import cli
from ward_sentinel.cli import main
from ward_sentinel.evaluation import trend_accuracy
from ward_sentinel.logic import LogicalState
from ward_sentinel.model import PipelineConfig
from ward_sentinel.pipeline import rows_source
from ward_sentinel.store import SessionWriter, Store
from ward_sentinel.trends import read_observation_csv
from ward_sentinel.schema import dumps_row, write_rows_jsonl, CanonicalRow

from conftest import make_record

SPEC = {
    "seed": 31,
    "duration_s": 600,
    "session_id": "roomA",
    "schedule": [
        {"start_s": 0, "end_s": 300, "patients": 1, "motion": 0.0},
        {"start_s": 300, "end_s": 600, "patients": 1, "staff": 2, "motion": 1.5},
    ],
}


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return path


def test_simulate_then_run_then_trends_then_evaluate(tmp_path, spec_path, capsys):
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "--spec", str(spec_path), "--out", str(sim_dir)]) == 0
    assert (sim_dir / "detections.jsonl").exists()
    assert (sim_dir / "ground_truth.jsonl").exists()
    assert (sim_dir / "observations.csv").exists()

    store_dir = tmp_path / "store"
    assert (
        main(
            [
                "run",
                "--detections",
                str(sim_dir / "detections.jsonl"),
                "--out",
                str(store_dir),
            ]
        )
        == 0
    )
    assert (store_dir / "manifest.json").exists()

    trends_dir = tmp_path / "trends"
    assert (
        main(
            [
                "trends",
                "--states",
                str(store_dir),
                "--out",
                str(trends_dir),
                "--log",
                str(sim_dir / "observations.csv"),
                "--cohort",
            ]
        )
        == 0
    )
    for name in ("trends.csv", "cohort.csv", "assisted_trends.csv", "assisted_cohort.csv"):
        assert (trends_dir / name).exists(), name

    eval_dir = tmp_path / "eval"
    assert (
        main(
            [
                "evaluate",
                "trends",
                "--log",
                str(sim_dir / "observations.csv"),
                "--states",
                str(store_dir),
                "--out",
                str(eval_dir),
            ]
        )
        == 0
    )
    report = json.loads((eval_dir / "trend_report.json").read_text())
    assert report["schema_version"] == 1
    assert report["summary"]["full"]["mean"] > 0.98  # noiseless scenario
    assert (eval_dir / "per_patient_day.csv").exists()


def test_evaluate_trends_pools_sessions(tmp_path):
    # roomB is listed first and straddles 06:00, so it has day and night rows.
    specs = [
        dict(SPEC, seed=5, session_id="roomB", start_ts=1709272500,
             noise={"p_miss": 0.1, "p_spur": 0.1, "p_role": 0.05}),
        dict(SPEC, seed=6, session_id="roomA",
             noise={"p_miss": 0.2, "p_spur": 0.1, "p_role": 0.1}),
    ]
    detections, obs = [], ["session_id,start_ts,end_ts"]
    for spec in specs:
        spec_file = tmp_path / f"{spec['session_id']}.json"
        spec_file.write_text(json.dumps(spec))
        sim_dir = tmp_path / spec["session_id"]
        assert main(["simulate", "--spec", str(spec_file), "--out", str(sim_dir)]) == 0
        detections.append((sim_dir / "detections.jsonl").read_text())
        obs.extend((sim_dir / "observations.csv").read_text().splitlines()[1:])
    (tmp_path / "det.jsonl").write_text("".join(detections))
    (tmp_path / "obs.csv").write_text("\n".join(obs) + "\n")
    store_dir, eval_dir = tmp_path / "store", tmp_path / "eval"
    assert main(["run", "--detections", str(tmp_path / "det.jsonl"), "--out", str(store_dir)]) == 0
    assert main(["evaluate", "trends", "--log", str(tmp_path / "obs.csv"),
                 "--states", str(store_dir), "--out", str(eval_dir)]) == 0

    logs = read_observation_csv(tmp_path / "obs.csv")
    expected = []
    for sid in ("roomA", "roomB"):
        states = [r.logical for r in Store(store_dir).iter_rows(sid)]
        expected.extend(trend_accuracy(states, logs[sid], PipelineConfig()).rows)
    report = json.loads((eval_dir / "trend_report.json").read_text())
    assert report["rows"] == [
        {"session_id": r.session_id, "date": r.date.isoformat(), "period": r.period,
         "method": r.method, "accuracy": r.accuracy, "seconds": r.seconds}
        for r in expected
    ]
    summary = {}
    for period in ("day", "night", "full"):
        accs = [r.accuracy for r in expected if r.period == period]
        if accs:
            summary[period] = {"mean": float(np.mean(accs)), "std": float(np.std(accs)), "n": len(accs)}
    assert report["summary"] == summary
    assert (summary["day"]["n"], summary["night"]["n"], summary["full"]["n"]) == (1, 2, 2)
    assert summary["full"]["std"] > 0
    csv_lines = (eval_dir / "per_patient_day.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + len(expected)


def test_run_scenario_with_frames(tmp_path, spec_path):
    small = dict(SPEC, duration_s=20, schedule=[
        {"start_s": 0, "end_s": 20, "patients": 1, "motion": 2.0},
    ])
    path = tmp_path / "small.json"
    path.write_text(json.dumps(small))
    store_dir = tmp_path / "store"
    assert (
        main(
            ["run", "--scenario", str(path), "--with-frames", "--out", str(store_dir)]
        )
        == 0
    )
    rows = [
        json.loads(line)
        for seg in sorted((store_dir / "sessions" / "roomA").glob("*.jsonl"))
        for line in seg.read_text().splitlines()
    ]
    assert len(rows) == 20
    assert rows[5]["motion"]["scene"] > 0.5


def test_evaluate_frames_cli(tmp_path):
    labels = [
        {
            "session_id": "s",
            "ts": i,
            "boxes": [
                {"cls": "person", "x": 10, "y": 10, "w": 40, "h": 90, "role": "patient"}
            ],
            "exceptions": [],
        }
        for i in range(6)
    ]
    (tmp_path / "labels.jsonl").write_text(
        "\n".join(json.dumps(l) for l in labels) + "\n"
    )
    rows = [CanonicalRow(make_record("s", i, ["patient"], bed=False, origin=(10.0, 10.0))) for i in range(6)]
    write_rows_jsonl(rows, tmp_path / "preds.jsonl")
    out = tmp_path / "out"
    code = main(
        [
            "evaluate",
            "frames",
            "--labels",
            str(tmp_path / "labels.jsonl"),
            "--preds",
            str(tmp_path / "preds.jsonl"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "frame_report.json").read_text())
    assert report["per_class"]["person"]["f1"] == 1.0
    assert report["patient_alone"]["f1"] == 1.0


def test_evaluate_frames_with_unmatched_frames_exits_two(tmp_path, capsys):
    label = {"session_id": "s", "ts": 0, "boxes": [{"cls": "bed", "x": 300, "y": 250, "w": 380, "h": 240}]}
    (tmp_path / "labels.jsonl").write_text("".join(json.dumps(dict(label, ts=i)) + "\n" for i in range(3)))
    write_rows_jsonl([CanonicalRow(make_record("s", i)) for i in range(2)], tmp_path / "preds.jsonl")
    argv = ["evaluate", "frames", "--labels", str(tmp_path / "labels.jsonl"), "--preds", str(tmp_path / "preds.jsonl")]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "validation error: label/prediction frame sets differ, e.g. [('s', 2)]\n"
    assert not (tmp_path / "out").exists()


def test_evaluate_frames_with_a_repeated_label_exits_two(tmp_path, capsys):
    label = {"session_id": "s", "ts": 0, "boxes": [{"cls": "bed", "x": 300, "y": 250, "w": 380, "h": 240}]}
    (tmp_path / "labels.jsonl").write_text("".join(json.dumps(dict(label, ts=ts)) + "\n" for ts in (0, 1, 0)))
    write_rows_jsonl([CanonicalRow(make_record("s", i)) for i in range(2)], tmp_path / "preds.jsonl")
    argv = ["evaluate", "frames", "--labels", str(tmp_path / "labels.jsonl"), "--preds", str(tmp_path / "preds.jsonl")]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "validation error: label frame ('s', 0) is listed more than once\n"
    assert not (tmp_path / "out").exists()


def _alone_frames_and_predictions(tmp_path, states):
    """Labels for three frames of a lone patient, and predictions that see
    that patient with one of states (None or a LogicalState) per row."""
    label = {"session_id": "s", "ts": 0, "boxes": [{"cls": "person", "x": 50, "y": 50, "w": 40, "h": 90, "role": "patient"}]}
    (tmp_path / "labels.jsonl").write_text("".join(json.dumps(dict(label, ts=ts)) + "\n" for ts in range(3)))
    rows = [CanonicalRow(make_record("s", ts, ["patient"], bed=False), None, state) for ts, state in enumerate(states)]
    write_rows_jsonl(rows, tmp_path / "preds.jsonl")
    return ["evaluate", "frames", "--labels", str(tmp_path / "labels.jsonl"), "--preds", str(tmp_path / "preds.jsonl"),
            "--out", str(tmp_path / "out")]


def _not_alone(ts):
    return LogicalState("s", ts, False, False, False, False, 2.0)


def test_evaluate_frames_with_predictions_mixing_smoothed_and_bare_rows_exits_two(tmp_path, capsys):
    argv = _alone_frames_and_predictions(tmp_path, [_not_alone(0), _not_alone(1), None])
    assert main(argv) == 2
    preds = tmp_path / "preds.jsonl"
    assert capsys.readouterr().err == (
        f"validation error: {preds}: 2 of 3 prediction rows carry a logical state; all or none must\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("smoothed,f1", [(True, 0.0), (False, 1.0)], ids=["every-row", "no-row"])
def test_evaluate_frames_scores_the_smoothed_flag_only_when_every_row_has_one(tmp_path, smoothed, f1):
    # Each record alone shows a lone patient; each stored state says not alone.
    argv = _alone_frames_and_predictions(tmp_path, [_not_alone(ts) if smoothed else None for ts in range(3)])
    assert main(argv) == 0
    report = json.loads((tmp_path / "out" / "frame_report.json").read_text())
    assert report["patient_alone"]["f1"] == f1
    assert report["per_class"]["person"]["f1"] == 1.0


def test_camera_meta_cli(tmp_path):
    labels = [
        {
            "session_id": "s",
            "ts": i,
            "boxes": [{"cls": "bed", "x": 600, "y": 200, "w": 300, "h": 150}],
        }
        for i in range(3)
    ]
    (tmp_path / "labels.jsonl").write_text(
        "\n".join(json.dumps(l) for l in labels) + "\n"
    )
    out = tmp_path / "cm"
    assert (
        main(
            ["camera-meta", "--labels", str(tmp_path / "labels.jsonl"), "--out", str(out)]
        )
        == 0
    )
    assert (out / "bed_stats.csv").exists()
    assert (out / "bed_histograms.csv").exists()


def test_camera_meta_measures_a_bed_clamped_to_the_frame(tmp_path, capsys):
    def camera_meta(x):
        label = {"session_id": "s", "ts": 1, "boxes": [{"cls": "bed", "x": x, "y": 200, "w": 300, "h": 150}]}
        path = tmp_path / f"labels-{x}.jsonl"
        path.write_text(json.dumps(label) + "\n")
        return main(["camera-meta", "--labels", str(path), "--out", str(tmp_path / f"cm-{x}")]), path

    assert camera_meta(1000)[0] == 0  # the bed's right 212 px lie outside the 1088 px frame
    stats = (tmp_path / "cm-1000" / "bed_stats.csv").read_text().splitlines()
    assert stats[1].split(",")[2:4] == [f"{88 * 150 / (1088 * 612):.9f}", f"{1044 / 1088:.9f}"]
    code, path = camera_meta(1200)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {path}: label s:1: box bed (1200,200,300,150) lies outside")


def test_ingest_cli_reports_validation_exit_code(tmp_path):
    bad = tmp_path / "rows.jsonl"
    good_row = dumps_row(CanonicalRow(make_record("x", 5, ["patient"])))
    bad.write_text(good_row + "\n" + '{"broken": true}' + "\n")
    code = main(
        ["ingest", "--adapter", "canonical", "--input", str(bad), "--store", str(tmp_path / "st")]
    )
    assert code == 2  # some rows rejected


def test_ingest_flat_csv_bad_line_exits_two_with_summary(tmp_path, capsys):
    path = tmp_path / "in.csv"
    path.write_text(
        "session_id,ts,cls,x,y,w,h,conf,patient,staff,other\n"
        "r1,100,person,10,10,40,90,0.8,0.9,0.05,0.05\n"
        "r1,abc,person,10,10,40,90,0.8,0.9,0.05,0.05\n"
    )
    code = main(
        ["ingest", "--adapter", "flat-csv", "--input", str(path), "--store", str(tmp_path / "st")]
    )
    out, err = capsys.readouterr()
    assert code == 2
    assert out.splitlines() == [
        "ingested 1 rows, rejected 1",
        "  line 3: bad flat-csv line: invalid literal for int() with base 10: 'abc'",
    ]
    assert "Traceback" not in err


def test_ingest_unknown_adapter_exits_two(tmp_path, capsys):
    path = tmp_path / "in.csv"
    path.write_text("session_id,ts\n")
    code = main(
        ["ingest", "--adapter", "nope", "--input", str(path), "--store", str(tmp_path / "st")]
    )
    _, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("validation error: unknown adapter 'nope'")


def test_with_frames_needs_a_scenario(tmp_path, capsys):
    rows = tmp_path / "rows.jsonl"
    write_rows_jsonl([CanonicalRow(make_record("roomA", 1709251200, ["patient"]))], rows)
    out = tmp_path / "store"
    assert main(["run", "--detections", str(rows), "--with-frames", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "validation error: --with-frames needs --scenario\n"
    assert not out.exists()


def test_missing_input_maps_to_exit_one(tmp_path):
    code = main(
        ["run", "--detections", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "s")]
    )
    assert code == 1


def test_zone_config_enables_crossings(tmp_path):
    zone = [[400, 300], [700, 300], [700, 560], [400, 560]]
    spec = {
        "seed": 12,
        "duration_s": 200,
        "session_id": "roomZ",
        "schedule": [{"start_s": 0, "end_s": 200, "patients": 1}],
        "tracks": [{"role": "staff", "waypoints": [[50, 100, 430], [150, 550, 430]]}],
    }
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    sim_dir = tmp_path / "sim"
    main(["simulate", "--spec", str(spec_file), "--out", str(sim_dir)])
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"zones": {"roomZ": zone}}))
    store_dir = tmp_path / "store"
    code = main(
        [
            "--config",
            str(cfg_file),
            "run",
            "--detections",
            str(sim_dir / "detections.jsonl"),
            "--out",
            str(store_dir),
        ]
    )
    assert code == 0
    crossings = store_dir / "sessions" / "roomZ" / "crossings.jsonl"
    assert crossings.exists()
    assert '"direction":"entry"' in crossings.read_text()


def test_scenario_zone_auto_registered(tmp_path):
    spec = {
        "seed": 12,
        "duration_s": 200,
        "session_id": "roomZ",
        "schedule": [{"start_s": 0, "end_s": 200, "patients": 1}],
        "tracks": [{"role": "staff", "waypoints": [[50, 100, 430], [150, 550, 430]]}],
        "zone": [[400, 300], [700, 300], [700, 560], [400, 560]],
    }
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    store_dir = tmp_path / "store"
    assert main(["run", "--scenario", str(spec_file), "--out", str(store_dir)]) == 0
    assert (store_dir / "sessions" / "roomZ" / "crossings.jsonl").exists()


def test_config_flag_applies(tmp_path, spec_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"moving_threshold": 10.0}))
    sim_dir = tmp_path / "sim"
    main(["simulate", "--spec", str(spec_path), "--out", str(sim_dir)])
    store_dir = tmp_path / "store"
    assert (
        main(
            [
                "--config",
                str(cfg_path),
                "run",
                "--detections",
                str(sim_dir / "detections.jsonl"),
                "--out",
                str(store_dir),
            ]
        )
        == 0
    )
    rows = [
        json.loads(line)
        for seg in sorted((store_dir / "sessions" / "roomA").glob("*.jsonl"))
        for line in seg.read_text().splitlines()
    ]
    assert not any(r["logical"]["moving"] for r in rows)  # threshold too high


def _overflowing(obj, marker=0.125) -> str:
    """obj as JSON text with the number marker written as 1e999, which decodes to inf."""
    return json.dumps(obj).replace(repr(marker), "1e999")


def _first_interval(**changes) -> dict:
    return dict(SPEC, schedule=[dict(SPEC["schedule"][0], **changes), SPEC["schedule"][1]])


def _zone(*changes) -> list:
    """A valid zone with each (index, vertex) in changes swapped in."""
    zone = [[400, 300], [700, 300], [700, 560], [400, 560]]
    for i, v in changes:
        zone[i] = v
    return zone


TWO_VERTICES = [[400, 300], [700, 300]]
BOWTIE = _zone((1, [700, 560]), (2, [700, 300]), (3, [400, 400]))
LABEL = {
    "session_id": "roomA",
    "ts": 1709251200,
    "boxes": [{"cls": "person", "x": 10, "y": 10, "w": 40, "h": 90, "role": "patient"}],
}
T0 = 1709251200
LOGICAL = {
    "person_alone": True,
    "patient_alone": True,
    "supervised_by_staff": False,
    "moving": False,
    "smoothed_person_count": 1.0,
}
HUGE = 10**400  # a JSON integer that no float can hold
BED = {"cls": "bed", "x": 300.0, "y": 250.0, "w": 380.0, "h": 240.0, "conf": 0.9}
# Canonical row keys, each carrying HUGE, with the name the error gives it.
HUGE_ROW_KEYS = {
    "box-x": ({"boxes": [dict(BED, x=HUGE)], "roles": [None]}, "box x"),
    "motion": ({"motion": {"scene": HUGE}}, "motion scene"),
    "count": ({"logical": {**LOGICAL, "smoothed_person_count": HUGE}}, "smoothed_person_count"),
}


def _row_json(ts, /, **override) -> str:
    """A valid canonical row for roomA at ts, as JSON, with override's keys swapped in."""
    return json.dumps({**json.loads(dumps_row(CanonicalRow(make_record("roomA", ts, ["patient"])))), **override})


def _waypoint_track(*first) -> list:
    return [{"role": "staff", "waypoints": [list(first), [50, 60, 60]]}]


BAD_INPUTS = {
    "config-unknown-key": ("config", {"bogus": 1}),
    "config-bad-window": ("config", {"smoothing_window_s": 0}),
    "config-even-winsize": ("config", {"flow": {"winsize": 4}}),
    "config-nan-window": ("config", '{"smoothing_window_s": NaN}'),
    "config-day-start-25": ("config", {"day_start_hour": 25}),
    "config-day-after-night": ("config", {"day_start_hour": 22, "night_start_hour": 6}),
    "config-boolean-window": ("config", {"smoothing_window_s": True}),
    "config-string-threshold": ("config", {"moving_threshold": "0.5"}),
    "config-zero-iterations": ("config", {"flow": {"iterations": 0}}),
    "config-string-zone-vertex": ("config", {"zones": {"default": _zone((0, ["400", 300]))}}),
    "config-boolean-zone-vertex": ("config", {"zones": {"roomA": _zone((2, [700, True]))}}),
    "config-two-vertex-zone": ("config", {"zones": {"default": TWO_VERTICES}}),
    "config-self-intersecting-zone": ("config", {"zones": {"default": BOWTIE}}),
    "config-infinite-zone-vertex": ("config", _overflowing({"zones": {"default": _zone((1, [0.125, 300]))}})),
    "spec-no-schedule": ("spec", {k: v for k, v in SPEC.items() if k != "schedule"}),
    "spec-bad-noise": ("spec", dict(SPEC, noise={"p_miss": 2})),
    "spec-boolean-noise": ("spec", dict(SPEC, noise={"p_miss": False})),
    "spec-string-zone-vertex": ("spec", dict(SPEC, zone=_zone((0, ["400", 300])))),
    "spec-boolean-zone-vertex": ("spec", dict(SPEC, zone=_zone((2, [700, True])))),
    "spec-two-vertex-zone": ("spec", dict(SPEC, zone=TWO_VERTICES)),
    "spec-self-intersecting-zone": ("spec", dict(SPEC, zone=BOWTIE)),
    "spec-infinite-zone-vertex": ("spec", _overflowing(dict(SPEC, zone=_zone((1, [0.125, 300]))))),
    "spec-unknown-key": ("scenario", dict(SPEC, trakcs=[])),
    "spec-interval-unknown-key": (
        "spec", dict(SPEC, schedule=[dict(SPEC["schedule"][0], staf=2), SPEC["schedule"][1]]),
    ),
    "spec-track-unknown-key": (
        "spec", dict(SPEC, tracks=[{"role": "staff", "waypoints": [[0, 10, 10], [50, 60, 60]], "speed": 2}]),
    ),
    "spec-frame-dims": ("spec", dict(SPEC, frame_dims=[1088, 612])),
    "spec-nan-motion": ("spec", dict(SPEC, schedule=[dict(SPEC["schedule"][0], motion=float("nan"))])),
    "scenario-nan-motion": (
        "scenario", dict(SPEC, schedule=[dict(SPEC["schedule"][0], motion=float("nan"))]),
    ),
    "spec-negative-patients": ("spec", _first_interval(patients=-1)),
    "spec-fractional-staff": ("spec", _first_interval(staff=1.5)),
    "spec-boolean-others": ("spec", _first_interval(others=True)),
    "spec-negative-motion": ("spec", _first_interval(motion=-0.5)),
    "scenario-infinite-motion": ("scenario", _overflowing(_first_interval(motion=0.125))),
    "spec-infinite-waypoint": (
        "spec",
        _overflowing(dict(SPEC, tracks=[{"role": "staff", "waypoints": [[0, 0.125, 10], [50, 60, 60]]}])),
    ),
    "scenario-schedule-gap": ("scenario", dict(SPEC, duration_s=700)),
    "spec-string-seed": ("spec", dict(SPEC, seed="7")),
    "spec-fractional-seed": ("spec", dict(SPEC, seed=7.9)),
    "spec-negative-seed": ("spec", dict(SPEC, seed=-1)),
    "spec-float-duration": ("spec", dict(SPEC, duration_s=600.0)),
    "spec-fractional-end": (
        "spec", dict(SPEC, schedule=[dict(SPEC["schedule"][0], end_s=300.9), SPEC["schedule"][1]]),
    ),
    "spec-float-start-ts": ("spec", dict(SPEC, start_ts=1709251200.0)),
    "spec-start-ts-past-9999": ("spec", dict(SPEC, start_ts=253402300800)),
    "spec-start-ts-before-year-1": ("spec", dict(SPEC, start_ts=-10**14)),
    "spec-last-ts-past-9999": ("spec", dict(SPEC, start_ts=253402300799 - 598)),
    "scenario-start-ts-huge": ("scenario", dict(SPEC, start_ts=86400 * 10**12)),
    "detections-ts-past-9999": ("detections", _row_json(T0, ts=253402300800)),
    "detections-ts-huge": ("detections", _row_json(T0) + "\n" + _row_json(T0, ts=86400 * 10**12)),
    "states-ts-before-year-1": ("states", _row_json(T0, ts=-10**14)),
    "spec-string-motion": ("spec", _first_interval(motion="0.5")),
    "spec-boolean-motion": ("spec", _first_interval(motion=True)),
    "spec-fractional-waypoint-time": (
        "spec", dict(SPEC, tracks=[{"role": "staff", "waypoints": [[0.6, 10, 10], [50, 60, 60]]}]),
    ),
    "spec-four-entry-waypoint": (
        "spec", dict(SPEC, tracks=[{"role": "staff", "waypoints": [[0, 10, 10, 5], [50, 60, 60]]}]),
    ),
    "spec-string-frame-dims": ("spec", dict(SPEC, raw_frame_dims=["960", 540])),
    "spec-int-session": ("spec", dict(SPEC, session_id=5)),
    "spec-session-with-slash": ("spec", dict(SPEC, session_id="a/b")),
    "log-inverted-interval": ("log", "session_id,start_ts,end_ts\nroomA,1709251300,1709251200\n"),
    "log-non-integer-ts": ("log", "session_id,start_ts,end_ts\nroomA,1709251200.5,1709251300\n"),
    "log-wrong-header": ("log", "session,start,end\nroomA,1709251200,1709251300\n"),
    "labels-float-ts": ("labels", {"session_id": "roomA", "ts": 1709251200.9, "boxes": []}),
    "labels-int-session": ("labels", {"session_id": 7, "ts": True, "boxes": []}),
    "labels-nan": ("labels", '{"session_id": "roomA", "ts": 1709251200, "boxes": [], "in_bed": NaN}'),
    "labels-exceptions-string": ("labels", dict(LABEL, exceptions="none")),
    "labels-exceptions-null": ("labels", dict(LABEL, exceptions=[1, None])),
    "labels-in-bed-int": ("labels", dict(LABEL, in_bed=7)),
    "labels-unknown-role": ("labels", dict(LABEL, boxes=[dict(LABEL["boxes"][0], role="nurse")])),
    "camera-labels-exceptions-string": ("camera-labels", dict(LABEL, exceptions="none")),
    "camera-labels-in-bed-int": ("camera-labels", dict(LABEL, in_bed=7)),
    "camera-labels-unknown-role": ("camera-labels", dict(LABEL, boxes=[dict(LABEL["boxes"][0], role="nurse")])),
    "labels-not-json": ("labels", '{"session_id": "roomA", "ts": 1709251200, "boxes": []}\n\n{not json'),
    "preds-not-json": ("preds", "\n{not json"),
    "detections-bad-row": ("detections", '{"session_id": 5}'),
    "states-not-json": ("states", "\n\n{not json"),
    "evaluate-states-bad-row": ("evaluate-states", '\n{"session_id": "roomA"}'),
    "config-huge-threshold": ("config", {"moving_threshold": HUGE}),
    "spec-huge-motion": ("spec", _first_interval(motion=HUGE)),
    "spec-huge-noise": ("spec", dict(SPEC, noise={"p_spur": HUGE})),
    "spec-huge-zone-vertex": ("spec", dict(SPEC, zone=_zone((1, [HUGE, 300])))),
    "spec-huge-waypoint": ("spec", dict(SPEC, tracks=_waypoint_track(0, 100, HUGE))),
    "spec-string-waypoint": ("spec", dict(SPEC, tracks=_waypoint_track(0, "100", 10))),
    "spec-boolean-waypoint": ("spec", dict(SPEC, tracks=_waypoint_track(0, 100, True))),
    **{
        f"{kind}-huge-{key}": (kind, _row_json(T0, **override))
        for kind in ("detections", "states")
        for key, (override, _) in HUGE_ROW_KEYS.items()
    },
}
JSONL_KINDS = {"labels", "camera-labels", "preds", "detections", "states", "evaluate-states"}


@pytest.mark.parametrize("kind,content", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_file_exits_two(tmp_path, spec_path, capsys, kind, content):
    bad = tmp_path / "bad.txt"
    text = content if isinstance(content, str) else json.dumps(content)
    bad.write_text(text)
    states = tmp_path / "states.jsonl"
    ts = 1709251200
    alone = LogicalState("roomA", ts, True, True, False, False, 1.0)
    write_rows_jsonl([CanonicalRow(make_record("roomA", ts, ["patient"]), logical=alone)], states)
    labels = tmp_path / "labels.jsonl"
    labels.write_text(json.dumps({"session_id": "roomA", "ts": ts, "boxes": []}) + "\n")
    log = tmp_path / "log.csv"
    log.write_text(f"session_id,start_ts,end_ts\nroomA,{ts},{ts + 60}\n")
    out = str(tmp_path / "out")
    argv = {
        "config": ["--config", str(bad), "simulate", "--spec", str(spec_path), "--out", out],
        "spec": ["simulate", "--spec", str(bad), "--out", out],
        "scenario": ["run", "--scenario", str(bad), "--out", out],
        "log": ["evaluate", "trends", "--log", str(bad), "--states", str(states), "--out", out],
        "labels": ["evaluate", "frames", "--labels", str(bad), "--preds", str(states), "--out", out],
        "camera-labels": ["camera-meta", "--labels", str(bad), "--out", out],
        "preds": ["evaluate", "frames", "--labels", str(labels), "--preds", str(bad), "--out", out],
        "detections": ["run", "--detections", str(bad), "--out", out],
        "states": ["trends", "--states", str(bad), "--out", out],
        "evaluate-states": ["evaluate", "trends", "--log", str(log), "--states", str(bad), "--out", out],
    }[kind]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and str(bad) in err
    if kind in ("config", "spec", "scenario"):
        assert err.startswith(f"validation error: {bad}: ")
    if "NaN" in text:  # rejected by the one strict decoder, not by a later check
        assert "non-finite number NaN is not allowed" in err
    if kind in JSONL_KINDS:  # the bad line is the file's last; blank lines count
        last_line = text.count("\n") + 1
        assert err.startswith(f"validation error: {bad}:{last_line}: ")
    if kind.endswith("labels") and "NaN" not in text and "not json" not in text:
        assert err.startswith(f"validation error: {bad}:1: bad frame label: ")


BAD_ROW_KEYS = {
    "session-int": ({"session_id": 5}, "bad canonical row: session_id must be a string, got 5"),
    "session-escapes-root": (
        {"session_id": "../../escaped"},
        "session id '../../escaped' is not a single path component",
    ),
    "session-empty": ({"session_id": ""}, "session id '' is not a single path component"),
    "session-dot-dot": ({"session_id": ".."}, "session id '..' is not a single path component"),
    "session-backslash": ({"session_id": "a\\b"}, "session id 'a\\\\b' is not a single path component"),
    "session-nul": ({"session_id": "a\0b"}, "session id 'a\\x00b' is not a single path component"),
    "ts-float": ({"ts": T0 + 1.4}, f"bad canonical row: ts must be an integer, got {T0 + 1.4!r}"),
    "ts-string": ({"ts": str(T0 + 1)}, f"bad canonical row: ts must be an integer, got '{T0 + 1}'"),
    "ts-bool": ({"ts": True}, "bad canonical row: ts must be an integer, got True"),
    "ts-past-9999": (
        {"ts": 253402300800}, "bad canonical row: ts 253402300800 is outside the UTC dates 0001-01-01 to 9999-12-31"
    ),
    "flag-string": (
        {"logical": {**LOGICAL, "person_alone": "false"}},
        "bad canonical row: logical person_alone must be true or false, got 'false'",
    ),
    "count-string": (
        {"logical": {**LOGICAL, "smoothed_person_count": "1.5"}},
        "bad canonical row: smoothed_person_count must be a number, got '1.5'",
    ),
    "motion-bool": ({"motion": {"scene": True}}, "bad canonical row: motion scene must be a number, got True"),
    **{
        f"huge-{key}": (override, f"bad canonical row: {name} is out of float range: a 1329-bit integer")
        for key, (override, name) in HUGE_ROW_KEYS.items()
    },
}


def _good_then_bad(tmp_path, override) -> str:
    """A canonical file whose line 1 is valid and line 2 carries override."""
    path = tmp_path / "rows.jsonl"
    path.write_text(_row_json(T0) + "\n" + _row_json(T0 + 1, **override) + "\n")
    return str(path)


def _files(root):
    return {p for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("override,message", BAD_ROW_KEYS.values(), ids=BAD_ROW_KEYS.keys())
def test_ingest_rejects_bad_row_key_by_line(tmp_path, capsys, override, message):
    path = _good_then_bad(tmp_path, override)
    store_dir = tmp_path / "a" / "b" / "store"
    before = _files(tmp_path)
    code = main(["ingest", "--adapter", "canonical", "--input", path, "--store", str(store_dir)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out.splitlines() == ["ingested 1 rows, rejected 1", f"  line 2: {message}"]
    assert "Traceback" not in err
    written = _files(tmp_path) - before
    assert written and all(store_dir in p.parents for p in written)


@pytest.mark.parametrize("override,message", BAD_ROW_KEYS.values(), ids=BAD_ROW_KEYS.keys())
def test_run_detections_rejects_bad_row_key(tmp_path, capsys, override, message):
    path = _good_then_bad(tmp_path, override)
    store_dir = tmp_path / "a" / "b" / "store"
    before = _files(tmp_path)
    code = main(["run", "--detections", path, "--out", str(store_dir)])
    _, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("validation error: ") and message in err
    assert "Traceback" not in err
    assert all(store_dir in p.parents for p in _files(tmp_path) - before)


@pytest.mark.parametrize("kind", ["scenario-infinite-waypoint", "detections-bad-line", "unknown-adapter"])
def test_rejected_input_creates_no_store(tmp_path, capsys, kind):
    bad, store = tmp_path / "bad.txt", tmp_path / "store"
    good = dumps_row(CanonicalRow(make_record("roomA", T0, ["patient"])))
    waypoints = [{"role": "staff", "waypoints": [[0, 0.125, 10], [50, 60, 60]]}]
    content, argv = {
        "scenario-infinite-waypoint": (
            _overflowing(dict(SPEC, tracks=waypoints)), ["run", "--scenario", str(bad), "--out", str(store)]
        ),
        "detections-bad-line": (good + "\n{not json\n", ["run", "--detections", str(bad), "--out", str(store)]),
        "unknown-adapter": (
            good + "\n", ["ingest", "--adapter", "nope", "--input", str(bad), "--store", str(store)]
        ),
    }[kind]
    bad.write_text(content)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("validation error: ")
    assert not store.exists()


def test_run_detections_bad_line_after_a_flushed_chunk_leaves_no_store(tmp_path, capsys, monkeypatch):
    path = tmp_path / "rows.jsonl"
    lines = [_row_json(T0 + i) for i in range(1500)]
    lines[999] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    store = tmp_path / "store"
    flushed = []
    real_flush = SessionWriter._flush
    monkeypatch.setattr(SessionWriter, "_flush", lambda w, seg: flushed.append(seg.rows) or real_flush(w, seg))
    assert main(["run", "--detections", str(path), "--out", str(store)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {path}:1000: invalid JSON: ")
    assert flushed == [0]  # the run had written its first chunk before it read line 1000
    assert not store.exists()


def test_run_detections_with_a_repeated_ts_exits_two_and_leaves_no_store(tmp_path, capsys):
    path = tmp_path / "rows.jsonl"
    rows = [CanonicalRow(make_record("s", ts, ["patient"])) for ts in (100, 101, 101)]
    path.write_text("".join(dumps_row(r) + "\n" for r in rows))
    store = tmp_path / "store"
    assert main(["run", "--detections", str(path), "--out", str(store)]) == 2
    assert capsys.readouterr().err == "validation error: session s: ts 101 not after 101\n"
    assert not store.exists()


def test_run_detections_with_an_earlier_ts_exits_two_and_leaves_no_store(tmp_path, capsys):
    path = tmp_path / "rows.jsonl"
    rows = [CanonicalRow(make_record("s", ts, ["patient"])) for ts in (100, 102, 101)]
    path.write_text("".join(dumps_row(r) + "\n" for r in rows))
    store = tmp_path / "store"
    assert main(["run", "--detections", str(path), "--out", str(store)]) == 2
    assert capsys.readouterr().err == "validation error: session s: ts 101 not after 102\n"
    assert not store.exists()


def test_run_with_no_rows_creates_no_store(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    store = tmp_path / "store"
    assert main(["run", "--detections", str(empty), "--out", str(store)]) == 0
    assert "store sealed: 0 segment(s)" in capsys.readouterr().out
    assert not store.exists()


def _two_session_store(tmp_path):
    """A store of sessions roomA and roomB with logical states, and an observation log."""
    store = Store(tmp_path / "store")
    with store.writer() as w:
        for sid in ("roomA", "roomB"):
            for ts in range(T0, T0 + 120):
                alone = LogicalState(sid, ts, True, True, False, False, 1.0)
                w.append(CanonicalRow(make_record(sid, ts, ["patient"]), logical=alone))
    log = tmp_path / "log.csv"
    log.write_text(f"session_id,start_ts,end_ts\nroomA,{T0},{T0 + 60}\nroomB,{T0},{T0 + 60}\n")
    return store, log


def _drop_last_row(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


STORE_DAMAGE = {
    "tampered": (_drop_last_row, "segment hash mismatch: sessions/roomB/2024-03-01.jsonl"),
    "missing": (lambda p: p.unlink(), "manifest segment missing on disk: sessions/roomB/2024-03-01.jsonl"),
}


@pytest.mark.parametrize("damage,message", STORE_DAMAGE.values(), ids=STORE_DAMAGE.keys())
@pytest.mark.parametrize("command", ["trends", "evaluate-trends"])
def test_store_readers_verify_first(tmp_path, capsys, command, damage, message):
    store, log = _two_session_store(tmp_path)
    argv = {
        "trends": ["trends", "--states", str(store.root), "--out", str(tmp_path / "out")],
        "evaluate-trends": [
            "evaluate", "trends", "--log", str(log), "--states", str(store.root), "--out", str(tmp_path / "out"),
        ],
    }[command]
    assert main(argv) == 0
    damage(store.root / "sessions" / "roomB" / "2024-03-01.jsonl")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"


@pytest.mark.parametrize(
    "content",
    [
        "{not json",
        "[1]",
        '{"schema_version": 1}',
        '{"schema_version": 1, "segments": null}',
        '{"schema_version": 1, "segments": {"sessions/roomA/2024-03-01.jsonl": "abc"}}',
        '{"schema_version": 1, "segments": {"sessions/roomA/2024-03-01.jsonl": {"rows": NaN}}}',
    ],
    ids=["not-json", "not-object", "no-segments", "segments-null", "entry-not-object", "nan"],
)
@pytest.mark.parametrize("command", ["ingest", "trends", "run"])
def test_corrupt_manifest_exits_two(tmp_path, capsys, monkeypatch, command, content):
    store, _ = _two_session_store(tmp_path)
    store.manifest_path.write_text(content)
    rows = tmp_path / "rows.jsonl"
    write_rows_jsonl([CanonicalRow(make_record("roomC", T0 + i)) for i in range(100)], rows)
    pulled = []

    def counting_source(rows):
        for item in rows_source(rows):
            pulled.append(item)
            yield item

    monkeypatch.setattr(cli, "rows_source", counting_source)
    argv = {
        "ingest": ["ingest", "--adapter", "canonical", "--input", str(rows), "--store", str(store.root)],
        "trends": ["trends", "--states", str(store.root), "--out", str(tmp_path / "out")],
        "run": ["run", "--detections", str(rows), "--out", str(store.root)],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {store.manifest_path}: ") and "Traceback" not in err
    assert not (store.root / "sessions" / "roomC").exists()  # nothing staged or made
    assert len(pulled) <= 1


# What each case runs in a fresh interpreter, and the scipy subpackages it may
# load: the read and replay commands load none, a logistic fit loads
# scipy.special and frame synthesis or flow loads scipy.ndimage (which brings
# scipy.special along).
SCIPY_LOADS = {
    "import-package": ("import ward_sentinel", set()),
    "import-cli": ("import ward_sentinel.cli", set()),
    "run-detections": (["run", "--detections", "{d}/sim/detections.jsonl", "--out", "{out}"], set()),
    "run-scenario": (["run", "--scenario", "{d}/spec.json", "--out", "{out}"], set()),
    "ingest": (["ingest", "--adapter", "canonical", "--input", "{d}/preds.jsonl", "--store", "{out}"], set()),
    "trends": (
        ["trends", "--states", "{d}/store", "--log", "{d}/sim/observations.csv", "--cohort", "--out", "{out}"],
        set(),
    ),
    "evaluate-frames": (
        ["evaluate", "frames", "--labels", "{d}/labels.jsonl", "--preds", "{d}/preds.jsonl", "--out", "{out}"],
        set(),
    ),
    "camera-meta": (["camera-meta", "--labels", "{d}/labels.jsonl", "--out", "{out}"], set()),
    "simulate": (["simulate", "--spec", "{d}/spec.json", "--out", "{out}"], set()),
    "evaluate-trends": (
        ["evaluate", "trends", "--log", "{d}/sim/observations.csv", "--states", "{d}/store", "--out", "{out}"],
        {"scipy.special"},
    ),
    "run-with-frames": (
        ["run", "--scenario", "{d}/frames.json", "--with-frames", "--out", "{out}"],
        {"scipy.ndimage", "scipy.special"},
    ),
}


@pytest.fixture(scope="module")
def scipy_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("scipy-inputs")
    (d / "spec.json").write_text(json.dumps(SPEC))
    frames = dict(SPEC, duration_s=3, schedule=[{"start_s": 0, "end_s": 3, "patients": 1, "motion": 2.0}])
    (d / "frames.json").write_text(json.dumps(frames))
    assert main(["simulate", "--spec", str(d / "spec.json"), "--out", str(d / "sim")]) == 0
    assert main(["run", "--detections", str(d / "sim" / "detections.jsonl"), "--out", str(d / "store")]) == 0
    bed = {"cls": "bed", "x": 600, "y": 200, "w": 300, "h": 150}
    person = {"cls": "person", "x": 10, "y": 10, "w": 40, "h": 90, "role": "patient"}
    labels = [{"session_id": "s", "ts": i, "boxes": [person, bed]} for i in range(6)]
    (d / "labels.jsonl").write_text("".join(json.dumps(l) + "\n" for l in labels))
    rows = [CanonicalRow(make_record("s", i, ["patient"], origin=(10.0, 10.0))) for i in range(6)]
    write_rows_jsonl(rows, d / "preds.jsonl")
    return d


@pytest.mark.parametrize("command,allowed", SCIPY_LOADS.values(), ids=SCIPY_LOADS.keys())
def test_scipy_loads_only_where_it_is_called(tmp_path, scipy_inputs, command, allowed):
    if isinstance(command, str):
        body = command
    else:
        argv = [a.format(d=scipy_inputs, out=tmp_path / "out") for a in command]
        body = f"from ward_sentinel.cli import main\nassert main({argv!r}) == 0"
    code = body + "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert {"scipy.ndimage", "scipy.special"} & loaded == allowed
    if not allowed:
        assert loaded == set()
