"""Every report file's exact bytes for one small fixed input.

The inputs are built here, not simulated, so the expected text below changes
only when a report's format or the metric behind it changes.
"""

import hashlib
import json

import pytest

from ward_sentinel.cli import main
from ward_sentinel.logic import LogicalState
from ward_sentinel.schema import CanonicalRow, write_rows_jsonl

from conftest import make_record

T0 = 1709251200  # 2024-03-01 00:00 UTC
A0 = T0 + 5 * 3600 + 3300  # roomA: 05:55 for 15 minutes, night then day
B0 = T0 + 86400 + 13 * 3600 + 3540  # roomB: 2024-03-02 13:59 for 3 minutes
C0 = T0 + 6 * 3600 + 1800  # roomC: 06:30 for 2 minutes, not in the log


def _state(sid, ts, i):
    alone = (i // 40) % 3 != 0 if sid != "roomC" else i % 5 != 0
    return LogicalState(
        session_id=sid,
        ts=ts,
        person_alone=alone,
        patient_alone=alone,
        supervised_by_staff=not alone and i % 2 == 0,
        moving=i % 7 < 3,
        smoothed_person_count=1.0 if alone else 2.0,
    )


def _write_inputs(tmp_path):
    rows = [
        CanonicalRow(make_record(sid, t0 + i, ["patient"]), logical=_state(sid, t0 + i, i))
        for sid, t0, n in (("roomB", B0, 180), ("roomA", A0, 900), ("roomC", C0, 120))
        for i in range(n)
    ]
    write_rows_jsonl(rows, tmp_path / "states.jsonl")
    (tmp_path / "log.csv").write_text(
        "session_id,start_ts,end_ts\n"
        f"roomA,{A0 + 40},{A0 + 80}\n"
        f"roomA,{A0 + 100},{A0 + 400}\n"
        f"roomA,{A0 + 500},{A0 + 800}\n"
        f"roomB,{B0},{B0 + 180}\n"
    )
    patient = {"cls": "person", "x": 10, "y": 10, "w": 40, "h": 90, "role": "patient"}
    staff = {"cls": "person", "x": 500, "y": 300, "w": 50, "h": 120, "role": "staff"}
    labels = [
        {"session_id": "s", "ts": 0, "exceptions": [],
         "boxes": [patient, {"cls": "bed", "x": 300, "y": 250, "w": 380, "h": 240}]},
        {"session_id": "s", "ts": 1,
         "boxes": [patient, staff, {"cls": "bed", "x": 120, "y": 80, "w": 500, "h": 300, "conf": 0.7},
                   {"cls": "bed", "x": 700, "y": 400, "w": 200, "h": 150, "conf": 0.9}]},
        {"session_id": "s", "ts": 2, "boxes": [patient, {"cls": "chair", "x": 900, "y": 300, "w": 80, "h": 80}]},
        {"session_id": "s", "ts": 3, "exceptions": ["occlusion"], "boxes": []},
    ]
    (tmp_path / "labels.jsonl").write_text("".join(json.dumps(l) + "\n" for l in labels))
    preds = [
        make_record("s", 0, ["patient"], origin=(10.0, 10.0)),
        make_record("s", 1, ["patient"], bed=False, origin=(10.0, 10.0)),
        make_record("s", 2, ["patient", "staff"], origin=(600.0, 10.0)),
        make_record("s", 3, ["staff"]),
    ]
    write_rows_jsonl([CanonicalRow(r) for r in preds], tmp_path / "preds.jsonl")


def _run_all(tmp_path):
    _write_inputs(tmp_path)
    states, log, labels = (str(tmp_path / n) for n in ("states.jsonl", "log.csv", "labels.jsonl"))
    preds = str(tmp_path / "preds.jsonl")
    out = tmp_path / "out"
    for argv in (
        ["trends", "--states", states, "--log", log, "--cohort", "--out", str(out / "trends")],
        ["evaluate", "trends", "--log", log, "--states", states, "--out", str(out / "eval_trends")],
        ["evaluate", "frames", "--labels", labels, "--preds", preds, "--out", str(out / "frames")],
        ["evaluate", "frames", "--labels", labels, "--preds", preds, "--keep-exceptions",
         "--out", str(out / "frames_kept")],
        ["camera-meta", "--labels", labels, "--out", str(out / "meta")],
    ):
        assert main(argv) == 0, argv
    return out


# CSV files end their lines with \r\n (csv.writer); they are written here with
# \n and converted before the comparison. The histogram has 800 rows, so only
# its sha256 is pinned.
EXPECTED = {
    "eval_trends/per_patient_day.csv": """\
session_id,date,period,method,accuracy,seconds
roomA,2024-03-01,day,logistic,0.666667,600
roomA,2024-03-01,night,logistic,0.800000,300
roomA,2024-03-01,full,logistic,0.711111,900
roomB,2024-03-02,day,manual,0.555556,180
roomB,2024-03-02,full,manual,0.555556,180
""",
    "eval_trends/trend_report.json": """\
{
  "rows": [
    {
      "accuracy": 0.6666666666666666,
      "date": "2024-03-01",
      "method": "logistic",
      "period": "day",
      "seconds": 600,
      "session_id": "roomA"
    },
    {
      "accuracy": 0.8,
      "date": "2024-03-01",
      "method": "logistic",
      "period": "night",
      "seconds": 300,
      "session_id": "roomA"
    },
    {
      "accuracy": 0.7111111111111111,
      "date": "2024-03-01",
      "method": "logistic",
      "period": "full",
      "seconds": 900,
      "session_id": "roomA"
    },
    {
      "accuracy": 0.5555555555555556,
      "date": "2024-03-02",
      "method": "manual",
      "period": "day",
      "seconds": 180,
      "session_id": "roomB"
    },
    {
      "accuracy": 0.5555555555555556,
      "date": "2024-03-02",
      "method": "manual",
      "period": "full",
      "seconds": 180,
      "session_id": "roomB"
    }
  ],
  "schema_version": 1,
  "summary": {
    "day": {
      "mean": 0.6111111111111112,
      "n": 2,
      "std": 0.055555555555555525
    },
    "full": {
      "mean": 0.6333333333333333,
      "n": 2,
      "std": 0.07777777777777778
    },
    "night": {
      "mean": 0.8,
      "n": 1,
      "std": 0.0
    }
  }
}
""",
    "frames/frame_report.json": """\
{
  "frames_evaluated": 3,
  "frames_excluded": 1,
  "macro_f1": 0.3,
  "patient_alone": {
    "f1": 0.5,
    "fn": 1,
    "fp": 1,
    "precision": 0.5,
    "recall": 0.5,
    "tp": 1
  },
  "patient_role": {
    "f1": 0.6666666666666666,
    "fn": 1,
    "fp": 1,
    "precision": 0.6666666666666666,
    "recall": 0.6666666666666666,
    "tp": 2
  },
  "per_class": {
    "bed": {
      "f1": 0.4,
      "fn": 2,
      "fp": 1,
      "precision": 0.5,
      "recall": 0.3333333333333333,
      "tp": 1
    },
    "chair": {
      "f1": 0.0,
      "fn": 1,
      "fp": 0,
      "precision": 0.0,
      "recall": 0.0,
      "tp": 0
    },
    "person": {
      "f1": 0.5,
      "fn": 2,
      "fp": 2,
      "precision": 0.5,
      "recall": 0.5,
      "tp": 2
    }
  },
  "schema_version": 1
}
""",
    "frames_kept/frame_report.json": """\
{
  "frames_evaluated": 4,
  "frames_excluded": 0,
  "macro_f1": 0.25925925925925924,
  "patient_alone": {
    "f1": 0.5,
    "fn": 1,
    "fp": 1,
    "precision": 0.5,
    "recall": 0.5,
    "tp": 1
  },
  "patient_role": {
    "f1": 0.6666666666666666,
    "fn": 1,
    "fp": 1,
    "precision": 0.6666666666666666,
    "recall": 0.6666666666666666,
    "tp": 2
  },
  "per_class": {
    "bed": {
      "f1": 0.3333333333333333,
      "fn": 2,
      "fp": 2,
      "precision": 0.3333333333333333,
      "recall": 0.3333333333333333,
      "tp": 1
    },
    "chair": {
      "f1": 0.0,
      "fn": 1,
      "fp": 0,
      "precision": 0.0,
      "recall": 0.0,
      "tp": 0
    },
    "person": {
      "f1": 0.4444444444444445,
      "fn": 2,
      "fp": 3,
      "precision": 0.4,
      "recall": 0.5,
      "tp": 2
    }
  },
  "schema_version": 1
}
""",
    "meta/bed_stats.csv": """\
session_id,frame_id,area_fraction,centroid_x,centroid_y,angle_deg
s,s:0,0.136966551,0.450367647,0.604575163,-12.578935
s,s:1,0.045054787,0.735294118,0.776143791,61.846259
""",
    "trends/assisted_cohort.csv": """\
hour,patient_days,monitored_min,alone_min,moving_min,alone_moving_min,supervised_min
0,0,,,,,
1,0,,,,,
2,0,,,,,
3,0,,,,,
4,0,,,,,
5,1,5.000000,4.000000,2.150000,1.716667,1.000000
6,1,10.000000,6.666667,4.300000,2.850000,1.666667
7,0,,,,,
8,0,,,,,
9,0,,,,,
10,0,,,,,
11,0,,,,,
12,0,,,,,
13,1,1.000000,1.000000,0.450000,0.450000,0.333333
14,1,2.000000,2.000000,0.850000,0.850000,0.333333
15,0,,,,,
16,0,,,,,
17,0,,,,,
18,0,,,,,
19,0,,,,,
20,0,,,,,
21,0,,,,,
22,0,,,,,
23,0,,,,,
""",
    "trends/assisted_trends.csv": """\
session_id,date,hour,monitored_min,alone_min,moving_min,alone_moving_min,supervised_min
roomA,2024-03-01,5,5.000000,4.000000,2.150000,1.716667,1.000000
roomA,2024-03-01,6,10.000000,6.666667,4.300000,2.850000,1.666667
roomB,2024-03-02,13,1.000000,1.000000,0.450000,0.450000,0.333333
roomB,2024-03-02,14,2.000000,2.000000,0.850000,0.850000,0.333333
""",
    "trends/cohort.csv": """\
hour,patient_days,monitored_min,alone_min,moving_min,alone_moving_min,supervised_min
0,0,,,,,
1,0,,,,,
2,0,,,,,
3,0,,,,,
4,0,,,,,
5,1,5.000000,3.000000,2.150000,1.300000,1.000000
6,2,6.000000,4.133333,2.583333,1.775000,0.933333
7,0,,,,,
8,0,,,,,
9,0,,,,,
10,0,,,,,
11,0,,,,,
12,0,,,,,
13,1,1.000000,0.333333,0.450000,0.150000,0.333333
14,1,2.000000,1.333333,0.850000,0.566667,0.333333
15,0,,,,,
16,0,,,,,
17,0,,,,,
18,0,,,,,
19,0,,,,,
20,0,,,,,
21,0,,,,,
22,0,,,,,
23,0,,,,,
""",
    "trends/trends.csv": """\
session_id,date,hour,monitored_min,alone_min,moving_min,alone_moving_min,supervised_min
roomA,2024-03-01,5,5.000000,3.000000,2.150000,1.300000,1.000000
roomA,2024-03-01,6,10.000000,6.666667,4.300000,2.850000,1.666667
roomB,2024-03-02,13,1.000000,0.333333,0.450000,0.150000,0.333333
roomB,2024-03-02,14,2.000000,1.333333,0.850000,0.566667,0.333333
roomC,2024-03-01,6,2.000000,1.600000,0.866667,0.700000,0.200000
""",
}
HISTOGRAM_SHA256 = "32454d73b013399debd9005f5ffcbb4515f8dbe5bd9451695e48819c4810fc94"


def test_every_report_is_byte_identical(tmp_path):
    out = _run_all(tmp_path)
    written = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    assert written == set(EXPECTED) | {"meta/bed_histograms.csv"}
    for name, text in EXPECTED.items():
        expected = text.replace("\n", "\r\n") if name.endswith(".csv") else text
        assert (out / name).read_bytes().decode() == expected, name
    histogram = (out / "meta" / "bed_histograms.csv").read_bytes()
    assert hashlib.sha256(histogram).hexdigest() == HISTOGRAM_SHA256
