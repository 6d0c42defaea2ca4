"""Smoke test of tools/cliprobe.py on one tree at small lengths."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cliprobe_measures_each_command_on_one_tree(tmp_path):
    out = tmp_path / "probe.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cliprobe.py"), "--change", str(ROOT),
         "--lengths", "60,600", "--pairs", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == json.loads(out.read_text())
    assert report["failed"] == []
    assert set(report["summary"]) == {
        "run-detections", "run-detections-zone", "ingest-canonical", "trends-cohort-log", "evaluate-trends",
        "evaluate-frames",
    }
    assert len(report["runs"]) == 12 and {r["rows"] for r in report["runs"]} == {60, 600}
    # the walker crosses the zone, so the zone run also writes a crossings file
    digests = {(r["command"], r["rows"]): r["output"] for r in report["runs"]}
    assert digests[("run-detections-zone", 600)] != digests[("run-detections", 600)]
    for entry in report["summary"].values():
        assert entry["outputs_identical"]
        change = entry["change"]
        assert set(change["maxrss_mb"]) == {"60", "600"} and all(v > 0 for v in change["maxrss_mb"].values())
        assert math.isfinite(change["growth_kb_per_row"]) and math.isfinite(change["wall_ms_per_row"])

