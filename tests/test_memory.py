"""Peak memory of a run does not grow with its length.

Each case runs in a fresh interpreter at two lengths and compares the peak
resident set size the child reports for itself: `VmHWM` of /proc/self/status,
the peak of its own address space. Its `ru_maxrss` would not do here, because
Linux carries the parent's peak across exec, and the test process is larger
than the child. The writer
streams each session's rows to disk in fixed chunks and `run --detections`
reads its file lazily, so the growth per row is near zero; a run that held
its rows until the end would grow by more than 1 KB per row.

What one decoded row holds is measured in process, with tracemalloc: a row
shares its strings (schema.py), so it keeps no copy of its box classes, role
and motion keys or session id.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from ward_sentinel import cli
from ward_sentinel.flow import MotionRecord
from ward_sentinel.logic import LogicalState
from ward_sentinel.schema import CanonicalRow, dumps_row, loads_row, write_rows_jsonl

from conftest import make_record

SHORT, LONG = 2_000, 20_000
MAX_GROWTH_KB_PER_ROW = 0.1
# The row of test_a_decoded_row_holds_no_string_copies held about 2.48 KB
# when each row kept its own strings and holds about 1.94 KB sharing them.
MAX_DECODED_ROW_BYTES = 2_150
DECODES = 2_000
T0 = 1_709_251_200
SRC = str(Path(cli.__file__).resolve().parents[1])

PEAK_KB = """
def PEAK_KB():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
"""

# Two interleaved sessions of one-patient records, made as they are consumed.
GENERATOR_RUN = """
import sys
from ward_sentinel.model import BoundingBox, DetectionRecord, PipelineConfig, RoleDistribution
from ward_sentinel.pipeline import SourceItem, run_pipeline
from ward_sentinel.store import Store

n, root, t0 = int(sys.argv[1]), sys.argv[2], int(sys.argv[3])

def source():
    for i in range(n):
        sid, ts = "ab"[i % 2], t0 + i // 2
        boxes = (BoundingBox("person", 100.0 + i % 7, 100.0, 40.0, 90.0, 0.8),
                 BoundingBox("bed", 300.0, 200.0, 300.0, 150.0, 0.9))
        roles = (RoleDistribution({"patient": 0.9, "staff": 0.05, "other": 0.05}), None)
        yield SourceItem(sid, ts, None, DetectionRecord(sid, ts, boxes, roles), None)

assert run_pipeline(source(), PipelineConfig(), Store(root)).rows == n
print(PEAK_KB())
"""

CLI_RUN = """
import sys
from ward_sentinel.cli import main

assert main(["run", "--detections", sys.argv[1], "--out", sys.argv[2]]) == 0
print(PEAK_KB())
"""


def _peak_kb(code: str, *args) -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_KB + code, *map(str, args)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


def _rows_file(path: Path, n: int) -> Path:
    write_rows_jsonl(
        (CanonicalRow(make_record("ab"[i % 2], T0 + i // 2, ["patient"])) for i in range(n)), path
    )
    return path


@pytest.mark.parametrize("case", ["run_pipeline-generator", "run-detections"])
def test_peak_memory_does_not_grow_with_run_length(tmp_path, case):
    peaks = {}
    for n in (SHORT, LONG):
        store = tmp_path / f"store-{n}"
        if case == "run-detections":
            peaks[n] = _peak_kb(CLI_RUN, _rows_file(tmp_path / f"rows-{n}.jsonl", n), store)
        else:
            peaks[n] = _peak_kb(GENERATOR_RUN, n, store, T0)
        manifest = json.loads((store / "manifest.json").read_text())
        assert sum(e["rows"] for e in manifest["segments"].values()) == n
    growth = (peaks[LONG] - peaks[SHORT]) / (LONG - SHORT)
    assert growth < MAX_GROWTH_KB_PER_ROW, f"{growth:.3f} KB per row (peaks {peaks} KB)"


def test_a_decoded_row_holds_no_string_copies():
    sid = "ward-3 bed-12"
    motion = MotionRecord({"scene": 0.42, "bed": 0.13, "safety_zone": 0.0})
    state = LogicalState(sid, T0, False, False, True, True, 2.0)
    line = dumps_row(CanonicalRow(make_record(sid, T0, ["patient", "staff"]), motion, state))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = [loads_row(line) for _ in range(DECODES)]
        per_row = (tracemalloc.get_traced_memory()[0] - before) / DECODES
    finally:
        tracemalloc.stop()
    assert dumps_row(rows[-1]) == line
    assert per_row < MAX_DECODED_ROW_BYTES, f"{per_row:.0f} B per decoded row"
