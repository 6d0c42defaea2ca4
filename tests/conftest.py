import numpy as np
import pytest
from scipy import ndimage

from ward_sentinel.flow import MotionRecord
from ward_sentinel.model import BoundingBox, DetectionRecord, RoleDistribution

ROLE_ORDER = ("patient", "staff", "other")


def person_box(x=100.0, y=100.0, w=40.0, h=90.0, conf=0.8):
    return BoundingBox("person", x, y, w, h, conf)


def role_dist(primary, conf=0.9):
    rest = (1.0 - conf) / 2.0
    return RoleDistribution({r: (conf if r == primary else rest) for r in ROLE_ORDER})


def make_record(session_id, ts, primaries=(), bed=True, origin=(50.0, 50.0)):
    """A record with one person box per primary role plus an optional bed."""
    boxes, roles = [], []
    if bed:
        boxes.append(BoundingBox("bed", 300.0, 250.0, 380.0, 240.0, 0.92))
        roles.append(None)
    for i, primary in enumerate(primaries):
        boxes.append(person_box(x=origin[0] + 60.0 * i, y=origin[1]))
        roles.append(role_dist(primary))
    return DetectionRecord(session_id, ts, tuple(boxes), tuple(roles))


def person_indices(rec):
    """Indices of rec's person boxes."""
    return [i for i, b in enumerate(rec.boxes) if b.cls == "person"]


# make_record's bed, its person boxes by index and role_dist by primary; all
# immutable, so random_stream shares them between records.
_BED, *_PERSONS = make_record("s", 0, ["patient"] * 4).boxes
_ROLE_DISTS = {r: role_dist(r) for r in ROLE_ORDER}


def random_stream(rng, session_id, n_seconds, start_ts=1_700_000_000, gap_p=0.02):
    """Random detection/motion stream with occasional gaps, for oracle tests.

    Each record equals make_record(session_id, ts, primaries); the role index
    is drawn as rng.choice(ROLE_ORDER) draws it (test_logic.py checks both).
    """
    records, motions = [], {}
    ts = start_ts
    for _ in range(n_seconds):
        ts += 1 + (int(rng.integers(2, 30)) if rng.uniform() < gap_p else 0)
        count = int(rng.integers(0, 5))
        roles = [_ROLE_DISTS[ROLE_ORDER[int(rng.integers(0, 3))]] for _ in range(count)]
        records.append(DetectionRecord(session_id, ts, (_BED, *_PERSONS[:count]), (None, *roles)))
        if rng.uniform() < 0.9:
            motions[ts] = MotionRecord({"scene": float(rng.uniform(0, 1.5))})
    return records, motions


def texture(rng, height, width, sigma=2.0):
    """Band-limited random texture with full 0..255 dynamic range."""
    t = rng.uniform(0.0, 255.0, size=(height, width))
    t = ndimage.gaussian_filter(t, sigma, mode="wrap")
    t -= t.min()
    t *= 255.0 / max(t.max(), 1e-9)
    return t


def shifted_pair(rng, shift_x, shift_y, width=480, height=270, margin=8):
    """True-translation image pair cropped from one larger texture."""
    assert abs(shift_x) <= margin and abs(shift_y) <= margin
    base = texture(rng, height + 2 * margin, width + 2 * margin)
    prev = base[margin : margin + height, margin : margin + width]
    cur = base[margin - shift_y : margin - shift_y + height,
               margin - shift_x : margin - shift_x + width]
    return prev, cur


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# one line per acceptance criterion, printed after the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
