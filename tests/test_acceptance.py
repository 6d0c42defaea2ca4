"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line with its measured numbers. Tolerances are pinned here, not configurable.
"""

import hashlib
import json
import time
from datetime import datetime, timezone

import numpy as np

from ward_sentinel.evaluation import fit_logistic, match_boxes, prf1, trend_accuracy
from ward_sentinel.flow import farneback_flow
from ward_sentinel.geometry import (
    Polygon,
    Zone,
    detect_crossings,
    expand_polygon,
    rasterize,
)
from ward_sentinel.logic import LogicalState, SmoothingWindow, derive_state
from ward_sentinel.model import BoundingBox, DetectionRecord, PipelineConfig
from ward_sentinel.pipeline import SyntheticDetector, frame_source, rows_source, run_pipeline
from ward_sentinel.schema import CanonicalRow
from ward_sentinel.simulator import (
    NoiseModel,
    ScenarioSpec,
    ScheduleInterval,
    generate,
)
from ward_sentinel.store import Store
from ward_sentinel.trends import ObservationLog, aggregate_hourly, assisted_trends, write_trend_csv

import conftest
from conftest import make_record, random_stream, shifted_pair, role_dist
from test_evaluation import greedy_match_oracle, majority_rule_accuracy
from test_geometry import edge_length_sum, random_convex, random_star, shoelace_area
from test_logic import brute_force_state

CFG = PipelineConfig()
MIDNIGHT = 1709251200  # 2024-03-01T00:00:00Z


def report(criterion: int, name: str, ok: bool, detail: str):
    line = f"criterion {criterion} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_1_optical_flow_translation_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    hits = 0
    worst_pair_s = 0.0
    m = 30
    for _ in range(50):
        sx, sy = (int(v) for v in rng.integers(-5, 6, size=2))
        prev, cur = shifted_pair(rng, sx, sy)
        t0 = time.perf_counter()
        field = farneback_flow(prev, cur, CFG.flow)
        worst_pair_s = max(worst_pair_s, time.perf_counter() - t0)
        ex = abs(field.dx[m:-m, m:-m].mean() - sx)
        ey = abs(field.dy[m:-m, m:-m].mean() - sy)
        hits += ex <= 0.5 and ey <= 0.5
    img = conftest.texture(rng, 270, 480)
    same = farneback_flow(img, img, CFG.flow).magnitude().mean()
    elapsed = time.perf_counter() - start
    ok = hits >= 48 and same < 1e-3 and worst_pair_s < 1.0 and elapsed < 120.0
    report(
        1,
        "optical-flow translation oracle",
        ok,
        f"{hits}/50 within 0.5px, identical-frame mean {same:.2e}, "
        f"worst pair {worst_pair_s * 1e3:.0f}ms, total {elapsed:.1f}s",
    )


def test_criterion_2_logic_engine_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    total = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        records, motions = random_stream(rng, f"s{seed}", 10_000)
        by_ts = {r.ts: r for r in records}
        window = SmoothingWindow(CFG.smoothing_window_s)
        for rec in records:
            window.push(rec, motions.get(rec.ts))
            got = derive_state(window, CFG)
            expected = brute_force_state(by_ts, motions, rec.ts, CFG)
            mismatches += got != expected
            total += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    report(
        2,
        "logic-engine oracle equivalence",
        ok,
        f"{mismatches} mismatches over {total} seconds x 20 streams, {elapsed:.1f}s",
    )


def test_criterion_3_smoothing_robustness():
    start = time.perf_counter()
    cases = 0
    flips = 0
    for spike in (2, 3, 4, 5):
        for pos in range(4, 29):
            window = SmoothingWindow(CFG.smoothing_window_s)
            for i in range(33):
                count = spike if i == pos else 1
                window.push(make_record("s", 900 + i, ["patient"] * count))
                if i >= 4:
                    flips += not derive_state(window, CFG).person_alone
            cases += 1
    elapsed = time.perf_counter() - start
    ok = flips == 0 and elapsed < 5.0
    report(
        3,
        "smoothing robustness",
        ok,
        f"{flips} flips across {cases} glitch streams, {elapsed:.1f}s",
    )


def _noisy_day_spec(seed=77):
    blocks = []

    def block(h0, m0, h1, m1, **kw):
        blocks.append((h0 * 3600 + m0 * 60, h1 * 3600 + m1 * 60, kw))

    block(0, 0, 2, 0, patients=1)
    block(2, 0, 2, 10, patients=1, staff=2, motion=1.5)  # night round
    block(2, 10, 8, 0, patients=1)
    block(8, 0, 8, 30, patients=1, staff=2, motion=1.5)  # morning round
    block(8, 30, 10, 0, patients=1, motion=1.0)
    block(10, 0, 10, 20)  # patient off the floor
    block(10, 20, 14, 0, patients=1)
    block(14, 0, 14, 30, patients=1, staff=2, motion=1.5)
    block(14, 30, 20, 0, patients=1)
    block(20, 0, 20, 30, patients=1, staff=2, motion=1.5)
    block(20, 30, 24, 0, patients=1)
    schedule = tuple(
        ScheduleInterval(a, b, **kw) for a, b, kw in blocks
    )
    return ScenarioSpec(
        seed=seed,
        duration_s=86400,
        schedule=schedule,
        noise=NoiseModel(p_miss=0.05, p_spur=0.05),
        session_id="day-noisy",
        start_ts=MIDNIGHT,
    )


def _replay_day(tmp_path, name, spec):
    sim = generate(spec, CFG)
    store = Store(tmp_path / name)
    run_pipeline(
        rows_source(CanonicalRow(r, sim.motions.get(r.ts)) for r in sim.records),
        CFG,
        store,
    )
    rows = list(store.iter_rows())
    return sim, store, rows


def test_criterion_4_trend_conservation(tmp_path):
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    streams = []
    spec = ScenarioSpec(
        seed=44,
        duration_s=4 * 3600,
        schedule=(
            ScheduleInterval(0, 5400, patients=1, motion=1.0),
            ScheduleInterval(5400, 7200, patients=1, staff=2, motion=1.5),
            ScheduleInterval(7200, 9000),
            ScheduleInterval(9000, 14400, patients=1),
        ),
        noise=NoiseModel(p_miss=0.05, p_spur=0.05),
        session_id="conservation",
        start_ts=MIDNIGHT,
    )
    sim, _, rows = _replay_day(tmp_path, "store", spec)
    streams.append([r.logical for r in rows])
    for seed in (3, 4):
        rng = np.random.default_rng(seed)
        records, motions = random_stream(rng, f"r{seed}", 4000, start_ts=MIDNIGHT)
        window = SmoothingWindow(CFG.smoothing_window_s)
        states = []
        for rec in records:
            window.push(rec, motions.get(rec.ts))
            states.append(derive_state(window, CFG))
        streams.append(states)
    ok = True
    for states in streams:
        trends = aggregate_hourly(states)
        by_key = {(t.date, t.hour): t for t in trends}
        alone_sec: dict = {}
        not_alone_sec: dict = {}
        for s in states:
            dt = datetime.fromtimestamp(s.ts, tz=timezone.utc)
            key = (dt.date(), dt.hour)
            alone_sec[key] = alone_sec.get(key, 0) + s.patient_alone
            not_alone_sec[key] = not_alone_sec.get(key, 0) + (not s.patient_alone)
        for key, t in by_key.items():
            checked += 1
            ok &= all(v <= t.monitored_minutes + 1e-9 for v in t.minutes.values())
            ok &= t.monitored_minutes <= 60.0
            gap = abs(
                alone_sec[key] / 60.0 + not_alone_sec[key] / 60.0 - t.monitored_minutes
            )
            worst = max(worst, gap)
            ok &= gap <= 1.0 / 60.0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(
        4,
        "trend conservation",
        ok,
        f"{checked} hour rows, worst conservation gap {worst:.2e} min, {elapsed:.1f}s",
    )


def test_criterion_5_metric_plumbing_vs_published_numbers():
    start = time.perf_counter()
    ok = True
    # hand-computed confusion values, including the published headline shape
    hand = [
        ((92, 8, 8), (0.92, 0.92, 0.92)),
        ((9, 1, 1), (0.9, 0.9, 0.9)),
        ((0, 0, 5), (0.0, 0.0, 0.0)),
        ((1, 0, 0), (1.0, 1.0, 1.0)),
        ((49, 1, 49), (0.98, 0.5, 2 * 0.98 * 0.5 / 1.48)),
    ]
    for counts, expected in hand:
        got = prf1(*counts)
        ok &= all(abs(g - e) <= 1e-9 for g, e in zip(got, expected))
    # greedy matcher equals the brute-force oracle on small instances
    rng = np.random.default_rng(55)
    agree = 0
    for _ in range(500):
        n_p, n_g = (int(v) for v in rng.integers(0, 7, size=2))
        preds = [
            BoundingBox(
                "person",
                rng.uniform(0, 80),
                rng.uniform(0, 80),
                rng.uniform(5, 40),
                rng.uniform(5, 40),
                float(rng.uniform(0.05, 1.0)),
            )
            for _ in range(n_p)
        ]
        gts = [
            BoundingBox(
                "person",
                rng.uniform(0, 80),
                rng.uniform(0, 80),
                rng.uniform(5, 40),
                rng.uniform(5, 40),
                1.0,
            )
            for _ in range(n_g)
        ]
        tp, fp, fn, matches = match_boxes(preds, gts, 0.5)
        agree += (tp, fp, fn, sorted(matches)) == greedy_match_oracle(preds, gts, 0.5)
    elapsed = time.perf_counter() - start
    ok = ok and agree == 500 and elapsed < 30.0
    report(
        5,
        "metric plumbing vs published numbers",
        ok,
        f"hand prf1 values exact, matcher agreed {agree}/500, {elapsed:.1f}s",
    )


def test_criterion_6_logistic_regression_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(66)
    worst = 0.0
    tested = 0
    while tested < 100:
        n = int(rng.integers(20, 2000))
        y = (rng.uniform(size=n) < rng.uniform(0.1, 0.9)).astype(float)
        if y.min() == y.max():
            continue
        agree = rng.uniform(0.5, 1.0)
        x = np.where(rng.uniform(size=n) < agree, y, 1 - y)
        _, acc = fit_logistic(x, y)
        worst = max(worst, abs(acc - majority_rule_accuracy(x, y)))
        tested += 1
    # separable data converges under ridge
    y = np.array([0.0] * 400 + [1.0] * 400)
    w, acc_sep = fit_logistic(y, y)
    separable_ok = acc_sep == 1.0 and np.all(np.isfinite(w))
    # single-class target routes to manual accuracy
    states = [
        LogicalState("s", MIDNIGHT + i, True, True, False, False, 1.0)
        for i in range(86400)
    ]
    log = ObservationLog("s", ((MIDNIGHT, MIDNIGHT + 86400),))
    methods = {r.period: r.method for r in trend_accuracy(states, log, CFG).rows}
    manual_ok = set(methods.values()) == {"manual"}
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and separable_ok and manual_ok and elapsed < 10.0
    report(
        6,
        "logistic-regression correctness",
        ok,
        f"worst oracle gap {worst:.2e} over 100 datasets, separable ok, "
        f"single-class routes to manual, {elapsed:.1f}s",
    )


def test_criterion_7_end_to_end_simulator(tmp_path):
    start = time.perf_counter()
    # (a) noiseless scenario, real frames, real optical flow
    spec = ScenarioSpec(
        seed=7,
        duration_s=120,
        schedule=(ScheduleInterval(0, 120, patients=1, motion=2.0),),
        session_id="noiseless",
        start_ts=MIDNIGHT,
    )
    sim = generate(spec, CFG)
    store = Store(tmp_path / "noiseless")
    run_pipeline(
        frame_source(sim.frames()), CFG, store, detector=SyntheticDetector(sim)
    )
    rows = list(store.iter_rows())
    gt_by_ts = {s.ts: s for s in sim.gt_states}
    warm = spec.start_ts + CFG.smoothing_window_s
    post = [r for r in rows if r.record.ts >= warm]
    mismatches = sum(1 for r in post if r.logical != gt_by_ts[r.record.ts])
    noiseless_ok = len(post) > 0 and mismatches == 0

    # (b) 5% symmetric noise over a full patient-day, detection replay
    sim_noisy, _, noisy_rows = _replay_day(tmp_path, "noisy", _noisy_day_spec())
    states = [r.logical for r in noisy_rows]
    log = ObservationLog(
        sim_noisy.spec.session_id, sim_noisy.observation_log_intervals
    )
    acc = {
        r.period: r.accuracy for r in trend_accuracy(states, log, CFG).rows
    }
    accuracy_ok = acc["full"] >= 0.95

    assisted = assisted_trends(states, log)
    gt_trends = aggregate_hourly(list(sim_noisy.gt_states))
    assisted_alone = {(t.date, t.hour): t.minutes["alone"] for t in assisted}
    gt_alone = {(t.date, t.hour): t.minutes["alone"] for t in gt_trends}
    alone_err = max(
        abs(assisted_alone[k] - gt_alone[k]) for k in gt_alone
    )
    assisted_ok = set(assisted_alone) == set(gt_alone) and alone_err == 0.0

    elapsed = time.perf_counter() - start
    ok = noiseless_ok and accuracy_ok and assisted_ok and elapsed < 120.0
    report(
        7,
        "end-to-end simulator run",
        ok,
        f"noiseless mismatches {mismatches}/{len(post)}, full-day accuracy "
        f"{acc['full']:.4f}, assisted alone-minutes error {alone_err}, {elapsed:.1f}s",
    )


def _scripted_trace(rng, base_ts, two_person):
    """A scripted walk with steps below the matching gate; expected crossing
    events are enumerated analytically from the scripted positions."""
    lanes = [50.5, 130.5] if two_person else [50.5]

    def inside(x, y):
        return 40 <= int(x) <= 159 and 40 <= int(y) <= 159

    walks = []
    for lane in lanes:
        y = 20.5
        ys = [y]
        for _ in range(14):
            y = min(185.5, max(10.5, y + float(rng.choice([-30, -20, 20, 30]))))
            ys.append(y)
        walks.append([(lane, y) for y in ys])

    def record(ts, step):
        boxes, roles = [], []
        for walk in walks:
            ax, ay = walk[step]
            boxes.append(BoundingBox("person", ax - 5.0, ay - 20.0, 10.0, 20.0, 0.8))
            roles.append(role_dist("patient"))
        return DetectionRecord("trace", ts, tuple(boxes), tuple(roles))

    expected = []
    for step in range(len(walks[0]) - 1):
        for pi, walk in enumerate(walks):
            was = inside(*walk[step])
            now = inside(*walk[step + 1])
            if was != now:
                expected.append(
                    (base_ts + step + 1, "exit" if was else "entry", pi)
                )
    records = [record(base_ts + i, i) for i in range(len(walks[0]))]
    return records, sorted(expected)


def test_criterion_8_geometry():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    # perimeter ratio on 100 random convex polygons
    worst_ratio = 0.0
    for _ in range(100):
        p = random_convex(rng)
        grown = expand_polygon(p, 0.10)
        ratio = edge_length_sum(grown.vertices) / edge_length_sum(p.vertices)
        worst_ratio = max(worst_ratio, abs(ratio - 1.10))
    ratio_ok = worst_ratio <= 1e-9

    # rasterization area against the shoelace oracle at 480x270
    worst_area = 0.0
    for _ in range(30):
        p = random_star(rng, rng.uniform(120, 360), rng.uniform(80, 190), 25, 75)
        mask = rasterize(p, 480, 270)
        gap = abs(int(mask.sum()) - shoelace_area(p.vertices)) / (480 * 270)
        worst_area = max(worst_area, gap)
    area_ok = worst_area <= 0.02

    # crossing detector vs hand-enumerated events on 20 scripted traces
    zone = Zone(Polygon(((40, 40), (160, 40), (160, 160), (40, 160))), 200, 200)
    traces_ok = 0
    for i in range(20):
        records, expected = _scripted_trace(rng, 1000 * i, two_person=i % 2 == 1)
        got = []
        for prev, cur in zip(records, records[1:]):
            for e in detect_crossings(prev, cur, zone):
                got.append((e.ts, e.direction, e.person_index))
        traces_ok += sorted(got) == expected
    elapsed = time.perf_counter() - start
    ok = ratio_ok and area_ok and traces_ok == 20 and elapsed < 30.0
    report(
        8,
        "geometry",
        ok,
        f"perimeter gap {worst_ratio:.2e}, area gap {worst_area:.4f}, "
        f"crossing traces {traces_ok}/20, {elapsed:.1f}s",
    )


def test_criterion_9_determinism(tmp_path):
    def run_once(name):
        out = tmp_path / name
        sim, store, rows = _replay_day(tmp_path, name, _noisy_day_spec())
        states = [r.logical for r in rows]
        log = ObservationLog(sim.spec.session_id, sim.observation_log_intervals)
        write_trend_csv(aggregate_hourly(states), out / "trends.csv")
        report_obj = trend_accuracy(states, log, CFG).to_dict()
        (out / "report.json").write_text(
            json.dumps(report_obj, sort_keys=True, indent=2)
        )
        digest = {}
        for p in sorted(out.rglob("*")):
            if p.is_file():
                digest[str(p.relative_to(out))] = hashlib.sha256(
                    p.read_bytes()
                ).hexdigest()
        return digest

    a = run_once("run-a")
    b = run_once("run-b")
    ok = a == b and len(a) > 0
    differing = [k for k in a if a.get(k) != b.get(k)]
    report(
        9,
        "determinism",
        ok,
        f"{len(a)} files byte-identical across two runs"
        + (f", differing: {differing[:3]}" if differing else ""),
    )
