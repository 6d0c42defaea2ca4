import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import ConvexHull

from ward_sentinel.errors import DegeneratePolygon, ZoneDimensionMismatch
from ward_sentinel.geometry import (
    CrossingEvent,
    Polygon,
    Zone,
    bed_roi_from_detection,
    detect_crossings,
    expand_polygon,
    rasterize,
)
from ward_sentinel import geometry
from ward_sentinel.model import ANALYSIS_DIMS, FLOW_DIMS, BoundingBox, DetectionRecord

from conftest import person_box, person_indices, role_dist

SQUARE = Polygon(((0, 0), (10, 0), (10, 10), (0, 10)))


def shoelace_area(vertices):
    # independent oracle: plain summation form of the shoelace formula
    total = 0.0
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2.0


def edge_length_sum(vertices):
    # independent oracle: perimeter by explicit edge-length summation
    total = 0.0
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        total += ((x2 - x1) ** 2 + (y2 - y1) ** 2) ** 0.5
    return total


def random_convex(rng, scale=100.0):
    pts = rng.uniform(10, 10 + scale, size=(12, 2))
    hull = ConvexHull(pts)
    return Polygon(tuple(map(tuple, pts[hull.vertices])))


def random_star(rng, cx, cy, r_lo, r_hi, n=9):
    # star-shaped polygons are always simple
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=n))
    radii = rng.uniform(r_lo, r_hi, size=n)
    verts = [(cx + r * np.cos(a), cy + r * np.sin(a)) for a, r in zip(angles, radii)]
    return Polygon(tuple(verts))


class TestPolygon:
    def test_rejects_degenerate(self):
        with pytest.raises(DegeneratePolygon):
            Polygon(((0, 0), (1, 1)))
        with pytest.raises(DegeneratePolygon):
            Polygon(((0, 0), (5, 0), (10, 0)))  # collinear, zero area
        with pytest.raises(DegeneratePolygon):
            Polygon(((0, 0), (10, 10), (10, 0), (0, 10)))  # bowtie

    def test_square_metrics(self):
        assert SQUARE.area() == pytest.approx(100.0)
        assert SQUARE.perimeter() == pytest.approx(40.0)
        assert SQUARE.centroid() == pytest.approx((5.0, 5.0))


class TestExpandPolygon:
    def test_square_ten_percent(self):
        out = expand_polygon(SQUARE, 0.10)
        assert out.vertices == ((-0.5, -0.5), (10.5, -0.5), (10.5, 10.5), (-0.5, 10.5))
        assert out.perimeter() == pytest.approx(44.0)

    def test_zero_factor_is_identity(self):
        tri = Polygon(((3, 1), (9, 2), (5, 8)))
        out = expand_polygon(tri, 0.0)
        assert np.allclose(out.vertices, tri.vertices)

    def test_perimeter_ratio_on_random_convex(self, rng):
        for _ in range(25):
            p = random_convex(rng)
            out = expand_polygon(p, 0.10)
            ratio = edge_length_sum(out.vertices) / edge_length_sum(p.vertices)
            assert abs(ratio - 1.10) <= 1e-9

    def test_preserves_vertex_count_and_convexity(self, rng):
        for _ in range(10):
            p = random_convex(rng)
            out = expand_polygon(p, 0.37)
            assert len(out.vertices) == len(p.vertices)
            assert len(ConvexHull(np.asarray(out.vertices)).vertices) == len(out.vertices)


class TestRasterize:
    def test_left_half_rectangle(self):
        mask = rasterize(Polygon(((0, 0), (5, 0), (5, 10), (0, 10))), 10, 10)
        assert mask.sum() == 50
        assert mask[:, :5].all() and not mask[:, 5:].any()

    def test_polygon_outside_frame_is_empty(self):
        mask = rasterize(Polygon(((20, 20), (30, 20), (25, 30))), 10, 10)
        assert mask.sum() == 0

    def test_area_against_shoelace_oracle(self, rng):
        w, h = 480, 270
        for _ in range(20):
            p = random_star(rng, rng.uniform(140, 340), rng.uniform(90, 180), 30, 85)
            mask = rasterize(p, w, h)
            assert abs(mask.sum() / (w * h) - shoelace_area(p.vertices) / (w * h)) <= 0.02

    def test_growth_is_monotone_for_convex(self, rng):
        for _ in range(10):
            pts = rng.uniform(60, 200, size=(10, 2))
            hull = ConvexHull(pts)
            p = Polygon(tuple(map(tuple, pts[hull.vertices])))
            base = rasterize(p, 480, 270)
            grown = rasterize(expand_polygon(p, 0.10), 480, 270)
            assert not (base & ~grown).any()

    def test_mask_is_a_read_only_bool_array_of_the_frame(self):
        mask = rasterize(SQUARE, 8, 4)
        assert mask.shape == (4, 8) and mask.dtype == bool and not mask.flags.writeable


# Polygons for the point test: star-shaped ones are simple, with vertices
# anywhere (off the frame too), or snapped to the integer or half-integer grid
# so that edges run along pixel edges and through pixel centers.
_SNAP = {"float": None, "integer": 1.0, "half": 0.5}


@st.composite
def _zone_case(draw):
    w, h = draw(st.sampled_from([(1, 1), (4, 3), (9, 16), (40, 23), (64, 64)]))
    n = draw(st.integers(3, 9))
    cx = draw(st.floats(-0.5 * w, 1.5 * w))
    cy = draw(st.floats(-0.5 * h, 1.5 * h))
    angles = sorted(draw(st.lists(st.floats(0.0, 2 * math.pi, exclude_max=True), min_size=n, max_size=n, unique=True)))
    radii = draw(st.lists(st.floats(0.5, 1.5 * max(w, h)), min_size=n, max_size=n))
    step = _SNAP[draw(st.sampled_from(sorted(_SNAP)))]
    verts = []
    for a, r in zip(angles, radii):
        x, y = cx + r * math.cos(a), cy + r * math.sin(a)
        verts.append((x, y) if step is None else (round(x / step) * step, round(y / step) * step))
    try:
        polygon = Polygon(tuple(verts))
    except DegeneratePolygon:  # snapping merged vertices or crossed edges
        assume(False)
    # points on pixel edges and corners, at centers, anywhere, and off the frame
    grid = st.integers(-3, max(w, h) + 3).map(float)
    halves = grid.map(lambda v: v + 0.5)
    coord = st.one_of(grid, halves, st.floats(-2.0 * max(w, h), 3.0 * max(w, h)),
                      st.sampled_from([-1e9, -1e-300, -0.0, 1e9, 2.9999999999999996]))
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=30))
    return polygon, w, h, points


class TestZone:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_zone_case())
    def test_contains_is_the_rasterized_bit_under_the_clamped_point(self, case):
        polygon, w, h, points = case
        bits = rasterize(polygon, w, h)
        zone = Zone(polygon, w, h)
        for x, y in points:
            px = min(max(math.floor(x), 0), w - 1)
            py = min(max(math.floor(y), 0), h - 1)
            assert zone.contains(x, y) is bool(bits[py, px]), (x, y)
        centers = [[zone.contains(j + 0.5, i + 0.5) for j in range(w)] for i in range(h)]
        assert (np.array(centers) == bits).all()

    def test_contains_at_analysis_resolution(self, rng):
        # the pipeline's frame, with the polygons of the acceptance oracle
        w, h = 1088, 612
        for _ in range(3):
            p = random_star(rng, rng.uniform(200, 900), rng.uniform(150, 500), 40, 400)
            bits = rasterize(p, w, h)
            zone = Zone(p, w, h)
            # both pixels of every place where a row changes membership
            ys, xs = np.nonzero(bits[:, 1:] != bits[:, :-1])
            for i, j in zip(ys.tolist(), xs.tolist()):
                for jj in (j, j + 1):
                    assert zone.contains(jj + 0.5, i + 0.5) is bool(bits[i, jj])

    def test_rejects_an_empty_frame(self):
        with pytest.raises(ValueError):
            Zone(SQUARE, 0, 10)


class TestBedRoi:
    def test_highest_confidence_bed_wins(self):
        rec = DetectionRecord(
            "s",
            0,
            (
                BoundingBox("bed", 0, 0, 10, 10, 0.7),
                BoundingBox("bed", 20, 20, 10, 10, 0.9),
            ),
            (None, None),
        )
        mask = bed_roi_from_detection(rec, *ANALYSIS_DIMS)
        assert mask[25, 25] and not mask[5, 5]
        assert mask.sum() == 100

    def test_no_bed_returns_none(self):
        rec = DetectionRecord("s", 0, (person_box(),), (role_dist("patient"),))
        assert bed_roi_from_detection(rec, *ANALYSIS_DIMS) is None

    def test_half_out_of_frame_clamped(self):
        rec = DetectionRecord("s", 0, (BoundingBox("bed", ANALYSIS_DIMS[0] - 10, 0, 20, 10, 0.9),), (None,))
        mask = bed_roi_from_detection(rec, *ANALYSIS_DIMS)
        assert mask.sum() == 100  # 10x10 remains inside

    def test_ties_go_to_the_first_bed(self):
        beds = (BoundingBox("bed", 0, 0, 10, 10, 0.9), BoundingBox("bed", 20, 20, 10, 10, 0.9))
        mask = bed_roi_from_detection(DetectionRecord("s", 0, beds, (None, None)), *ANALYSIS_DIMS)
        assert mask[5, 5] and not mask[25, 25]

    def test_flow_rectangle_floors_and_ceils_the_scaled_bed(self, rng):
        """The bed's own numbers scaled by FLOW_DIMS / ANALYSIS_DIMS: floor of
        the near edges, ceiling of the far edges, clamped to the mask."""
        fw, fh = FLOW_DIMS
        sx, sy = FLOW_DIMS[0] / ANALYSIS_DIMS[0], FLOW_DIMS[1] / ANALYSIS_DIMS[1]
        for _ in range(200):
            x, y = rng.uniform(-50, 1100), rng.uniform(-50, 620)
            w, h = rng.uniform(0.01, 400), rng.uniform(0.01, 300)
            rec = DetectionRecord("s", 0, (BoundingBox("bed", x, y, w, h, 0.9),), (None,))
            x1, x2 = (min(max(int(v), 0), fw) for v in (np.floor(x * sx), np.ceil(x * sx + w * sx)))
            y1, y2 = (min(max(int(v), 0), fh) for v in (np.floor(y * sy), np.ceil(y * sy + h * sy)))
            mask = bed_roi_from_detection(rec, fw, fh)
            if x1 >= x2 or y1 >= y2:
                assert mask is None
                continue
            expected = np.zeros((fh, fw), dtype=bool)
            expected[y1:y2, x1:x2] = True
            assert mask.shape == (fh, fw) and not mask.flags.writeable
            assert np.array_equal(mask, expected)

    def test_a_bed_that_scales_to_no_pixel_has_no_mask(self):
        # w scales below the smallest float: the rectangle is empty
        rec = DetectionRecord("s", 0, (BoundingBox("bed", 0.0, 10.0, 5e-324, 50.0, 0.9),), (None,))
        assert bed_roi_from_detection(rec, *FLOW_DIMS) is None


class TestCrossingFactsAnchors:
    zone = Zone(SQUARE, 100, 100)

    def test_a_person_box_is_anchored_at_its_bottom_center(self):
        for box, anchor in ((person_box(x=10, y=20, w=30, h=40), (25, 60)), (person_box(0, 0, 2, 2), (1, 2))):
            rec = DetectionRecord("s", 0, (box,), (role_dist("patient"),))
            assert self.zone.crossing_facts(rec)[:2] == ([0], [anchor])

    def test_a_bed_box_has_no_anchor(self):
        bed = BoundingBox("bed", 0, 0, 2, 2, 0.5)
        assert self.zone.crossing_facts(DetectionRecord("s", 0, (bed,), (None,))) == ([], [], [])
        rec = DetectionRecord("s", 0, (bed, person_box(4, 4, 2, 2)), (None, role_dist("staff")))
        assert self.zone.crossing_facts(rec) == ([1], [(5, 6)], [True])

    def test_clamped_box_anchor_in_frame(self):
        rec = DetectionRecord(
            "s", 0, (BoundingBox("person", -30, -10, 60, 50, 0.5),), (role_dist("other"),)
        )
        from ward_sentinel.model import validate_record

        (ax, ay), = self.zone.crossing_facts(validate_record(rec, (100, 100)))[1]
        assert 0 <= ax <= 100 and 0 <= ay <= 100


def _person_record(session, ts, anchors):
    boxes, roles = [], []
    for ax, ay in anchors:
        w, h = 10.0, 20.0
        boxes.append(BoundingBox("person", ax - w / 2, ay - h, w, h, 0.8))
        roles.append(role_dist("patient"))
    return DetectionRecord(session, ts, tuple(boxes), tuple(roles))


def _crossing_facts_reference(zone, rec):
    """Oracle: Zone.crossing_facts as the dims check over every box, then
    person_indices, each person box's bottom-center and contains."""
    for b in rec.boxes:
        if b.x + b.w > zone.width or b.y + b.h > zone.height:
            raise ZoneDimensionMismatch(
                f"box ({b.x},{b.y},{b.w},{b.h}) exceeds zone dims {zone.width}x{zone.height}; "
                "detections and zone must share a coordinate space"
            )
    idx = person_indices(rec)
    anchors = [(rec.boxes[i].x + rec.boxes[i].w / 2.0, rec.boxes[i].y + rec.boxes[i].h) for i in idx]
    return idx, anchors, [zone.contains(x, y) for x, y in anchors]


# Anchor offsets within two diagonals of the analysis frame, signed zeros and
# the smallest subnormals included.
_DIAG = float(np.hypot(1088, 612))
_OFFSET = st.one_of(
    st.floats(-2.0 * _DIAG, 2.0 * _DIAG),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 * _DIAG, -2.0 * _DIAG]),
)


def _match_by_hypot_of_every_pair(prev_anchors, cur_anchors, gate):
    """Oracle: greedy nearest matching with np.hypot computed for every pair."""
    pairs = sorted(
        (float(np.hypot(pa[0] - ca[0], pa[1] - ca[1])), i, j)
        for i, pa in enumerate(prev_anchors)
        for j, ca in enumerate(cur_anchors)
    )
    used_prev, used_cur, matches = set(), set(), []
    for d, i, j in pairs:
        if d <= gate and i not in used_prev and j not in used_cur:
            used_prev.add(i)
            used_cur.add(j)
            matches.append((i, j))
    return matches


class TestDetectCrossings:
    zone = Zone(Polygon(((40, 40), (160, 40), (160, 160), (40, 160))), 200, 200)

    def test_exit_event(self):
        prev = _person_record("s", 10, [(100, 140)])
        cur = _person_record("s", 11, [(100, 170)])
        events = detect_crossings(prev, cur, self.zone)
        assert events == [CrossingEvent("s", 11, "exit", 0)]

    def test_entry_event(self):
        prev = _person_record("s", 10, [(20, 100)])
        cur = _person_record("s", 11, [(50, 100)])
        assert detect_crossings(prev, cur, self.zone) == [
            CrossingEvent("s", 11, "entry", 0)
        ]

    def test_empty_frames(self):
        prev = _person_record("s", 10, [])
        cur = _person_record("s", 11, [])
        assert detect_crossings(prev, cur, self.zone) == []

    def test_gate_blocks_far_teleport(self):
        # a single anchor jumping 120px exceeds the 15%-diagonal gate (~42px
        # at 200x200) and must stay unmatched: no spurious exit
        prev = _person_record("s", 10, [(100, 100)])
        cur = _person_record("s", 11, [(190, 20)])
        assert detect_crossings(prev, cur, self.zone) == []

    def test_swap_resolved_by_nearest_matching(self):
        # two people exchanging labels across the boundary: greedy nearest
        # matching pairs each with the anchor that stayed put, so no events
        prev = _person_record("s", 10, [(50, 100), (190, 100)])
        cur = _person_record("s", 11, [(190, 100), (50, 100)])
        assert detect_crossings(prev, cur, self.zone) == []

    def test_unmatched_person_emits_nothing(self):
        prev = _person_record("s", 10, [(100, 100)])
        cur = _person_record("s", 11, [])
        assert detect_crossings(prev, cur, self.zone) == []

    def test_non_consecutive_rejected(self):
        prev = _person_record("s", 10, [(100, 100)])
        cur = _person_record("s", 13, [(100, 100)])
        with pytest.raises(ValueError):
            detect_crossings(prev, cur, self.zone)

    def test_zone_dimension_mismatch(self):
        small = Zone(Polygon(((1, 1), (5, 1), (5, 5))), 8, 8)
        prev = _person_record("s", 10, [(100, 100)])
        cur = _person_record("s", 11, [(100, 100)])
        with pytest.raises(ZoneDimensionMismatch):
            detect_crossings(prev, cur, small)

    def test_zone_dimension_mismatch_in_prev_only(self):
        small = Zone(Polygon(((1, 1), (50, 1), (50, 50))), 120, 120)
        prev = _person_record("s", 10, [(100, 130)])  # box bottom at y=130
        cur = _person_record("s", 11, [(100, 100)])
        assert detect_crossings(cur, _person_record("s", 12, [(100, 100)]), small) == []
        with pytest.raises(ZoneDimensionMismatch):
            detect_crossings(prev, cur, small)

    def test_matching_equals_hypot_of_every_pair(self, rng):
        gate = 0.15 * float(np.hypot(1088, 612))
        origin = [(0.0, 0.0)]
        cases = [(origin, [(gate, 0.0)], gate), (origin, [(0.0, -gate)], gate), (origin, [(gate, 1e-12)], gate)]
        for _ in range(2000):
            n, m = rng.integers(0, 5, size=2)
            centre = rng.uniform(0, 1088), rng.uniform(0, 612)
            spread = rng.choice((0.2, 1.0, 2.0)) * gate
            anchors = ([tuple(map(float, centre + rng.uniform(-spread, spread, 2))) for _ in range(k)] for k in (n, m))
            cases.append((*anchors, gate))
        # Where math.hypot and np.hypot differ in the last bit, a gate at the
        # smaller of the two matches only if the distance is np.hypot's.
        while len(cases) < 2030:
            dx, dy = (float(v) for v in rng.uniform(-100, 100, 2))
            if math.hypot(dx, dy) != float(np.hypot(dx, dy)):
                cases.append((origin, [(dx, dy)], min(math.hypot(dx, dy), float(np.hypot(dx, dy)))))
        for prev_anchors, cur_anchors, g in cases:
            want = _match_by_hypot_of_every_pair(prev_anchors, cur_anchors, g)
            assert geometry._match_anchors(prev_anchors, cur_anchors, g) == want

    @settings(max_examples=3000, deadline=None, derandomize=True, database=None)
    @given(_OFFSET, _OFFSET)
    def test_complex_abs_is_np_hypot_bit_for_bit(self, dx, dy):
        # _match_anchors's distance; test_matching_equals_hypot_of_every_pair
        # and the pipeline's crossing oracle keep np.hypot itself.
        got, want = abs(complex(dx, dy)), float(np.hypot(dx, dy))
        assert struct.pack("<d", got) == struct.pack("<d", want), (dx, dy)

    def test_crossing_facts_equal_the_reference(self, rng):
        w, h = 120, 90
        polygon = Polygon(((10.5, 5.0), (100.0, 20.0), (80.0, 85.0), (15.0, 60.0)))
        checked = mismatched = 0
        for _ in range(3000):
            boxes = []
            for _ in range(int(rng.integers(0, 6))):
                cls = str(rng.choice(("person", "person", "bed", "chair")))
                x, y = rng.uniform(-30, 125, 2)
                bw, bh = rng.uniform(0.5, 40, 2)
                if rng.uniform() < 0.3:  # ints, as a detector port may give
                    x, y, bw, bh = int(x), int(y), int(bw) + 1, int(bh) + 1
                boxes.append(BoundingBox(cls, x, y, bw, bh, 0.5))
            # roles as an unvalidated record may carry them
            roles = tuple(role_dist("patient") for _ in range(int(rng.integers(0, 7))))
            rec = DetectionRecord("s", 0, tuple(boxes), roles)
            try:
                want = _crossing_facts_reference(Zone(polygon, w, h), rec)
            except ZoneDimensionMismatch as e:
                with pytest.raises(ZoneDimensionMismatch) as got:
                    Zone(polygon, w, h).crossing_facts(rec)
                assert str(got.value) == str(e)
                mismatched += 1
                continue
            got = Zone(polygon, w, h).crossing_facts(rec)
            assert repr(got) == repr(want)  # values and int/float types alike
            checked += 1
        assert checked > 500 and mismatched > 500

    def test_directions_alternate_along_a_walk(self):
        # one anchor strolling in and out repeatedly, steps under the gate
        xs = [20, 55, 90, 125, 155, 175, 150, 120, 90, 55, 25, 60, 95]
        events = []
        for t, (a, b) in enumerate(zip(xs, xs[1:])):
            prev = _person_record("s", t, [(a, 100)])
            cur = _person_record("s", t + 1, [(b, 100)])
            events.extend(detect_crossings(prev, cur, self.zone))
        directions = [e.direction for e in events]
        assert directions and all(
            x != y for x, y in zip(directions, directions[1:])
        )
        assert directions[0] == "entry"
