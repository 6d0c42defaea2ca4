import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import ndimage

from ward_sentinel.errors import DimensionMismatch, EmptyMask
from ward_sentinel.flow import (
    SOLVE_REGULARIZATION,
    FlowField,
    FlowFrame,
    _bilinear_warp,
    _displacement_update,
    _level_image,
    _pyramid_dims,
    farneback_flow,
    polynomial_expansion,
    roi_motion,
)
from ward_sentinel.geometry import Polygon, RoiMask, bed_roi_from_detection, expand_polygon, rasterize
from ward_sentinel.imageops import resize_bilinear, to_grayscale
from ward_sentinel.model import FlowParams

from conftest import make_record, shifted_pair, texture


def lsq_fit_oracle(gray, cx, cy, n, sigma):
    """Direct weighted least-squares quadratic fit at one pixel.

    Independent of the separable-correlation implementation: builds the
    design matrix over the neighborhood and solves the normal equations.
    """
    r = n // 2
    rows, targets, weights = [], [], []
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            rows.append([1.0, dx, dy, dx * dx, dy * dy, dx * dy])
            targets.append(gray[cy + dy, cx + dx])
            weights.append(np.exp(-(dx * dx + dy * dy) / (2 * sigma * sigma)))
    A = np.asarray(rows)
    w = np.asarray(weights)
    sol, *_ = np.linalg.lstsq(A * w[:, None] ** 0.5, np.asarray(targets) * w**0.5, rcond=None)
    return {"c": sol[0], "bx": sol[1], "by": sol[2], "axx": sol[3], "ayy": sol[4], "axy": sol[5]}


class TestPolynomialExpansion:
    def test_constant_image(self):
        pe = polynomial_expansion(np.full((40, 60), 55.0), 5, 1.2)
        inner = np.s_[5:-5, 5:-5]
        for plane in (pe.bx, pe.by, pe.axx, pe.ayy, pe.axy):
            assert np.allclose(plane[inner], 0.0, atol=1e-10)

    def test_linear_ramp(self):
        img = np.tile(np.arange(60, dtype=float), (40, 1))
        pe = polynomial_expansion(img, 5, 1.2)
        inner = np.s_[5:-5, 5:-5]
        assert np.allclose(pe.bx[inner], 1.0, atol=1e-10)
        assert np.allclose(pe.by[inner], 0.0, atol=1e-10)
        assert np.allclose(pe.axx[inner], 0.0, atol=1e-10)

    def test_quadratic_bowl_curvature(self):
        x = np.arange(60, dtype=float)
        img = np.tile(x * x, (40, 1))
        pe = polynomial_expansion(img, 5, 1.2)
        assert abs(pe.axx[20, 30] - 1.0) <= 0.05

    def test_matches_direct_lsq_fit(self, rng):
        gray = texture(rng, 40, 60, sigma=1.5)
        pe = polynomial_expansion(gray, 5, 1.2)
        for cx, cy in [(10, 10), (30, 20), (50, 30)]:
            ref = lsq_fit_oracle(gray, cx, cy, 5, 1.2)
            assert pe.bx[cy, cx] == pytest.approx(ref["bx"], abs=1e-8)
            assert pe.by[cy, cx] == pytest.approx(ref["by"], abs=1e-8)
            assert pe.axx[cy, cx] == pytest.approx(ref["axx"], abs=1e-8)
            assert pe.ayy[cy, cx] == pytest.approx(ref["ayy"], abs=1e-8)
            assert pe.axy[cy, cx] == pytest.approx(ref["axy"], abs=1e-8)


class TestFarnebackFlow:
    def test_identical_frames_zero_flow(self, rng):
        img = texture(rng, 270, 480)
        field = farneback_flow(img, img)
        assert field.magnitude().mean() < 1e-3

    @pytest.mark.parametrize("shift", [(3, 0), (-2, 4), (5, 5), (0, -5)])
    def test_known_integer_shift(self, rng, shift):
        prev, cur = shifted_pair(rng, *shift)
        field = farneback_flow(prev, cur)
        m = 30
        assert field.dx[m:-m, m:-m].mean() == pytest.approx(shift[0], abs=0.5)
        assert field.dy[m:-m, m:-m].mean() == pytest.approx(shift[1], abs=0.5)

    def test_translation_equivariance_small_shifts(self, rng):
        # estimates for shift s and -s mirror each other within tolerance
        prev, cur = shifted_pair(rng, 4, -3)
        fwd = farneback_flow(prev, cur)
        bwd = farneback_flow(cur, prev)
        m = 30
        assert fwd.dx[m:-m, m:-m].mean() == pytest.approx(-bwd.dx[m:-m, m:-m].mean(), abs=0.2)
        assert fwd.dy[m:-m, m:-m].mean() == pytest.approx(-bwd.dy[m:-m, m:-m].mean(), abs=0.2)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            farneback_flow(np.zeros((40, 40)), np.zeros((40, 50)))

    def test_too_small_image(self):
        with pytest.raises(DimensionMismatch):
            farneback_flow(np.zeros((8, 8)), np.zeros((8, 8)))

    def test_small_images_drop_coarse_levels(self, rng):
        # 20px tall: only the finest level survives, still runs
        prev, cur = shifted_pair(rng, 1, 0, width=64, height=20, margin=4)
        field = farneback_flow(prev, cur)
        assert field.dx.shape == (20, 64)

    def test_throughput_under_one_second(self, rng):
        prev, cur = shifted_pair(rng, 2, 1)
        start = time.perf_counter()
        farneback_flow(prev, cur)
        assert time.perf_counter() - start < 1.0


def map_coordinates_update(poly1, poly2, dx0, dy0, winsize):
    """The displacement update with scipy's map_coordinates as the warp.

    The reference for _displacement_update, which must match it bit for bit.
    """
    h, w = dx0.shape
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    wx = xs + dx0
    wy = ys + dy0
    inside = (wx >= 0) & (wx <= w - 1) & (wy >= 0) & (wy <= h - 1)
    coords = [np.clip(wy, 0, h - 1), np.clip(wx, 0, w - 1)]

    def warp(plane):
        return ndimage.map_coordinates(plane, coords, order=1, mode="nearest")

    p = 0.5 * (poly1.axx + warp(poly2.axx))
    r = 0.5 * (poly1.ayy + warp(poly2.ayy))
    q = 0.25 * (poly1.axy + warp(poly2.axy))
    hx = -0.5 * (warp(poly2.bx) - poly1.bx)
    hy = -0.5 * (warp(poly2.by) - poly1.by)
    p = np.where(inside, p, poly1.axx)
    r = np.where(inside, r, poly1.ayy)
    q = np.where(inside, q, 0.5 * poly1.axy)
    hx = np.where(inside, hx, 0.0) + p * dx0 + q * dy0
    hy = np.where(inside, hy, 0.0) + q * dx0 + r * dy0

    m11 = p * p + q * q
    m12 = q * (p + r)
    m22 = q * q + r * r
    mx = p * hx + q * hy
    my = q * hx + r * hy
    blur = lambda a: ndimage.uniform_filter(a, size=winsize, mode="nearest")
    m11, m12, m22, mx, my = blur(m11), blur(m12), blur(m22), blur(mx), blur(my)

    det = m11 * m22 - m12 * m12 + SOLVE_REGULARIZATION
    return (m22 * mx - m12 * my) / det, (m11 * my - m12 * mx) / det


class TestBilinearWarp:
    """The gather warp is map_coordinates(order=1, mode="nearest") bit for bit."""

    H, W = 37, 53

    def _assert_matches_map_coordinates(self, rng, cy, cx):
        h, w = self.H, self.W
        cy, cx = np.clip(cy, 0, h - 1), np.clip(cx, 0, w - 1)
        warp = _bilinear_warp(cy, cx, (h, w))
        for plane in (texture(rng, h, w), rng.normal(0.0, 1e3, (h, w))):
            ref = ndimage.map_coordinates(plane, [cy, cx], order=1, mode="nearest")
            assert np.array_equal(warp(plane), ref)

    def test_fractions_along_top_and_left_edges(self, rng):
        # Products of uniforms carry mantissa bits below 2**-53, where 1 - c
        # rounds: there w1 = 1 - w0 and w1 = c - floor(c) differ.
        h, w = self.H, self.W
        cy = rng.uniform(0.0, 1.0, (h, w)) * rng.uniform(0.0, 1.0, (h, w))
        cx = rng.uniform(0.0, w - 1, (h, w))
        left = rng.uniform(size=(h, w)) < 0.5
        cy[left] = rng.uniform(0.0, h - 1, left.sum())
        cx[left] = rng.uniform(0.0, 1.0, left.sum()) * rng.uniform(0.0, 1.0, left.sum())
        cy[0, :6] = [0.0, 0.1, 1 / 3, np.nextafter(1.0, 0.0), 1e-300, 0.25]
        cx[1, :6] = [0.0, 0.1, 1 / 3, np.nextafter(1.0, 0.0), 1e-300, 0.75]
        self._assert_matches_map_coordinates(rng, cy, cx)

    def test_exact_integers_including_last_row_and_column(self, rng):
        h, w = self.H, self.W
        cy = rng.integers(0, h, (h, w)).astype(np.float64)
        cx = rng.integers(0, w, (h, w)).astype(np.float64)
        cy[:, 0], cx[0, :] = h - 1, w - 1
        cy[-1, -1], cx[-1, -1] = h - 1, w - 1
        self._assert_matches_map_coordinates(rng, cy, cx)

    def test_points_clipped_from_far_outside(self, rng):
        h, w = self.H, self.W
        cy = rng.choice([-1e6, -3.5, -0.2, h - 0.8, h + 4.0, 1e9], (h, w))
        cx = rng.choice([-1e6, -7.0, -0.3, w - 0.6, w + 2.5, 1e9], (h, w))
        mixed = rng.uniform(size=(h, w)) < 0.3
        cy[mixed] = rng.uniform(-2.0, h + 1.0, mixed.sum())
        cx[mixed] = rng.uniform(-2.0, w + 1.0, mixed.sum())
        self._assert_matches_map_coordinates(rng, cy, cx)


class TestDisplacementUpdateOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_bit_equal_to_map_coordinates_update(self, seed):
        rng = np.random.default_rng(seed)
        h, w = 67, 120
        img1 = texture(rng, h, w)
        img2 = np.roll(img1, (int(rng.integers(-4, 5)), int(rng.integers(-4, 5))), (0, 1))
        img2 = img2 + rng.normal(0.0, 2.0, (h, w))
        poly1 = polynomial_expansion(img1, 5, 1.2)
        poly2 = polynomial_expansion(img2, 5, 1.2)
        # shifts up to +-6 px, enough to push many warps off every border
        dx = rng.uniform(-6.0, 6.0, (h, w))
        dy = rng.uniform(-6.0, 6.0, (h, w))
        for _ in range(3):
            new = _displacement_update(poly1, poly2, dx, dy, 15)
            ref = map_coordinates_update(poly1, poly2, dx, dy, 15)
            assert np.array_equal(new[0], ref[0]) and np.array_equal(new[1], ref[1])
            dx, dy = new


# The row-at-a-time polynomial expansion, warp and update as they were before
# the banded update and the shared horizontal passes, copied verbatim (the
# expansion returns its planes in a namespace). The current code must match
# them bit for bit.


def oracle_polynomial_expansion(gray, poly_n, poly_sigma):
    gray = np.asarray(gray, dtype=np.float64)
    n = poly_n // 2
    t = np.arange(-n, n + 1, dtype=np.float64)
    g = np.exp(-(t * t) / (2.0 * poly_sigma * poly_sigma))
    g /= g.sum()
    tg = t * g
    ttg = t * t * g

    def corr(img, wx, wy):
        tmp = ndimage.correlate1d(img, wx, axis=1, mode="nearest")
        return ndimage.correlate1d(tmp, wy, axis=0, mode="nearest")

    p1 = corr(gray, g, g)
    px = corr(gray, tg, g)
    py = corr(gray, g, tg)
    pxx = corr(gray, ttg, g)
    pyy = corr(gray, g, ttg)
    pxy = corr(gray, tg, tg)

    m2 = float(np.sum(ttg))
    m4 = float(np.sum(t * t * ttg))
    m22 = m2 * m2
    # (c, axx, ayy) couple through the shared even moments.
    coupling = np.linalg.inv(
        np.array([[1.0, m2, m2], [m2, m4, m22], [m2, m22, m4]])
    )
    c = coupling[0, 0] * p1 + coupling[0, 1] * pxx + coupling[0, 2] * pyy
    axx = coupling[1, 0] * p1 + coupling[1, 1] * pxx + coupling[1, 2] * pyy
    ayy = coupling[2, 0] * p1 + coupling[2, 1] * pxx + coupling[2, 2] * pyy
    return SimpleNamespace(c=c, bx=px / m2, by=py / m2, axx=axx, ayy=ayy, axy=pxy / m22)


def oracle_bilinear_warp(cy, cx):
    h, w = cy.shape
    fy, fx = np.floor(cy), np.floor(cx)
    wy0 = 1.0 - (cy - fy)
    wx0 = 1.0 - (cx - fx)
    wy1, wx1 = 1.0 - wy0, 1.0 - wx0
    iy, ix = fy.astype(np.intp), fx.astype(np.intp)
    del fy, fx
    # The far neighbour clamps to the last row or column, where its weight is 0.
    right = ix < w - 1
    i00 = iy * w + ix
    i01 = i00 + right
    i10 = i00 + np.where(iy < h - 1, w, 0)
    i11 = i10 + right
    del iy, ix, right

    def warp(plane):
        flat = plane.ravel()
        out = (flat.take(i00) * wy0) * wx0
        out += (flat.take(i01) * wy0) * wx1
        out += (flat.take(i10) * wy1) * wx0
        out += (flat.take(i11) * wy1) * wx1
        return out

    return warp


def oracle_displacement_update(poly1, poly2, dx0, dy0, winsize):
    h, w = dx0.shape
    wx = np.arange(w, dtype=np.float64) + dx0
    wy = np.arange(h, dtype=np.float64)[:, None] + dy0
    inside = (wx >= 0) & (wx <= w - 1) & (wy >= 0) & (wy <= h - 1)
    warp = oracle_bilinear_warp(np.clip(wy, 0, h - 1), np.clip(wx, 0, w - 1))
    del wx, wy

    p = 0.5 * (poly1.axx + warp(poly2.axx))
    r = 0.5 * (poly1.ayy + warp(poly2.ayy))
    q = 0.25 * (poly1.axy + warp(poly2.axy))
    hx = -0.5 * (warp(poly2.bx) - poly1.bx)
    hy = -0.5 * (warp(poly2.by) - poly1.by)
    del warp
    # Where the warp leaves the frame there is no data term: fall back to the
    # single-frame quadratic and let the prior displacement carry through.
    p = np.where(inside, p, poly1.axx)
    r = np.where(inside, r, poly1.ayy)
    q = np.where(inside, q, 0.5 * poly1.axy)
    hx = np.where(inside, hx, 0.0) + p * dx0 + q * dy0
    hy = np.where(inside, hy, 0.0) + q * dx0 + r * dy0

    m11 = p * p + q * q
    m12 = q * (p + r)
    m22 = q * q + r * r
    mx = p * hx + q * hy
    my = q * hx + r * hy
    blur = lambda a: ndimage.uniform_filter(a, size=winsize, mode="nearest")
    m11, m12, m22, mx, my = blur(m11), blur(m12), blur(m22), blur(mx), blur(my)

    det = m11 * m22 - m12 * m12 + SOLVE_REGULARIZATION
    return (m22 * mx - m12 * my) / det, (m11 * my - m12 * mx) / det


def oracle_flow(prev, cur, params=FlowParams()):
    """farneback_flow composed from the oracle expansion and update."""
    height, width = prev.shape
    dims = _pyramid_dims(width, height, params)

    def expand(gray):
        return [
            oracle_polynomial_expansion(
                _level_image(gray, params.pyr_scale**k, w, h), params.poly_n, params.poly_sigma
            )
            for k, (w, h) in enumerate(dims)
        ]

    polys1, polys2 = expand(prev), expand(cur)
    dx = dy = None
    for k in range(len(dims) - 1, -1, -1):
        w, h = dims[k]
        if dx is None:
            dx, dy = np.zeros((h, w)), np.zeros((h, w))
        else:
            prev_h, prev_w = dx.shape
            dx = resize_bilinear(dx, w, h) * (w / prev_w)
            dy = resize_bilinear(dy, w, h) * (h / prev_h)
        for _ in range(params.iterations):
            dx, dy = oracle_displacement_update(polys1[k], polys2[k], dx, dy, params.winsize)
    return dx, dy


PLANES = ("bx", "by", "axx", "ayy", "axy")


def _textured_pair(rng, h, w):
    img1 = texture(rng, h, w)
    shift = (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
    return img1, np.roll(img1, shift, (0, 1)) + rng.normal(0.0, 2.0, (h, w))


class TestBitEqualToRowAtATimeOracle:
    @pytest.mark.parametrize("h,w", [(16, 16), (17, 23), (67, 120), (270, 480)])
    @pytest.mark.parametrize("poly_n,poly_sigma", [(5, 1.2), (7, 1.5)])
    def test_expansion_planes(self, rng, h, w, poly_n, poly_sigma):
        gray = texture(rng, h, w)
        got = polynomial_expansion(gray, poly_n, poly_sigma)
        ref = oracle_polynomial_expansion(gray, poly_n, poly_sigma)
        for name in PLANES:
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name

    def test_expansion_writes_into_the_given_block(self, rng):
        gray = texture(rng, 30, 41)
        block = np.full((5, 30, 41), np.nan)
        got = polynomial_expansion(gray, 5, 1.2, block)
        ref = oracle_polynomial_expansion(gray, 5, 1.2)
        for plane, name in zip(block, PLANES):
            assert np.shares_memory(getattr(got, name), plane)
            assert np.array_equal(plane, getattr(ref, name)), name

    # Heights below, at and off a multiple of the band height; displacements
    # up to +-20 px push many warps out of the frame on every side.
    @pytest.mark.parametrize(
        "h,w", [(16, 16), (17, 23), (32, 40), (67, 120), (135, 240), (270, 480), (271, 481)]
    )
    def test_update(self, rng, h, w):
        img1, img2 = _textured_pair(rng, h, w)
        poly1 = oracle_polynomial_expansion(img1, 5, 1.2)
        poly2 = oracle_polynomial_expansion(img2, 5, 1.2)
        dx = rng.uniform(-20.0, 20.0, (h, w))
        dy = rng.uniform(-20.0, 20.0, (h, w))
        dx[: h // 3], dy[: h // 3] = rng.uniform(-1.0, 1.0, (2, h // 3, w))  # mostly inside
        for _ in range(3):
            new = _displacement_update(poly1, poly2, dx, dy, 15)
            ref = oracle_displacement_update(poly1, poly2, dx, dy, 15)
            assert np.array_equal(new[0], ref[0]) and np.array_equal(new[1], ref[1])
            dx, dy = new

    def test_update_with_every_warp_inside(self, rng):
        h, w = 90, 160
        img1, img2 = _textured_pair(rng, h, w)
        poly1 = oracle_polynomial_expansion(img1, 5, 1.2)
        poly2 = oracle_polynomial_expansion(img2, 5, 1.2)
        dx = np.zeros((h, w))
        dy = np.zeros((h, w))
        new = _displacement_update(poly1, poly2, dx, dy, 15)
        ref = oracle_displacement_update(poly1, poly2, dx, dy, 15)
        assert np.array_equal(new[0], ref[0]) and np.array_equal(new[1], ref[1])

    def test_farneback_flow_through_flow_frames(self, rng):
        h, w = 270, 480
        frames = [texture(rng, h, w)]
        for shift in ((2, 1), (-3, 0)):
            frames.append(np.roll(frames[-1], shift, (1, 0)) + rng.normal(0.0, 1.0, (h, w)))
        cached = [FlowFrame(f) for f in frames]
        for a, b, fa, fb in zip(frames, frames[1:], cached, cached[1:]):
            field = farneback_flow(fa, fb)
            ref_dx, ref_dy = oracle_flow(a, b)
            assert np.array_equal(field.dx, ref_dx) and np.array_equal(field.dy, ref_dy)


class TestFlowFrame:
    def test_cached_expansions_give_the_same_bits(self, rng):
        frames = [texture(rng, 135, 240)]
        for shift in (2, 3, 0):
            frames.append(np.roll(frames[-1], shift, axis=1) + rng.normal(0, 1, (135, 240)))
        cached = [FlowFrame(f) for f in frames]
        for a, b, fa, fb in zip(frames, frames[1:], cached, cached[1:]):
            plain = farneback_flow(a, b)
            via_cache = farneback_flow(fa, fb)
            assert np.array_equal(plain.dx, via_cache.dx)
            assert np.array_equal(plain.dy, via_cache.dy)
        # every frame was expanded once, however many pairs it took part in
        assert all(len(f.expansions) == 1 for f in cached)

    def test_expansions_are_keyed_by_the_parameters_they_depend_on(self, rng):
        prev, cur = shifted_pair(rng, 2, 1, width=160, height=90)
        a, b = FlowFrame(prev), FlowFrame(cur)
        farneback_flow(a, b)
        other = FlowParams(poly_n=7, poly_sigma=1.5)
        field = farneback_flow(a, b, other)
        plain = farneback_flow(prev, cur, other)
        assert np.array_equal(field.dx, plain.dx) and np.array_equal(field.dy, plain.dy)
        assert len(a.expansions) == len(b.expansions) == 2

    def test_a_cached_frame_skips_its_pyramid_and_expansion(self, rng):
        prev, cur = shifted_pair(rng, 1, 0, width=160, height=90)
        a, b = FlowFrame(prev), FlowFrame(cur)
        farneback_flow(a, b)
        timings = {}
        farneback_flow(a, b, FlowParams(), timings)
        assert set(timings) == {"update"}


class TestRoiMotion:
    def _field(self, dx, dy):
        return FlowField(width=dx.shape[1], height=dx.shape[0], dx=dx, dy=dy)

    def test_three_four_five(self):
        f = self._field(np.full((20, 30), 3.0), np.full((20, 30), 4.0))
        mask = RoiMask.scene(30, 20)
        assert roi_motion(f, mask) == pytest.approx(5.0)

    def test_zero_flow(self):
        f = self._field(np.zeros((20, 30)), np.zeros((20, 30)))
        assert roi_motion(f, RoiMask.scene(30, 20)) == 0.0

    def test_matches_per_pixel_sum_oracle(self, rng):
        dx = rng.normal(size=(27, 48))
        dy = rng.normal(size=(27, 48))
        bits = rng.uniform(size=(27, 48)) < 0.3
        bits[3, 7] = True  # keep non-empty
        mask = RoiMask("bed", 48, 27, bits)
        # brute force: accumulate pixel by pixel
        total, count = 0.0, 0
        for y in range(27):
            for x in range(48):
                if bits[y, x]:
                    total += (dx[y, x] ** 2 + dy[y, x] ** 2) ** 0.5
                    count += 1
        assert roi_motion(self._field(dx, dy), mask) == pytest.approx(
            total / count, abs=1e-9
        )

    def test_scaling_is_exactly_linear(self, rng):
        dx = rng.normal(size=(27, 48))
        dy = rng.normal(size=(27, 48))
        mask = RoiMask.scene(48, 27)
        base = roi_motion(self._field(dx, dy), mask)
        for k in (0.0, 0.5, 2.0, 7.25):
            scaled = roi_motion(self._field(k * dx, k * dy), mask)
            assert scaled == pytest.approx(k * base, rel=1e-12, abs=1e-12)

    def test_opposing_motions_do_not_cancel(self):
        dx = np.array([[1.0, -1.0]])
        dy = np.zeros((1, 2))
        assert roi_motion(self._field(dx, dy), RoiMask.scene(2, 1)) == pytest.approx(1.0)

    def test_bit_equal_to_hypot_of_the_masked_pixels(self, rng):
        h, w = 270, 480
        dx, dy = rng.normal(0.0, 2.0, (2, h, w))
        field = self._field(dx, dy)
        zone = expand_polygon(Polygon(((180, 110), (330, 110), (330, 250), (180, 250))), 0.1)
        masks = [
            RoiMask.scene(w, h),
            bed_roi_from_detection(make_record("s", 0), w, h),
            rasterize(zone, w, h),
            RoiMask("bed", w, h, rng.uniform(size=(h, w)) < 0.3),
        ]
        for mask in masks:
            bits = mask.bits
            assert roi_motion(field, mask) == float(np.hypot(dx[bits], dy[bits]).mean())

    def test_magnitude_is_computed_once_and_read_only(self, rng):
        field = self._field(*rng.normal(size=(2, 27, 48)))
        mag = field.magnitude()
        assert field.magnitude() is mag and not mag.flags.writeable
        assert np.array_equal(mag, np.hypot(field.dx, field.dy))

    def test_empty_mask_raises(self):
        f = self._field(np.zeros((4, 4)), np.zeros((4, 4)))
        empty = RoiMask("bed", 4, 4, np.zeros((4, 4), dtype=bool))
        with pytest.raises(EmptyMask):
            roi_motion(f, empty)

    def test_dimension_mismatch(self):
        f = self._field(np.zeros((4, 4)), np.zeros((4, 4)))
        with pytest.raises(DimensionMismatch):
            roi_motion(f, RoiMask.scene(5, 5))


class TestGrayscaleDownsample:
    """BT.601 luma resized bilinearly to the 480x270 flow resolution."""

    def _gray(self, pixels):
        return resize_bilinear(to_grayscale(pixels), 480, 270)

    def test_white_rgb_frame(self):
        gray = self._gray(np.full((540, 960, 3), 255, dtype=np.uint8))
        assert gray.shape == (270, 480)
        assert np.allclose(gray, 255.0)

    def test_nir_passthrough_resize(self, rng):
        pixels = rng.integers(0, 256, size=(270, 480, 1), dtype=np.uint8)
        gray = self._gray(pixels)
        assert np.array_equal(gray, pixels[:, :, 0].astype(float))

    def test_checkerboard_mean_preserved(self):
        board = np.indices((540, 960)).sum(axis=0) % 2 * 255
        gray = self._gray(board[:, :, None].astype(np.uint8))
        assert gray.shape == (270, 480)
        assert abs(gray.mean() - board.mean()) <= 1.0

    def test_bt601_weights(self):
        pixels = np.zeros((270, 480, 3), dtype=np.uint8)
        pixels[:, :, 0] = 100  # red only
        gray = self._gray(pixels)
        assert np.allclose(gray, 29.9)
