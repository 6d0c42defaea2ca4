"""Dense optical flow via local polynomial expansion, plus per-ROI motion.

Each image is approximated around every pixel by a quadratic polynomial
f(u) ~ u'Au + b'u + c fitted by Gaussian-weighted least squares over a
poly_n x poly_n neighborhood. Under a local translation d the linear
coefficients of the two frames satisfy A d = -(b2 - b1)/2, which is solved
per pixel in least squares over a winsize box, iterated and propagated
coarse-to-fine through an image pyramid.

Displacements are in pixels per frame; positive dx points right, positive
dy points down, and the field maps the previous frame onto the current one
(cur(x + d(x)) ~ prev(x)).

scipy is imported inside the functions that call it, so the read and replay
commands start without loading it; tests/test_cli.py enforces this.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from math import inf
from typing import Mapping, Optional

import numpy as np

from .errors import DimensionMismatch, EmptyMask
from .imageops import resize_bilinear
from .model import FlowParams, check_session_and_ts, real_number, slot_init

from .geometry import ROI_KINDS, RoiMask

MIN_PYRAMID_DIM = 16
# Keeps the 2x2 normal equations solvable on textureless patches; negligible
# against gradient energy at 0..255 intensity scale.
SOLVE_REGULARIZATION = 1e-3
# Rows per band of the displacement update's pointwise stages: small enough
# that a band's temporaries stay in cache. At 480x270, 16 to 64 rows timed
# alike and 96 rows slower.
STRIP_ROWS = 32

_ROI_KIND_SET = frozenset(ROI_KINDS)
# Each ROI kind to the ROI_KINDS entry itself, so that every record shares it.
_SHARED_KIND = {k: k for k in ROI_KINDS}


@dataclass(frozen=True)
class FlowField:
    width: int
    height: int
    dx: np.ndarray
    dy: np.ndarray

    def __post_init__(self):
        for plane in (self.dx, self.dy):
            if plane.shape != (self.height, self.width):
                raise ValueError("flow plane shape must be (height, width)")
            if not np.all(np.isfinite(plane)):
                raise ValueError("flow planes must be finite")

    def magnitude(self) -> np.ndarray:
        """Per-pixel |d|, computed on the first call and shared read-only."""
        return self._magnitude

    @cached_property
    def _magnitude(self) -> np.ndarray:
        mag = np.hypot(self.dx, self.dy)
        mag.flags.writeable = False
        return mag


@slot_init
@dataclass(frozen=True, slots=True)
class MotionRecord:
    """Per-second average motion magnitude for each available ROI.

    Checked on construction: session_id and ts as in DetectionRecord, every
    key an ROI kind and every magnitude a real number, not a bool, finite and
    >= 0, kept as a float. magnitudes is then a new dict, in the input's
    order, keyed by the ROI_KINDS entries themselves.
    """

    session_id: str
    ts: int
    magnitudes: Mapping[str, float]

    def __post_init__(self):
        check_session_and_ts(self.session_id, self.ts)
        if not self.magnitudes.keys() <= _ROI_KIND_SET:
            unknown = sorted(self.magnitudes.keys() - _ROI_KIND_SET, key=str)
            raise ValueError(f"unknown motion keys {unknown}")
        mags = {}
        for k, v in self.magnitudes.items():
            if type(v) is not float:
                v = float(real_number(f"motion {k}", v))
            if not 0.0 <= v < inf:
                raise ValueError(f"motion magnitude for {k} must be finite and >= 0: {v}")
            mags[_SHARED_KIND[k]] = v
        object.__setattr__(self, "magnitudes", mags)


@dataclass(frozen=True)
class PolyExpansion:
    """Per-pixel quadratic coefficients f ~ c + bx*x + by*y + axx*x^2 + ayy*y^2 + axy*x*y.

    The constant term c is part of the fit but is not kept: no flow stage
    reads it.
    """

    bx: np.ndarray
    by: np.ndarray
    axx: np.ndarray
    ayy: np.ndarray
    axy: np.ndarray


class FlowFrame:
    """A grayscale frame and, once farneback_flow has needed them, the
    polynomial expansions of its pyramid levels.

    Passing the same FlowFrame again (as the next pair's previous frame)
    reuses the expansions instead of computing them twice. They depend only on
    the image and the flow parameters, so the flow is the same bits either way.
    """

    def __init__(self, gray: np.ndarray):
        self.gray = np.asarray(gray, dtype=np.float64)
        self.expansions: dict[tuple, list[PolyExpansion]] = {}


def polynomial_expansion(
    gray: np.ndarray, poly_n: int, poly_sigma: float, out: Optional[np.ndarray] = None
) -> PolyExpansion:
    """Gaussian-weighted quadratic fit around every pixel.

    poly_n is the (odd) neighborhood width; borders use replicate padding.
    The normal-equation matrix is constant across pixels, so the fit reduces
    to six separable correlations followed by a fixed linear combination. The
    six share their horizontal passes: three along x (g, t*g, t*t*g), six
    along y. out, if given, is a (5, h, w) array that receives the planes in
    PolyExpansion's field order.
    """
    from scipy import ndimage

    gray = np.asarray(gray, dtype=np.float64)
    if out is None:
        out = np.empty((5,) + gray.shape)
    bx, by, axx, ayy, axy = out
    n = poly_n // 2
    t = np.arange(-n, n + 1, dtype=np.float64)
    g = np.exp(-(t * t) / (2.0 * poly_sigma * poly_sigma))
    g /= g.sum()
    tg = t * g
    ttg = t * t * g
    m2 = float(np.sum(ttg))
    m4 = float(np.sum(t * t * ttg))
    m22 = m2 * m2

    def along_x(weights):
        return ndimage.correlate1d(gray, weights, axis=1, mode="nearest")

    def along_y(img, weights, output=None):
        return ndimage.correlate1d(img, weights, axis=0, mode="nearest", output=output)

    x_pass = along_x(g)
    p1 = along_y(x_pass, g)
    pyy = along_y(x_pass, ttg)
    along_y(x_pass, tg, by)
    by /= m2
    x_pass = along_x(tg)
    along_y(x_pass, g, bx)
    bx /= m2
    along_y(x_pass, tg, axy)
    axy /= m22
    x_pass = along_x(ttg)
    pxx = along_y(x_pass, g)

    # (c, axx, ayy) couple through the shared even moments.
    coupling = np.linalg.inv(
        np.array([[1.0, m2, m2], [m2, m4, m22], [m2, m22, m4]])
    )
    term = x_pass
    for dst, row in ((axx, coupling[1]), (ayy, coupling[2])):
        np.multiply(p1, row[0], out=dst)
        dst += np.multiply(pxx, row[1], out=term)
        dst += np.multiply(pyy, row[2], out=term)
    return PolyExpansion(*out)


def _pyramid_dims(width: int, height: int, params: FlowParams) -> list[tuple[int, int]]:
    """Per-level (w, h), finest first; levels below MIN_PYRAMID_DIM are dropped."""
    dims = []
    for k in range(params.levels):
        s = params.pyr_scale**k
        w, h = int(width * s), int(height * s)
        if min(w, h) < MIN_PYRAMID_DIM:
            break
        dims.append((w, h))
    return dims


def _level_image(gray: np.ndarray, scale: float, w: int, h: int) -> np.ndarray:
    """Anti-alias blur matched to the scale, then bilinear resample."""
    from scipy import ndimage

    sigma = (1.0 / scale - 1.0) * 0.5
    if sigma > 1e-2:
        gray = ndimage.gaussian_filter(gray, sigma, mode="nearest")
    return resize_bilinear(gray, w, h)


def _expand_pyramid(
    gray: np.ndarray, dims: list[tuple[int, int]], params: FlowParams, clock
) -> list[PolyExpansion]:
    """Polynomial expansion of every pyramid level, finest first.

    The planes of all levels share one block: a FlowFrame keeps them past the
    call, and as one allocation they leave no small holes between the
    short-lived arrays of the next frame (a lower peak RSS, as measured).
    """
    block = np.empty(5 * sum(w * h for w, h in dims))
    levels, start = [], 0
    for k, (w, h) in enumerate(dims):
        t0 = time.perf_counter()
        img = _level_image(gray, params.pyr_scale**k, w, h)
        clock("pyramid", t0)
        t0 = time.perf_counter()
        planes = block[start : start + 5 * w * h].reshape(5, h, w)
        levels.append(polynomial_expansion(img, params.poly_n, params.poly_sigma, planes))
        start += 5 * w * h
        clock("poly_exp", t0)
    return levels


def _bilinear_warp(cy: np.ndarray, cx: np.ndarray, shape: tuple[int, int]):
    """Sampler of (h, w) = shape planes at in-frame coordinates (clipped to
    the image).

    Bit-identical to map_coordinates(plane, [cy, cx], order=1, mode="nearest")
    because it uses scipy's weights and accumulation order. The weights must be
    w0 = 1 - (c - floor(c)) and w1 = 1 - w0: for 0 < c < 1, where 1 - c can
    round, w1 = c - floor(c) would differ in the last bit. The indices and
    weights are built once and shared by every plane warped with the same
    displacement. cy and cx may cover only some rows of the plane (a band of
    the displacement update): the indices address the whole plane.
    """
    h, w = shape
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

    def warp(plane: np.ndarray) -> np.ndarray:
        flat = plane.ravel()
        out = flat.take(i00)
        out *= wy0
        out *= wx0
        for idx, wy_, wx_ in ((i01, wy0, wx1), (i10, wy1, wx0), (i11, wy1, wx1)):
            term = flat.take(idx)
            term *= wy_
            term *= wx_
            out += term
        return out

    return warp


def _data_terms(
    poly1: PolyExpansion,
    poly2: PolyExpansion,
    dx0: np.ndarray,
    dy0: np.ndarray,
    rows: slice,
    out: np.ndarray,
) -> None:
    """m11, m12, m22, mx and my of one band of rows, written into out."""
    h, w = dx0.shape
    dx, dy = dx0[rows], dy0[rows]
    wx = np.arange(w, dtype=np.float64) + dx
    wy = np.arange(h, dtype=np.float64)[rows, None] + dy
    inside = (wx >= 0) & (wx <= w - 1) & (wy >= 0) & (wy <= h - 1)
    warp = _bilinear_warp(
        np.clip(wy, 0, h - 1, out=wy), np.clip(wx, 0, w - 1, out=wx), (h, w)
    )
    del wx, wy

    p = warp(poly2.axx)
    p += poly1.axx[rows]
    p *= 0.5
    r = warp(poly2.ayy)
    r += poly1.ayy[rows]
    r *= 0.5
    q = warp(poly2.axy)
    q += poly1.axy[rows]
    q *= 0.25
    hx = warp(poly2.bx)
    hx -= poly1.bx[rows]
    hx *= -0.5
    hy = warp(poly2.by)
    hy -= poly1.by[rows]
    hy *= -0.5
    del warp
    # Where the warp leaves the frame there is no data term: fall back to the
    # single-frame quadratic and let the prior displacement carry through.
    outside = np.logical_not(inside, out=inside)
    if outside.any():
        np.copyto(p, poly1.axx[rows], where=outside)
        np.copyto(r, poly1.ayy[rows], where=outside)
        np.copyto(q, 0.5 * poly1.axy[rows], where=outside)
        np.copyto(hx, 0.0, where=outside)
        np.copyto(hy, 0.0, where=outside)
    term = p * dx
    hx += term
    hx += np.multiply(q, dy, out=term)
    hy += np.multiply(q, dx, out=term)
    hy += np.multiply(r, dy, out=term)

    m11, m12, m22, mx, my = out
    qq = np.multiply(q, q, out=term)
    np.multiply(p, p, out=m11)
    m11 += qq
    np.multiply(r, r, out=m22)
    m22 += qq
    np.add(p, r, out=m12)
    m12 *= q
    np.multiply(p, hx, out=mx)
    mx += np.multiply(q, hy, out=term)
    np.multiply(q, hx, out=my)
    my += np.multiply(r, hy, out=term)


def _displacement_update(
    poly1: PolyExpansion,
    poly2: PolyExpansion,
    dx0: np.ndarray,
    dy0: np.ndarray,
    winsize: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One fixed-point refinement of the displacement field.

    The stages before and after the box filter are pointwise, so they run on
    bands of STRIP_ROWS rows whose temporaries stay in cache instead of
    streaming whole planes through memory for every operation. The box filter
    runs over each full plane: scipy's running sum depends on where each line
    starts, so filtering a band with a halo would change the last bits.
    """
    from scipy import ndimage

    h, w = dx0.shape
    bands = [slice(y0, y0 + STRIP_ROWS) for y0 in range(0, h, STRIP_ROWS)]
    terms = np.empty((5, h, w))
    for rows in bands:
        _data_terms(poly1, poly2, dx0, dy0, rows, terms[:, rows])
    for plane in terms:
        ndimage.uniform_filter(plane, size=winsize, mode="nearest", output=plane)

    dx, dy = np.empty((h, w)), np.empty((h, w))
    for rows in bands:
        m11, m12, m22, mx, my = terms[:, rows]
        det = m11 * m22
        term = m12 * m12
        det -= term
        det += SOLVE_REGULARIZATION
        for dst, a, b, c, d in ((dx[rows], m22, mx, m12, my), (dy[rows], m11, my, m12, mx)):
            np.multiply(a, b, out=dst)
            dst -= np.multiply(c, d, out=term)
            dst /= det
    return dx, dy


def farneback_flow(
    prev_gray: np.ndarray | FlowFrame,
    cur_gray: np.ndarray | FlowFrame,
    params: FlowParams = FlowParams(),
    timings: Optional[dict] = None,
) -> FlowField:
    """Coarse-to-fine dense displacement field between two grayscale images.

    Either image may be a FlowFrame: its cached level expansions are reused
    and the missing ones are computed and stored in it.
    timings, if given, accumulates per-stage wall-clock seconds under keys
    "pyramid", "poly_exp" and "update".
    """
    prev = prev_gray if isinstance(prev_gray, FlowFrame) else FlowFrame(prev_gray)
    cur = cur_gray if isinstance(cur_gray, FlowFrame) else FlowFrame(cur_gray)
    if prev.gray.shape != cur.gray.shape:
        raise DimensionMismatch(
            f"frame shapes differ: {prev.gray.shape} vs {cur.gray.shape}"
        )
    height, width = prev.gray.shape
    dims = _pyramid_dims(width, height, params)
    if not dims:
        raise DimensionMismatch(
            f"image {width}x{height} smaller than minimum pyramid level "
            f"{MIN_PYRAMID_DIM}px"
        )

    def clock(key, start):
        if timings is not None:
            timings[key] = timings.get(key, 0.0) + (time.perf_counter() - start)

    def expansions(frame: FlowFrame) -> list[PolyExpansion]:
        key = (params.pyr_scale, params.levels, params.poly_n, params.poly_sigma)
        if key not in frame.expansions:
            frame.expansions[key] = _expand_pyramid(frame.gray, dims, params, clock)
        return frame.expansions[key]

    polys1, polys2 = expansions(prev), expansions(cur)
    dx = dy = None
    for k in range(len(dims) - 1, -1, -1):
        w, h = dims[k]
        if dx is None:
            dx = np.zeros((h, w))
            dy = np.zeros((h, w))
        else:
            prev_h, prev_w = dx.shape
            dx = resize_bilinear(dx, w, h) * (w / prev_w)
            dy = resize_bilinear(dy, w, h) * (h / prev_h)

        t0 = time.perf_counter()
        for _ in range(params.iterations):
            dx, dy = _displacement_update(polys1[k], polys2[k], dx, dy, params.winsize)
        clock("update", t0)

    return FlowField(width=width, height=height, dx=dx, dy=dy)


def roi_motion(flow: FlowField, mask: RoiMask) -> float:
    """Mean per-pixel flow magnitude |d| inside a mask.

    Averaging magnitudes rather than vectors keeps opposing motions from
    canceling. The magnitude plane is computed once per field and shared by
    every ROI of it.
    """
    if (mask.width, mask.height) != (flow.width, flow.height):
        raise DimensionMismatch(
            f"mask {mask.width}x{mask.height} vs flow {flow.width}x{flow.height}"
        )
    bits = mask.bits
    if not bits.any():
        raise EmptyMask(f"ROI mask {mask.kind!r} selects no pixels")
    return float(flow.magnitude()[bits].mean())
