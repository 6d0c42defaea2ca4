"""Separable image resampling and grayscale conversion.

Both resizers use the pixel-center coordinate mapping
src = (dst + 0.5) * (in_size / out_size) - 0.5 with edge clamping, so an
identity resize is bit-exact and an exact 2x downsample averages 2x2 blocks.
resize_luma_via gives the bits of two bilinear resizes with luma between them
without building the intermediate image.
"""

from __future__ import annotations

from functools import cache

import numpy as np

BT601_WEIGHTS = (0.299, 0.587, 0.114)
# Output rows per band of resize_luma_via: a band's intermediate rows and
# input rows stay in cache between the passes.
LUMA_BAND_ROWS = 16


def to_grayscale(pixels: np.ndarray) -> np.ndarray:
    """Luma via BT.601 weights; single-channel input passes through."""
    img = np.asarray(pixels, dtype=np.float64)
    if img.ndim == 2:
        return img
    if img.shape[2] == 1:
        return img[:, :, 0]
    r, g, b = BT601_WEIGHTS
    return r * img[:, :, 0] + g * img[:, :, 1] + b * img[:, :, 2]


def _linear_taps(in_size: int, out_size: int):
    """Per-output-pixel source indices and tent weights for one axis."""
    dst = np.arange(out_size, dtype=np.float64)
    src = (dst + 0.5) * (in_size / out_size) - 0.5
    i0 = np.floor(src).astype(np.int64)
    frac = src - i0
    lo = np.clip(i0, 0, in_size - 1)
    hi = np.clip(i0 + 1, 0, in_size - 1)
    return lo, hi, frac


def resize_bilinear(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bilinear resample to (out_h, out_w); channels-last input allowed.

    The taps are gathered in the input's own dtype and promoted to float64 by
    the weight multiply, so an 8-bit frame is never copied whole to float64.
    """
    img = np.asarray(img)
    in_h, in_w = img.shape[:2]
    if (in_w, in_h) == (out_w, out_h):
        return img.astype(np.float64)
    xlo, xhi, xf = _linear_taps(in_w, out_w)
    ylo, yhi, yf = _linear_taps(in_h, out_h)
    # horizontal pass
    xf = xf.reshape((1, out_w) + (1,) * (img.ndim - 2))
    row = img[:, xlo] * (1.0 - xf) + img[:, xhi] * xf
    # vertical pass
    yf = yf.reshape((out_h,) + (1,) * (img.ndim - 1))
    return row[ylo] * (1.0 - yf) + row[yhi] * yf


def _tap_set(lo, hi, frac, keep=None):
    """Read-only (lo, hi, 1 - frac, frac) of one axis. Given keep, the sorted
    indices of the only samples computed, lo and hi become positions in keep.
    """
    if keep is not None:
        lo, hi = np.searchsorted(keep, lo), np.searchsorted(keep, hi)
    taps = (lo, hi, 1.0 - frac, frac)
    for a in taps:
        a.flags.writeable = False
    return taps


@cache
def _luma_plan(in_w: int, in_h: int, mid_w: int, mid_h: int, out_w: int, out_h: int):
    """Taps of resize_luma_via for one (in, mid, out) size triple.

    Columns: the second stage reads only the intermediate columns in
    unique(lo, hi), so the first stage's horizontal taps are kept for those
    columns alone. Rows: one entry per band of LUMA_BAND_ROWS output rows,
    holding the input rows the band needs and the taps of the intermediate
    rows it reads.
    """
    xlo, xhi, xf = _linear_taps(mid_w, out_w)
    cols = np.union1d(xlo, xhi)
    x1 = _tap_set(*(a[cols] for a in _linear_taps(in_w, mid_w)))
    x2 = _tap_set(xlo, xhi, xf, keep=cols)
    y1lo, y1hi, y1f = _linear_taps(in_h, mid_h)
    y2lo, y2hi, y2f = _linear_taps(mid_h, out_h)
    bands = []
    for r0 in range(0, out_h, LUMA_BAND_ROWS):
        rows = slice(r0, r0 + LUMA_BAND_ROWS)
        mids = np.union1d(y2lo[rows], y2hi[rows])
        ins = np.union1d(y1lo[mids], y1hi[mids])
        ins.flags.writeable = False
        y1 = _tap_set(y1lo[mids], y1hi[mids], y1f[mids], keep=ins)
        y2 = _tap_set(y2lo[rows], y2hi[rows], y2f[rows], keep=mids)
        bands.append((rows, ins, y1, y2))
    return x1, x2, tuple(bands)


def _lerp(a, lo, hi, w0, w1, axis, out=None):
    """a.take(lo) * w0 + a.take(hi) * w1 along one axis."""
    out = np.take(a, lo, axis=axis, out=out)
    out *= w0
    term = np.take(a, hi, axis=axis)
    term *= w1
    out += term
    return out


def resize_luma_via(img: np.ndarray, mid_w: int, mid_h: int, out_w: int, out_h: int) -> np.ndarray:
    """Luma of an image resampled to (mid_h, mid_w), resampled to (out_h, out_w).

    Returns exactly
    resize_bilinear(to_grayscale(resize_bilinear(img, mid_w, mid_h)), out_w, out_h)
    for finite input, without building the intermediate image: each band of
    output rows computes only the intermediate pixels it reads, from only the
    input rows those read. Every element goes through the same operations in
    the same order (a*(1-f) + b*f along x, then along y; luma; then the same
    again at the output size), and rows shared by two bands are computed in
    both, so the bits do not depend on the banding. A stage whose sizes
    already match also runs through its taps, whose weights are 1 and 0
    there, which reproduces the early return's astype(float64) for finite
    input. Each band is worked channel by channel (one contiguous plane per
    channel), which changes no element's arithmetic.
    """
    img = np.asarray(img)
    if img.ndim == 2:
        img = img[:, :, None]
    in_h, in_w = img.shape[:2]
    (xlo1, xhi1, xw0, xw1), (xlo2, xhi2, uw0, uw1), bands = _luma_plan(
        in_w, in_h, mid_w, mid_h, out_w, out_h
    )
    out = np.empty((out_h, out_w))
    for rows, ins, (ylo1, yhi1, yw0, yw1), (ylo2, yhi2, vw0, vw1) in bands:
        planes = img[ins].transpose(2, 0, 1).astype(np.float64, order="C")
        row = _lerp(planes, xlo1, xhi1, xw0, xw1, axis=2)
        mid = _lerp(row, ylo1, yhi1, yw0[:, None], yw1[:, None], axis=1)
        gray = to_grayscale(mid.transpose(1, 2, 0))
        row = _lerp(gray, xlo2, xhi2, uw0, uw1, axis=1)
        _lerp(row, ylo2, yhi2, vw0[:, None], vw1[:, None], axis=0, out=out[rows])
    return out


def _cubic_kernel(t: np.ndarray, a: float = -0.5) -> np.ndarray:
    """Keys cubic kernel; a=-0.5 is Catmull-Rom."""
    t = np.abs(t)
    t2 = t * t
    t3 = t2 * t
    near = (a + 2.0) * t3 - (a + 3.0) * t2 + 1.0
    far = a * t3 - 5.0 * a * t2 + 8.0 * a * t - 4.0 * a
    return np.where(t < 1.0, near, np.where(t < 2.0, far, 0.0))


def _cubic_taps(in_size: int, out_size: int):
    dst = np.arange(out_size, dtype=np.float64)
    src = (dst + 0.5) * (in_size / out_size) - 0.5
    base = np.floor(src).astype(np.int64)
    offsets = np.arange(-1, 3)
    idx = base[:, None] + offsets[None, :]
    weights = _cubic_kernel(src[:, None] - idx)
    weights /= weights.sum(axis=1, keepdims=True)
    return np.clip(idx, 0, in_size - 1), weights


def resize_bicubic(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Catmull-Rom (a=-0.5) resample to (out_h, out_w)."""
    img = np.asarray(img, dtype=np.float64)
    in_h, in_w = img.shape[:2]
    if (in_w, in_h) == (out_w, out_h):
        return img.copy()
    xidx, xw = _cubic_taps(in_w, out_w)
    yidx, yw = _cubic_taps(in_h, out_h)
    trailing = (1,) * (img.ndim - 2)
    row = np.zeros((in_h, out_w) + img.shape[2:], dtype=np.float64)
    for k in range(4):
        row += img[:, xidx[:, k]] * xw[:, k].reshape((1, out_w) + trailing)
    out = np.zeros((out_h, out_w) + img.shape[2:], dtype=np.float64)
    for k in range(4):
        out += row[yidx[:, k]] * yw[:, k].reshape((out_h, 1) + trailing)
    return out


def to_uint8(img: np.ndarray) -> np.ndarray:
    out = np.rint(img)
    return np.clip(out, 0, 255, out=out).astype(np.uint8)
