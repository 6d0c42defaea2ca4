"""Separable image resampling and grayscale conversion.

Both resizers use the pixel-center coordinate mapping
src = (dst + 0.5) * (in_size / out_size) - 0.5 with edge clamping, so an
identity resize is bit-exact and an exact 2x downsample averages 2x2 blocks.
"""

from __future__ import annotations

import numpy as np

BT601_WEIGHTS = (0.299, 0.587, 0.114)


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
