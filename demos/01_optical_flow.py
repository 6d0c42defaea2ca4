#!/usr/bin/env python3
"""Dense optical flow on synthetic motion.

Builds a band-limited random texture, translates it by known integer amounts,
and shows that the coarse-to-fine polynomial-expansion flow recovers the
shift to well under half a pixel, inside the 1-second-per-frame budget.
"""

import time

import numpy as np
from scipy import ndimage

from ward_sentinel import FlowParams, farneback_flow, roi_motion

rng = np.random.default_rng(42)

# a textured scene: smoothed uniform noise stretched to full dynamic range
margin = 8
h, w = 270, 480
base = ndimage.gaussian_filter(
    rng.uniform(0, 255, size=(h + 2 * margin, w + 2 * margin)), 2.0, mode="wrap"
)
base = (base - base.min()) * 255.0 / (base.max() - base.min())

print("true shift   estimated (interior mean)   per-pair time")
for sx, sy in [(3, 0), (-2, 4), (5, 5), (0, 0)]:
    prev = base[margin : margin + h, margin : margin + w]
    cur = base[margin - sy : margin - sy + h, margin - sx : margin - sx + w]
    t0 = time.perf_counter()
    field = farneback_flow(prev, cur, FlowParams())
    dt = time.perf_counter() - t0
    m = 30
    est = (field.dx[m:-m, m:-m].mean(), field.dy[m:-m, m:-m].mean())
    print(f"({sx:+d},{sy:+d})      ({est[0]:+.3f},{est[1]:+.3f})            {dt*1e3:.0f} ms")

# per-ROI motion: a uniform (3, 4) field averages to magnitude 5 everywhere
field = farneback_flow(prev, prev)
print(f"\nidentical frames -> mean |flow| = {field.magnitude().mean():.2e}")

from ward_sentinel.flow import FlowField

uniform = FlowField(np.full((h, w), 3.0), np.full((h, w), 4.0))
scene = np.ones((h, w), dtype=bool)  # an ROI is a plain bool mask; the scene sets every pixel
print(f"uniform (3,4) field over the scene ROI -> {roi_motion(uniform, scene):.1f}")
