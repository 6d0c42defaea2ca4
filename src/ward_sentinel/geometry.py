"""Polygonal regions of interest: safety-zone expansion, rasterization,
containment, and boundary-crossing detection.

The safety zone arrives as a polygon drawn by the virtual monitor and is
scaled uniformly about its area centroid (scaling by 1+f multiplies the
perimeter by exactly 1+f). Membership is the even-odd rule at pixel centers:
`rasterize` builds the whole pixel mask, which flow reads, and a `Zone`
answers for the one pixel under a point, which is all that crossing
detection reads, bit for bit as the mask would. A motion ROI is a plain
read-only (height, width) bool array: `rasterize` makes the zone's, and
`bed_roi_from_detection` the bed rectangle's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegeneratePolygon, ZoneDimensionMismatch
from .model import ANALYSIS_DIMS, DetectionRecord, best_bed, real_number

AREA_EPS = 1e-12
# Cross-frame anchor matching gate, as a fraction of the frame diagonal.
MATCH_GATE_DIAG_FRACTION = 0.15

@dataclass(frozen=True)
class Polygon:
    """Simple polygon, implicitly closed, real pixel coordinates. Each vertex
    is exactly two finite real numbers, not bools, kept as floats."""

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        verts = tuple(map(_vertex, self.vertices))
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 3:
            raise DegeneratePolygon("polygon needs at least 3 vertices")
        if abs(self.signed_area()) <= AREA_EPS:
            raise DegeneratePolygon("polygon has zero area")
        if self._self_intersects():
            raise DegeneratePolygon("polygon is self-intersecting")

    def signed_area(self) -> float:
        v = np.asarray(self.vertices)
        x, y = v[:, 0], v[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def area(self) -> float:
        return abs(self.signed_area())

    def perimeter(self) -> float:
        v = np.asarray(self.vertices)
        return float(np.sum(np.hypot(*(np.roll(v, -1, axis=0) - v).T)))

    def centroid(self) -> tuple[float, float]:
        """Area centroid (not the vertex mean)."""
        v = np.asarray(self.vertices)
        x, y = v[:, 0], v[:, 1]
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        cross = x * yn - xn * y
        a = 0.5 * np.sum(cross)
        cx = float(np.sum((x + xn) * cross) / (6.0 * a))
        cy = float(np.sum((y + yn) * cross) / (6.0 * a))
        return cx, cy

    def _self_intersects(self) -> bool:
        verts = self.vertices
        n = len(verts)
        edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue  # adjacent edges share a vertex by construction
                if _segments_cross(*edges[i], *edges[j]):
                    return True
        return False


def _vertex(v) -> tuple[float, float]:
    if not isinstance(v, (tuple, list)) or len(v) != 2:
        raise TypeError(f"polygon vertex must be two numbers, got {v!r}")
    x, y = (float(real_number("polygon vertex coordinate", c)) for c in v)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"polygon vertex must be finite, got {v!r}")
    return x, y


def _segments_cross(p1, p2, p3, p4) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


@dataclass(frozen=True)
class CrossingEvent:
    session_id: str
    ts: int
    direction: str  # "exit" | "entry"
    person_index: int

    def __post_init__(self):
        if self.direction not in ("exit", "entry"):
            raise ValueError(f"unknown crossing direction {self.direction!r}")


def expand_polygon(p: Polygon, factor: float) -> Polygon:
    """Scale p uniformly about its area centroid by (1 + factor)."""
    if factor < 0:
        raise ValueError("expansion factor must be >= 0")
    cx, cy = p.centroid()
    scale = 1.0 + factor
    verts = tuple(
        (cx + scale * (x - cx), cy + scale * (y - cy)) for x, y in p.vertices
    )
    return Polygon(verts)


def rasterize(p: Polygon, width: int, height: int) -> np.ndarray:
    """Even-odd rasterization: pixel (i, j) of the read-only (height, width)
    bool mask is set iff its center lies inside p.

    Pixels outside the frame simply do not exist, which clips the polygon to
    the frame for free.
    """
    if width < 1 or height < 1:
        raise ValueError("mask dimensions must be >= 1")
    yc = np.arange(height, dtype=np.float64) + 0.5
    xc = np.arange(width, dtype=np.float64) + 0.5
    crossings = np.zeros((height, width), dtype=np.int32)
    verts = p.vertices
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        if y1 == y2:
            continue  # horizontal edge never crosses a scanline interior
        rows = (y1 > yc) != (y2 > yc)
        if not rows.any():
            continue
        xi = x1 + (yc[rows] - y1) * (x2 - x1) / (y2 - y1)
        # count edges strictly to the right of each pixel center
        crossings[rows] += xi[:, None] > xc[None, :]
    mask = crossings % 2 == 1
    mask.flags.writeable = False
    return mask


class Zone:
    """A safety-zone polygon in a width x height frame, without its mask.

    `contains(x, y)` is the bit that `rasterize(polygon, width, height)` sets
    for the pixel under the point clamped to the frame: the even-odd rule of
    `rasterize`, in the same float arithmetic, at that pixel's center. A zone
    also keeps the crossing facts of the last record it judged, so a record
    that `detect_crossings` sees as `cur` and then as `prev` is judged once.
    """

    __slots__ = ("polygon", "width", "height", "gate", "_edges", "_last")

    def __init__(self, polygon: Polygon, width: int, height: int):
        if width < 1 or height < 1:
            raise ValueError("zone dimensions must be >= 1")
        self.polygon, self.width, self.height = polygon, width, height
        self.gate = MATCH_GATE_DIAG_FRACTION * float(np.hypot(width, height))
        verts = polygon.vertices
        # (x1, y1, y2, x2 - x1, y2 - y1) per edge; a horizontal edge never
        # crosses a pixel-center row, as in rasterize.
        self._edges = tuple(
            (x1, y1, y2, x2 - x1, y2 - y1)
            for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1])
            if y1 != y2
        )
        self._last: tuple = (None, None)

    def contains(self, x: float, y: float) -> bool:
        """Membership of the pixel under a continuous point, clamped to frame."""
        px, py = math.floor(x), math.floor(y)
        xc = (0 if px < 0 else self.width - 1 if px >= self.width else px) + 0.5
        yc = (0 if py < 0 else self.height - 1 if py >= self.height else py) + 0.5
        inside = False
        for x1, y1, y2, run, rise in self._edges:
            # rasterize's crossing test for one row and column: an edge
            # strictly to the right of the pixel center.
            if (y1 > yc) != (y2 > yc) and x1 + (yc - y1) * run / rise > xc:
                inside = not inside
        return inside

    def crossing_facts(
        self, rec: DetectionRecord
    ) -> tuple[list[int], list[tuple[float, float]], list[bool]]:
        """The record's person indices, their anchors and whether each anchor
        is inside, in one pass over the boxes, each checked to fit the zone's
        frame. A person's anchor is the bottom-center of its box, the
        foot-position proxy; other boxes have none."""
        last, facts = self._last
        if last is rec:  # records are immutable, so one object has one answer
            return facts
        width, height, contains = self.width, self.height, self.contains
        idx, anchors, inside = [], [], []
        for i, b in enumerate(rec.boxes):
            x, y, w, h = b.x, b.y, b.w, b.h
            if x + w > width or y + h > height:
                raise ZoneDimensionMismatch(
                    f"box ({x},{y},{w},{h}) exceeds zone dims "
                    f"{width}x{height}; detections and zone must "
                    "share a coordinate space"
                )
            if b.cls == "person":
                ax, ay = x + w / 2.0, y + h
                idx.append(i)
                anchors.append((ax, ay))
                inside.append(contains(ax, ay))
        facts = idx, anchors, inside
        self._last = rec, facts
        return facts


def bed_roi_from_detection(
    rec: DetectionRecord, width: int, height: int
) -> Optional[np.ndarray]:
    """Read-only (height, width) bool mask of the record's bed (`best_bed`),
    or None without a bed or when its rectangle covers no pixel.

    The record is in analysis coordinates, as validated records are: the
    bed's own numbers are scaled by width / ANALYSIS_DIMS[0] and height /
    ANALYSIS_DIMS[1], floored at the near edges and ceiled at the far ones.
    """
    best = best_bed(rec.boxes)
    if best is None:
        return None
    sx, sy = width / ANALYSIS_DIMS[0], height / ANALYSIS_DIMS[1]
    x, y = best.x * sx, best.y * sy
    x1 = min(max(math.floor(x), 0), width)
    y1 = min(max(math.floor(y), 0), height)
    x2 = min(max(math.ceil(x + best.w * sx), 0), width)
    y2 = min(max(math.ceil(y + best.h * sy), 0), height)
    if x1 >= x2 or y1 >= y2:
        return None
    bits = np.zeros((height, width), dtype=bool)
    bits[y1:y2, x1:x2] = True
    bits.flags.writeable = False
    return bits


def _match_anchors(
    prev_anchors: Sequence[tuple[float, float]],
    cur_anchors: Sequence[tuple[float, float]],
    gate: float,
) -> list[tuple[int, int]]:
    """Greedy globally-nearest pairing under a distance gate."""
    pairs = []
    for i, (px, py) in enumerate(prev_anchors):
        for j, (cx, cy) in enumerate(cur_anchors):
            dx, dy = px - cx, py - cy
            # hypot is at least max(|dx|, |dy|): no call for a pair that fails on either.
            # abs(complex) is the C library's hypot, which numpy's float64 np.hypot
            # also calls, so d is np.hypot's bit for bit (math.hypot rounds
            # otherwise). Both parts are within the gate here, so they are finite
            # and complex abs never meets its OverflowError, where np.hypot gives inf.
            if abs(dx) <= gate and abs(dy) <= gate and (d := abs(complex(dx, dy))) <= gate:
                pairs.append((d, i, j))
    pairs.sort()
    used_prev: set[int] = set()
    used_cur: set[int] = set()
    matches = []
    for d, i, j in pairs:
        if i in used_prev or j in used_cur:
            continue
        used_prev.add(i)
        used_cur.add(j)
        matches.append((i, j))
    return matches


def detect_crossings(
    prev: DetectionRecord, cur: DetectionRecord, zone: Zone
) -> list[CrossingEvent]:
    """Zone boundary crossings between two consecutive seconds.

    Person anchors are matched greedily by distance under a gate of 15% of
    the frame diagonal; a matched anchor moving inside->outside emits an exit
    and outside->inside an entry. Unmatched persons emit nothing.
    """
    if cur.ts != prev.ts + 1 or cur.session_id != prev.session_id:
        raise ValueError("detect_crossings expects consecutive seconds of one session")
    _, prev_anchors, was_inside = zone.crossing_facts(prev)
    cur_idx, cur_anchors, is_inside = zone.crossing_facts(cur)
    events = []
    for pi, ci in _match_anchors(prev_anchors, cur_anchors, zone.gate):
        was, now = was_inside[pi], is_inside[ci]
        if was != now:
            events.append(CrossingEvent(cur.session_id, cur.ts, "exit" if was else "entry", cur_idx[ci]))
    return events
