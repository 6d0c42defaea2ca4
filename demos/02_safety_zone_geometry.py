#!/usr/bin/env python3
"""Safety-zone geometry: expansion, rasterization, boundary crossings.

A monitor draws a polygon around the patient area; the pipeline expands its
perimeter by 10%, rasterizes it to a plain bool pixel mask for motion, and
watches person anchors (bottom-center of each person box) cross the boundary,
testing only the pixel under each anchor.
"""

from ward_sentinel import Polygon, Zone, detect_crossings, expand_polygon, rasterize
from ward_sentinel.model import BoundingBox, DetectionRecord, RoleDistribution

zone = Polygon(((40, 40), (160, 40), (160, 160), (40, 160)))
print(f"zone: area={zone.area():.0f}  perimeter={zone.perimeter():.0f}  centroid={zone.centroid()}")

grown = expand_polygon(zone, 0.10)
print(f"after 10% expansion: perimeter={grown.perimeter():.0f} (exactly 1.10x)")
print(f"vertices: {grown.vertices}")

mask = rasterize(grown, 200, 200)  # a read-only (200, 200) bool array
print(f"rasterized at 200x200: {mask.sum()} pixels set "
      f"({100 * mask.mean():.1f}% of frame)")
zone_200 = Zone(grown, 200, 200)  # the same membership, one point at a time


def person_at(ts, x, y):
    role = RoleDistribution({"patient": 0.9, "staff": 0.05, "other": 0.05})
    box = BoundingBox("person", x - 5, y - 20, 10, 20, 0.8)
    return DetectionRecord("demo", ts, (box,), (role,))


# someone walks out of the zone between two consecutive seconds
inside = person_at(100, 100, 150)
outside = person_at(101, 100, 183)
print(f"\nanchor {zone_200.crossing_facts(inside)[1][0]} -> {zone_200.crossing_facts(outside)[1][0]}")
for event in detect_crossings(inside, outside, zone_200):
    print(f"crossing: {event.direction} at ts={event.ts} (person {event.person_index})")

# a far teleport exceeds the matching gate (15% of the frame diagonal): the
# anchors stay unmatched and no spurious event fires
teleport = person_at(101, 30, 30)
print(f"teleport case emits {len(detect_crossings(inside, teleport, zone_200))} events")
