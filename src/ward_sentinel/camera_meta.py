"""Camera-position meta-analysis from labeled bed boxes.

Cameras sit on mobile carts, so bed size and placement in the frame vary per
room. The labeled bed box gives an indirect measure of camera position: its
area fraction, its normalized centroid, and a signed viewing-angle proxy
angle_deg = atan2(cx - W/2, H - cy) in degrees, i.e. the bed centroid's
horizontal offset from frame center against its vertical distance from the
bottom edge. The angle definition is embedded in output metadata so numbers
stay comparable only where that definition travels along.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import MalformedRecord
from .evaluation import FrameLabel
from .model import best_bed

ANGLE_DEFINITION = "atan2(centroid_x_px - width/2, height - centroid_y_px), degrees"
DEFAULT_BINS = 20
ANGLE_RANGE = (-90.0, 90.0)


@dataclass(frozen=True)
class BedPlacementStat:
    session_id: str
    frame_id: str
    area_fraction: float
    centroid: tuple[float, float]
    angle_deg: float

    def __post_init__(self):
        if not 0.0 < self.area_fraction <= 1.0:
            raise ValueError("area_fraction must be in (0, 1]")
        cx, cy = self.centroid
        if not (0.0 <= cx <= 1.0 and 0.0 <= cy <= 1.0):
            raise ValueError("centroid must lie in the unit square")


@dataclass(frozen=True)
class PlacementDistribution:
    centroid_hist: np.ndarray  # (bins, bins) counts over the unit square
    centroid_edges: tuple[np.ndarray, np.ndarray]
    area_angle_hist: np.ndarray  # (bins, bins) counts over area x angle
    area_edges: np.ndarray
    angle_edges: np.ndarray
    n_stats: int
    metadata: dict


def bed_stats(
    label: FrameLabel, frame_dims: tuple[float, float]
) -> Optional[BedPlacementStat]:
    """Placement stat from the label's bed (`model.best_bed`) clamped to the
    frame, None without a bed. A bed wholly outside the frame raises
    MalformedRecord."""
    width, height = frame_dims
    best = best_bed(label.boxes)
    if best is None:
        return None
    try:
        best = best.clamped(width, height)
    except MalformedRecord as e:
        raise MalformedRecord(f"label {label.frame_id}: {e}") from None
    cx_px = best.x + best.w / 2.0
    cy_px = best.y + best.h / 2.0
    return BedPlacementStat(
        session_id=label.session_id,
        frame_id=label.frame_id,
        area_fraction=(best.w * best.h) / (width * height),
        centroid=(cx_px / width, cy_px / height),
        angle_deg=math.degrees(math.atan2(cx_px - width / 2.0, height - cy_px)),
    )


def placement_distribution(
    stats: Sequence[BedPlacementStat], bins: int = DEFAULT_BINS
) -> PlacementDistribution:
    """Histogram summaries of bed placement across frames."""
    if not stats:
        raise ValueError("placement_distribution needs at least one stat")
    cx = np.array([s.centroid[0] for s in stats])
    cy = np.array([s.centroid[1] for s in stats])
    centroid_hist, xe, ye = np.histogram2d(cx, cy, bins=bins, range=[[0, 1], [0, 1]])
    areas = np.array([s.area_fraction for s in stats])
    angles = np.array([s.angle_deg for s in stats])
    area_angle_hist, ae, ge = np.histogram2d(
        areas, angles, bins=bins, range=[[0, 1], list(ANGLE_RANGE)]
    )
    return PlacementDistribution(
        centroid_hist=centroid_hist,
        centroid_edges=(xe, ye),
        area_angle_hist=area_angle_hist,
        area_edges=ae,
        angle_edges=ge,
        n_stats=len(stats),
        metadata={"angle_definition": ANGLE_DEFINITION, "bins": bins},
    )


def write_stats_csv(stats: Sequence[BedPlacementStat], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["session_id", "frame_id", "area_fraction", "centroid_x", "centroid_y", "angle_deg"]
        )
        for s in stats:
            writer.writerow(
                [
                    s.session_id,
                    s.frame_id,
                    f"{s.area_fraction:.9f}",
                    f"{s.centroid[0]:.9f}",
                    f"{s.centroid[1]:.9f}",
                    f"{s.angle_deg:.6f}",
                ]
            )


def write_histogram_csv(dist: PlacementDistribution, path) -> None:
    """Both histograms in one long-format CSV, metadata in leading comments."""
    tables = (
        ("centroid_xy", dist.centroid_hist, *dist.centroid_edges),
        ("area_angle", dist.area_angle_hist, dist.area_edges, dist.angle_edges),
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# angle_definition: {dist.metadata['angle_definition']}\n")
        fh.write(f"# n_stats: {dist.n_stats}\n")
        writer = csv.writer(fh)
        writer.writerow(["table", "bin_a_low", "bin_a_high", "bin_b_low", "bin_b_high", "count"])
        for name, hist, a_edges, b_edges in tables:
            for (i, j), count in np.ndenumerate(hist):
                bounds = (a_edges[i], a_edges[i + 1], b_edges[j], b_edges[j + 1])
                writer.writerow([name, *(f"{v:.6f}" for v in bounds), int(count)])
