import math

import numpy as np
import pytest

from ward_sentinel.camera_meta import (
    ANGLE_DEFINITION,
    bed_stats,
    placement_distribution,
    write_histogram_csv,
    write_stats_csv,
)
from ward_sentinel.errors import MalformedRecord
from ward_sentinel.evaluation import FrameLabel
from ward_sentinel.model import BoundingBox


def bed_label(x, y, w, h, ts=0, conf=1.0, extra=()):
    boxes = (BoundingBox("bed", x, y, w, h, conf),) + tuple(extra)
    roles = (None,) * len(boxes)
    return FrameLabel("cam", ts, boxes, roles)


class TestBedStats:
    def test_full_frame_bed(self):
        s = bed_stats(bed_label(0, 0, 1088, 612), (1088, 612))
        assert s.area_fraction == pytest.approx(1.0)
        assert s.centroid == pytest.approx((0.5, 0.5))
        assert s.angle_deg == pytest.approx(0.0)

    def test_centered_bed_angle_zero_any_height(self):
        for y in (0, 100, 400):
            s = bed_stats(bed_label(444, y, 200, 100), (1088, 612))
            assert s.angle_deg == pytest.approx(0.0)

    def test_reference_arithmetic(self):
        s = bed_stats(bed_label(600, 200, 300, 150), (1088, 612))
        assert s.area_fraction == pytest.approx(45000 / (1088 * 612), abs=1e-12)
        assert s.area_fraction == pytest.approx(0.0676, abs=5e-4)
        assert s.centroid == pytest.approx((750 / 1088, 275 / 612), abs=1e-9)
        assert s.angle_deg == pytest.approx(math.degrees(math.atan2(206, 337)))

    def test_no_bed_returns_none(self):
        label = FrameLabel("cam", 0, (), ())
        assert bed_stats(label, (1088, 612)) is None

    def test_highest_confidence_bed_selected(self):
        extra = (BoundingBox("bed", 0, 0, 100, 100, 0.99),)
        s = bed_stats(bed_label(600, 200, 300, 150, conf=0.5, extra=extra), (1088, 612))
        assert s.centroid == pytest.approx((50 / 1088, 50 / 612))

    def test_bed_is_clamped_to_the_frame(self):
        s = bed_stats(bed_label(1000, -50, 300, 150), (1088, 612))
        assert s == bed_stats(bed_label(1000, 0, 88, 100), (1088, 612))
        with pytest.raises(MalformedRecord, match="^label cam:0: box bed .* lies outside a 1088x612 frame$"):
            bed_stats(bed_label(1100, 0, 300, 150), (1088, 612))

    def test_invariant_under_proportional_rescale(self):
        a = bed_stats(bed_label(600, 200, 300, 150), (1088, 612))
        b = bed_stats(bed_label(1200, 400, 600, 300), (2176, 1224))
        assert a.area_fraction == pytest.approx(b.area_fraction, abs=1e-9)
        assert a.centroid == pytest.approx(b.centroid, abs=1e-9)
        assert a.angle_deg == pytest.approx(b.angle_deg, abs=1e-9)


class TestPlacementDistribution:
    def _stats(self, rng, n):
        out = []
        for i in range(n):
            x = rng.uniform(0, 888)
            y = rng.uniform(0, 412)
            out.append(
                bed_stats(bed_label(x, y, 200, 150, ts=i), (1088, 612))
            )
        return out

    def test_identical_stats_single_bin(self):
        stats = [bed_stats(bed_label(400, 200, 200, 100, ts=i), (1088, 612)) for i in range(9)]
        dist = placement_distribution(stats)
        assert (dist.centroid_hist > 0).sum() == 1
        assert dist.centroid_hist.max() == 9

    def test_counts_sum_to_inputs(self, rng):
        stats = self._stats(rng, 137)
        dist = placement_distribution(stats)
        assert dist.centroid_hist.sum() == 137
        assert dist.area_angle_hist.sum() == 137

    def test_uniform_centroids_multinomial_bounds(self, rng):
        # uniform synthetic centroids: each bin count within 3 sigma of n*p
        n, bins = 8000, 5
        stats = []
        for i in range(n):
            cx, cy = rng.uniform(size=2)
            w, h = 0.1 * 1088, 0.1 * 612
            x = cx * 1088 - w / 2
            y = cy * 612 - h / 2
            boxes = (BoundingBox("bed", x, y, w, h, 1.0),)
            # recompute the expected centroid directly from the box
            stats.append(
                bed_stats(FrameLabel("cam", i, boxes, (None,)), (1088, 612))
            )
        dist = placement_distribution(stats, bins=bins)
        p = 1 / (bins * bins)
        sigma = math.sqrt(n * p * (1 - p))
        assert np.all(np.abs(dist.centroid_hist - n * p) <= 3 * sigma + 1e-9)

    def test_metadata_carries_angle_definition(self, rng):
        dist = placement_distribution(self._stats(rng, 5))
        assert dist.metadata["angle_definition"] == ANGLE_DEFINITION


class TestCsvOutputs:
    def test_stats_and_histogram_files(self, tmp_path, rng):
        stats = [
            bed_stats(bed_label(600, 200, 300, 150, ts=i), (1088, 612)) for i in range(4)
        ]
        stats_path = tmp_path / "bed_stats.csv"
        hist_path = tmp_path / "hist.csv"
        write_stats_csv(stats, stats_path)
        write_histogram_csv(placement_distribution(stats), hist_path)
        lines = stats_path.read_text().splitlines()
        assert lines[0] == "session_id,frame_id,area_fraction,centroid_x,centroid_y,angle_deg"
        assert len(lines) == 5
        hist_text = hist_path.read_text()
        assert "angle_definition" in hist_text
        assert "centroid_xy" in hist_text and "area_angle" in hist_text
