"""Streaming patient-monitoring analytics.

Post-detection inference for 1 fps hospital-room video: dense optical flow
motion estimation, safety-zone geometry, role attribution, smoothed logical
states (patient alone, supervised by staff), hourly trends, and the
evaluation protocol that scores all of it against frame labels and
observation logs. A motion ROI is a plain bool mask: `rasterize` makes one
from a polygon and `roi_motion` averages flow magnitude over it.
"""

from .model import (
    ANALYSIS_DIMS,
    DETECTOR_DIMS,
    FLOW_DIMS,
    BoundingBox,
    DetectionRecord,
    FlowParams,
    Frame,
    PipelineConfig,
    RoleDistribution,
    validate_record,
)
from .flow import FlowField, MotionRecord, farneback_flow, roi_motion
from .geometry import CrossingEvent, Polygon, Zone, detect_crossings, expand_polygon, rasterize
from .logic import LogicalState, SmoothingWindow, attribute_roles, derive_state
from .trends import HourlyTrend, ObservationLog, aggregate_hourly, assisted_trends, cohort_average
from .evaluation import (
    EvalReport,
    FrameLabel,
    evaluate_frames,
    fit_logistic,
    manual_accuracy,
    match_boxes,
    prf1,
    trend_accuracy,
)
from .camera_meta import BedPlacementStat, bed_stats, placement_distribution
from .simulator import NoiseModel, OccupantTrack, ScenarioSpec, ScheduleInterval, generate
from .pipeline import DetectorPort, SyntheticDetector, ingest_external, preprocess, run_pipeline
from .store import Store

__version__ = "0.1.0"
