"""Tracker-assisted cascaded object detection for video.

A cheap full-frame proposal source and a tracker's next-frame predictions
select regions of interest; an accurate refinement source is charged only
for those regions. Ships with an op-count cost model, mAP and entry-delay
evaluation, KITTI-format ingestion and a deterministic synthetic-sequence
generator.
"""

__version__ = "0.1.0"

from .cascade import (
    DetectorSource,
    FileBackedSource,
    FrameResult,
    Pipeline,
    PipelineConfig,
    SequenceResult,
)
from .costmodel import (
    CostModelConfig,
    WorkReport,
    estimate_time,
    greedy_merge,
    refine_cost,
    total_work,
)
from .errors import ConfigError, DataError, EvaluationRefused, MissingFrameError
from .geometry import (
    BoundingBox,
    Detection,
    RegionMask,
    dilate,
    iou,
    mask_overlap_fraction,
    nms,
    union_area,
)
from .ingest import (
    ClassMap,
    DetectionStore,
    KittiLabels,
    SequenceMeta,
    SyntheticScenario,
    generate_synthetic,
    parse_detections,
    parse_kitti_tracking_labels,
    parse_meta,
    parse_scenario,
    write_detections,
    write_meta,
    write_sequence_dir,
    write_tracks,
)
from .metrics import (
    DIFFICULTY_PRESETS,
    ClassEvalData,
    DelayReport,
    DifficultyFilter,
    EvalConfig,
    FrameGt,
    GroundTruthTrack,
    GtEntry,
    average_precision,
    evaluate_classes,
    find_t_beta,
    label_class_detections,
    match_frame,
    mean_delay,
)
from .tracker import Tracker, TrackerConfig, TrackState, associate, predict, update_motion

__all__ = [
    "__version__",
    "BoundingBox",
    "Detection",
    "RegionMask",
    "iou",
    "dilate",
    "union_area",
    "mask_overlap_fraction",
    "nms",
    "Tracker",
    "TrackerConfig",
    "TrackState",
    "associate",
    "predict",
    "update_motion",
    "DetectorSource",
    "FileBackedSource",
    "Pipeline",
    "PipelineConfig",
    "FrameResult",
    "SequenceResult",
    "CostModelConfig",
    "WorkReport",
    "refine_cost",
    "estimate_time",
    "greedy_merge",
    "total_work",
    "GroundTruthTrack",
    "GtEntry",
    "DifficultyFilter",
    "DIFFICULTY_PRESETS",
    "EvalConfig",
    "FrameGt",
    "ClassEvalData",
    "DelayReport",
    "match_frame",
    "average_precision",
    "find_t_beta",
    "mean_delay",
    "label_class_detections",
    "evaluate_classes",
    "ClassMap",
    "DetectionStore",
    "KittiLabels",
    "SequenceMeta",
    "SyntheticScenario",
    "parse_detections",
    "parse_kitti_tracking_labels",
    "parse_meta",
    "parse_scenario",
    "write_detections",
    "write_meta",
    "write_tracks",
    "write_sequence_dir",
    "generate_synthetic",
    "DataError",
    "ConfigError",
    "MissingFrameError",
    "EvaluationRefused",
]
