"""tubelink: temporal post-processing for video object detections.

Turns noisy per-frame detector output into temporally consistent detections:
consecutive-frame similarity linking builds tubelets, tubelets are rescored
and smoothed, and tubelet-level linking bridges short dropouts with linearly
interpolated boxes. Ships with a COCO-style mAP evaluator and a seeded
degradation simulator for verification.
"""

from .errors import (
    ConfigError,
    ContractError,
    FitError,
    ParseError,
    TubelinkError,
    ValidationError,
)
from .evaluation import (
    IOU_THRESHOLDS,
    EvalReport,
    average_precision,
    evaluate,
    evaluate_streams,
    match_predictions,
)
from .geometry import BBox, Detection, FrameShape, center, iou, iou_matrix, nms
from .io import (
    GroundTruth,
    TrackBox,
    VideoDetections,
    read_detections,
    read_detections_with_ids,
    read_ground_truth,
    write_detections,
    write_ground_truth,
)
from .linking import interpolate_gap, link_tubelets, tubelet_gap, tubelet_link_score
from .pipeline import PipelineConfig, postprocess_video, tubelets_to_detections
from .similarity import (
    DEFAULT_BIAS,
    DEFAULT_WEIGHTS,
    LinkFeatures,
    SimilarityModel,
    default_model,
    feature_vector,
    fit_model,
    link_features,
    link_score,
    load_model,
    save_model,
)
from .simulate import ScenarioConfig, describe, generate, parse_config, standard_scenario
from .tubelets import (
    Tubelet,
    TubeletEntry,
    build_tubelets,
    filter_short,
    rescore,
    smooth_coordinates,
)

__version__ = "0.1.0"

__all__ = [
    "BBox", "Detection", "FrameShape", "center", "iou", "iou_matrix", "nms",
    "VideoDetections", "GroundTruth", "TrackBox",
    "read_detections", "read_detections_with_ids", "write_detections",
    "read_ground_truth", "write_ground_truth",
    "LinkFeatures", "SimilarityModel", "link_features", "link_score",
    "feature_vector", "load_model", "save_model", "fit_model",
    "default_model", "DEFAULT_WEIGHTS", "DEFAULT_BIAS",
    "Tubelet", "TubeletEntry", "build_tubelets",
    "rescore", "smooth_coordinates", "filter_short",
    "tubelet_gap", "tubelet_link_score", "interpolate_gap", "link_tubelets",
    "EvalReport", "IOU_THRESHOLDS", "match_predictions", "average_precision",
    "evaluate", "evaluate_streams",
    "ScenarioConfig", "generate", "describe", "parse_config", "standard_scenario",
    "PipelineConfig", "postprocess_video", "tubelets_to_detections",
    "TubelinkError", "ValidationError", "ParseError", "ContractError",
    "ConfigError", "FitError",
    "__version__",
]
