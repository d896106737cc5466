"""The full post-processing chain over one video.

Stages run in a fixed order: optional NMS, tubelet construction, confidence
rescoring, coordinate smoothing, short-tubelet removal, and tubelet linking
with gap interpolation. The two refinement stages can be switched off
independently to reproduce the three-row ablation
(raw / +refinement / +refinement+linking).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .errors import ContractError
from .geometry import Detection, nms
from .io import Frames, VideoDetections
from .linking import link_tubelets
from .settings import ODD_WINDOW, UNIT_CLOSED, UNIT_OPEN, int_at_least, one_of, setting, validate
from .similarity import SimilarityModel, default_model
from .tubelets import Tubelet, build_tubelets, filter_short, rescore, smooth_coordinates


@dataclass
class PipelineConfig:
    """Knobs for postprocess_video, each declared once, on its field.

    Construction raises ValidationError on a value outside its field's check.
    ``postprocess`` reads the same fields: the file key is the field name, the
    flag is ``--`` plus the name with ``-`` for ``_``, and ``no_repp`` /
    ``no_tubelet_link`` switch a stage off. File booleans are strict; a bad
    file value exits 1 before any input is read, a bad flag value exits 2.
    """

    model: SimilarityModel = field(default_factory=default_model)
    nms_iou: float | None = setting(  # None skips NMS entirely
        None, UNIT_OPEN, "run per-frame NMS at this IoU before linking (off by default)")
    repp: bool = setting(True, help="skip rescoring/smoothing/short-tubelet removal")
    tubelet_link: bool = setting(True, help="skip tubelet linking and gap interpolation")
    tau_link: float = setting(0.5, UNIT_OPEN)
    assignment: str = setting("greedy", one_of("greedy", "exact"))
    alpha: float = setting(0.5, UNIT_CLOSED)
    smooth_window: int = setting(5, ODD_WINDOW)
    min_len: int = setting(2, int_at_least(1))
    g_max: int = setting(20, int_at_least(0))
    tau_tub: float = setting(0.5, UNIT_OPEN)
    interp_score: str = setting("mean", one_of("mean", "endpoint"))

    def __post_init__(self):
        validate(self)


def postprocess_video(
    v: VideoDetections, config: PipelineConfig | None = None
) -> tuple[VideoDetections, dict[int, list[int]] | None]:
    """Run the configured stages over one video.

    Returns the refined stream plus a frame-parallel map of tubelet ids, or
    (input, None) when every stage is disabled. With all stages off the
    output is the input, which is the ablation baseline.
    """
    config = config or PipelineConfig()

    if config.nms_iou is not None:
        frames = {f: nms(dets, config.nms_iou) for f, dets in v.frames.items()}
        v = VideoDetections(v.video_id, v.frame_shape, v.frame_count, frames)

    if not config.repp and not config.tubelet_link:
        return v, None

    tubelets = build_tubelets(v, config.model, config.tau_link, config.assignment)
    if config.repp:
        tubelets = [rescore(t, config.alpha) for t in tubelets]
        tubelets = [smooth_coordinates(t, config.smooth_window) for t in tubelets]
        tubelets = filter_short(tubelets, config.min_len)
    if config.tubelet_link:
        tubelets = link_tubelets(
            tubelets, config.model, config.g_max, config.tau_tub,
            v.frame_shape, config.interp_score,
        )
    return tubelets_to_detections(tubelets, v)


def tubelets_to_detections(
    tubelets: list[Tubelet], source: VideoDetections
) -> tuple[VideoDetections, dict[int, list[int]]]:
    """Flatten tubelets back into a frame-indexed stream tagged with ids.

    Within a frame, detections are ordered by tubelet id, which is
    deterministic because ids are canonical.
    """
    frames: defaultdict[int, list[Detection]] = defaultdict(list)
    ids: defaultdict[int, list[int]] = defaultdict(list)
    for t in sorted(tubelets, key=lambda t: t.tubelet_id):
        for e in t.entries:
            if e.frame_idx >= source.frame_count:
                raise ContractError(
                    f"tubelet {t.tubelet_id} reaches frame {e.frame_idx} beyond "
                    f"the video's {source.frame_count} frames"
                )
            frames[e.frame_idx].append(Detection(e.frame_idx, t.class_id, e.bbox, e.score))
            ids[e.frame_idx].append(t.tubelet_id)
    out = VideoDetections(source.video_id, source.frame_shape, source.frame_count, frames)
    return out, Frames(ids)
