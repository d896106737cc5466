"""The full post-processing chain over one video.

Stages run in a fixed order: optional NMS, tubelet construction, confidence
rescoring, coordinate smoothing, short-tubelet removal, and tubelet linking
with gap interpolation. The two refinement stages can be switched off
independently to reproduce the three-row ablation
(raw / +refinement / +refinement+linking).

_postprocess runs the stages on io.BoxColumns, from the rows a file was
read into to the rows written with their tubelet ids, with no per-box
object; the tubelets in between are tubelets.TubeletColumns. postprocess_video
and tubelets_to_detections convert their objects with io.columns_of or
TubeletColumns.of, and give the result back through io.stream_of.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractError
from .geometry import nms_rows
from .io import BoxColumns, VideoDetections, columns_of, stream_of
from .linking import G_MAX, SCORE_MODE, _link
from .settings import ODD_WINDOW, UNIT_CLOSED, UNIT_OPEN, Check, setting, validate
from .similarity import SimilarityModel, default_model
from .tubelets import ASSIGNMENT, MIN_LEN, Tubelet, TubeletColumns, _build, _rescore, _smooth

MODEL = Check(lambda v: isinstance(v, SimilarityModel), "a SimilarityModel")


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for postprocess_video, each declared once, on its field.

    Construction raises ValidationError on a value outside its field's check,
    and the config is frozen, so a checked config stays checked. The stage
    functions check their arguments with the same Check objects and raise
    ContractError with the same wording.
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
    assignment: str = setting("greedy", ASSIGNMENT)
    alpha: float = setting(0.5, UNIT_CLOSED)
    smooth_window: int = setting(5, ODD_WINDOW)
    min_len: int = setting(2, MIN_LEN)
    g_max: int = setting(20, G_MAX)
    tau_tub: float = setting(0.5, UNIT_OPEN)
    interp_score: str = setting("mean", SCORE_MODE)

    def __post_init__(self):
        MODEL.require("model", self.model)
        validate(self)


def _postprocess(c: BoxColumns, config: PipelineConfig) -> BoxColumns:
    """postprocess_video over columns in stored order: the output rows with
    their tubelet ids, or the input rows without ids when every stage is off."""
    if config.nms_iou is not None:
        c = c.take(nms_rows(c.frame_idx, c.class_id, c.box, c.score, config.nms_iou))
    if not config.repp and not config.tubelet_link:
        return replace(c, tubelet_id=None)

    t = _build(c, config.model, config.tau_link, config.assignment)
    if config.repp:
        t.score = _rescore(t, config.alpha)
        t.box = _smooth(t, config.smooth_window)
        t = t.select(t.length >= config.min_len)
    if config.tubelet_link:
        t = _link(t, config.model, config.g_max, config.tau_tub, c.frame_shape, config.interp_score)
    return _flatten(t, c)


def _flatten(t: TubeletColumns, source: BoxColumns | VideoDetections) -> BoxColumns:
    """tubelets_to_detections of tubelets in id order, as columns."""
    owner = np.repeat(np.arange(len(t.length)), t.length)
    if (beyond := t.frame >= source.frame_count).any():
        k = beyond.argmax()
        raise ContractError(f"tubelet {t.tubelet_id[owner[k]]} reaches frame {t.frame[k]} "
                            f"beyond the video's {source.frame_count} frames")
    order = np.argsort(t.frame, kind="stable")
    n = len(order)
    return BoxColumns(source.video_id, source.frame_shape, source.frame_count, t.frame[order],
                      t.class_id[owner[order]], t.box[order], t.score[order], np.zeros((n, 0)),
                      np.zeros(n, np.int64), t.tubelet_id[owner[order]])


def postprocess_video(
    v: VideoDetections, config: PipelineConfig | None = None
) -> tuple[VideoDetections, dict[int, list[int]] | None]:
    """Run the configured stages over one video.

    Returns the refined stream plus a frame-parallel map of tubelet ids, or
    (input, None) when every stage is disabled. With all stages off the
    output is the input, which is the ablation baseline.
    """
    return stream_of(_postprocess(columns_of(v), config or PipelineConfig()))


def tubelets_to_detections(
    tubelets: list[Tubelet], source: VideoDetections
) -> tuple[VideoDetections, dict[int, list[int]]]:
    """Flatten tubelets back into a frame-indexed stream tagged with ids.

    Within a frame, detections are ordered by tubelet id, which is
    deterministic because ids are canonical.
    """
    t = TubeletColumns.of(sorted(tubelets, key=lambda t: t.tubelet_id))
    return stream_of(_flatten(t, source))
