"""Linking tubelets across bounded temporal gaps with linear gap filling.

Frame-level linking only joins detections in adjacent frames, so a few missed
frames split one object into two tubelets. This module pairs the end of one
tubelet with the start of another when the temporal gap is at most g_max and
the end/start boxes score as the same object, then fills the gap by linear
interpolation. Interpolated frames get the average of the two fragments'
confidences.

_link and _interpolate do this for TubeletColumns. link_tubelets and
interpolate_gap run them between TubeletColumns.of and .tubelets, so what
they give is equal in value and flag to the entries it stands for. _link
keys its links by tubelet row, as _build keys them by detection row;
link_tubelets orders its input by id, so that row order is id order and
ties go by id.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .geometry import FrameShape, check_boxes
from .settings import int_at_least, one_of
from .similarity import SimilarityModel, link_score, one_pair_features
from .tubelets import (
    Tubelet, TubeletColumns, TubeletEntry, _accept_greedy, _chains, _link_candidates, _means,
)

G_MAX = int_at_least(0)
SCORE_MODE = one_of("mean", "endpoint")


def tubelet_gap(a: Tubelet, b: Tubelet) -> int:
    """Number of empty frames between a's end and b's start.

    0 means adjacent; negative means overlap or wrong temporal order.
    """
    return b.start_frame - a.end_frame - 1


def tubelet_link_score(
    a: Tubelet, b: Tubelet, m: SimilarityModel, shape: FrameShape
) -> float:
    """Score the link between a's last box and b's first box.

    The displacement features are divided by (gap + 1) so the model sees
    per-frame motion rather than motion accumulated across the whole gap;
    otherwise any moving object would be unlinkable over longer gaps.
    """
    if a.class_id != b.class_id:
        raise ContractError(
            f"tubelet classes differ: {a.class_id} vs {b.class_id}"
        )
    gap = tubelet_gap(a, b)
    if gap < 0:
        raise ContractError(
            f"tubelets overlap or are out of order (gap {gap})"
        )
    tail, head = a.entries[-1], b.entries[0]
    f = one_pair_features((a.class_id, tail.bbox, tail.score, None),
                          (b.class_id, head.bbox, head.score, None), gap + 1, shape)
    return link_score(m, f)


@np.errstate(over="ignore", invalid="ignore")
def _interpolate(t: TubeletColumns, cur: np.ndarray, nxt: np.ndarray,
                 score_mode: str) -> TubeletColumns:
    """interpolate_gap of each pair of tubelets (cur[i], nxt[i]) of t: the
    synthesized entries of the gap of pair i as tubelet i."""
    SCORE_MODE.require("score_mode", score_mode, ContractError)
    tail, head = (t.start + t.length - 1)[cur], t.start[nxt]
    gap = t.frame[head] - t.frame[tail] - 1
    if len(gap) and gap.min() < 1:
        raise ContractError(f"interpolate_gap needs a gap of at least 1 frame, got {gap.min()}")
    if score_mode == "mean":
        means = _means(t)
        score = (means[cur] + means[nxt]) / 2.0
    else:
        score = (t.score[tail] + t.score[head]) / 2.0
    pair = np.repeat(np.arange(len(gap)), gap)
    k = np.arange(len(pair)) - np.repeat(np.cumsum(gap) - gap, gap) + 1
    f = k / (gap + 1)[pair]
    (tx, ty, tw, th), (hx, hy, hw, hh) = t.box[tail[pair]].T, t.box[head[pair]].T
    tcx, tcy, hcx, hcy = tx + tw / 2.0, ty + th / 2.0, hx + hw / 2.0, hy + hh / 2.0
    cx, cy = tcx + f * (hcx - tcx), tcy + f * (hcy - tcy)
    w, h = tw + f * (hw - tw), th + f * (hh - th)
    box = np.column_stack([cx - w / 2.0, cy - h / 2.0, w, h])
    check_boxes(box)
    return TubeletColumns(np.arange(len(gap)), t.class_id[cur], gap,
                          t.frame[tail[pair]] + k, box, score[pair], np.ones(len(pair), bool))


def interpolate_gap(
    a: Tubelet, b: Tubelet, score_mode: str = "mean"
) -> list[TubeletEntry]:
    """Synthesize the missing entries between two tubelets.

    Box centers and sizes are linearly interpolated between a's last and b's
    first box at fractions k/(gap+1). Every synthesized frame carries the
    same confidence: the average of the two tubelets' mean scores (or of the
    two endpoint scores with score_mode="endpoint"). Entries are flagged
    interpolated.
    """
    gaps = _interpolate(TubeletColumns.of([a, b]), np.array([0]), np.array([1]), score_mode)
    return list(gaps.tubelets()[0].entries)


def _link(t: TubeletColumns, m: SimilarityModel, g_max: int, tau_tub: float,
          shape: FrameShape | None, score_mode: str) -> TubeletColumns:
    """link_tubelets over TubeletColumns whose ids ascend with their rows,
    so that the row order of _accept_greedy and _chains breaks ties by id."""
    G_MAX.require("g_max", g_max, ContractError)
    if shape is None:
        raise ContractError("link_tubelets needs the frame shape")
    if (np.diff(t.tubelet_id) <= 0).any():  # link_tubelets sorts by id
        raise ContractError("tubelet ids must be unique before linking")

    start = t.start
    end = start + t.length - 1
    no_app = np.zeros((len(start), 0)), np.zeros(len(start), np.int64)
    tails, heads = ((t.frame[e], t.class_id, t.box[e], t.score[e], *no_app) for e in (end, start))
    successor = _accept_greedy(*_link_candidates(tails, heads, m, g_max, tau_tub, shape))
    rows, length = _chains(successor, t.frame[start], t.box[start])
    rank = np.empty(len(start), np.int64)
    rank[rows] = np.repeat(np.arange(len(length)), length)
    first = np.cumsum(length) - length
    cur, nxt = np.delete(rows, first + length - 1), np.delete(rows, first)
    fill = t.frame[start[nxt]] - t.frame[end[cur]] > 1
    gaps = _interpolate(t, cur[fill], nxt[fill], score_mode)

    # each merged tubelet's entries are its parts' and its gaps', in frame order
    owner = np.concatenate([np.repeat(rank, t.length), np.repeat(rank[cur[fill]], gaps.length)])
    order = np.lexsort((np.concatenate([t.frame, gaps.frame]), owner))
    entries = [np.concatenate([getattr(t, k), getattr(gaps, k)])[order]
               for k in ("frame", "box", "score", "interpolated")]
    return TubeletColumns(np.arange(len(length)), t.class_id[rows[first]],
                          np.bincount(owner, minlength=len(length)), *entries)


def link_tubelets(
    ts: list[Tubelet],
    m: SimilarityModel,
    g_max: int = 20,
    tau_tub: float = 0.5,
    shape: FrameShape | None = None,
    score_mode: str = "mean",
) -> list[Tubelet]:
    """Merge tubelets whose end/start boxes look like the same object.

    Candidate pairs share a class, are separated by 0..g_max empty frames and
    score at least tau_tub, which is in (0,1). The linker that build_tubelets
    runs with g_max = 0 scores them in id order and accepts them greedily by
    descending score (ties by ascending id pair); each tubelet gains at most one
    successor and one predecessor, and accepted chains collapse transitively
    into single tubelets with their gaps filled by interpolate_gap. Surviving
    entries of the inputs are carried over with their values and flags; ids
    are reassigned in canonical (start_frame, x, y) order, which leaves an
    already-canonical input unchanged when nothing merges.
    """
    ts = sorted(ts, key=lambda t: t.tubelet_id)
    return _link(TubeletColumns.of(ts), m, g_max, tau_tub, shape, score_mode).tubelets()
