"""Linking tubelets across bounded temporal gaps with linear gap filling.

Frame-level linking only joins detections in adjacent frames, so a few missed
frames split one object into two tubelets. This module pairs the end of one
tubelet with the start of another when the temporal gap is at most g_max and
the end/start boxes score as the same object, then fills the gap by linear
interpolation. Interpolated frames get the average of the two fragments'
confidences.
"""

from __future__ import annotations

from .errors import ContractError
from .geometry import BBox, FrameShape, center
from .similarity import SimilarityModel, box_terms, link_score, pair_features
from .tubelets import Tubelet, TubeletEntry, _accept_greedy, _follow_chains, _link_candidates


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
    f = pair_features(box_terms(tail.bbox, tail.score), box_terms(head.bbox, head.score),
                      1.0, shape, gap + 1)
    return link_score(m, f)


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
    if score_mode not in ("mean", "endpoint"):
        raise ContractError(f"unknown score_mode: {score_mode!r}")
    gap = tubelet_gap(a, b)
    if gap < 1:
        raise ContractError(
            f"interpolate_gap needs a gap of at least 1 frame, got {gap}"
        )
    tail, head = a.entries[-1], b.entries[0]
    if score_mode == "mean":
        score = (a.mean_score() + b.mean_score()) / 2.0
    else:
        score = (tail.score + head.score) / 2.0

    (tcx, tcy), (hcx, hcy) = center(tail.bbox), center(head.bbox)

    out = []
    for k in range(1, gap + 1):
        t = k / (gap + 1)
        cx = tcx + t * (hcx - tcx)
        cy = tcy + t * (hcy - tcy)
        w = tail.bbox.w + t * (head.bbox.w - tail.bbox.w)
        h = tail.bbox.h + t * (head.bbox.h - tail.bbox.h)
        out.append(
            TubeletEntry(
                frame_idx=tail.frame_idx + k,
                bbox=BBox(cx - w / 2.0, cy - h / 2.0, w, h),
                score=score,
                interpolated=True,
            )
        )
    return out


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
    score at least tau_tub. The linker that build_tubelets runs with g_max = 0
    scores them and accepts them greedily by descending score (ties by
    ascending id pair); each tubelet gains at most one successor and one
    predecessor, and accepted chains collapse transitively into single
    tubelets with their gaps filled by interpolate_gap. Surviving entries of
    the inputs are carried over bit for bit; ids are reassigned in canonical
    (start_frame, x, y) order, which leaves an already-canonical input
    unchanged when nothing merges.
    """
    if g_max < 0:
        raise ContractError(f"g_max must be >= 0, got {g_max}")
    if not (0.0 < tau_tub <= 1.0):
        raise ContractError(f"tau_tub must be in (0,1], got {tau_tub}")
    if shape is None:
        raise ContractError("link_tubelets needs the frame shape")
    by_id = {t.tubelet_id: t for t in ts}
    if len(by_id) != len(ts):
        raise ContractError("tubelet ids must be unique before linking")

    tails = [(t.tubelet_id, t.class_id, t.end_frame,
              box_terms(t.entries[-1].bbox, t.entries[-1].score)) for t in ts]
    heads = sorted(((t.tubelet_id, t.class_id, t.start_frame,
                     box_terms(t.entries[0].bbox, t.entries[0].score)) for t in ts),
                   key=lambda h: h[2])
    successor = _accept_greedy(_link_candidates(tails, heads, m, g_max, tau_tub, shape))

    merged: list[Tubelet] = []
    for chain in _follow_chains(by_id, successor):
        parts = [by_id[k] for k in chain]
        entries = list(parts[0].entries)
        for cur, nxt in zip(parts, parts[1:]):
            if tubelet_gap(cur, nxt) >= 1:
                entries.extend(interpolate_gap(cur, nxt, score_mode))
            entries.extend(nxt.entries)
        merged.append(Tubelet(parts[0].tubelet_id, parts[0].class_id, tuple(entries)))

    merged.sort(key=lambda t: (t.start_frame, t.entries[0].bbox.x, t.entries[0].bbox.y, t.tubelet_id))
    return [Tubelet(k, t.class_id, t.entries) for k, t in enumerate(merged)]
