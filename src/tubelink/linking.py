"""Linking tubelets across bounded temporal gaps with linear gap filling.

Frame-level linking only joins detections in adjacent frames, so a few missed
frames split one object into two tubelets. This module pairs the end of one
tubelet with the start of another when the temporal gap is at most g_max and
the end/start boxes score as the same object, then fills the gap by linear
interpolation. Interpolated frames get the average of the two fragments'
confidences.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .errors import ContractError
from .geometry import BBox, FrameShape
from .similarity import SimilarityModel, box_terms, link_score, pair_features
from .tubelets import Tubelet, TubeletEntry


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

    tcx, tcy = tail.bbox.x + tail.bbox.w / 2.0, tail.bbox.y + tail.bbox.h / 2.0
    hcx, hcy = head.bbox.x + head.bbox.w / 2.0, head.bbox.y + head.bbox.h / 2.0

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
    score at least tau_tub. Pairs are accepted greedily by descending score
    (ties by ascending id pair); each tubelet gains at most one successor and
    one predecessor, and accepted chains collapse transitively into single
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
    ids = [t.tubelet_id for t in ts]
    if len(set(ids)) != len(ids):
        raise ContractError("tubelet ids must be unique before linking")
    if not ts:
        return []

    by_id = {t.tubelet_id: t for t in ts}
    starts = sorted(ts, key=lambda t: (t.start_frame, t.tubelet_id))
    start_frames = [t.start_frame for t in starts]

    heads = [box_terms(t.entries[0].bbox, t.entries[0].score) for t in starts]

    # tubelet_link_score of each candidate, with each box's terms computed once
    candidates: list[tuple[float, int, int]] = []
    for a in ts:
        end = a.end_frame
        lo = bisect_left(start_frames, end + 1)
        hi = bisect_right(start_frames, end + 1 + g_max)
        tail = box_terms(a.entries[-1].bbox, a.entries[-1].score)
        for k in range(lo, hi):
            b = starts[k]
            if b.class_id != a.class_id or b.tubelet_id == a.tubelet_id:
                continue
            f = pair_features(tail, heads[k], 1.0, shape, start_frames[k] - end)
            s = link_score(m, f)
            if s >= tau_tub:
                candidates.append((s, a.tubelet_id, b.tubelet_id))

    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    successor: dict[int, int] = {}
    predecessor: dict[int, int] = {}
    for _, a_id, b_id in candidates:
        if a_id in successor or b_id in predecessor:
            continue
        successor[a_id] = b_id
        predecessor[b_id] = a_id

    merged: list[Tubelet] = []
    for t in ts:
        if t.tubelet_id in predecessor:
            continue  # not a chain head
        entries = list(t.entries)
        cur = t
        while cur.tubelet_id in successor:
            nxt = by_id[successor[cur.tubelet_id]]
            if tubelet_gap(cur, nxt) >= 1:
                entries.extend(interpolate_gap(cur, nxt, score_mode))
            entries.extend(nxt.entries)
            cur = nxt
        merged.append(Tubelet(t.tubelet_id, t.class_id, tuple(entries)))

    merged.sort(key=lambda t: (t.start_frame, t.entries[0].bbox.x, t.entries[0].bbox.y, t.tubelet_id))
    return [Tubelet(k, t.class_id, t.entries) for k, t in enumerate(merged)]
