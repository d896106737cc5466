"""Tubelet construction from per-frame detections, plus per-tubelet refinement.

A tubelet is a frame-contiguous chain of boxes with one identity and class.
The builder links detections of consecutive frames one-to-one by similarity
score; refinement then blends confidences toward the tubelet mean, smooths
coordinates with a centered moving average and drops short tubelets, which
are the dominant false-positive shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ValidationError
from .geometry import BBox, Detection, FrameShape
from .io import VideoDetections
from .similarity import SimilarityModel, box_terms, link_score, pair_features


@dataclass(frozen=True)
class TubeletEntry:
    """One frame of a tubelet; interpolated marks boxes synthesized in a gap."""

    frame_idx: int
    bbox: BBox
    score: float
    interpolated: bool = False

    def __post_init__(self):
        if self.frame_idx < 0:
            raise ValidationError(f"frame_idx must be >= 0, got {self.frame_idx}")
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValidationError(f"score out of [0,1]: {self.score!r}")


@dataclass(frozen=True)
class Tubelet:
    """Frame-contiguous, single-class chain of scored boxes."""

    tubelet_id: int
    class_id: int
    entries: tuple[TubeletEntry, ...]

    def __post_init__(self):
        if self.class_id < 0:
            raise ValidationError(f"class_id must be >= 0, got {self.class_id}")
        if not self.entries:
            raise ValidationError("tubelet must hold at least one entry")
        start = self.entries[0].frame_idx
        for k, e in enumerate(self.entries):
            if e.frame_idx != start + k:
                raise ValidationError(
                    f"tubelet {self.tubelet_id} has a hole: entry {k} is at frame "
                    f"{e.frame_idx}, expected {start + k}"
                )

    @property
    def start_frame(self) -> int:
        return self.entries[0].frame_idx

    @property
    def end_frame(self) -> int:
        return self.entries[-1].frame_idx

    def __len__(self) -> int:
        return len(self.entries)

    def mean_score(self) -> float:
        return sum(e.score for e in self.entries) / len(self.entries)


def match_frame_pair(
    frame_t: list[Detection],
    frame_t1: list[Detection],
    m: SimilarityModel,
    tau_link: float,
    shape: FrameShape,
    assignment: str = "greedy",
) -> list[tuple[int, int]]:
    """One-to-one matching between two consecutive frames' detections.

    Class-mismatched pairs are excluded before scoring. The default greedy
    mode accepts pairs by descending score (ties by ascending index pair) as
    long as both endpoints are free and the score reaches tau_link; "exact"
    solves the maximum-total-score assignment over the eligible pairs
    instead. Returned pairs are (index in frame_t, index in frame_t1).
    """
    if not (0.0 < tau_link < 1.0):
        raise ContractError(f"tau_link must be in (0,1), got {tau_link}")
    if assignment not in ("greedy", "exact"):
        raise ContractError(f"unknown assignment mode: {assignment!r}")
    if not frame_t or not frame_t1:
        return []

    # what the pair loop reads of each later box, gathered once per box
    later = [(j, d.class_id, d.frame_idx, box_terms(d.bbox, d.score, d.appearance))
             for j, d in enumerate(frame_t1)]
    scored: list[tuple[float, int, int]] = []
    for i, d1 in enumerate(frame_t):
        terms = box_terms(d1.bbox, d1.score, d1.appearance)
        class_id, frame_idx = d1.class_id, d1.frame_idx
        for j, class_j, frame_j, terms_j in later:
            if class_j != class_id:
                continue
            if frame_idx >= frame_j:
                raise ContractError(
                    f"frame_t must lie in an earlier frame than frame_t1 "
                    f"(got {frame_idx} and {frame_j})"
                )
            s = link_score(m, pair_features(terms, terms_j, 1.0, shape))
            if s >= tau_link:
                scored.append((s, i, j))

    if assignment == "exact":
        return _exact_assignment(scored, len(frame_t), len(frame_t1))

    scored.sort(key=lambda p: (-p[0], p[1], p[2]))
    taken_t: set[int] = set()
    taken_t1: set[int] = set()
    out: list[tuple[int, int]] = []
    for _, i, j in scored:
        if i in taken_t or j in taken_t1:
            continue
        taken_t.add(i)
        taken_t1.add(j)
        out.append((i, j))
    return out


def _exact_assignment(
    scored: list[tuple[float, int, int]], n: int, n1: int
) -> list[tuple[int, int]]:
    from scipy.optimize import linear_sum_assignment  # only exact mode needs scipy

    # eligible pairs cost -score, everything else 0: minimizing the total
    # yields the maximum-score matching, forced zero-cost pairs are dropped
    if not scored:
        return []
    cost = np.zeros((n, n1))
    eligible = np.zeros((n, n1), dtype=bool)
    for s, i, j in scored:
        cost[i, j] = -s
        eligible[i, j] = True
    rows, cols = linear_sum_assignment(cost)
    out = [(int(i), int(j)) for i, j in zip(rows, cols) if eligible[i, j]]
    out.sort()
    return out


class _Chain:
    """Mutable accumulator used only while building."""

    __slots__ = ("class_id", "entries")

    def __init__(self, det: Detection):
        self.class_id = det.class_id
        self.entries = [TubeletEntry(det.frame_idx, det.bbox, det.score)]


def build_tubelets(
    v: VideoDetections,
    m: SimilarityModel,
    tau_link: float = 0.5,
    assignment: str = "greedy",
) -> list[Tubelet]:
    """Partition a detection stream into tubelets.

    Consecutive frames are matched pairwise; a detection with no backward
    match starts a new tubelet, so every detection lands in exactly one
    tubelet. Ids are assigned by (start_frame, first box x, y), which makes
    the output deterministic for a given input.
    """
    chains: list[_Chain] = []  # in creation order
    prev_t, prev, active = -1, [], []  # the last stored frame and its chains
    for t, curr in v.frames.items():
        if t != prev_t + 1:
            prev = []  # the frame before t holds no detections
        matches = match_frame_pair(prev, curr, m, tau_link, v.frame_shape, assignment)
        matched_next = {j: i for i, j in matches}
        next_active: list[_Chain] = []
        for j, d in enumerate(curr):
            i = matched_next.get(j)
            if i is not None:
                chain = active[i]
                chain.entries.append(TubeletEntry(d.frame_idx, d.bbox, d.score))
            else:
                chain = _Chain(d)
                chains.append(chain)
            next_active.append(chain)
        prev_t, prev, active = t, curr, next_active

    # a stable sort: ties keep creation order
    ordered = sorted(
        chains,
        key=lambda c: (c.entries[0].frame_idx, c.entries[0].bbox.x, c.entries[0].bbox.y),
    )
    return [
        Tubelet(tubelet_id=k, class_id=c.class_id, entries=tuple(c.entries))
        for k, c in enumerate(ordered)
    ]


def rescore(t: Tubelet, alpha: float = 0.5) -> Tubelet:
    """Blend every entry's confidence toward the tubelet mean.

    alpha = 1 keeps the original scores; alpha = 0 replaces them with the mean.
    The mean itself is preserved for every alpha, and variance shrinks by
    alpha^2. Geometry is untouched.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ContractError(f"alpha must be in [0,1], got {alpha}")
    mean = t.mean_score()
    entries = tuple(
        TubeletEntry(e.frame_idx, e.bbox, alpha * e.score + (1.0 - alpha) * mean, e.interpolated)
        for e in t.entries
    )
    return Tubelet(t.tubelet_id, t.class_id, entries)


def smooth_coordinates(t: Tubelet, window: int = 5) -> Tubelet:
    """Centered moving average over (cx, cy, w, h), truncated at the ends.

    The window must be odd so the average is centered; scores and
    interpolation flags pass through unchanged.
    """
    if window < 1 or window % 2 == 0:
        raise ContractError(f"window must be an odd integer >= 1, got {window}")
    if window == 1 or len(t.entries) == 1:
        return t
    half = window // 2
    n = len(t.entries)
    cx = [e.bbox.x + e.bbox.w / 2.0 for e in t.entries]
    cy = [e.bbox.y + e.bbox.h / 2.0 for e in t.entries]
    w = [e.bbox.w for e in t.entries]
    h = [e.bbox.h for e in t.entries]

    entries = []
    for k, e in enumerate(t.entries):
        lo, hi = max(0, k - half), min(n, k + half + 1)
        span = hi - lo
        mcx = sum(cx[lo:hi]) / span
        mcy = sum(cy[lo:hi]) / span
        mw = sum(w[lo:hi]) / span
        mh = sum(h[lo:hi]) / span
        bbox = BBox(mcx - mw / 2.0, mcy - mh / 2.0, mw, mh)
        entries.append(TubeletEntry(e.frame_idx, bbox, e.score, e.interpolated))
    return Tubelet(t.tubelet_id, t.class_id, tuple(entries))


def filter_short(ts: list[Tubelet], min_len: int = 2) -> list[Tubelet]:
    """Drop tubelets shorter than min_len frames."""
    if min_len < 1:
        raise ContractError(f"min_len must be >= 1, got {min_len}")
    return [t for t in ts if len(t) >= min_len]
