"""Tubelet construction from per-frame detections, plus per-tubelet refinement.

A tubelet is a frame-contiguous chain of boxes with one identity and class.
This module holds the one linker of both levels: _link_candidates scores
same-class tail -> head pairs, _accept_greedy accepts them one-to-one by
descending score and _follow_chains collapses the accepted links into chains.
It has two callers: build_tubelets, its gap-0 case over single detections,
and linking.link_tubelets, its g_max case over tubelets. Refinement then
blends confidences toward the tubelet mean, smooths coordinates with a
centered moving average and drops short tubelets, which are the dominant
false-positive shape.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ValidationError
from .geometry import BBox, Detection, FrameShape, center
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


def _link_candidates(tails: list[tuple], heads: list[tuple], m: SimilarityModel,
                     g_max: int, tau: float, shape: FrameShape) -> list[tuple[float, int, int]]:
    """The link scorer of both levels: (score, tail key, head key) of each
    same-class pair reaching tau whose head starts 1..g_max + 1 frames after
    its tail ends, the displacement divided by that frame distance. Tails and
    heads are (key, class_id, frame, box_terms) records, the frame being a
    tail's last and a head's first; heads come in frame order."""
    starts = [h[2] for h in heads]
    out: list[tuple[float, int, int]] = []
    for key, class_id, end, terms in tails:
        lo, hi = bisect_left(starts, end + 1), bisect_right(starts, end + 1 + g_max)
        for head_key, head_class, start, head_terms in heads[lo:hi]:
            if head_class == class_id:
                s = link_score(m, pair_features(terms, head_terms, 1.0, shape, start - end))
                if s >= tau:
                    out.append((s, key, head_key))
    return out


def _accept_greedy(candidates: list[tuple[float, int, int]]) -> dict[int, int]:
    """The greedy acceptor of both levels: by descending score, ties by
    ascending (tail, head) key pair, a candidate is accepted while its tail has
    no successor and its head no predecessor. Returns successor[tail] = head."""
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    successor: dict[int, int] = {}
    linked: set[int] = set()
    for _, a, b in candidates:
        if a not in successor and b not in linked:
            successor[a] = b
            linked.add(b)
    return successor


def _follow_chains(keys, successor: dict[int, int]) -> list[list[int]]:
    """The keys split into chains along the accepted links, one chain per key
    that no link enters, in the order of those keys."""
    linked = set(successor.values())
    chains = [[k] for k in keys if k not in linked]
    for chain in chains:
        while chain[-1] in successor:
            chain.append(successor[chain[-1]])
    return chains


def _exact_assignment(
    scored: list[tuple[float, int, int]], n: int, n1: int
) -> list[tuple[int, int]]:
    """The maximum-total-score one-to-one matching of one frame pair's scored
    (score, i, j) candidates, as (i, j) pairs in no set order."""
    from scipy.optimize import linear_sum_assignment  # only exact mode needs scipy

    # eligible pairs cost -score, everything else 0: minimizing the total
    # yields the maximum-score matching, forced zero-cost pairs are dropped
    cost = np.zeros((n, n1))
    eligible = np.zeros((n, n1), dtype=bool)
    for s, i, j in scored:
        cost[i, j] = -s
        eligible[i, j] = True
    rows, cols = linear_sum_assignment(cost)
    return [(int(i), int(j)) for i, j in zip(rows, cols) if eligible[i, j]]


def build_tubelets(
    v: VideoDetections,
    m: SimilarityModel,
    tau_link: float = 0.5,
    assignment: str = "greedy",
) -> list[Tubelet]:
    """Partition a detection stream into tubelets.

    This is link_tubelets with g_max = 0 over one-box tubelets, each box's
    box_terms computed once. Greedy decisions of different frame pairs never
    compete for an endpoint, so one sort over the stream gives each frame
    pair's greedy matching; "exact" solves each frame pair on its full cost
    matrix instead. A detection with no backward link starts a new tubelet,
    so every detection lands in exactly one tubelet. Ids are assigned by
    (start_frame, first box x, y), ties in stream order, which makes the
    output deterministic for a given input.
    """
    if not (0.0 < tau_link < 1.0):
        raise ContractError(f"tau_link must be in (0,1), got {tau_link}")
    if assignment not in ("greedy", "exact"):
        raise ContractError(f"unknown assignment mode: {assignment!r}")
    dets: list[Detection] = []
    first: dict[int, int] = {}  # the key of each stored frame's first detection
    for t, frame in v.frames.items():
        first[t] = len(dets)
        dets.extend(frame)
    nodes = [(k, d.class_id, d.frame_idx, box_terms(d.bbox, d.score, d.appearance))
             for k, d in enumerate(dets)]
    scored = _link_candidates(nodes, nodes, m, 0, tau_link, v.frame_shape)
    if assignment == "greedy":
        successor = _accept_greedy(scored)
    else:  # each frame pair's candidates, in the pair's own indices
        per_pair: defaultdict[int, list] = defaultdict(list)
        for s, a, b in scored:
            t = dets[a].frame_idx
            per_pair[t].append((s, a - first[t], b - first[t + 1]))
        successor = {
            first[t] + i: first[t + 1] + j for t, pair in per_pair.items()
            for i, j in _exact_assignment(pair, len(v.frames[t]), len(v.frames[t + 1]))
        }

    entries = [TubeletEntry(d.frame_idx, d.bbox, d.score) for d in dets]
    chains = _follow_chains(range(len(dets)), successor)
    # a stable sort: ties keep stream order
    chains.sort(key=lambda c: (dets[c[0]].frame_idx, dets[c[0]].bbox.x, dets[c[0]].bbox.y))
    return [Tubelet(k, dets[c[0]].class_id, tuple(entries[i] for i in c))
            for k, c in enumerate(chains)]


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
    cx, cy = zip(*(center(e.bbox) for e in t.entries))
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
