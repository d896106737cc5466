"""Tubelet construction from per-frame detections, plus per-tubelet refinement.

A tubelet is a frame-contiguous chain of boxes with one identity and class.
This module holds the one linker of both levels: _link_candidates scores
same-class tail -> head pairs, _accept_greedy accepts them one-to-one by
descending score and _chains collapses the accepted links into chains. It
has two callers, and both key their links by row: _build, its gap-0 case
over detection rows, and linking._link, its g_max case over tubelet rows,
which link_tubelets orders by id. The ends come as arrays:
_link_candidates enumerates the candidates with one sort and a searchsorted
window per tail and computes their features in chunks with numpy; only
LinkFeatures and link_score run once per pair, driven from C by map and
np.fromiter, and a numpy mask keeps the scores that reach tau. Refinement
then blends confidences toward the tubelet mean, smooths coordinates with a
centered moving average and drops short tubelets, which are the dominant
false-positive shape.

The pipeline works on TubeletColumns, all tubelets at once in arrays.
TubeletColumns.of and .tubelets convert Tubelet objects to columns and back,
losing nothing. build_tubelets, rescore and smooth_coordinates run the array
code between the two, so their entries equal the input's in value and flag
but are new objects. filter_short applies its one comparison to a list.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import ContractError, ValidationError
from .geometry import _MAX_ID, BBox, FrameShape, added, check_boxes
from .io import BoxColumns, VideoDetections, columns_of
from .settings import ODD_WINDOW, UNIT_CLOSED, UNIT_OPEN, int_at_least, integer, one_of
from .similarity import LinkFeatures, SimilarityModel, feature_columns, link_score


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
        if self.frame_idx > _MAX_ID:
            raise ValidationError(f"frame_idx must be at most 2**63 - 1, got {self.frame_idx}")
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValidationError(f"score out of [0,1]: {self.score!r}")


@dataclass(frozen=True)
class Tubelet:
    """Frame-contiguous, single-class chain of scored boxes."""

    tubelet_id: int
    class_id: int
    entries: tuple[TubeletEntry, ...]

    def __post_init__(self):
        # any size: link_tubelets orders by id, and #tubelets files carry ids of any size
        integer(lambda i: True, "an integer").require("tubelet_id", self.tubelet_id)
        if self.class_id < 0:
            raise ValidationError(f"class_id must be >= 0, got {self.class_id}")
        if self.class_id > _MAX_ID:
            raise ValidationError(f"class_id must be at most 2**63 - 1, got {self.class_id}")
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
        return float(_means(TubeletColumns.of([self]))[0])


@dataclass
class TubeletColumns:
    """Tubelets as arrays: tubelet k holds the length[k] entries from
    start[k] on, and the entries run tubelet after tubelet."""

    tubelet_id: list[int]
    class_id: np.ndarray  # int64, one per tubelet
    length: np.ndarray  # int64, one per tubelet
    frame: np.ndarray  # int64, one per entry
    box: np.ndarray  # one row (x, y, w, h) per entry
    score: np.ndarray
    interpolated: np.ndarray  # bool, one per entry

    @property
    def start(self) -> np.ndarray:
        return np.cumsum(self.length) - self.length

    @classmethod
    def of(cls, ts: list[Tubelet]) -> TubeletColumns:
        es = [e for t in ts for e in t.entries]
        boxes = [(e.bbox.x, e.bbox.y, e.bbox.w, e.bbox.h) for e in es]
        return cls([t.tubelet_id for t in ts], np.array([t.class_id for t in ts], np.int64),
                   np.array([len(t) for t in ts], np.int64),
                   np.array([e.frame_idx for e in es], np.int64),
                   np.array(boxes, float).reshape(-1, 4), np.array([e.score for e in es], float),
                   np.array([e.interpolated for e in es], bool))

    def select(self, keep: np.ndarray) -> TubeletColumns:
        """The tubelets where keep is True."""
        rows = np.repeat(keep, self.length)
        return TubeletColumns([i for i, k in zip(self.tubelet_id, keep.tolist()) if k],
                              self.class_id[keep], self.length[keep], self.frame[rows],
                              self.box[rows], self.score[rows], self.interpolated[rows])

    def tubelets(self) -> list[Tubelet]:
        """The Tubelet objects of these columns, the inverse of of()."""
        entries = list(map(TubeletEntry, self.frame.tolist(), [BBox(*b) for b in self.box.tolist()],
                           self.score.tolist(), self.interpolated.tolist()))
        return [Tubelet(i, c, tuple(entries[s:s + n])) for i, c, s, n in zip(
            self.tubelet_id, self.class_id.tolist(), self.start.tolist(), self.length.tolist())]


ASSIGNMENT = one_of("greedy", "exact")
MIN_LEN = int_at_least(1)

# the candidate pairs whose features are computed at once, about 0.7 kB each
# meanwhile: 8,192 raised perfbench's peak_rss_mb by 2-4%, 2,048 ran as fast
_PAIR_CHUNK = 2048


def _link_candidates(tails: tuple, heads: tuple, m: SimilarityModel, g_max: int, tau: float,
                     shape: FrameShape) -> list[tuple[float, int, int]]:
    """The link scorer of both levels: (score, tail row, head row) of each
    same-class pair reaching tau whose head starts 1..g_max + 1 frames after
    its tail ends, the displacement divided by that frame distance. Tails and
    heads are the columns (frame, class_id, box, score, descriptor,
    descriptor_len) of BoxColumns, one row per end: a tail's last frame and
    a head's first. tau is in (0,1) at both levels, since link_score stays
    below 1.

    The pairs are enumerated tail by tail, each tail's heads in frame order
    and ties in row order, and their features are computed in chunks of
    _PAIR_CHUNK pairs. A chunk is scored in one pass with no Python loop:
    np.fromiter draws from a lazy map that builds pair k's LinkFeatures and
    then calls link_score on it, once per pair, before pair k + 1; the
    scores >= tau are then kept with a numpy mask. So the first pair that
    fails raises its own error, and an error of feature_columns is raised
    only after the pairs before it are scored.
    """
    UNIT_OPEN.require("link threshold", tau, ContractError)
    (t_frame, t_class), (h_frame, h_class) = tails[:2], heads[:2]
    if not len(t_frame) or not len(h_frame):
        return []
    # heads by (class, frame), stably; their key is (class rank, frame rank)
    order = np.lexsort((h_frame, h_class))
    frames, classes = np.unique(h_frame), np.unique(h_class)
    span = len(frames)
    key = np.searchsorted(classes, h_class[order]) * span + np.searchsorted(frames, h_frame[order])
    rank = np.searchsorted(classes, t_class)
    same = classes[np.minimum(rank, len(classes) - 1)] == t_class
    # the frames end + 1 .. end + 1 + g_max, clamped to the last head frame,
    # so that no bound leaves int64
    last = t_frame + np.minimum(min(g_max, _MAX_ID - 1) + 1, frames[-1] - t_frame)
    lo = np.searchsorted(key, rank * span + np.searchsorted(frames, t_frame, "right"))
    count = np.where(same, np.searchsorted(key, rank * span + np.searchsorted(
        frames, last, "right")) - lo, 0)
    ends = np.cumsum(count)
    out: list[tuple[float, int, int]] = []
    for first in range(0, int(ends[-1]), _PAIR_CHUNK):
        at = np.arange(first, min(first + _PAIR_CHUNK, int(ends[-1])))
        i = np.searchsorted(ends, at, "right")
        j = order[lo[i] + at - (ends[i] - count[i])]
        columns, error = feature_columns(tails[1:], heads[1:], i, j, h_frame[j] - t_frame[i], shape)
        # lazy: building every LinkFeatures first would raise a later pair's error first
        s = np.fromiter(map(link_score, repeat(m), map(LinkFeatures, *columns)), float,
                        len(columns[0]))
        k = np.flatnonzero(s >= tau)
        out += zip(s[k].tolist(), i[k].tolist(), j[k].tolist())
        if error:
            raise error
    return out


def _accept_greedy(candidates: list[tuple[float, int, int]]) -> dict[int, int]:
    """The greedy acceptor of both levels: by descending score, ties by
    ascending (tail, head) row pair, a candidate is accepted while its tail has
    no successor and its head no predecessor. Returns successor[tail] = head."""
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    successor: dict[int, int] = {}
    linked: set[int] = set()
    for _, a, b in candidates:
        if a not in successor and b not in linked:
            successor[a] = b
            linked.add(b)
    return successor


def _chains(successor: dict[int, int], frame: np.ndarray,
            box: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows split into chains along the accepted links, successor[row] =
    next row: one chain per row that no link enters, the chains stably
    sorted by the frame, x and y of their first row. Returns the rows, chain
    after chain, and each chain's length."""
    starts = np.flatnonzero(np.bincount(np.fromiter(
        successor.values(), np.int64, len(successor)), minlength=len(frame)) == 0)
    starts = starts[np.lexsort((box[starts, 1], box[starts, 0], frame[starts]))]
    chains = [[row] for row in starts.tolist()]
    for rows in chains:
        while rows[-1] in successor:
            rows.append(successor[rows[-1]])
    return (np.fromiter(chain.from_iterable(chains), np.int64, len(frame)),
            np.fromiter(map(len, chains), np.int64, len(chains)))


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


def _build(c: BoxColumns, m: SimilarityModel, tau_link: float, assignment: str) -> TubeletColumns:
    """build_tubelets over rows sorted by frame."""
    ASSIGNMENT.require("assignment", assignment, ContractError)
    ends = (c.frame_idx, c.class_id, c.box, c.score, c.descriptor, c.descriptor_len)
    scored = _link_candidates(ends, ends, m, 0, tau_link, c.frame_shape)
    if assignment == "greedy":
        successor = _accept_greedy(scored)
    else:  # each frame pair's candidates, in the pair's own indices
        # the rows are sorted by frame: each row's frame starts at first[row]
        first, stop = (np.searchsorted(c.frame_idx, c.frame_idx, side).tolist()
                       for side in ("left", "right"))
        per_pair: defaultdict[tuple[int, int], list] = defaultdict(list)
        for s, a, b in scored:
            per_pair[first[a], first[b]].append((s, a - first[a], b - first[b]))
        successor = {
            a + i: b + j for (a, b), pair in per_pair.items()
            for i, j in _exact_assignment(pair, stop[a] - a, stop[b] - b)
        }
    rows, length = _chains(successor, c.frame_idx, c.box)
    return TubeletColumns(list(range(len(length))), c.class_id[rows[np.cumsum(length) - length]],
                          length, c.frame_idx[rows], c.box[rows], c.score[rows],
                          np.zeros(len(rows), bool))


def build_tubelets(
    v: VideoDetections,
    m: SimilarityModel,
    tau_link: float = 0.5,
    assignment: str = "greedy",
) -> list[Tubelet]:
    """Partition a detection stream into tubelets.

    This is link_tubelets with g_max = 0 over one-box tubelets. Greedy
    decisions of different frame pairs never compete for an endpoint, so
    one sort over the stream gives each frame pair's greedy matching;
    "exact" solves each frame pair on its full cost matrix instead. A
    detection with no backward link starts a new tubelet, so every
    detection lands in exactly one tubelet. Ids are assigned by
    (start_frame, first box x, y), ties in stream order, which makes the
    output deterministic for a given input.
    """
    return _build(columns_of(v), m, tau_link, assignment).tubelets()


def _means(t: TubeletColumns) -> np.ndarray:
    """Each tubelet's mean score: its scores added left to right, over its length."""
    scores, ends = t.score.tolist(), np.cumsum(t.length).tolist()
    return np.array([added(scores[end - n:end]) / n
                     for end, n in zip(ends, t.length.tolist())])


def _rescore(t: TubeletColumns, alpha: float) -> np.ndarray:
    """rescore's scores of every entry."""
    UNIT_CLOSED.require("alpha", alpha, ContractError)
    return alpha * t.score + (1.0 - alpha) * np.repeat(_means(t), t.length)


@np.errstate(over="ignore", invalid="ignore")
def _smooth(t: TubeletColumns, window: int) -> np.ndarray:
    """smooth_coordinates' boxes of every entry."""
    ODD_WINDOW.require("window", window, ContractError)
    if window == 1:
        return t.box
    x, y, w, h = t.box.T
    terms = np.column_stack([x + w / 2.0, y + h / 2.0, w, h])  # centre and size
    size = np.repeat(t.length, t.length)
    at = np.arange(len(size))
    pos = at - np.repeat(t.start, t.length)
    total, span = np.zeros(terms.shape), np.zeros(len(size))
    # an offset beyond the longest tubelet would add only 0.0 and False
    half = min(window // 2, int(t.length.max(initial=1)) - 1)
    for offset in range(-half, half + 1):  # left to right, as in _means
        inside = (pos + offset >= 0) & (pos + offset < size)
        total += np.where(inside[:, None], terms[np.where(inside, at + offset, at)], 0.0)
        span += inside
    cx, cy, mw, mh = (total / span[:, None]).T
    box = np.where((size > 1)[:, None],
                   np.column_stack([cx - mw / 2.0, cy - mh / 2.0, mw, mh]), t.box)
    check_boxes(box)
    return box


def rescore(t: Tubelet, alpha: float = 0.5) -> Tubelet:
    """Blend every entry's confidence toward the tubelet mean.

    alpha = 1 keeps the original scores; alpha = 0 replaces them with the mean.
    The mean itself is preserved for every alpha, and variance shrinks by
    alpha^2. Geometry is untouched.
    """
    c = TubeletColumns.of([t])
    c.score = _rescore(c, alpha)
    return c.tubelets()[0]


def smooth_coordinates(t: Tubelet, window: int = 5) -> Tubelet:
    """Centered moving average over (cx, cy, w, h), truncated at the ends.

    The window must be odd so the average is centered; scores and
    interpolation flags pass through unchanged.
    """
    c = TubeletColumns.of([t])
    c.box = _smooth(c, window)
    return c.tubelets()[0]


def filter_short(ts: list[Tubelet], min_len: int = 2) -> list[Tubelet]:
    """Drop tubelets shorter than min_len frames."""
    MIN_LEN.require("min_len", min_len, ContractError)
    return [t for t in ts if len(t) >= min_len]
