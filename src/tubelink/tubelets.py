"""Tubelet construction from per-frame detections, plus per-tubelet refinement.

A tubelet is a frame-contiguous chain of boxes with one identity and class.
This module holds the one linker of both levels: _link_candidates scores
same-class tail -> head pairs, _accept_greedy accepts them one-to-one by
descending score and _chains collapses the accepted links into chains. It
has two callers, and both key their links by row: _build, its gap-0 case
over detection rows, and linking._link, its g_max case over tubelet rows,
which link_tubelets orders by id. The ends come as arrays:
_link_candidates takes the candidates from geometry.overlapping_pairs, the
one pair enumerator of the package, and computes and checks their features
in slices with numpy. A slice's logits are bounded with numpy too, so that
only the pairs that may reach tau take math.log's size ratio logs, about 3%
of crowded's; the others keep np.log's. Only link_score runs once per pair,
on the pair's tuple of features, driven from C by map and np.fromiter, and
a numpy mask keeps the scores that reach tau. The candidates stay arrays of
score, tail row and head row, which _accept_greedy orders with one lexsort.
Refinement
then blends confidences toward the tubelet mean, smooths coordinates with a
centered moving average and drops short tubelets, which are the dominant
false-positive shape.

The pipeline works on TubeletColumns, all tubelets at once in arrays; the
tubelet ids, which geometry.ID checks as it checks every id, are an int64
column like the class ids. TubeletColumns.of and .tubelets convert Tubelet
objects to columns and back, losing nothing. build_tubelets, rescore and
smooth_coordinates run the array code between the two, so their entries
equal the input's in value and flag but are new objects. filter_short applies its one comparison to a list.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import ContractError, ValidationError
from .geometry import _MAX_ID, BOX, ID, BBox, FrameShape, added, check_boxes, overlapping_pairs
from .io import BoxColumns, VideoDetections, columns_of
from .settings import ODD_WINDOW, UNIT_CLOSED, UNIT_OPEN, Check, int_at_least, one_of
from .similarity import SimilarityModel, feature_columns, link_score


# a Python or numpy bool, as the value types take numpy integers and floats
FLAG = Check(lambda v: isinstance(v, (bool, np.bool_)), "True or False")


@dataclass(frozen=True)
class TubeletEntry:
    """One frame of a tubelet; interpolated marks boxes synthesized in a gap."""

    frame_idx: int
    bbox: BBox
    score: float
    interpolated: bool = False

    def __post_init__(self):
        # one inline test per rule, as in Detection
        f, s = self.frame_idx, self.score
        if not (type(f) is int and 0 <= f <= _MAX_ID):
            ID.require("frame_idx", f)
        if type(self.bbox) is not BBox:
            BOX.require("bbox", self.bbox)
        if not (type(s) is float and 0.0 <= s <= 1.0):
            UNIT_CLOSED.require("score", s)
        if type(self.interpolated) is not bool:
            FLAG.require("interpolated", self.interpolated)


# a tuple, so that a Tubelet hashes like the other value types
ENTRIES = Check(lambda v: isinstance(v, tuple) and v != () and all(
    isinstance(e, TubeletEntry) for e in v), "a non-empty tuple of TubeletEntry")


@dataclass(frozen=True)
class Tubelet:
    """Frame-contiguous, single-class chain of scored boxes."""

    tubelet_id: int
    class_id: int
    entries: tuple[TubeletEntry, ...]

    def __post_init__(self):
        i, c = self.tubelet_id, self.class_id
        if not (type(i) is int and type(c) is int and 0 <= i <= _MAX_ID and 0 <= c <= _MAX_ID):
            ID.require("tubelet_id", i)
            ID.require("class_id", c)
        es = self.entries
        if not (type(es) is tuple and set(map(type, es)) == {TubeletEntry}):
            ENTRIES.require("entries", es)
        start = es[0].frame_idx
        for k, e in enumerate(es):
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

    tubelet_id: np.ndarray  # int64, one per tubelet
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
        return cls(*np.array([[t.tubelet_id for t in ts], [t.class_id for t in ts],
                              [len(t) for t in ts]], np.int64),
                   np.array([e.frame_idx for e in es], np.int64),
                   np.array(boxes, float).reshape(-1, 4), np.array([e.score for e in es], float),
                   np.array([e.interpolated for e in es], bool))

    def select(self, keep: np.ndarray) -> TubeletColumns:
        """The tubelets where keep is True."""
        rows = np.repeat(keep, self.length)
        return TubeletColumns(self.tubelet_id[keep], self.class_id[keep], self.length[keep],
                              self.frame[rows], self.box[rows], self.score[rows],
                              self.interpolated[rows])

    def tubelets(self) -> list[Tubelet]:
        """The Tubelet objects of these columns, the inverse of of()."""
        entries = list(map(TubeletEntry, self.frame.tolist(), [BBox(*b) for b in self.box.tolist()],
                           self.score.tolist(), self.interpolated.tolist()))
        return [Tubelet(i, c, tuple(entries[s:s + n])) for i, c, s, n in zip(*(
            a.tolist() for a in (self.tubelet_id, self.class_id, self.start, self.length)))]


ASSIGNMENT = one_of("greedy", "exact")
MIN_LEN = int_at_least(1)

# the candidate pairs whose features are computed at once, about 0.7 kB each
# meanwhile, the log gate's arrays included (tracemalloc, crowded's first
# video): 8,192 raised perfbench's peak_rss_mb by 2-4%, 2,048 ran as fast
_PAIR_CHUNK = 2048


def _link_candidates(tails: tuple, heads: tuple, m: SimilarityModel, g_max: int, tau: float,
                     shape: FrameShape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The link scorer of both levels: the score, tail row and head row of
    each same-class pair reaching tau whose head starts 1..g_max + 1 frames
    after its tail ends, the displacement divided by that frame distance, as
    three arrays in enumeration order. Tails and heads are the columns
    (frame, class_id, box, score, descriptor, descriptor_len) of BoxColumns,
    one row per end: a tail's last frame and a head's first. tau is in (0,1)
    at both levels, since link_score stays below 1.

    The pairs come from geometry.overlapping_pairs, the sweep that NMS and
    eval use, keyed by dense class ids over both sides. A head spans [rank,
    rank + 1), rank being its frame's rank among the head frames, and a tail
    the ranks of the head frames end + 1 .. end + 1 + g_max. Ids and ranks
    are below the number of rows, so float64 holds every key and extent
    exactly, whatever the class ids and frames (2**53 + 1 and 2**63 - 1
    included). The sweep yields the pairs tail by tail, each tail's heads
    in frame order and ties in row order, and the features of each chunk
    are computed in slices of _PAIR_CHUNK pairs. feature_columns checks
    LinkFeatures' rules on the slice and stops its columns at the first
    pair that fails them; given m and tau, it takes math.log's size ratio
    logs only for the pairs whose bounded logit may reach tau, and np.log's
    for the others, which score below tau either way. The slice is then
    scored in one pass with no Python loop and no object per pair:
    np.fromiter draws from a lazy map that calls link_score on pair k's
    tuple of features, once per pair, before pair k + 1; the scores >= tau
    are then kept with a numpy mask, and the kept pairs of every slice are
    joined once at the end. So the first pair that fails raises its own
    error: link_score's while the pairs are scored, or feature_columns'
    once the pairs before it are.
    """
    UNIT_OPEN.require("link threshold", tau, ContractError)
    (t_frame, t_class), (h_frame, h_class) = tails[:2], heads[:2]
    key = np.unique(np.concatenate([t_class, h_class]), return_inverse=True)[1]
    frames, rank = np.unique(h_frame, return_inverse=True)
    # a head spans [rank, rank + 1) and a tail the ranks of the frames end + 1
    # .. end + 1 + g_max, the last clamped so that no bound leaves int64
    last = t_frame + np.minimum(min(g_max, _MAX_ID - 1) + 1, _MAX_ID - t_frame)
    span = [np.searchsorted(frames, f, "right") for f in (t_frame, last)]
    # each slice's kept pairs, after an empty first so that no pair gives arrays too
    out = [(np.zeros(0), np.zeros(0, np.int64), np.zeros(0, np.int64))]
    for pairs in overlapping_pairs(key[:len(t_frame)], *span, key[len(t_frame):], rank, rank + 1):
        for first in range(0, len(pairs[0]), _PAIR_CHUNK):
            i, j = (a[first:first + _PAIR_CHUNK] for a in pairs)
            columns, error = feature_columns(tails[1:], heads[1:], i, j, h_frame[j] - t_frame[i],
                                             shape, m, tau)
            # zip reuses its result tuple: no object is built per pair
            s = np.fromiter(map(link_score, repeat(m), zip(*columns)), float, len(columns[0]))
            k = np.flatnonzero(s >= tau)  # s stops at a failing pair, i and j do not
            out.append((s[k], i[k], j[k]))
            if error:
                raise error
    return tuple(np.concatenate(a) for a in zip(*out))


def _accept_greedy(score: np.ndarray, tail: np.ndarray, head: np.ndarray) -> dict[int, int]:
    """The greedy acceptor of both levels: by descending score, ties by
    ascending (tail, head) row pair, a candidate is accepted while its tail has
    no successor and its head no predecessor. Returns successor[tail] = head.
    The candidates are _link_candidates' arrays, put in this order by one
    lexsort of (-score, tail, head): no (tail, head) pair comes twice, so the
    order is total, and every score is in (0, 1), so negating the scores
    reverses their order exactly."""
    order = np.lexsort((head, tail, -score))
    successor: dict[int, int] = {}
    linked: set[int] = set()
    for a, b in zip(tail[order].tolist(), head[order].tolist()):
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
        successor = _accept_greedy(*scored)
    else:  # each frame pair's candidates, in the pair's own indices
        # the rows are sorted by frame: each row's frame starts at first[row]
        first, stop = (np.searchsorted(c.frame_idx, c.frame_idx, side).tolist()
                       for side in ("left", "right"))
        per_pair: defaultdict[tuple[int, int], list] = defaultdict(list)
        for s, a, b in zip(*(x.tolist() for x in scored)):
            per_pair[first[a], first[b]].append((s, a - first[a], b - first[b]))
        successor = {
            a + i: b + j for (a, b), pair in per_pair.items()
            for i, j in _exact_assignment(pair, stop[a] - a, stop[b] - b)
        }
    rows, length = _chains(successor, c.frame_idx, c.box)
    return TubeletColumns(np.arange(len(length)), c.class_id[rows[np.cumsum(length) - length]],
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
