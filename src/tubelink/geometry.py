"""Box and detection value types plus the geometric primitives built on them.

Boxes are axis-aligned (x, y, w, h) with a top-left pixel origin. All types
here are immutable values and all operations are pure functions, so they are
safe to share across workers.

The value types (BBox and Detection here, io.TrackBox, tubelets.TubeletEntry
and tubelets.Tubelet) check their fields on construction, one Check per
rule: every id and frame, tubelet ids included, with ID, a Python or numpy
integer in [0, 2**63 - 1] that is not a bool; every score with
settings.UNIT_CLOSED, a number in [0, 1] that is not a bool; every box field
with settings.FINITE, a finite number that is not a bool; every box with
BOX, a BBox. A field that breaks its rule raises ValidationError worded as a
setting's is, ``<field> must be <expect>, got <value>``. Each constructor
runs one inline test per rule (a Python int in range, a Python float in
[0, 1], BBox's four Python floats with finite corners, a BBox) and sends
only a value that fails it to the Check, which takes numpy values too and
words the error.

overlapping_pairs is the one pair enumerator of the package: a
sort-and-sweep over x extents that yields the same-key pairs whose extents
overlap, in chunks of at most PAIR_BUDGET pairs. nms_rows takes its pairs
from it, and so do evaluation's matching and the linker of both levels
(tubelets._link_candidates), whose extents are ranks of frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ValidationError
from .settings import FINITE, FRAME_SIDE, UNIT_CLOSED, UNIT_OPEN, Check, integer

_MAX_ID = 2 ** 63 - 1  # the largest id or frame: each fits int64 columns
ID = integer(lambda v: 0 <= v <= _MAX_ID, "an integer in [0, 2**63 - 1]")
# a descriptor is hashed with its Detection and read by columns_of as a sequence
APPEARANCE = Check(lambda v: v is None or isinstance(v, tuple) and all(map(FINITE.ok, v)),
                   "None or a tuple of finite numbers")


def added(values):
    """The values added left to right, as sum() does up to Python 3.11 (3.12 compensates)."""
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box: top-left corner (x, y), positive width and height."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        # The corners x + w and y + h are finite only when all four fields
        # are, and every IoU takes differences of them: an inf corner gives NaN.
        # The inline test takes four Python floats with finite corners, as
        # a score's takes a Python float. Any other field goes to FINITE,
        # which takes a finite real but not a bool, and then the corners are
        # tested in float (x * 1.0), as FINITE keeps an integer in its range.
        if not (type(self.x) is type(self.y) is type(self.w) is type(self.h) is float
                and math.isfinite(self.x + self.w) and math.isfinite(self.y + self.h)):
            for name in "xywh":
                FINITE.require(f"bbox.{name}", getattr(self, name))
            if not (math.isfinite(self.x * 1.0 + self.w) and math.isfinite(self.y * 1.0 + self.h)):
                raise ValidationError(f"bbox corner is not finite: x + w = {self.x + self.w!r}, "
                                      f"y + h = {self.y + self.h!r}")
        if self.w <= 0 or self.h <= 0:
            raise ValidationError(f"bbox has non-positive size: w={self.w}, h={self.h}")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h


# the box of Detection, io.TrackBox and tubelets.TubeletEntry
BOX = Check(lambda v: isinstance(v, BBox), "a BBox")


@np.errstate(over="ignore", invalid="ignore")
def check_boxes(box: np.ndarray) -> None:
    """Raise BBox's own error for the first row (x, y, w, h) that it rejects."""
    x, y, w, h = box.T
    bad = ~(np.isfinite(x + w) & np.isfinite(y + h) & (w > 0) & (h > 0))
    if bad.any():
        BBox(*box[bad.argmax()].tolist())


@dataclass(frozen=True)
class FrameShape:
    """Pixel dimensions of the video frames a stream was produced from: each
    side a Python or numpy integer that settings.FRAME_SIDE takes, so that a
    stream header writes and reads back. Anything else raises ValidationError
    on construction, as ScenarioConfig's width and height do."""

    width: int
    height: int

    def __post_init__(self):
        FRAME_SIDE.require("width", self.width)
        FRAME_SIDE.require("height", self.height)


@dataclass(frozen=True)
class Detection:
    """One detector output: a scored, classed box in one frame.

    The appearance descriptor is optional; when present it must be a
    unit-norm tuple of finite numbers (used only for cosine similarity
    between detections).
    """

    frame_idx: int
    class_id: int
    bbox: BBox
    score: float
    appearance: tuple[float, ...] | None = None

    def __post_init__(self):
        # one inline test per rule; only a value that fails it goes to the
        # rule's Check, which also takes numpy values and names the field
        f, k, s, a = self.frame_idx, self.class_id, self.score, self.appearance
        if not (type(f) is int and type(k) is int and 0 <= f <= _MAX_ID and 0 <= k <= _MAX_ID):
            ID.require("frame_idx", f)
            ID.require("class_id", k)
        if type(self.bbox) is not BBox:
            BOX.require("bbox", self.bbox)
        if not (type(s) is float and 0.0 <= s <= 1.0):
            UNIT_CLOSED.require("score", s)
        if a is not None:
            # a NaN would pass the norm test below, as every comparison with it fails
            try:
                finite = type(a) is tuple and all(map(math.isfinite, a))
            except (OverflowError, TypeError):
                finite = False
            if not finite:
                APPEARANCE.require("appearance", a)
            norm = math.sqrt(added(v * v for v in a))
            if abs(norm - 1.0) > 1e-6:
                raise ValidationError(
                    f"appearance vector is not unit-norm (|v| = {norm:.9f})"
                )


def center(b: BBox) -> tuple[float, float]:
    """Center point of a box."""
    return (b.x + b.w / 2.0, b.y + b.h / 2.0)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0 when disjoint, 1 when identical.

    Areas are computed from the same corner differences as the intersection,
    which keeps iou(a, a) == 1.0 and the [0, 1] bounds exact in floating
    point. An intersection that rounds to 0 (boxes far smaller than their
    coordinates, or an underflowing product) is 0, not 0/0. An intersection
    that overflows is divided out of the union: each area's sides are taken
    over the intersection's before they are multiplied, so no term overflows.
    """
    ax2, ay2, bx2, by2 = a.x2, a.y2, b.x2, b.y2
    ix = min(ax2, bx2) - max(a.x, b.x)
    iy = min(ay2, by2) - max(a.y, b.y)
    inter = ix * iy
    if ix <= 0.0 or iy <= 0.0 or inter == 0.0:
        return 0.0
    aw, ah, bw, bh = ax2 - a.x, ay2 - a.y, bx2 - b.x, by2 - b.y
    out = inter / (aw * ah + bw * bh - inter)
    if math.isfinite(out):
        return out
    return 1.0 / (aw / ix * (ah / iy) + bw / ix * (bh / iy) - 1.0)


def iou_matrix(a: list[BBox], b: list[BBox]) -> np.ndarray:
    """Pairwise IoU between two box lists, shape (len(a), len(b))."""
    if not a or not b:
        return np.zeros((len(a), len(b)))
    ax = np.array([[p.x, p.y, p.x2, p.y2] for p in a])
    bx = np.array([[q.x, q.y, q.x2, q.y2] for q in b])
    return iou_corners(ax[:, None], bx[None, :])


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def iou_corners(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise IoU of corner boxes (x1, y1, x2, y2) on the last axis of
    two arrays that broadcast against each other; each element is iou's
    value, with the same float operations."""
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    aw, ah = a[..., 2] - a[..., 0], a[..., 3] - a[..., 1]
    bw, bh = b[..., 2] - b[..., 0], b[..., 3] - b[..., 1]
    out = np.divide(inter, aw * ah + bw * bh - inter, out=np.zeros(inter.shape), where=inter > 0.0)
    if np.isfinite(out).all():
        return out
    return np.where(np.isfinite(out), out, 1.0 / (aw / ix * (ah / iy) + bw / ix * (bh / iy) - 1.0))


def nms(dets: list[Detection], iou_thresh: float = 0.5) -> list[Detection]:
    """Greedy per-class non-maximum suppression for one frame.

    Detections are visited by descending score (ties by smaller x, then y);
    a detection is dropped when its IoU with an already kept detection of the
    same class exceeds iou_thresh. Survivors keep their fields untouched and
    are returned in visit order, so the result is deterministic. This is
    nms_rows over the frame's boxes.
    """
    if len({d.frame_idx for d in dets}) > 1:
        raise ContractError("nms input mixes detections from different frames")
    box = np.array([(d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h) for d in dets], float).reshape(-1, 4)
    kept = nms_rows(np.zeros(len(dets), np.int64), np.array([d.class_id for d in dets], np.int64),
                    box, np.array([d.score for d in dets], float), iou_thresh)
    return [dets[i] for i in kept.tolist()]


# pairs that one chunk of overlapping_pairs enumerates, unless one row has more
PAIR_BUDGET = 8192


def overlapping_pairs(key_a: np.ndarray, x1_a: np.ndarray, x2_a: np.ndarray,
                      key_b: np.ndarray, x1_b: np.ndarray, x2_b: np.ndarray,
                      skip: np.ndarray | None = None):
    """Yield chunks (i, j) of the pairs of a row i of a and a row j of b
    that have the same key and whose x-extents overlap strictly: x2_b[j] >
    x1_a[i] and x1_b[j] < x2_a[i]. A key is an integer that a float64 holds
    exactly, and every x is finite.

    This is the sweep of sweep-and-prune on the x axis (Cohen et al.,
    I-COLLIDE, 1995). With the rows of b sorted by (key, x1) and the running
    max of x2 taken in each key, row i's window runs from the first row of b
    whose running max x2 is above x1_a[i] to the first whose x1 reaches
    x2_a[i]; inside it, the rows whose own x2 does not pass x1_a[i] are
    dropped. (key, x) is compared as the complex key + x * 1j, which numpy
    orders by real part, then imaginary part, with -0.0 equal to 0.0.

    The chunks come in ascending i, each holding all the pairs of its rows,
    a row's in window order; there is at least one when a has rows. A chunk
    enumerates at most PAIR_BUDGET window pairs, or one row's, and covers at
    most PAIR_BUDGET rows, so memory is O(PAIR_BUDGET + rows) however dense
    a key; PAIR_BUDGET is read when the iteration starts. A row i for which
    skip[i] is True when its chunk starts gets no pairs and no window, so a
    caller may set skip between chunks to drop rows it no longer needs."""
    budget = PAIR_BUDGET
    x1 = _complex(key_b, x1_b)
    order = np.argsort(x1, kind="stable")
    lo = np.searchsorted(np.maximum.accumulate(_complex(key_b, x2_b)[order]), _complex(key_a, x1_a), "right")
    n = np.maximum(np.searchsorted(x1[order], _complex(key_a, x2_a), "left") - lo, 0)
    start = 0
    while start < len(n):
        rows = np.arange(start, min(start + budget, len(n)))
        count = n[rows] if skip is None else np.where(skip[rows], 0, n[rows])
        end = np.cumsum(count)  # each row's pairs end here
        stop = max(int(np.searchsorted(end, budget, "right")), 1)
        i = np.repeat(rows[:stop], count[:stop])
        # pair k of row i is at window position lo[i] + k
        j = order[lo[i] + np.arange(len(i)) - (end - count)[i - start]]
        in_x = np.flatnonzero(x2_b[j] > x1_a[i])
        yield i[in_x], j[in_x]
        start += stop


def _complex(key: np.ndarray, x: np.ndarray) -> np.ndarray:
    """key + x * 1j, set part by part: exact, and faster than the arithmetic."""
    out = key.astype(complex)
    out.imag = x
    return out


def nms_rows(frame: np.ndarray, class_id: np.ndarray, box: np.ndarray, score: np.ndarray,
             iou_thresh: float) -> np.ndarray:
    """nms of each frame of rows grouped by frame: the kept rows, frame by
    frame in input order, each frame's in visit order.

    One pass covers every frame. One lexsort gives the visit order: by
    frame run (the runs of equal frame, numbered in input order), then nms'
    order. Rows of one (frame run, class) cell whose x-extents overlap are
    the pairs of one self-sweep of overlapping_pairs; every other pair has
    IoU 0, which no threshold exceeds. The sweep skips the rows already
    suppressed when their chunk starts, so a frame that its first row
    suppresses whole expands about that row's window, not its N² pairs. In
    each chunk, only the pairs (i, j) with j after i in visit order and i
    not yet suppressed get an IoU, iou_corners' value; then each kept row
    suppresses its later rows over the threshold. The kept rows are the
    visit order without the suppressed rows. Memory is O(PAIR_BUDGET +
    rows) however dense a frame."""
    UNIT_OPEN.require("iou_thresh", iou_thresh, ContractError)
    run = np.cumsum(np.diff(frame, prepend=frame[:1]) != 0)
    order = np.lexsort((box[:, 1], box[:, 0], -score, run))  # stable
    corners = np.column_stack([box[order, :2], box[order, :2] + box[order, 2:]])
    cls = np.unique(class_id, return_inverse=True)[1].reshape(-1)
    # exact in float64 while runs x classes < 2**53, that is below about 9e7 rows
    cell = (run * (cls.max(initial=0) + 1) + cls)[order]
    x1, x2 = corners[:, 0], corners[:, 2]
    suppressed = np.zeros(len(order), dtype=bool)
    for i, j in overlapping_pairs(cell, x1, x2, cell, x1, x2, suppressed):
        pair = np.flatnonzero((j > i) & ~suppressed[i])
        i, j = i[pair], j[pair]
        over = iou_corners(corners[i], corners[j]) > iou_thresh
        for a, b in zip(i[over].tolist(), j[over].tolist()):
            if not suppressed[a]:
                suppressed[b] = True
    return order[~suppressed]
