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


# IoU pairs per block of nms_rows: a frame of up to 256 boxes is one block
NMS_PAIR_BUDGET = 65_536


def nms_rows(frame: np.ndarray, class_id: np.ndarray, box: np.ndarray, score: np.ndarray,
             iou_thresh: float) -> np.ndarray:
    """nms of each frame of rows grouped by frame: the kept rows, frame by
    frame, each frame's in visit order.

    A frame's rows are walked in visit order in blocks of consecutive rows,
    each block's IoU rows taken against the rows from its first row on: a
    row suppresses only rows after it. A block holds at most NMS_PAIR_BUDGET
    pairs, or one row's, so memory is O(NMS_PAIR_BUDGET + rows of the frame)
    however dense the frame; a frame that fits the budget is one block. The
    visit order and each IoU, iou_corners' value, are the same for any
    blocks, so the kept rows are too. One reduction per block finds the
    rows that overlap no row but themselves; a kept row of these
    suppresses nothing, so it updates no mask."""
    UNIT_OPEN.require("iou_thresh", iou_thresh, ContractError)
    kept: list[int] = []
    bounds = [0, *(np.flatnonzero(frame[1:] != frame[:-1]) + 1).tolist(), len(frame)]
    for lo, hi in zip(bounds, bounds[1:]):
        n = hi - lo
        order = lo + np.lexsort((box[lo:hi, 1], box[lo:hi, 0], -score[lo:hi]))  # stable
        corners = np.column_stack([box[order, :2], box[order, :2] + box[order, 2:]])
        cls = class_id[order]
        suppressed = np.zeros(n, dtype=bool)
        a = 0
        while a < n:
            b = min(n, a + max(1, NMS_PAIR_BUDGET // (n - a)))
            # over[k, i]: row a + k, once kept, suppresses row a + i; each IoU is iou's value
            over = iou_corners(corners[a:b, None], corners[None, a:]) > iou_thresh
            over &= cls[a:b, None] == cls[None, a:]
            # whether row a + k overlaps a row besides itself, whose IoU is 1;
            # a row that overlaps none suppresses none (np.triu took longer)
            hits = (over.sum(axis=1) > 1).tolist()
            later = suppressed[a:]
            for k, row in enumerate(order[a:b].tolist()):
                if not later[k]:
                    kept.append(row)
                    if hits[k]:
                        later |= over[k]
            a = b
    return np.array(kept, np.int64)
