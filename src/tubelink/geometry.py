"""Box and detection value types plus the geometric primitives built on them.

Boxes are axis-aligned (x, y, w, h) with a top-left pixel origin. All types
here are immutable values and all operations are pure functions, so they are
safe to share across workers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ValidationError
from .settings import UNIT_OPEN

_MAX_ID = 2 ** 63 - 1  # the largest class id, track id or tubelet frame: each fits int64 columns


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
        if not (math.isfinite(self.x + self.w) and math.isfinite(self.y + self.h)):
            for name in ("x", "y", "w", "h"):
                v = getattr(self, name)
                if not math.isfinite(v):
                    raise ValidationError(f"bbox field {name} is not finite: {v!r}")
            raise ValidationError(
                f"bbox corner is not finite: x + w = {self.x + self.w!r}, "
                f"y + h = {self.y + self.h!r}"
            )
        if self.w <= 0 or self.h <= 0:
            raise ValidationError(f"bbox has non-positive size: w={self.w}, h={self.h}")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h


@np.errstate(over="ignore", invalid="ignore")
def check_boxes(box: np.ndarray) -> None:
    """Raise BBox's own error for the first row (x, y, w, h) that it rejects."""
    x, y, w, h = box.T
    bad = ~(np.isfinite(x + w) & np.isfinite(y + h) & (w > 0) & (h > 0))
    if bad.any():
        BBox(*box[bad.argmax()].tolist())


@dataclass(frozen=True)
class FrameShape:
    """Pixel dimensions of the video frames a stream was produced from."""

    width: int
    height: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(
                f"frame shape must be positive: {self.width}x{self.height}"
            )
        # a side is a float divisor of the link features, so it must convert to one
        if max(self.width, self.height) > sys.float_info.max:
            raise ValidationError("frame side above 1.8e308 does not convert to a float")


@dataclass(frozen=True)
class Detection:
    """One detector output: a scored, classed box in one frame.

    The appearance descriptor is optional; when present it must be
    unit-norm (used only for cosine similarity between detections).
    """

    frame_idx: int
    class_id: int
    bbox: BBox
    score: float
    appearance: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.frame_idx < 0:
            raise ValidationError(f"frame_idx must be >= 0, got {self.frame_idx}")
        if self.class_id < 0:
            raise ValidationError(f"class_id must be >= 0, got {self.class_id}")
        if self.class_id > _MAX_ID:
            raise ValidationError(f"class_id must be at most 2**63 - 1, got {self.class_id}")
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValidationError(f"score out of [0,1]: {self.score!r}")
        if self.appearance is not None:
            # a NaN would pass the norm test below, as every comparison with it fails
            if not all(map(math.isfinite, self.appearance)):
                raise ValidationError("appearance vector has a non-finite component")
            norm = math.sqrt(added(a * a for a in self.appearance))
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


def nms_rows(frame: np.ndarray, class_id: np.ndarray, box: np.ndarray, score: np.ndarray,
             iou_thresh: float) -> np.ndarray:
    """nms of each frame of rows grouped by frame: the kept rows, frame by
    frame, each frame's in visit order."""
    UNIT_OPEN.require("iou_thresh", iou_thresh, ContractError)
    kept: list[int] = []
    bounds = [0, *(np.flatnonzero(frame[1:] != frame[:-1]) + 1).tolist(), len(frame)]
    for lo, hi in zip(bounds, bounds[1:]):
        order = lo + np.lexsort((box[lo:hi, 1], box[lo:hi, 0], -score[lo:hi]))  # stable
        corners = np.column_stack([box[order, :2], box[order, :2] + box[order, 2:]])
        # over[k, i]: row k, once kept, suppresses row i; each IoU is iou(k, i)'s value
        over = iou_corners(corners[:, None], corners[None, :]) > iou_thresh
        over &= class_id[order, None] == class_id[None, order]
        suppressed = np.zeros(hi - lo, dtype=bool)
        for k, row in enumerate(order.tolist()):
            if not suppressed[k]:
                kept.append(row)
                suppressed |= over[k]
    return np.array(kept, np.int64)
