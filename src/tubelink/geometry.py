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


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box: top-left corner (x, y), positive width and height."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("x", "y", "w", "h"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValidationError(f"bbox field {name} is not finite: {v!r}")
        if self.w <= 0 or self.h <= 0:
            raise ValidationError(f"bbox has non-positive size: w={self.w}, h={self.h}")

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h


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
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValidationError(f"score out of [0,1]: {self.score!r}")
        if self.appearance is not None:
            # a NaN would pass the norm test below, as every comparison with it fails
            if not all(map(math.isfinite, self.appearance)):
                raise ValidationError("appearance vector has a non-finite component")
            norm = math.sqrt(sum(a * a for a in self.appearance))
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
    coordinates, or an underflowing product) is 0, not 0/0.
    """
    ax2, ay2, bx2, by2 = a.x2, a.y2, b.x2, b.y2
    ix = min(ax2, bx2) - max(a.x, b.x)
    iy = min(ay2, by2) - max(a.y, b.y)
    inter = ix * iy
    if ix <= 0.0 or iy <= 0.0 or inter == 0.0:
        return 0.0
    area_a = (ax2 - a.x) * (ay2 - a.y)
    area_b = (bx2 - b.x) * (by2 - b.y)
    return inter / (area_a + area_b - inter)


def iou_matrix(a: list[BBox], b: list[BBox]) -> np.ndarray:
    """Pairwise IoU between two box lists, shape (len(a), len(b))."""
    if not a or not b:
        return np.zeros((len(a), len(b)))
    ax = np.array([[p.x, p.y, p.x2, p.y2] for p in a])
    bx = np.array([[q.x, q.y, q.x2, q.y2] for q in b])
    return iou_corners(ax[:, None], bx[None, :])


def iou_corners(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise IoU of corner boxes (x1, y1, x2, y2) on the last axis of
    two arrays that broadcast against each other; each element is iou's
    value, with the same float operations."""
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    out = np.zeros(inter.shape)
    return np.divide(inter, area_a + area_b - inter, out=out, where=inter > 0.0)


def nms(dets: list[Detection], iou_thresh: float = 0.5) -> list[Detection]:
    """Greedy per-class non-maximum suppression for one frame.

    Detections are visited by descending score (ties by smaller x, then y);
    a detection is dropped when its IoU with an already kept detection of the
    same class exceeds iou_thresh. Survivors keep their fields untouched and
    are returned in visit order, so the result is deterministic.
    """
    if not (0.0 < iou_thresh < 1.0):
        raise ContractError(f"iou_thresh must be in (0,1), got {iou_thresh}")
    if len({d.frame_idx for d in dets}) > 1:
        raise ContractError("nms input mixes detections from different frames")

    ordered = sorted(dets, key=lambda d: (-d.score, d.bbox.x, d.bbox.y))
    boxes, classes = [d.bbox for d in ordered], np.array([d.class_id for d in ordered])
    # over[k, i]: row k, once kept, suppresses row i; each IoU is iou(k, i)'s value
    over = iou_matrix(boxes, boxes) > iou_thresh
    over &= classes[:, None] == classes[None, :]
    suppressed = np.zeros(len(ordered), dtype=bool)
    kept: list[Detection] = []
    for k, d in enumerate(ordered):
        if not suppressed[k]:
            kept.append(d)
            suppressed |= over[k]
    return kept
