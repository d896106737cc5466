"""Shared helpers for the test suite.

Randomized tests draw from seeded numpy generators so every run sees the
same cases; helpers here build small detections, streams and ground truths
without ceremony.
"""

import math
from unittest import mock

import numpy as np
import pytest

from tubelink import (
    BBox,
    Detection,
    FrameShape,
    GroundTruth,
    TrackBox,
    VideoDetections,
)
from tubelink import io
from tubelink.io import read_columns

SHAPE = FrameShape(1280, 720)


def det(frame=0, x=0.0, y=0.0, w=10.0, h=10.0, score=0.9, cls=0, app=None):
    return Detection(frame, cls, BBox(x, y, w, h), score, app)


def spy_iou_corners(monkeypatch, module):
    """Record the corner rows (a, b) of every iou_corners call that module
    (geometry or evaluation) makes."""
    calls, iou_corners = [], module.iou_corners

    def spy(a, b):
        calls.append((a.copy(), b.copy()))
        return iou_corners(a, b)
    monkeypatch.setattr(module, "iou_corners", spy)
    return calls


def random_bbox(rng, lo=0.0, hi=200.0, smin=1.0, smax=60.0) -> BBox:
    x = float(rng.uniform(lo, hi))
    y = float(rng.uniform(lo, hi))
    w = float(rng.uniform(smin, smax))
    h = float(rng.uniform(smin, smax))
    return BBox(x, y, w, h)


def unit_vector(rng, dim) -> tuple:
    v = rng.normal(size=dim)
    v = v / math.sqrt(float(v @ v))
    return tuple(float(a) for a in v)


def random_stream(rng, frame_count=6, max_per_frame=4, classes=2,
                  with_appearance=False, video_id="vid") -> VideoDetections:
    frames = {}
    for f in range(frame_count):
        dets = []
        for _ in range(int(rng.integers(0, max_per_frame + 1))):
            app = unit_vector(rng, 4) if with_appearance and rng.random() < 0.7 else None
            dets.append(
                Detection(
                    f,
                    int(rng.integers(0, classes)),
                    random_bbox(rng),
                    float(rng.uniform(0.0, 1.0)),
                    app,
                )
            )
        frames[f] = dets
    return VideoDetections(video_id, SHAPE, frame_count, frames)


def random_ground_truth(rng, frame_count=6, max_per_frame=4, classes=2,
                        video_id="vid") -> GroundTruth:
    frames = {}
    for f in range(frame_count):
        boxes = []
        for tid in range(int(rng.integers(0, max_per_frame + 1))):
            boxes.append(TrackBox(f, int(rng.integers(0, classes)), tid, random_bbox(rng)))
        frames[f] = boxes
    return GroundTruth(video_id, SHAPE, frame_count, frames)


def line_by_line():
    """A patch under which read_columns reads every body line by line, as it
    reads a body that numpy refuses."""
    return mock.patch.object(io, "_body_rows", io._line_by_line)


def read_in_bulk(path, ground_truth=False):
    """read_columns(path, ground_truth), failing should numpy refuse the body
    as the file gives it."""
    def refused(*args):
        raise AssertionError(f"numpy refused the body of {path}")

    with mock.patch.object(io, "_line_by_line", refused):
        return read_columns(path, ground_truth)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
