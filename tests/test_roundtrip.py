"""The converters between the object API and the arrays lose nothing.

TubeletColumns.of / .tubelets and io.columns_of / io.stream_of are each
other's inverses, read_columns gives stored order on both of its routes, and
the object stages that run between the converters keep every entry's flag.
"""

import contextlib
import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tubelink import (
    BBox,
    Detection,
    GroundTruth,
    TrackBox,
    Tubelet,
    TubeletEntry,
    ValidationError,
    VideoDetections,
    default_model,
    link_tubelets,
    read_detections,
    read_detections_with_ids,
    read_ground_truth,
    rescore,
    smooth_coordinates,
    tubelets_to_detections,
    write_detections,
    write_ground_truth,
)
from tubelink import io
from tubelink.io import columns_of, read_columns, stream_of
from tubelink.tubelets import TubeletColumns

from conftest import SHAPE, line_by_line, read_in_bulk
from test_io import assert_same_columns
from test_tubelets import BOX, ORACLE, SCORE, tubelets

MODEL = default_model()
# unit vectors of several lengths, which Detection takes
APPEARANCE = st.one_of(st.none(), st.sampled_from([
    (1.0,), (-1.0,), (0.6, 0.8), (0.0, -1.0), (0.28, 0.96, 0.0), (0.0, 0.0, 1.0, 0.0)]))
CLASS = st.one_of(st.integers(0, 3), st.just(2 ** 63 - 1))
# a tubelet id is an id: an integer in [0, 2**63 - 1], as geometry.ID takes it
ID = st.integers(0, 2 ** 63 - 1)
TUBELET_ID = st.one_of(st.integers(0, 3), st.just(2 ** 63 - 1))
BOX_0 = BBox(8.0, 16.0, 24.0, 32.0)


@st.composite
def streams(draw):
    frame_count = draw(st.integers(0, 6))
    frames = {f: [Detection(f, draw(CLASS), draw(BOX), draw(SCORE), draw(APPEARANCE))
                  for _ in range(draw(st.integers(0, 3)))] for f in range(frame_count)}
    return VideoDetections("v", SHAPE, frame_count, frames)


def relabel(ts, ids):
    """The tubelets with the drawn ids."""
    return [dataclasses.replace(t, tubelet_id=i) for t, i in zip(ts, ids)]


class TestTubeletColumns:
    @ORACLE
    @given(st.lists(tubelets(), max_size=6), st.lists(ID, min_size=6, max_size=6))
    def test_tubelets_is_the_inverse_of_of(self, ts, ids):
        ts = relabel(ts, ids)
        c = TubeletColumns.of(ts)
        assert c.tubelet_id.dtype == np.int64 and c.tubelets() == ts

    @ORACLE
    @given(st.lists(tubelets(), max_size=6), st.lists(st.booleans(), min_size=6, max_size=6))
    def test_select_keeps_whole_tubelets(self, ts, keep):
        t = TubeletColumns.of(ts).select(np.array(keep[:len(ts)], bool))
        assert t.tubelets() == [x for x, k in zip(ts, keep) if k]


class TestStreamColumns:
    @ORACLE
    @given(streams(), st.booleans(), st.data())
    def test_stream_of_is_the_inverse_of_columns_of(self, v, with_ids, data):
        flat = data.draw(st.lists(ID, min_size=len(v.all_detections()),
                                  max_size=len(v.all_detections())))
        ids, at = {}, 0
        for f, dets in v.frames.items():
            ids[f], at = flat[at:at + len(dets)], at + len(dets)
        got = stream_of(columns_of(v, ids if with_ids else None))
        assert got == (v, ids if with_ids else None)

    @ORACLE
    @given(streams(), st.booleans(), st.randoms(use_true_random=False), st.data())
    def test_read_columns_gives_stored_order_on_both_routes(self, tmp_path_factory, v, with_ids,
                                                            random, data):
        # the lines shuffled, so stored order differs from file order
        p = tmp_path_factory.mktemp("rc") / "in.txt"
        gt = GroundTruth(v.video_id, v.frame_shape, v.frame_count, {
            f: [TrackBox(f, d.class_id, k, d.bbox) for k, d in enumerate(dets)]
            for f, dets in v.frames.items()})
        ids = {f: data.draw(st.lists(TUBELET_ID, min_size=len(dets), max_size=len(dets)))
               for f, dets in v.frames.items()} if with_ids else None
        for ground_truth in (False, True):
            if ground_truth:
                write_ground_truth(gt, p)
            else:
                write_detections(v, p, ids)
            head, *lines = p.read_text().splitlines()
            marker = [lines.pop(0)] if lines[:1] == [io.TUBELET_TAG] else []
            random.shuffle(lines)
            p.write_text("\n".join([head, *marker, *lines]) + "\n")
            stored = columns_of((read_ground_truth if ground_truth else read_detections)(p))
            assert (np.diff(stored.frame_idx) >= 0).all()
            bulk = read_in_bulk(p, ground_truth)
            # the ids as read_detections_with_ids reads them, in stored order
            back = None if ground_truth else read_detections_with_ids(p)[1]
            want = None if back is None else [i for f in back for i in back[f]]
            with line_by_line():
                by_line = read_columns(p, ground_truth)
            for c in (bulk, by_line):
                assert_same_columns(c, stored)
                assert (c.tubelet_id is None) == (want is None)
                if want is not None:
                    assert c.tubelet_id.dtype == np.int64 and c.tubelet_id.tolist() == want

    @ORACLE
    @given(streams().filter(lambda v: v.frames), st.sampled_from([-1, 2 ** 63, -2 ** 70]),
           st.data())
    def test_an_id_beyond_the_id_rule_is_refused_on_both_routes(self, tmp_path_factory, v, bad,
                                                                 data):
        # such ids were read as Python ints of any size; one is written in
        # place of a drawn line's id, and that line is the one named
        p = tmp_path_factory.mktemp("bad") / "in.txt"
        write_detections(v, p, {f: [0] * len(dets) for f, dets in v.frames.items()})
        head, marker, *lines = p.read_text().splitlines()
        k = data.draw(st.integers(0, len(lines) - 1))
        parts = lines[k].split()
        lines[k] = " ".join([*parts[:7], str(bad), *parts[8:]])
        p.write_text("\n".join([head, marker, *lines]) + "\n")
        message = f"{p}:{k + 3}: tubelet_id must be an integer in [0, 2**63 - 1], got {bad}"
        for route in (contextlib.nullcontext, line_by_line):
            with route(), pytest.raises(ValidationError) as raised:
                read_columns(p)
            assert str(raised.value) == message

    @ORACLE
    @given(st.lists(tubelets(start=st.integers(0, 20)), max_size=6),
           st.lists(ID, min_size=6, max_size=6))
    # the largest id, and two that float64 would round to one value
    @example([Tubelet(0, 0, (TubeletEntry(0, BOX_0, 0.5),)),
              Tubelet(0, 0, (TubeletEntry(1, BOX_0, 0.5),)),
              Tubelet(0, 0, (TubeletEntry(1, BOX_0, 0.5),))], [0, 2 ** 63 - 1, 2 ** 63 - 2, 0, 0, 0])
    def test_tubelet_ids_are_written_and_read_back(self, tmp_path_factory, ts, ids):
        ts = relabel(ts, ids)
        out, got = tubelets_to_detections(ts, VideoDetections("v", SHAPE, 60, {}))
        assert Counter(i for f in got for i in got[f]) == Counter(
            t.tubelet_id for t in ts for _ in t.entries)
        p = tmp_path_factory.mktemp("ids") / "out.txt"
        write_detections(out, p, got)
        assert read_detections_with_ids(p) == (out, got)


def entries_of(ts):
    return Counter(e for t in ts for e in t.entries)


class TestStagesKeepFlags:
    """The object stages give each entry of their input back with its flag:
    rescore changes only scores, smoothing only boxes, and linking adds
    interpolated entries only."""

    @ORACLE
    @given(tubelets(), st.floats(0.0, 1.0))
    def test_rescore(self, t, alpha):
        got = rescore(t, alpha)
        assert [dataclasses.replace(e, score=0.0) for e in got.entries] == [
            dataclasses.replace(e, score=0.0) for e in t.entries]

    @ORACLE
    @given(tubelets(), st.sampled_from([1, 3, 5, 9]))
    def test_smooth_coordinates(self, t, window):
        got = smooth_coordinates(t, window)
        unit = BBox(0.0, 0.0, 1.0, 1.0)
        assert [dataclasses.replace(e, bbox=unit) for e in got.entries] == [
            dataclasses.replace(e, bbox=unit) for e in t.entries]

    @ORACLE
    @given(st.lists(tubelets(start=st.integers(0, 60)), max_size=6),
           st.sampled_from([0, 3, 20]), st.sampled_from([0.01, 0.5]))
    # two parts of one track 4 frames apart, the second with an interpolated entry
    @example([Tubelet(0, 1, (TubeletEntry(0, BBox(8.0, 16.0, 24.0, 32.0), 0.5),)),
              Tubelet(0, 1, (TubeletEntry(5, BBox(8.0, 16.0, 24.0, 32.0), 0.9, True),
                             TubeletEntry(6, BBox(8.0, 16.0, 24.0, 32.0), 0.7)))], 20, 0.5)
    def test_link_tubelets(self, ts, g_max, tau):
        ts = relabel(ts, range(len(ts)))
        got = link_tubelets(ts, MODEL, g_max, tau, SHAPE)
        added = entries_of(got) - entries_of(ts)
        assert not entries_of(ts) - entries_of(got)
        assert all(e.interpolated for e in added)
        assert sum(map(len, got)) == sum(map(len, ts)) + sum(added.values())
