import re
import tracemalloc

import numpy as np
import pytest

from tubelink import (
    BBox, ContractError, Detection, FrameShape, ValidationError, center, iou, iou_matrix, nms,
)

from tubelink import geometry
from tubelink.geometry import nms_rows

from conftest import det, random_bbox


class TestBBoxValidation:
    def test_zero_width_rejected(self):
        with pytest.raises(ValidationError):
            BBox(0, 0, 0, 10)

    def test_negative_height_rejected(self):
        with pytest.raises(ValidationError):
            BBox(0, 0, 10, -1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            BBox(float("nan"), 0, 10, 10)
        with pytest.raises(ValidationError):
            BBox(0, 0, float("inf"), 10)

    @pytest.mark.parametrize("box", [(1e308, 0, 1e308, 5), (0, 1.5e308, 5, 1e308)])
    def test_corner_overflow_rejected(self, box):
        # finite fields whose corner x + w or y + h is inf: every IoU would be NaN
        with pytest.raises(ValidationError, match="bbox corner is not finite"):
            BBox(*box)


    @pytest.mark.parametrize("box, field", [
        ((10 ** 400, 0, 1, 1), "x"), ((0, 0, 1, -10 ** 400), "h"),
        # the corner x + w is a small integer, but x is beyond the float range
        ((-10 ** 400, 0, 10 ** 400 + 5, 1), "x"), ((0, 10 ** 400, 1, 3 - 10 ** 400), "y"),
    ])
    def test_integer_beyond_float_range_names_its_field(self, box, field):
        # math.isfinite used to raise a bare OverflowError for these
        with pytest.raises(ValidationError,
                           match=rf"^bbox\.{field} must be a finite number, got -?1000"):
            BBox(*box)


class TestDetectionValidation:
    # the rules of ids, frames and scores are tested in test_value_types.py

    def test_non_unit_appearance_rejected(self):
        with pytest.raises(ValidationError):
            det(app=(1.0, 1.0))

    def test_numpy_ids_frames_and_scores_taken(self):
        d = Detection(np.int64(3), np.uint8(2), BBox(0, 0, 1, 1), np.float32(0.5))
        assert (d.frame_idx, d.class_id, d.score) == (3, 2, 0.5)
        assert Detection(0, 0, BBox(0, 0, 1, 1), 1).score == 1

    def test_unit_appearance_accepted(self):
        d = det(app=(0.6, 0.8))
        assert d.appearance == (0.6, 0.8)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_appearance_rejected(self, bad):
        # a NaN used to pass the unit-norm test, and its cosine then clamped
        # to the maximal similarity 1.0 against any box
        for app in ((0.9, bad, 0.0), (bad,), (1.0, 0.0, bad)):
            with pytest.raises(ValidationError, match=re.escape(
                    f"appearance must be None or a tuple of finite numbers, got {app!r}")):
                det(app=app)


class TestFrameShape:
    def test_side_beyond_float_range_rejected(self):
        # such a side used to pass, and dividing a link feature by it raised
        # OverflowError
        huge = 10 ** 400
        for w, h in ((huge, 720), (1280, huge)):
            with pytest.raises(ValidationError, match="1.8e308"):
                FrameShape(w, h)
        assert FrameShape(2 ** 1000, 1).width == 2 ** 1000


# boxes whose corner differences round to 0 (1e20 + 1 == 1e20), whose
# intersection underflows, that repeat, touch or overlap exactly by half
DEGENERATE = [
    BBox(1e20, 1e20, 1.0, 1.0), BBox(1e20, 0.0, 1.0, 5.0), BBox(0.0, 1e20, 3.0, 1.0),
    BBox(0.0, 0.0, 1e-200, 1e-200), BBox(0.0, 0.0, 1e-300, 3.0), BBox(0.0, 0.0, 5e-324, 5e-324),
    BBox(0.0, 0.0, 10.0, 10.0), BBox(0.0, 0.0, 10.0, 10.0), BBox(10.0, 0.0, 10.0, 10.0),
    BBox(0.0, 0.0, 20.0, 10.0), BBox(5.0, 0.0, 10.0, 10.0),
]


class TestIou:
    def test_identical_boxes(self):
        b = BBox(0, 0, 10, 10)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BBox(0, 0, 10, 10), BBox(20, 20, 5, 5)) == 0.0

    def test_half_shift(self):
        # hand computation: intersection 5x10 = 50, union 100 + 100 - 50 = 150
        assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 10, 10)) == pytest.approx(50 / 150, abs=1e-12)

    def test_touching_edges_are_disjoint(self):
        assert iou(BBox(0, 0, 10, 10), BBox(10, 0, 10, 10)) == 0.0

    def test_symmetry_bounds_identity_properties(self, rng):
        for _ in range(1000):
            a = random_bbox(rng)
            b = random_bbox(rng)
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0
            assert iou(a, a) == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_matrix_matches_scalar(self, rng):
        # exact ==: iou_corners repeats iou's float operations, and NMS
        # decides on its values; degenerate boxes included
        a = DEGENERATE + [random_bbox(rng) for _ in range(7)]
        b = DEGENERATE + [random_bbox(rng) for _ in range(5)]
        assert iou_matrix(a, b).tolist() == [[iou(p, q) for q in b] for p in a]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_intersection_that_rounds_to_zero_is_zero(self):
        far, tiny = BBox(1e20, 1e20, 1.0, 1.0), BBox(0.0, 0.0, 1e-200, 1e-200)
        # 1e20 + 1 == 1e20: the matrix gave 0/0 = nan with a RuntimeWarning
        assert iou(far, far) == 0.0
        # 1e-200 * 1e-200 underflows: the scalar raised ZeroDivisionError
        assert iou(tiny, tiny) == 0.0
        assert iou_matrix([far, tiny], [far, tiny]).tolist() == [[0.0, 0.0], [0.0, 0.0]]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_intersection_that_overflows(self):
        # 1e200 * 1e200 is inf: both gave inf / (inf + inf - inf) = nan
        huge = [BBox(0, 0, 1e200, 1e200), BBox(0, 0, 1e200, 5e199), BBox(5e199, 0, 1e200, 1e200),
                BBox(-1e308, 0, 1.7e308, 1e200), BBox(0, 0, 1.0, 1.0)]
        assert iou(huge[0], huge[0]) == 1.0
        assert [iou(huge[0], b) for b in huge[:3]] == [1.0, 0.5, 1 / 3]
        assert iou(huge[0], huge[3]) == pytest.approx(1e200 / 1.7e308, rel=1e-15)
        assert iou(huge[0], huge[4]) == 0.0  # 1 / 1e400 rounds to 0
        assert iou_matrix(huge, huge).tolist() == [[iou(p, q) for q in huge] for p in huge]

    def test_matrix_empty(self):
        assert iou_matrix([], [BBox(0, 0, 1, 1)]).shape == (0, 1)


class TestCenter:
    def test_examples(self):
        assert center(BBox(0, 0, 10, 10)) == (5, 5)
        assert center(BBox(2, 4, 6, 8)) == (5, 8)
        assert center(BBox(0, 0, 1, 1)) == (0.5, 0.5)


class TestNms:
    def test_duplicate_suppressed(self):
        a = det(score=0.9)
        b = det(score=0.8)
        assert nms([a, b], 0.5) == [a]

    def test_disjoint_kept(self):
        a = det(x=0, score=0.9)
        b = det(x=100, score=0.8)
        assert nms([a, b], 0.5) == [a, b]

    def test_overlap_chain(self):
        # A-B and B-C overlap at IoU 0.6, A-C at 1/3: greedy keeps A then C
        a = det(x=0.0, score=0.9)
        b = det(x=2.5, score=0.8)
        c = det(x=5.0, score=0.7)
        assert iou(a.bbox, b.bbox) == pytest.approx(0.6)
        assert iou(b.bbox, c.bbox) == pytest.approx(0.6)
        assert iou(a.bbox, c.bbox) == pytest.approx(1 / 3)
        assert nms([a, b, c], 0.5) == [a, c]

    def test_classes_suppressed_independently(self):
        a = det(score=0.9, cls=0)
        b = det(score=0.8, cls=1)
        assert nms([a, b], 0.5) == [a, b]

    def test_mixed_frames_rejected(self):
        with pytest.raises(ContractError):
            nms([det(frame=0), det(frame=1)], 0.5)

    def test_threshold_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            nms([det()], 1.0)

    def test_score_tie_broken_by_position(self):
        right = det(x=3.0, score=0.8)
        left = det(x=0.0, score=0.8)
        # left visited first on equal scores, suppresses right (IoU 0.7/1.3)
        assert nms([right, left], 0.5) == [left]

    def test_idempotence_and_cardinality(self, rng):
        for _ in range(1000):
            n = int(rng.integers(0, 8))
            dets = [
                det(
                    x=float(rng.uniform(0, 40)),
                    y=float(rng.uniform(0, 40)),
                    w=float(rng.uniform(4, 30)),
                    h=float(rng.uniform(4, 30)),
                    score=float(rng.uniform(0, 1)),
                    cls=int(rng.integers(0, 2)),
                )
                for _ in range(n)
            ]
            once = nms(dets, 0.5)
            assert len(once) <= len(dets)
            assert all(d in dets for d in once)  # survivors untouched
            assert nms(once, 0.5) == once


def oracle_nms(dets, iou_thresh):
    """The seed's nms: each visited detection against every kept one."""
    ordered = sorted(dets, key=lambda d: (-d.score, d.bbox.x, d.bbox.y))
    kept = []
    for d in ordered:
        if not any(k.class_id == d.class_id and iou(k.bbox, d.bbox) > iou_thresh for k in kept):
            kept.append(d)
    return kept


def crowded_frame(rng, n, classes=3):
    """n detections of one frame: half on a coarse grid, so that boxes
    repeat, scores and x/y tie and IoUs land exactly on 0.5; a few
    degenerate boxes; the rest drawn freely."""
    dets = []
    for _ in range(n):
        u = rng.random()
        if u < 0.5:
            x, y = (float(v) for v in rng.integers(0, 3, 2) * 4.0)
            w, h = (float(v) for v in rng.integers(1, 4, 2) * 8.0)
            box = BBox(x, y, w, h)
        elif u < 0.6:
            box = DEGENERATE[int(rng.integers(0, len(DEGENERATE)))]
        else:
            box = random_bbox(rng, hi=40.0, smin=4.0, smax=30.0)
        score = float(rng.choice([0.5, 0.7, 0.9])) if rng.random() < 0.5 else float(rng.uniform())
        dets.append(Detection(0, int(rng.integers(0, classes)), box, score))
    return dets


class TestNmsMatchesPairwiseLoop:
    """The one-matrix-per-frame nms keeps exactly the detections (the same
    objects, in the same order) that the seed's pairwise loop keeps."""

    @pytest.mark.parametrize("thresh", [0.3, 0.5, 0.7])
    def test_random_crowded_frames(self, rng, thresh):
        at_thresh = ties = 0
        for n in [0, 1, 2, 40, 64] + [int(v) for v in rng.integers(0, 25, 300)]:
            dets = crowded_frame(rng, n, classes=int(rng.integers(1, 4)))
            got, want = nms(dets, thresh), oracle_nms(dets, thresh)
            assert [id(d) for d in got] == [id(d) for d in want]
            at_thresh += sum(iou(a.bbox, b.bbox) == thresh for a in dets for b in dets)
            keys = [(d.score, d.bbox.x, d.bbox.y) for d in dets]
            ties += len(keys) - len(set(keys))
        assert ties > 50
        if thresh == 0.5:
            assert at_thresh > 100

    def test_iou_exactly_at_threshold_is_kept(self):
        wide, square = det(w=20.0, score=0.9), det(w=10.0, score=0.8)
        assert iou(wide.bbox, square.bbox) == 0.5
        assert nms([wide, square], 0.5) == oracle_nms([wide, square], 0.5) == [wide, square]
        assert nms([wide, square], 0.4999) == [wide]

    def test_identical_boxes_keep_the_first_visited(self):
        dets = [det(score=0.8, cls=c) for c in (0, 1, 0, 1)]
        kept = nms(dets, 0.5)
        assert [id(d) for d in kept] == [id(dets[0]), id(dets[1])]

    def test_degenerate_boxes_never_suppress(self):
        # each pair's intersection rounds to 0, repeated boxes included
        dets = [Detection(0, 0, DEGENERATE[k], 0.5) for k in (0, 1, 2, 3, 5) * 2]
        assert [id(d) for d in nms(dets, 0.5)] == [id(d) for d in oracle_nms(dets, 0.5)]
        assert len(nms(dets, 0.5)) == len(dets)


def overlapping_rows(rng, n):
    """One frame of n same-class 200-px boxes whose corners lie within 20 px
    of each other, so that every pair has IoU above 0.68."""
    box = np.column_stack([rng.uniform(0, 20, (n, 2)), np.full((n, 2), 200.0)])
    return np.zeros(n, np.int64), np.zeros(n, np.int64), box, rng.random(n)


class TestNmsBlocks:
    """nms_rows walks a frame in blocks of at most NMS_PAIR_BUDGET IoU pairs;
    the blocks change its memory, not its kept rows."""

    @pytest.mark.parametrize("budget", [1, 7, 100, geometry.NMS_PAIR_BUDGET])
    def test_dense_frames_match_the_oracle(self, rng, monkeypatch, budget):
        # each frame spans several blocks
        sizes = ([300, 450, 600] if budget == geometry.NMS_PAIR_BUDGET
                 else [int(v) for v in rng.integers(11, 60, 40)])
        monkeypatch.setattr(geometry, "NMS_PAIR_BUDGET", budget)
        blocks = []
        iou_corners = geometry.iou_corners

        def counted(a, b):
            blocks.append(a.shape[0])
            return iou_corners(a, b)
        monkeypatch.setattr(geometry, "iou_corners", counted)
        ties = 0
        for n in sizes:
            dets = crowded_frame(rng, n, classes=int(rng.integers(2, 5)))
            blocks.clear()
            got = nms(dets, 0.5)
            assert [id(d) for d in got] == [id(d) for d in oracle_nms(dets, 0.5)]
            assert sum(blocks) == n and len(blocks) > 1  # each row in one block
            keys = [(d.score, d.bbox.x) for d in dets]
            ties += len(keys) - len(set(keys))
        assert ties > 100

    def test_frames_of_several_blocks_keep_their_own_rows(self, rng, monkeypatch):
        # frames grouped in one call are walked one by one, each in its blocks
        monkeypatch.setattr(geometry, "NMS_PAIR_BUDGET", 50)
        frames = [crowded_frame(rng, n) for n in (30, 0, 1, 45)]
        dets = [Detection(f, d.class_id, d.bbox, d.score)
                for f, ds in enumerate(frames) for d in ds]
        box = np.array([(d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h) for d in dets])
        kept = nms_rows(np.array([d.frame_idx for d in dets]), np.array([d.class_id for d in dets]),
                        box, np.array([d.score for d in dets]), 0.5)
        want = [(f, d.bbox, d.score) for f, ds in enumerate(frames) for d in oracle_nms(ds, 0.5)]
        assert [(dets[i].frame_idx, dets[i].bbox, dets[i].score) for i in kept.tolist()] == want

    @pytest.mark.parametrize("n, calls", [(1, 1), (256, 1), (257, 2)])
    def test_a_frame_within_the_budget_is_one_block(self, rng, monkeypatch, n, calls):
        iou_corners, shapes = geometry.iou_corners, []

        def counted(a, b):
            shapes.append((a.shape[0], b.shape[1]))
            return iou_corners(a, b)
        monkeypatch.setattr(geometry, "iou_corners", counted)
        nms_rows(*overlapping_rows(rng, n), 0.5)
        assert len(shapes) == calls and shapes[0] == (min(n, 65_536 // n), n)
        assert all(rows * cols <= geometry.NMS_PAIR_BUDGET for rows, cols in shapes)

    def test_memory_grows_at_most_linearly_with_a_dense_frame(self, rng):
        # the N x N matrix took 39 MiB at N = 1,000 and 157 MiB at 2,000
        peaks = []
        for n in (1000, 2000):
            rows = overlapping_rows(rng, n)
            tracemalloc.start()
            try:
                assert nms_rows(*rows, 0.5).tolist() == [int(rows[3].argmax())]
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]
        assert peaks[1] < 8 * 2 ** 20
