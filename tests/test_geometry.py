import re
import tracemalloc

import numpy as np
import pytest

from tubelink import (
    BBox, ContractError, Detection, FrameShape, ValidationError, center, iou, iou_matrix, nms,
)

from tubelink import geometry
from tubelink.geometry import nms_rows

from conftest import det, random_bbox, spy_iou_corners


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


def within_budget(calls):
    """Whether each call got at most PAIR_BUDGET pairs, or one row's: one
    box on its first side."""
    return all(len(a) <= geometry.PAIR_BUDGET or len(np.unique(a, axis=0)) == 1 for a, _ in calls)


def frame_rows(dets):
    """nms_rows' columns of detections."""
    box = np.array([(d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h) for d in dets]).reshape(-1, 4)
    return (np.array([d.frame_idx for d in dets], np.int64),
            np.array([d.class_id for d in dets], np.int64), box, np.array([d.score for d in dets]))


class TestNmsBlocks:
    """nms_rows takes its IoU pairs from overlapping_pairs in chunks of at
    most PAIR_BUDGET pairs, or one row's; the chunks change its memory, not
    its kept rows."""

    @pytest.mark.parametrize("budget", [1, 7, 100, geometry.PAIR_BUDGET])
    def test_dense_frames_match_the_oracle(self, rng, monkeypatch, budget):
        # most frames span several chunks
        sizes = ([300, 450, 600] if budget == geometry.PAIR_BUDGET
                 else [int(v) for v in rng.integers(11, 60, 40)])
        monkeypatch.setattr(geometry, "PAIR_BUDGET", budget)
        calls = spy_iou_corners(monkeypatch, geometry)
        ties = several = 0
        for n in sizes:
            dets = crowded_frame(rng, n, classes=int(rng.integers(2, 5)))
            calls.clear()
            got = nms(dets, 0.5)
            assert [id(d) for d in got] == [id(d) for d in oracle_nms(dets, 0.5)]
            assert within_budget(calls)
            several += len(calls) > 1
            keys = [(d.score, d.bbox.x) for d in dets]
            ties += len(keys) - len(set(keys))
        assert ties > 100 and several > len(sizes) // 2

    @pytest.mark.parametrize("budget", [7, 50, geometry.PAIR_BUDGET])
    def test_frames_keep_their_own_rows_in_input_order(self, rng, monkeypatch, budget):
        # frames grouped in one call, in an order that is not ascending, are swept
        # together: each keeps its oracle rows, frame by frame in input order
        monkeypatch.setattr(geometry, "PAIR_BUDGET", budget)
        frames = [(f, crowded_frame(rng, n)) for f, n in zip((2, 0, 4, 1, 3), (30, 0, 1, 45, 200))]
        dets = [Detection(f, d.class_id, d.bbox, d.score) for f, ds in frames for d in ds]
        kept = nms_rows(*frame_rows(dets), 0.5)
        want = [(f, d.bbox, d.score) for f, ds in frames for d in oracle_nms(ds, 0.5)]
        assert [(dets[i].frame_idx, dets[i].bbox, dets[i].score) for i in kept.tolist()] == want

    def test_frames_beyond_float_precision_stay_apart(self):
        # frames 2**62 and 2**62 + 1 are one float64, and their boxes coincide
        frame = np.array([2 ** 62 + 1, 2 ** 62 + 1, 2 ** 62, 2 ** 62], np.int64)
        box = np.tile([10.0, 10.0, 50.0, 50.0], (4, 1))
        kept = nms_rows(frame, np.zeros(4, np.int64), box, np.array([0.9, 0.8, 0.7, 0.6]), 0.5)
        assert kept.tolist() == [0, 2]

    @pytest.mark.parametrize("n", [1, 256, 257, 1500])
    @pytest.mark.parametrize("budget", [1, 100, geometry.PAIR_BUDGET])
    def test_each_iou_call_gets_at_most_the_budget_or_one_row(self, rng, monkeypatch, n, budget):
        monkeypatch.setattr(geometry, "PAIR_BUDGET", budget)
        calls = spy_iou_corners(monkeypatch, geometry)
        rows = overlapping_rows(rng, n)
        assert nms_rows(*rows, 0.5).tolist() == [int(rows[3].argmax())]
        assert calls and within_budget(calls)

    @pytest.mark.parametrize("budget", [1, 100, geometry.PAIR_BUDGET])
    def test_suppressed_rows_expand_no_window(self, rng, monkeypatch, budget):
        # the top row suppresses every other, and every pair overlaps in x, so
        # the sweep yields each pair it expands: all N² of them, were the rows
        # that are suppressed before their chunk starts not skipped
        monkeypatch.setattr(geometry, "PAIR_BUDGET", budget)
        sweep, expanded = geometry.overlapping_pairs, []

        def spy(*args):
            for i, j in sweep(*args):
                expanded.append(len(i))
                yield i, j

        monkeypatch.setattr(geometry, "overlapping_pairs", spy)
        for n in (500, 1000, 2000):
            rows = overlapping_rows(rng, n)
            expanded.clear()
            assert nms_rows(*rows, 0.5).tolist() == [int(rows[3].argmax())]
            assert sum(expanded) <= max(n, budget)

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


def brute_pairs(key_a, x1_a, x2_a, key_b, x1_b, x2_b):
    """Every same-key pair (i, j) with x2_b > x1_a and x1_b < x2_a."""
    return {(i, j) for i in range(len(key_a)) for j in range(len(key_b))
            if key_a[i] == key_b[j] and x2_b[j] > x1_a[i] and x1_b[j] < x2_a[i]}


EDGES = [-1e308, -1.5e307, -1.0, -0.0, 0.0, 5e-324, 1.0, 2.5, 1.5e307, 1e308]


def random_extents(rng, n, keys):
    """n rows of (key, x1, x2), x1 <= x2, their ends drawn from EDGES (ties,
    -0.0 beside 0.0, extents near +-1e308) or from a small grid."""
    ends = np.where(rng.random((n, 2)) < 0.5, rng.choice(EDGES, (n, 2)),
                    rng.integers(-3, 4, (n, 2)).astype(float))
    ends.sort(axis=1)
    return rng.integers(0, keys, n), ends[:, 0], ends[:, 1]


class TestOverlappingPairs:
    @pytest.mark.parametrize("budget", [1, 5, geometry.PAIR_BUDGET])
    def test_pairs_equal_the_brute_force_oracle(self, rng, monkeypatch, budget):
        monkeypatch.setattr(geometry, "PAIR_BUDGET", budget)
        negative_zeros = 0
        for _ in range(200):
            keys = int(rng.integers(1, 4))
            a = random_extents(rng, int(rng.integers(0, 30)), keys)
            b = random_extents(rng, int(rng.integers(0, 30)), keys)
            chunks = list(geometry.overlapping_pairs(*a, *b))
            got = [(i, j) for ci, cj in chunks for i, j in zip(ci.tolist(), cj.tolist())]
            assert len(got) == len(set(got)) and set(got) == brute_pairs(*a, *b)
            rows = [np.unique(ci).tolist() for ci, _ in chunks]
            flat = [i for r in rows for i in r]
            assert flat == sorted(set(flat))  # ascending i, each row in one chunk
            for (ci, _), r in zip(chunks, rows):
                assert len(ci) <= budget or len(r) == 1
                assert (np.diff(ci) >= 0).all()
            negative_zeros += any((np.signbit(x) & (x == 0)).any() for x in (*a[1:], *b[1:]))
        assert negative_zeros > 50

    def test_float_keys_and_empty_sides(self):
        key, x = np.array([0.0, 1.0]), np.array([0.0, 0.0])
        pairs = list(geometry.overlapping_pairs(key, x, x + 1, key, x, x + 1))
        assert [(i.tolist(), j.tolist()) for i, j in pairs] == [([0, 1], [0, 1])]
        none = np.empty(0)
        assert list(geometry.overlapping_pairs(none, none, none, key, x, x + 1)) == []
        assert [len(i) for i, _ in geometry.overlapping_pairs(key, x, x + 1, none, none, none)] == [0]
