import numpy as np
import pytest

from tubelink import (
    BBox, ContractError, Detection, FrameShape, ValidationError, center, iou, iou_matrix, nms,
)

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


class TestDetectionValidation:
    def test_score_above_one_rejected(self):
        with pytest.raises(ValidationError):
            det(score=1.3)

    def test_negative_frame_rejected(self):
        with pytest.raises(ValidationError):
            det(frame=-1)

    def test_non_unit_appearance_rejected(self):
        with pytest.raises(ValidationError):
            det(app=(1.0, 1.0))

    def test_unit_appearance_accepted(self):
        d = det(app=(0.6, 0.8))
        assert d.appearance == (0.6, 0.8)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_appearance_rejected(self, bad):
        # a NaN used to pass the unit-norm test, and its cosine then clamped
        # to the maximal similarity 1.0 against any box
        for app in ((0.9, bad, 0.0), (bad,), (1.0, 0.0, bad)):
            with pytest.raises(ValidationError, match="non-finite component"):
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
