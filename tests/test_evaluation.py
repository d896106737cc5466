import dataclasses
import json
import math

import numpy as np
import pytest

from tubelink import (
    BBox,
    ContractError,
    Detection,
    FrameShape,
    GroundTruth,
    IOU_THRESHOLDS,
    TrackBox,
    VideoDetections,
    average_precision,
    evaluate,
    evaluate_streams,
    generate,
    iou_matrix,
    match_predictions,
    standard_scenario,
    write_detections,
    write_ground_truth,
)
from tubelink import evaluation
from tubelink.cli import main
from tubelink.evaluation import EvalReport, _pr_points, evaluate_columns
from tubelink.io import columns_of

from conftest import SHAPE, det, random_bbox
from test_simulate import time_limit


# ------------------------------------------------------------------ oracles

def iou_oracle(a: BBox, b: BBox) -> float:
    """Corner-form IoU, written independently of the library's version."""
    ax1, ay1, ax2, ay2 = a.x, a.y, a.x + a.w, a.y + a.h
    bx1, by1, bx2, by2 = b.x, b.y, b.x + b.w, b.y + b.h
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / ((ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter)


def match_oracle(preds, gts, thresh):
    """Step-by-step trace of the greedy matching rule."""
    order = sorted(range(len(preds)),
                   key=lambda i: (-preds[i].score, preds[i].bbox.x, preds[i].bbox.y))
    labels = [False] * len(preds)
    free = list(range(len(gts)))
    for i in order:
        best_j, best_v = None, 0.0
        for j in free:
            v = iou_oracle(preds[i].bbox, gts[j])
            if v > best_v:
                best_v, best_j = v, j
        if best_j is not None and best_v >= thresh:
            free.remove(best_j)
            labels[i] = True
    return labels


def ap_oracle(scored, num_gt):
    """Direct 101-point AP: max precision at or beyond each recall sample."""
    if num_gt == 0 or not scored:
        return 0.0
    ordered = sorted(scored, key=lambda p: -p[0])
    recalls, precisions = [], []
    tp = 0
    for k, (_, lab) in enumerate(ordered, start=1):
        if lab:
            tp += 1
        recalls.append(tp / num_gt)
        precisions.append(tp / k)
    total = 0.0
    for i in range(101):
        r = i / 100
        eligible = [p for rec, p in zip(recalls, precisions) if rec >= r]
        total += max(eligible) if eligible else 0.0
    return total / 101


# ------------------------------------------------------------------ matching

class TestMatchPredictions:
    def test_exact_hit(self):
        assert match_predictions([det(score=0.9)], [BBox(0, 0, 10, 10)], 0.5) == [True]

    def test_double_detection_rule(self):
        preds = [det(score=0.9), det(score=0.8)]
        labels = match_predictions(preds, [BBox(0, 0, 10, 10)], 0.5)
        assert labels == [True, False]

    def test_greedy_differs_from_optimal(self):
        # the top-scored prediction grabs the gt it overlaps most, starving
        # the other prediction, while the optimal pairing would yield 2 TPs
        g1, g2 = BBox(0, 0, 10, 10), BBox(6, 0, 10, 10)
        a = det(score=0.9, x=2.8)   # iou 0.5625 with g1, 0.515 with g2
        b = det(score=0.8, x=0.5)   # iou 0.905 with g1, 0.29 with g2
        labels = match_predictions([a, b], [g1, g2], 0.5)
        assert labels == match_oracle([a, b], [g1, g2], 0.5)
        assert labels == [True, False]

    def test_exhaustive_small_configurations(self, rng):
        """Greedy trace equality over all prediction/gt counts up to 4x4."""
        thresholds = (0.3, 0.5, 0.75)
        for n_pred in range(5):
            for n_gt in range(5):
                for _ in range(40):
                    preds = [
                        det(x=float(rng.uniform(0, 50)), y=float(rng.uniform(0, 50)),
                            w=float(rng.uniform(5, 40)), h=float(rng.uniform(5, 40)),
                            score=float(rng.uniform(0, 1)))
                        for _ in range(n_pred)
                    ]
                    gts = [random_bbox(rng, 0, 50, 5, 40) for _ in range(n_gt)]
                    for t in thresholds:
                        assert match_predictions(preds, gts, t) == match_oracle(preds, gts, t)

    def test_score_ties_broken_by_position(self):
        g = BBox(0, 0, 10, 10)
        right = det(score=0.8, x=4.0)
        left = det(score=0.8, x=1.0)
        labels = match_predictions([right, left], [g], 0.5)
        assert labels == [False, True]

    @pytest.mark.parametrize("thresh, shown", [
        (math.nan, "nan"), (-0.1, "-0.1"), (1.5, "1.5"), (True, "True"), ("0.5", "'0.5'")])
    def test_threshold_outside_unit_interval_rejected(self, thresh, shown):
        # a NaN threshold labelled every prediction FP
        with pytest.raises(ContractError) as raised:
            match_predictions([det(score=0.9)], [BBox(0, 0, 10, 10)], thresh)
        assert str(raised.value) == f"iou_thresh must be in [0,1], got {shown}"

    @pytest.mark.parametrize("thresh", [0, 1.0, np.float32(0.5)])
    def test_threshold_bounds_taken(self, thresh):
        labels = match_predictions([det(score=0.9)], [BBox(0, 0, 10, 10)], thresh)
        assert labels == [True]


# ------------------------------------------------------------------ AP

class TestAveragePrecision:
    def test_perfect_detector(self):
        scored = [(0.9, True), (0.8, True), (0.7, True)]
        assert average_precision(scored, 3) == 1.0

    def test_no_predictions(self):
        assert average_precision([], 5) == 0.0

    def test_no_ground_truth(self):
        assert average_precision([(0.9, False)], 0) == 0.0

    def test_tp_fp_tp_hand_value(self):
        # hand computation: precision envelope 1.0 up to recall 0.5, then
        # 2/3 -> (51 * 1 + 50 * 2/3) / 101 = 253/303
        scored = [(0.9, True), (0.8, False), (0.7, True)]
        ap = average_precision(scored, 2)
        assert ap == pytest.approx(253 / 303, abs=1e-12)
        assert ap == pytest.approx(ap_oracle(scored, 2), abs=1e-12)

    def test_tiny_fixture_set_against_oracle(self, rng):
        """>= 10 small cases (<= 5 predictions each) vs the brute-force AP."""
        cases = 0
        for num_gt in (1, 2, 3, 4):
            for n in range(0, 6):
                for _ in range(8):
                    scored = [
                        (float(rng.uniform(0, 1)), bool(rng.random() < 0.6))
                        for _ in range(n)
                    ]
                    assert average_precision(scored, num_gt) == pytest.approx(
                        ap_oracle(scored, num_gt), abs=1e-9
                    )
                    cases += 1
        assert cases >= 10

    def test_score_rank_invariance(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            scores = np.sort(rng.uniform(0.01, 1.0, size=n))[::-1]
            labels = [bool(rng.random() < 0.5) for _ in range(n)]
            scored = list(zip(map(float, scores), labels))
            num_gt = int(rng.integers(1, 8))
            base = average_precision(scored, num_gt)
            for transform in (lambda s: s ** 3, lambda s: 0.2 + s / 2, math.exp):
                warped = [(transform(s), lab) for s, lab in scored]
                assert average_precision(warped, num_gt) == base

    def test_negative_num_gt_rejected(self):
        with pytest.raises(ContractError):
            average_precision([], -1)

    @pytest.mark.parametrize("num_gt, shown", [
        (-1, "-1"), (True, "True"), (1.0, "1.0"), (None, "None"), ("2", "'2'")])
    def test_num_gt_must_be_a_count(self, num_gt, shown):
        # True and 1.0 were taken as one gt box
        with pytest.raises(ContractError) as raised:
            average_precision([(0.9, True)], num_gt)
        assert str(raised.value) == f"num_gt must be an integer >= 0, got {shown}"

    @pytest.mark.parametrize("num_gt", [0, 1, np.int64(1)])
    def test_num_gt_counts_taken(self, num_gt):
        assert average_precision([(0.9, True)], num_gt) == (1.0 if num_gt else 0.0)


# ------------------------------------------------------------------ evaluate

def stream_pair(frames_p, frames_g, frame_count, shape=SHAPE, vid="v"):
    v = VideoDetections(vid, shape, frame_count, frames_p)
    g = GroundTruth(vid, shape, frame_count, frames_g)
    return v, g


class TestEvaluate:
    def test_predictions_equal_gt(self):
        frames_p, frames_g = {}, {}
        for f in range(5):
            b = BBox(10 + 3 * f, 20, 30, 30)
            frames_p[f] = [det(frame=f, x=b.x, y=b.y, w=b.w, h=b.h, score=1.0)]
            frames_g[f] = [TrackBox(f, 0, 0, b)]
        v, g = stream_pair(frames_p, frames_g, 5)
        rep = evaluate(v, g)
        assert rep.map50 == 1.0
        assert rep.map50_95 == 1.0
        for t in IOU_THRESHOLDS:
            assert rep.per_class_ap[(0, t)] == 1.0

    def test_shifted_boxes_between_thresholds(self):
        # 10x10 boxes shifted 2.5 px in x give IoU exactly 0.6: perfect at
        # threshold 0.5, hopeless at 0.75
        frames_p, frames_g = {}, {}
        for f in range(4):
            gt_box = BBox(0, 0, 10, 10)
            frames_p[f] = [det(frame=f, x=2.5, score=0.9)]
            frames_g[f] = [TrackBox(f, 0, 0, gt_box)]
        v, g = stream_pair(frames_p, frames_g, 4)
        assert iou_oracle(BBox(2.5, 0, 10, 10), BBox(0, 0, 10, 10)) == pytest.approx(0.6)
        rep = evaluate(v, g)
        assert rep.map50 == 1.0
        assert rep.per_class_ap[(0, 0.6)] == 1.0
        assert rep.per_class_ap[(0, 0.65)] == 0.0
        assert rep.per_class_ap[(0, 0.75)] == 0.0

    def test_ap_non_increasing_in_threshold(self, rng):
        from conftest import random_ground_truth, random_stream

        for _ in range(60):
            v = random_stream(rng, frame_count=4, max_per_frame=4)
            g = random_ground_truth(rng, frame_count=4, max_per_frame=4)
            rep = evaluate_streams([(v, g)])
            for c in rep.classes:
                aps = [rep.per_class_ap[(c, t)] for t in IOU_THRESHOLDS]
                assert all(a >= b - 1e-12 for a, b in zip(aps, aps[1:]))

    def test_metadata_mismatch_rejected(self):
        v, _ = stream_pair({}, {}, 3)
        _, g = stream_pair({}, {}, 4)
        with pytest.raises(ContractError):
            evaluate(v, g)
        v2 = VideoDetections("other", SHAPE, 3, {})
        g2 = GroundTruth("v", SHAPE, 3, {})
        with pytest.raises(ContractError):
            evaluate(v2, g2)

    def test_class_only_in_predictions_counts_zero(self):
        frames_p = {0: [det(score=0.9, cls=7)]}
        frames_g = {0: [TrackBox(0, 0, 0, BBox(0, 0, 10, 10))]}
        v, g = stream_pair(frames_p, frames_g, 1)
        rep = evaluate(v, g)
        assert set(rep.classes) == {0, 7}
        assert rep.per_class_ap[(7, 0.5)] == 0.0

    def test_absent_classes_excluded(self):
        frames_p = {0: [det(score=1.0)]}
        frames_g = {0: [TrackBox(0, 0, 0, BBox(0, 0, 10, 10))]}
        v, g = stream_pair(frames_p, frames_g, 1)
        rep = evaluate(v, g)
        assert rep.classes == [0]
        assert rep.map50 == 1.0  # no phantom zero-AP classes in the mean

    def test_counts_consistent(self):
        frames_p = {0: [det(score=0.9), det(x=500, score=0.8)]}
        frames_g = {0: [TrackBox(0, 0, 0, BBox(0, 0, 10, 10)),
                        TrackBox(0, 0, 1, BBox(200, 200, 10, 10))]}
        v, g = stream_pair(frames_p, frames_g, 1)
        rep = evaluate(v, g)
        assert rep.counts[0.5] == (1, 1, 1)

    def test_deterministic(self, rng):
        from conftest import random_ground_truth, random_stream

        v = random_stream(rng, frame_count=5)
        g = random_ground_truth(rng, frame_count=5)
        r1 = evaluate_streams([(v, g)])
        r2 = evaluate_streams([(v, g)])
        assert r1.per_class_ap == r2.per_class_ap
        assert r1.map50 == r2.map50 and r1.map50_95 == r2.map50_95

    def test_pooling_across_videos(self):
        frames_p1 = {0: [det(score=0.9)]}
        frames_g1 = {0: [TrackBox(0, 0, 0, BBox(0, 0, 10, 10))]}
        v1, g1 = stream_pair(frames_p1, frames_g1, 1, vid="a")
        frames_p2 = {0: []}
        frames_g2 = {0: [TrackBox(0, 0, 0, BBox(50, 50, 10, 10))]}
        v2, g2 = stream_pair(frames_p2, frames_g2, 1, vid="b")
        pooled = evaluate_streams([(v1, g1), (v2, g2)])
        # one TP of two pooled gt boxes: recall caps at 0.5
        assert pooled.counts[0.5] == (1, 0, 1)
        assert pooled.map50 == pytest.approx(51 / 101)

    def test_report_dict_shape(self):
        frames_p = {0: [det(score=1.0)]}
        frames_g = {0: [TrackBox(0, 0, 0, BBox(0, 0, 10, 10))]}
        v, g = stream_pair(frames_p, frames_g, 1)
        d = evaluate(v, g).to_dict()
        assert d["map50"] == 1.0
        assert d["per_class_ap"]["0"]["0.50"] == 1.0
        assert d["counts"]["0.50"] == {"tp": 1, "fp": 0, "fn": 0}


# ------------------------------------------------------------------ single pass vs oracle

def evaluate_oracle(pairs):
    """The per-class, per-threshold evaluator: match_predictions on every
    (class, frame) cell at every threshold, pooled in stream order."""
    classes = sorted(
        {d.class_id for v, _ in pairs for f in v.frames.values() for d in f}
        | {b.class_id for _, g in pairs for f in g.frames.values() for b in f}
    )
    per_class_ap, pr_curves = {}, {}
    counts = {t: [0, 0, 0] for t in IOU_THRESHOLDS}
    for c in classes:
        cells = [
            ([d for d in v.frames[f] if d.class_id == c],
             [b.bbox for b in g.frames[f] if b.class_id == c])
            for v, g in pairs
            for f in range(v.frame_count)
        ]
        for t in IOU_THRESHOLDS:
            scored, num_gt = [], 0
            for preds, gts in cells:
                labels = match_predictions(preds, gts, t)
                scored.extend((d.score, lab) for d, lab in zip(preds, labels))
                num_gt += len(gts)
            per_class_ap[(c, t)] = average_precision(scored, num_gt)
            pr_curves[(c, t)] = _pr_points(scored, num_gt)
            tp = sum(1 for _, lab in scored if lab)
            counts[t][0] += tp
            counts[t][1] += len(scored) - tp
            counts[t][2] += num_gt - tp
    map50 = float(np.mean([per_class_ap[(c, 0.5)] for c in classes])) if classes else 0.0
    map50_95 = (
        float(np.mean([per_class_ap[(c, t)] for c in classes for t in IOU_THRESHOLDS]))
        if classes else 0.0
    )
    return EvalReport(classes, per_class_ap, map50, map50_95, pr_curves,
                      {t: tuple(acc) for t, acc in counts.items()})


def assert_same_report(got, want):
    assert got.to_dict() == want.to_dict()
    assert json.dumps(got.to_dict(), sort_keys=True) == json.dumps(want.to_dict(), sort_keys=True)
    assert list(got.per_class_ap.items()) == list(want.per_class_ap.items())
    assert got.counts == want.counts
    assert list(got.pr_curves) == list(want.pr_curves)
    assert dict(got.pr_curves) == want.pr_curves


def clustered_pair(rng, vid, frame_count, classes, scores=None):
    """Boxes jittered around a few anchors per frame, so cells hold several
    overlapping predictions and gt boxes at IoUs across the thresholds.
    A fifth of the predictions repeat the previous one's box and score."""
    frames_p, frames_g = {}, {}
    for f in range(frame_count):
        anchors = rng.uniform(0, 100, size=(int(rng.integers(1, 4)), 2))

        def box():
            ax, ay = anchors[rng.integers(len(anchors))] + rng.normal(0, 3, size=2)
            return BBox(float(ax), float(ay), float(rng.uniform(15, 25)), float(rng.uniform(15, 25)))

        frames_g[f] = [TrackBox(f, int(rng.integers(classes)), tid, box())
                       for tid in range(int(rng.integers(0, 5)))]
        preds = []
        for _ in range(int(rng.integers(0, 7))):
            if preds and rng.random() < 0.2:
                preds.append(preds[-1])
                continue
            score = float(rng.choice(scores)) if scores is not None else float(rng.uniform())
            preds.append(Detection(f, int(rng.integers(classes)), box(), score))
        frames_p[f] = preds
    return (VideoDetections(vid, SHAPE, frame_count, frames_p),
            GroundTruth(vid, SHAPE, frame_count, frames_g))


def random_pairs(rng, scores=None):
    return [
        clustered_pair(rng, f"v{k}", int(rng.integers(1, 7)), int(rng.integers(1, 4)), scores)
        for k in range(int(rng.integers(1, 4)))
    ]


def crowd(rng, frame, n_pred, n_gt, side=30):
    """n_gt gt boxes of side 20 within `side` px of each other and n_pred
    predictions a few px off them, on a one-pixel grid with three scores: the
    predictions compete for the boxes, and repeated boxes and ties occur."""
    gts = [TrackBox(frame, 0, k, BBox(*map(float, rng.integers(0, side, size=2)), 20.0, 20.0))
           for k in range(n_gt)]
    preds = []
    for _ in range(n_pred):
        g = gts[rng.integers(n_gt)].bbox
        dx, dy = map(float, rng.integers(-3, 4, size=2))
        preds.append(det(frame, g.x + dx, g.y + dy, 20.0, 20.0, float(rng.choice([0.3, 0.6, 0.9]))))
    return preds, gts


def rivals_per_cell(pairs):
    """The rival count of each (video, frame) cell that has rivals, for one
    class: the predictions whose best IoU reaches 0.5 and that overlap a gt
    box which another such prediction overlaps too."""
    counts = []
    for v, g in pairs:
        for f in range(v.frame_count):
            if v.frames[f] and g.frames[f]:
                m = iou_matrix([d.bbox for d in v.frames[f]], [b.bbox for b in g.frames[f]])
                live = m.max(axis=1) >= 0.5
                shared = (m[live] > 0).sum(axis=0) > 1
                counts.append(int(((m > 0) & shared & live[:, None]).any(axis=1).sum()))
    return sorted(n for n in counts if n)


def spy_rounds(monkeypatch):
    """Record the rivals' cells round by round and the round bounds of every
    _match call."""
    seen, rounds = [], evaluation._rounds

    def spy(cells):
        by_round, bounds = rounds(cells)
        seen.append((cells[by_round], bounds))
        return by_round, bounds
    monkeypatch.setattr(evaluation, "_rounds", spy)
    return seen


def assert_rounds(seen, pairs):
    """Each cell's rivals are spread over distinct rounds, as many as the
    most rivals in one cell, and the cells' rival counts are the oracle's."""
    counts = []
    for cells, bounds in seen:
        _, size = np.unique(cells, return_counts=True)
        counts += size.tolist()
        assert len(bounds) - 1 == size.max(initial=0)
        for a, b in zip(bounds[:-1], bounds[1:]):
            assert len(np.unique(cells[a:b])) == b - a
    assert sorted(counts) == rivals_per_cell(pairs)


def spy_iou_corners(monkeypatch):
    """Record the (prediction, gt) corner rows of every iou_corners call that
    evaluation makes."""
    calls, iou_corners = [], evaluation.iou_corners

    def spy(a, b):
        calls.append((a.copy(), b.copy()))
        return iou_corners(a, b)
    monkeypatch.setattr(evaluation, "iou_corners", spy)
    return calls


def scored_pairs(calls):
    """The (prediction corners, gt corners) rows the spied calls were given."""
    return sorted((*a, *b) for ca, cb in calls for a, b in zip(ca.tolist(), cb.tolist()))


def x_overlapping_pairs(pairs):
    """By brute force, the (prediction corners, gt corners) rows of every
    same-class, same-cell pair whose x-extents overlap: q.x1 < p.x2 and
    q.x2 > p.x1."""
    rows = []
    for v, g in pairs:
        for f in range(v.frame_count):
            for d in v.frames[f]:
                for b in g.frames[f]:
                    p = (d.bbox.x, d.bbox.y, d.bbox.x + d.bbox.w, d.bbox.y + d.bbox.h)
                    q = (b.bbox.x, b.bbox.y, b.bbox.x + b.bbox.w, b.bbox.y + b.bbox.h)
                    if d.class_id == b.class_id and q[0] < p[2] and q[2] > p[0]:
                        rows.append((*p, *q))
    return sorted(rows)


def window_edge_pair(shift=0.0, vid="v"):
    """One video whose frames hold the cases at the edges of the x window,
    all shifted by `shift` in x: (gt boxes, predictions) as (x, w), each
    with y = 0 and h = 10, then 1e200-sided boxes in the last frame."""
    cases = [
        # edges that touch exactly, q.x2 == p.x1 and q.x1 == p.x2, next to a hit
        ([(10, 10)], [(20, 10), (0, 10), (15, 10)]),
        # a wide gt first in x1 order covers a prediction past narrow ones
        ([(0, 100), (10, 2), (20, 2), (30, 2)], [(40, 60), (11, 10)]),
        # nested boxes, either way round
        ([(0, 100), (45, 10)], [(40, 20), (0, 100), (44, 12)]),
        # ties in x1, and a prediction that starts where the first tie ends
        ([(5, 5), (5, 10), (5, 20), (5, 10)], [(5, 10), (10, 5), (5, 20)]),
        # only predictions, then only gt
        ([], [(0, 10), (3, 10)]),
        ([(0, 10), (3, 10)], []),
    ]
    frames_p, frames_g = {}, {}
    for f, (gts, preds) in enumerate(cases):
        frames_g[f] = [TrackBox(f, 0, k, BBox(x + shift, 0.0, float(w), 10.0))
                       for k, (x, w) in enumerate(gts)]
        frames_p[f] = [det(f, x + shift, 0.0, float(w), 10.0, 0.9 - 0.1 * k)
                       for k, (x, w) in enumerate(preds)]
    # 1e200-sided boxes whose intersection overflows, and one that touches
    big = 1e200
    f = len(cases)
    frames_g[f] = [TrackBox(f, 0, 0, BBox(shift, 0.0, big, big)),
                   TrackBox(f, 1, 1, BBox(-big, -big, big, big))]
    frames_p[f] = [det(f, shift + big / 10, big / 10, big, big, 0.9),
                   det(f, shift + big, 0.0, big, big, 0.8),
                   det(f, -big, -big / 2, big, big, 0.7, cls=1),
                   det(f, 0.0, -big, big, big, 0.6, cls=1)]
    return stream_pair(frames_p, frames_g, f + 1, vid=vid)


def grid_pair(rng, vid):
    """Boxes on a one-pixel grid of two classes, so that touching edges, ties
    in x1 and repeated boxes are common, at negative x half the time."""
    shift = float(rng.choice([0.0, -1000.0]))
    frames_p, frames_g = {}, {}
    for f in range(3):
        def box():
            x, y = rng.integers(0, 16, size=2)
            w, h = rng.integers(1, 7, size=2)
            return BBox(float(x) + shift, float(y), float(w), float(h))

        frames_g[f] = [TrackBox(f, int(rng.integers(2)), k, box())
                       for k in range(int(rng.integers(0, 8)))]
        frames_p[f] = [Detection(f, int(rng.integers(2)), box(), float(rng.choice([0.4, 0.8])))
                       for _ in range(int(rng.integers(0, 8)))]
    return stream_pair(frames_p, frames_g, 3, vid=vid)


class TestSinglePassMatchesOracle:
    @pytest.mark.parametrize("chunk", [1, 5, evaluation._PAIR_CHUNK])
    def test_random_pooled_streams(self, rng, monkeypatch, chunk):
        monkeypatch.setattr(evaluation, "_PAIR_CHUNK", chunk)
        for _ in range(40):
            pairs = random_pairs(rng)
            assert_same_report(evaluate_streams(pairs), evaluate_oracle(pairs))

    @pytest.mark.parametrize("chunk", [1, 5, evaluation._PAIR_CHUNK])
    def test_x_window_scores_exactly_the_x_overlaps(self, rng, monkeypatch, chunk):
        """IoU is computed for exactly the same-cell pairs whose x-extents
        overlap, at the window's edges and on random grids, and the report
        is the oracle's."""
        monkeypatch.setattr(evaluation, "_PAIR_CHUNK", chunk)
        calls = spy_iou_corners(monkeypatch)
        cases = [[window_edge_pair()], [window_edge_pair(-1000.5)],
                 [window_edge_pair(vid="a"), window_edge_pair(-7.25, vid="b")]]
        cases += [[grid_pair(rng, "a"), grid_pair(rng, "b")] for _ in range(30)]
        for pairs in cases:
            calls.clear()
            assert_same_report(evaluate_streams(pairs), evaluate_oracle(pairs))
            assert scored_pairs(calls) == x_overlapping_pairs(pairs)

    def test_equal_scores_across_frames(self, rng):
        for _ in range(40):
            pairs = random_pairs(rng, scores=(0.25, 0.5, 0.75))
            assert_same_report(evaluate_streams(pairs), evaluate_oracle(pairs))

    def test_claim_order_in_crowded_cells(self, rng):
        """Cells with >= 2 predictions and >= 2 gt boxes where the greedy
        claim makes predictions compete, at every threshold."""
        competing = 0
        for _ in range(60):
            pairs = [clustered_pair(rng, "v", 4, 1)]
            assert_same_report(evaluate_streams(pairs), evaluate_oracle(pairs))
            for v, g in pairs:
                for f in range(v.frame_count):
                    mat = iou_matrix([d.bbox for d in v.frames[f]], [b.bbox for b in g.frames[f]])
                    if mat.shape[1] >= 2 and ((mat >= 0.5).sum(axis=0) >= 2).any():
                        competing += 1
        assert competing >= 20
        # a hand case: the first prediction takes the box the second needs
        g1, g2 = BBox(0, 0, 10, 10), BBox(6, 0, 10, 10)
        frames_p = {0: [det(score=0.8, x=0.5), det(score=0.9, x=2.8)]}
        frames_g = {0: [TrackBox(0, 0, 0, g1), TrackBox(0, 0, 1, g2)]}
        pairs = [stream_pair(frames_p, frames_g, 1)]
        rep = evaluate_streams(pairs)
        assert_same_report(rep, evaluate_oracle(pairs))
        assert rep.counts[0.5] == (1, 1, 1)
        # an IoU tie (8/12 with both boxes) goes to the earliest box, which
        # leaves the later one to the second prediction
        left, right = BBox(-2, 0, 10, 10), BBox(2, 0, 10, 10)
        frames_p = {0: [det(score=0.9, x=0.0), det(score=0.8, x=4.0)]}
        for gts, tp in (([left, right], 2), ([right, left], 1)):
            frames_g = {0: [TrackBox(0, 0, k, b) for k, b in enumerate(gts)]}
            pairs = [stream_pair(frames_p, frames_g, 1)]
            rep = evaluate_streams(pairs)
            assert_same_report(rep, evaluate_oracle(pairs))
            assert rep.counts[0.5][0] == tp

    def test_rounds_across_cells_and_videos(self, rng, monkeypatch):
        """One call over three videos whose cells hold 20-40 rivals, a pair
        of rivals, predictions that do not compete, or nothing; the kinds sit
        in different frames of each video."""
        seen = spy_rounds(monkeypatch)
        for _ in range(8):
            pairs = []
            for vid in "abc":
                kinds = rng.permutation(4)
                frames_p, frames_g = {}, {}
                for f, kind in enumerate(kinds.tolist()):
                    if kind == 0:
                        preds, gts = crowd(rng, f, int(rng.integers(20, 41)), int(rng.integers(4, 9)))
                    elif kind == 1:
                        preds, gts = crowd(rng, f, 2, 1)
                    elif kind == 2:
                        gts = [TrackBox(f, 0, k, BBox(100.0 * k, 0, 20, 20)) for k in range(3)]
                        preds = [det(f, 100.0 * k + 1, 0, 20, 20, 0.5) for k in range(3)]
                    else:
                        preds, gts = [], []
                    frames_p[f], frames_g[f] = preds, gts
                pairs.append(stream_pair(frames_p, frames_g, 4, vid=vid))
            seen.clear()
            assert_same_report(evaluate_streams(pairs), evaluate_oracle(pairs))
            assert_rounds(seen, pairs)
            counts = rivals_per_cell(pairs)
            assert counts[:3] == [2, 2, 2] and counts[-1] >= 20 and len(counts) == 6

    def test_iou_ties_and_repeated_boxes(self, rng, monkeypatch):
        """Predictions at odd x between gt boxes at even x have equal IoU with
        both neighbours; gt boxes and predictions repeat exactly."""
        seen = spy_rounds(monkeypatch)
        ties = 0
        for _ in range(30):
            frames_p, frames_g = {}, {}
            for f in range(3):
                xs = rng.choice(np.arange(0, 24, 2), size=5)  # with repeats
                frames_g[f] = [TrackBox(f, 0, k, BBox(float(x), 0, 10, 10)) for k, x in enumerate(xs)]
                preds = []
                for _ in range(int(rng.integers(2, 13))):
                    if preds and rng.random() < 0.3:
                        preds.append(preds[-1])
                    else:
                        preds.append(det(f, 2.0 * float(rng.integers(0, 12)) + 1,
                                         score=float(rng.choice([0.5, 0.9]))))
                frames_p[f] = preds
                m = iou_matrix([d.bbox for d in preds], [b.bbox for b in frames_g[f]])
                top = m.max(axis=1, keepdims=True)
                ties += int((((m == top) & (top >= 0.5)).sum(axis=1) > 1).sum())
            pairs = [stream_pair(frames_p, frames_g, 3)]
            seen.clear()
            assert_same_report(evaluate_streams(pairs), evaluate_oracle(pairs))
            assert_rounds(seen, pairs)
        assert ties >= 100, ties

    def test_one_cell_of_400_rivals(self, rng, monkeypatch):
        """With every rival in one cell there is one round per rival, and the
        call still ends within a time bound."""
        seen = spy_rounds(monkeypatch)
        preds, gts = crowd(rng, 0, 400, 50, side=200)
        pairs = [stream_pair({0: preds}, {0: gts}, 1)]
        with time_limit(2.0):
            rep = evaluate_streams(pairs)
        assert_rounds(seen, pairs)
        assert len(seen[0][1]) - 1 == len(preds)
        assert_same_report(rep, evaluate_oracle(pairs))

    def test_one_cell_overlapping_in_x(self, rng, monkeypatch):
        """400 predictions and 400 gt boxes in one cell whose x-extents all
        overlap, so the window is the whole cell: no iou_corners call gets
        more than _PAIR_CHUNK pairs, and the call ends within a time bound."""
        calls = spy_iou_corners(monkeypatch)
        gts = [TrackBox(0, 0, k, BBox(float(rng.integers(10)), float(rng.integers(400)), 50, 20))
               for k in range(400)]
        preds = [det(0, float(rng.integers(10)), float(rng.integers(400)), 50.0, 20.0,
                     float(rng.choice([0.3, 0.6, 0.9]))) for _ in range(400)]
        pairs = [stream_pair({0: preds}, {0: gts}, 1)]
        with time_limit(2.0):
            rep = evaluate_streams(pairs)
        assert sum(len(a) for a, _ in calls) == 400 * 400
        assert max(len(a) for a, _ in calls) <= evaluation._PAIR_CHUNK
        assert_same_report(rep, evaluate_oracle(pairs))

    def test_simulated_crowd(self):
        cfg = dataclasses.replace(standard_scenario(4), frame_count=15, num_tracks=30, fp_rate=5.0)
        gt, dets = generate(cfg)
        pairs = [(dets, gt)]
        assert_same_report(evaluate_streams(pairs), evaluate_oracle(pairs))

    def test_class_on_one_side_only(self, rng):
        """Class 3 has predictions only and class 5 gt only, among classes
        0-2 that have both and share their cells."""
        for _ in range(20):
            v, g = clustered_pair(rng, "v", 5, 3)
            frames_p = {f: v.frames[f] + [det(frame=f, cls=3, score=0.4)] for f in range(5)}
            frames_g = {f: g.frames[f] + [TrackBox(f, 5, 99, BBox(1, 1, 9, 9))] for f in range(5)}
            pairs = [stream_pair(frames_p, frames_g, 5)]
            rep = evaluate_streams(pairs)
            assert {3, 5} <= set(rep.classes)
            assert all(rep.per_class_ap[(c, t)] == 0.0 for c in (3, 5) for t in IOU_THRESHOLDS)
            assert_same_report(rep, evaluate_oracle(pairs))

    def test_empty_streams(self):
        cases = [
            [],
            [stream_pair({}, {}, 0)],
            [stream_pair({}, {}, 3)],
            [stream_pair({}, {}, 2, vid="a"),
             stream_pair({}, {0: [TrackBox(0, 0, 0, BBox(0, 0, 5, 5))]}, 1, vid="b")],
        ]
        for pairs in cases:
            assert_same_report(evaluate_streams(pairs), evaluate_oracle(pairs))

    def test_degenerate_overlap(self):
        # x + w rounds back to x here, so these boxes have zero area and an
        # IoU of 0/0 with each other; no prediction may claim through it
        far = 1e17
        frames_p = {0: [det(x=far, w=1.0, score=0.9), det(x=0.0, score=0.8)]}
        frames_g = {0: [TrackBox(0, 0, 0, BBox(far, 0, 1.0, 10)),
                        TrackBox(0, 0, 1, BBox(0.5, 0, 10, 10))]}
        pairs = [stream_pair(frames_p, frames_g, 1)]
        with np.errstate(invalid="ignore"):
            assert_same_report(evaluate_streams(pairs), evaluate_oracle(pairs))

    def test_pr_curves_built_on_lookup(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(evaluation, "_pr_points",
                            lambda *a: calls.append(a) or _pr_points(*a))
        rep = evaluate_streams(random_pairs(rng))
        assert calls == []
        c = rep.classes[0]
        assert rep.pr_curves[(c, 0.5)] == _pr_points(*calls[0])
        assert len(calls) == 1
        assert (c, 0.42) not in rep.pr_curves

    def test_cli_report_bytes(self, rng, tmp_path, capsys):
        pairs = random_pairs(rng, scores=(0.25, 0.5, 0.75))
        argv = ["eval"]
        for k, (v, g) in enumerate(pairs):
            write_detections(v, tmp_path / f"d{k}.txt")
            write_ground_truth(g, tmp_path / f"g{k}.txt")
            argv += ["--detections", str(tmp_path / f"d{k}.txt"),
                     "--ground-truth", str(tmp_path / f"g{k}.txt")]
        out, pr = tmp_path / "report.json", tmp_path / "pr.csv"
        assert main(argv + ["--out", str(out), "--pr-out", str(pr)]) == 0
        want = evaluate_oracle(pairs)
        assert out.read_text(encoding="utf-8") == json.dumps(want.to_dict(), indent=2, sort_keys=True) + "\n"
        lines = ["class_id,iou_thresh,recall,precision"] + [
            f"{c},{t:.2f},{r!r},{p!r}"
            for c in want.classes for t in IOU_THRESHOLDS for r, p in want.pr_curves[(c, t)]
        ]
        assert pr.read_text(encoding="utf-8") == "\n".join(lines) + "\n"


# ------------------------------------------------------------------ every class in one pass

def ranked_ap_reference(is_tp, num_gt):
    """The per-class AP computation that the one AP pass replaced: cumsum,
    recall and precision, the envelope as a running max from the right,
    searchsorted at the 101 recalls and np.mean of the samples."""
    if num_gt == 0 or not len(is_tp):
        return 0.0
    tp = np.cumsum(is_tp, dtype=float)
    n = np.arange(1, len(tp) + 1)
    recall = tp / num_gt
    precision = tp / n
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, np.linspace(0.0, 1.0, 101), side="left")
    sampled = np.where(idx < len(tp), envelope[np.minimum(idx, len(tp) - 1)], 0.0)
    return float(np.mean(sampled))


def many_classes_pair(rng, vid, frame_count, classes, scores=None):
    """clustered_pair with the class ids drawn from `classes`, so that many
    classes share each (video, frame) cell."""
    v, g = clustered_pair(rng, vid, frame_count, len(classes), scores)
    frames_p = {f: [dataclasses.replace(d, class_id=classes[d.class_id]) for d in ds]
                for f, ds in v.frames.items()}
    frames_g = {f: [dataclasses.replace(b, class_id=classes[b.class_id]) for b in bs]
                for f, bs in g.frames.items()}
    return stream_pair(frames_p, frames_g, frame_count, vid=vid)


class TestEveryClassInOnePass:
    def test_segment_aps_equal_the_per_class_computation(self, rng):
        """Random segments, empty ones and ones without gt included: each
        AP has the bits of the per-class computation, and each TP count is
        the segment's."""
        for _ in range(200):
            sizes = rng.integers(0, 40, size=int(rng.integers(1, 30)))
            sizes[rng.random(len(sizes)) < 0.2] = 0
            is_tp = rng.random(int(sizes.sum())) < rng.uniform(0, 1)
            num_gt = rng.integers(0, 60, size=len(sizes))
            num_gt[rng.random(len(sizes)) < 0.2] = 0
            aps, tps = evaluation._segment_aps(is_tp, sizes, num_gt)
            segments = np.split(is_tp, np.cumsum(sizes)[:-1])
            assert aps.tolist() == [ranked_ap_reference(s, k) for s, k in zip(segments, num_gt.tolist())]
            assert tps.tolist() == [int(s.sum()) for s in segments]

    def test_average_precision_is_the_segment_ap(self, rng):
        for _ in range(300):
            n = int(rng.integers(0, 30))
            flags = rng.random(n) < rng.uniform(0, 1)
            num_gt = int(rng.integers(0, 40))
            scored = list(zip(np.linspace(1.0, 0.0, n).tolist(), flags.tolist()))
            want = evaluation._segment_aps(flags, np.array([n]), np.array([num_gt]))[0][0]
            assert average_precision(scored, num_gt) == want == ranked_ap_reference(flags, num_gt)
        assert average_precision([], 0) == average_precision([], 3) == 0.0
        assert average_precision([(0.5, True)], 0) == 0.0

    def test_the_smallest_and_largest_class_ids_together(self, rng):
        big = 2**63 - 1
        for _ in range(20):
            pairs = [many_classes_pair(rng, vid, 4, [0, big]) for vid in ("a", "b")]
            rep = evaluate_streams(pairs)
            assert set(rep.classes) <= {0, big}
            assert_same_report(rep, evaluate_oracle(pairs))
        assert rep.classes == [0, big]
        assert rep.to_dict()["per_class_ap"].keys() == {"0", str(big)}

    def test_many_classes_share_the_cells_of_pooled_videos(self, rng):
        """Eight classes in the cells of 2-4 videos; in half the calls three
        scores only, so a class's ranking holds runs of equal scores that
        stay in stream order across frames and videos."""
        classes = [3, 5, 8, 13, 21, 34, 55, 89]
        for k in range(30):
            scores = (0.3, 0.6, 0.9) if k % 2 else None
            pairs = [many_classes_pair(rng, f"v{j}", int(rng.integers(2, 6)), classes, scores)
                     for j in range(int(rng.integers(2, 5)))]
            rep = evaluate_streams(pairs)
            assert_same_report(rep, evaluate_oracle(pairs))
        assert len(rep.classes) >= 6

    def test_a_frame_outside_its_video_is_refused(self, rng):
        """Frames are numbered across the pooled videos, so a frame at or past
        frame_count would fall into the next video's cells: it is refused."""
        cols = []
        while not (cols and all(len(c.frame_idx) for c in cols[0])):
            pairs = [many_classes_pair(rng, vid, 3, [1, 2]) for vid in ("a", "b")]
            cols = [(columns_of(v), columns_of(g)) for v, g in pairs]
        assert_same_report(evaluate_columns(cols), evaluate_oracle(pairs))
        for side in (0, 1):
            for frame in (-1, 3):
                bad = [list(pair) for pair in cols]
                s = bad[0][side]
                frames = s.frame_idx.copy()
                frames[-1] = frame
                bad[0][side] = dataclasses.replace(s, frame_idx=frames)
                with pytest.raises(ContractError, match=r"frame_idx out of \[0, 3\) in 'a'"):
                    evaluate_columns([tuple(pair) for pair in bad])
