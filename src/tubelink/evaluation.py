"""COCO-style average-precision evaluation: AP per class and IoU threshold,
mAP50 and mAP50-95, PR curves and TP/FP/FN counts.

Matching is greedy in score order (the COCO convention): each prediction
claims the unclaimed ground-truth box of maximal IoU, provided the IoU
reaches the threshold. AP uses 101-point interpolation over the precision
envelope. Everything is deterministic for a given input.

match_predictions and average_precision score one (class, frame) cell at one
threshold; evaluate_columns gives their numbers for every class at once, in
one columnar pass over the arrays of io.read_columns. One stable sort of the
boxes of both sides by (class, video, frame) numbers the cells and keeps
file order within each. The matching then runs once over all cells: it
computes the IoU of each same-cell pair whose x-extents overlap, found by a
sort-and-sweep window over the gt boxes sorted by x1 in each cell, in
chunks; every other pair has IoU exactly 0. It runs the greedy claim for all
10 thresholds together. The predictions that compete for a box claim in
rounds across cells: round r takes the r-th competitor of every cell at
once, which is exact because competitors of different cells share no box.
One more stable sort ranks the predictions by class, then descending score,
and one AP pass scores every (threshold, class) segment of the ranked TP
flags, which average_precision shares. PR curves are built only when looked
up. evaluate_streams is evaluate_columns of io.columns_of.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ContractError
from .geometry import BBox, Detection, iou_corners, iou_matrix
from .io import BoxColumns, GroundTruth, VideoDetections, columns_of
from .settings import UNIT_CLOSED, int_at_least

IOU_THRESHOLDS: tuple[float, ...] = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))
_THRESHOLDS = np.array(IOU_THRESHOLDS)
_ROW = {t: k for k, t in enumerate(IOU_THRESHOLDS)}
_RECALLS = np.linspace(0.0, 1.0, 101)  # where AP samples the precision envelope
_PAIR_CHUNK = 1 << 13  # candidate pairs, those of the x windows, taken at once to bound memory
NUM_GT = int_at_least(0)


@dataclass
class EvalReport:
    """Evaluation result over one or more (predictions, ground truth) pairs."""

    classes: list[int]
    per_class_ap: dict[tuple[int, float], float]
    map50: float
    map50_95: float
    pr_curves: Mapping[tuple[int, float], list[tuple[float, float]]]  # built on lookup
    counts: dict[float, tuple[int, int, int]]  # threshold -> (TP, FP, FN)

    def class_ap50_95(self, class_id: int) -> float:
        return float(
            np.mean([self.per_class_ap[(class_id, t)] for t in IOU_THRESHOLDS])
        )

    def to_dict(self) -> dict:
        """JSON-friendly mirror of the report."""
        return {
            "classes": self.classes,
            "map50": self.map50,
            "map50_95": self.map50_95,
            "per_class_ap": {
                str(c): {f"{t:.2f}": self.per_class_ap[(c, t)] for t in IOU_THRESHOLDS}
                for c in self.classes
            },
            "counts": {
                f"{t:.2f}": {"tp": tp, "fp": fp, "fn": fn}
                for t, (tp, fp, fn) in self.counts.items()
            },
        }


def match_predictions(
    preds: list[Detection],
    gts: list[BBox],
    iou_thresh: float,
) -> list[bool]:
    """Label each prediction TP/FP against one frame's same-class gt boxes.

    Predictions are visited by descending score (ties by box x, then y); each
    claims the unclaimed gt box of maximal IoU when that IoU is at least
    iou_thresh (ties on IoU go to the earliest gt). Returns flags parallel to
    the input order; unclaimed gt boxes are the false negatives.
    """
    UNIT_CLOSED.require("iou_thresh", iou_thresh, ContractError)
    iou_mat = iou_matrix([d.bbox for d in preds], gts)
    order = sorted(
        range(len(preds)), key=lambda i: (-preds[i].score, preds[i].bbox.x, preds[i].bbox.y)
    )
    labels = [False] * len(preds)
    claimed = [False] * len(gts)
    for i in order:
        best_j = -1
        best = 0.0
        for j in range(len(gts)):
            if claimed[j]:
                continue
            v = iou_mat[i, j]
            if v > best:
                best = v
                best_j = j
        if best_j >= 0 and best >= iou_thresh:
            claimed[best_j] = True
            labels[i] = True
    return labels


def average_precision(scored: list[tuple[float, bool]], num_gt: int) -> float:
    """101-point interpolated AP from (score, is_tp) labels.

    The precision envelope (running max from the right) is sampled at recalls
    0.00, 0.01, ..., 1.00 and averaged. With no ground truth the AP is
    defined as 0.
    """
    NUM_GT.require("num_gt", num_gt, ContractError)
    ordered = sorted(scored, key=lambda p: -p[0])
    is_tp = np.array([lab for _, lab in ordered], dtype=bool)
    return float(_segment_aps(is_tp, np.array([len(is_tp)]), np.array([num_gt]))[0][0])


def _segment_aps(is_tp: np.ndarray, sizes: np.ndarray, num_gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The average_precision and the TP count of each segment of is_tp: TP
    flags in descending score order, split in order into segments of the
    given sizes, the k-th with num_gt[k] gt boxes.

    At a segment's k-th TP, of rank n, precision is k / n and recall is k /
    num_gt. Precision falls from a TP to the FPs after it, so the envelope,
    precision's max from a rank to the segment's end, is at a TP the max
    over the TPs from it on. A sampled recall r is first reached at the m-th
    TP, m the least count with m / num_gt >= r; for m = 0 at rank 0, where
    the envelope is the first TP's. The envelope at every sample is then the
    running max, from the right, of the precisions' maxima over the blocks
    of TPs between consecutive samples. A segment's samples are averaged as
    np.mean averages a 1-D array; a sample that no TP reaches, and every
    sample of a segment without gt, is 0."""
    end = np.cumsum(sizes)
    start = end - sizes
    hits = np.flatnonzero(is_tp)  # the TPs' ranks
    first, last = np.searchsorted(hits, start), np.searchsorted(hits, end)  # each segment's TPs
    hits_in = last - first
    # each TP's count over its rank in the segment, computed in place to bound
    # the memory, and a last 0 that reduceat's final index reads
    precision = np.arange(1.0, len(hits) + 2)
    precision[-1] = 0.0
    precision[:-1] -= np.repeat(first, hits_in)
    precision[:-1] /= hits + 1 - np.repeat(start, hits_in)
    g = np.maximum(num_gt, 1)[:, None]
    # ceil(r * num_gt), one more or less where the product rounds across an integer
    m = np.ceil(_RECALLS * g)
    m -= (m - 1) / g >= _RECALLS
    m += m / g < _RECALLS
    at = np.minimum(first[:, None] + np.maximum(m, 1).astype(np.int64) - 1, last[:, None])
    found = (at < last[:, None]) & (num_gt > 0)[:, None]
    # each sample's block runs to the next sample's TP, the last one's to the segment's end
    block = np.maximum.reduceat(precision, np.column_stack((at, last)).ravel())
    block = np.where(found, block.reshape(-1, len(_RECALLS) + 1)[:, :-1], 0.0)
    sampled = np.maximum.accumulate(block[:, ::-1], axis=1)[:, ::-1].copy()
    return sampled.mean(axis=1), hits_in


def evaluate(preds: VideoDetections, gt: GroundTruth) -> EvalReport:
    """Evaluate one prediction stream against its ground truth."""
    return evaluate_streams([(preds, gt)])


def evaluate_streams(pairs: list[tuple[VideoDetections, GroundTruth]]) -> EvalReport:
    """Evaluate prediction/ground-truth pairs, pooling detections across videos.

    Every pair must agree on video_id, frame shape and frame count. Classes
    absent from both predictions and ground truth do not enter the means;
    mAP50-95 averages AP over the 10 thresholds 0.50:0.05:0.95, then over
    classes.
    """
    return evaluate_columns([(columns_of(v), columns_of(g)) for v, g in pairs])


def evaluate_columns(pairs: list[tuple[BoxColumns, BoxColumns]]) -> EvalReport:
    """The report of evaluate_streams for pairs of columns, as io.read_columns
    or io.columns_of gives them. Only the order of boxes within a frame enters
    it, so a file's columns and its stream's give the same report. A frame
    outside [0, frame_count) raises ContractError.
    """
    classes, p, pk, q, qk = _tables(pairs)
    # by class, then descending score; a stable sort keeps equal scores in
    # stream order, as sorted() does
    rank = np.lexsort((-p[:, 5], pk))
    labels = _match(p, q)[:, rank]
    num_pred = np.bincount(pk, minlength=len(classes))
    num_gt = np.bincount(qk, minlength=len(classes))
    # one segment per (threshold, class), in that order
    aps, tps = (a.reshape(len(IOU_THRESHOLDS), -1) for a in _segment_aps(
        labels.ravel(), np.tile(num_pred, len(IOU_THRESHOLDS)), np.tile(num_gt, len(IOU_THRESHOLDS))))
    tp = tps.sum(axis=1)
    return EvalReport(
        classes=classes,
        per_class_ap=dict(zip(product(classes, IOU_THRESHOLDS), aps.T.ravel().tolist())),
        map50=float(np.mean(aps[0])) if classes else 0.0,
        map50_95=float(np.mean(aps.T.ravel())) if classes else 0.0,
        pr_curves=_PRCurves(classes, p[rank, 5], labels, num_pred, num_gt),
        counts=dict(zip(IOU_THRESHOLDS, zip(tp.tolist(), (len(p) - tp).tolist(),
                                            (len(q) - tp).tolist()))),
    )


def _tables(pairs: list[tuple[BoxColumns, BoxColumns]]) -> tuple[list[int], np.ndarray, np.ndarray,
                                                                  np.ndarray, np.ndarray]:
    """The classes, sorted, and the prediction rows p (cell, x1, y1, x2, y2,
    score) and gt rows q (cell, x1, y1, x2, y2) of the pairs with each row's
    class, numbered in that order. The cells number the (class, video,
    frame) triples that hold a box; the rows are in cell order and, within
    a cell, in file order."""
    none = np.empty(0, np.int64)
    preds = [(none, none, np.empty((0, 4)), np.empty(0))]  # (class, frame, box, score)
    gts = [preds[0][:3]]
    first_frame = 0  # frames are numbered across the pairs, in pair order
    for v, g in pairs:
        if v.video_id != g.video_id:
            raise ContractError(f"video_id mismatch: {v.video_id!r} vs {g.video_id!r}")
        if v.frame_count != g.frame_count:
            raise ContractError(f"frame_count mismatch for {v.video_id!r}: "
                                f"{v.frame_count} vs {g.frame_count}")
        if v.frame_shape != g.frame_shape:
            raise ContractError(f"frame shape mismatch for {v.video_id!r}: "
                                f"{v.frame_shape} vs {g.frame_shape}")
        for rows, s in ((preds, v), (gts, g)):
            # a frame outside the video would land in the next video's cells
            if len(s.frame_idx) and not (s.frame_idx.min() >= 0
                                         and s.frame_idx.max() < s.frame_count):
                raise ContractError(f"frame_idx out of [0, {s.frame_count}) in {v.video_id!r}: "
                                    f"{s.frame_idx.min()}..{s.frame_idx.max()}")
            rows.append((s.class_id, first_frame + s.frame_idx, s.box,
                         *([] if s.score is None else [s.score])))
        first_frame += v.frame_count
    # the columns of one pair are used as they are, without a copy
    (pc, pf, pbox, score), (gc, gf, gbox) = (
        [col[-1] if len(col) <= 2 else np.concatenate(col) for col in zip(*rows)]
        for rows in (preds, gts))
    # one stable sort of both sides by (class, frame)
    cls, frame = np.concatenate((pc, gc)), np.concatenate((pf, gf))
    order = np.lexsort((frame, cls))
    cls, frame = cls[order], frame[order]
    klass, cell = _runs(cls), _runs(cls, frame)
    is_p = order < len(pc)
    rows_p, rows_g = order[is_p], order[~is_p] - len(pc)
    # (x, y, w, h) -> the corners (x1, y1, x2, y2) that iou_matrix uses
    x, y, w, h = pbox[rows_p].T
    p = np.column_stack((cell[is_p], x, y, x + w, y + h, score[rows_p]))
    x, y, w, h = gbox[rows_g].T
    q = np.column_stack((cell[~is_p], x, y, x + w, y + h))
    classes = cls[np.flatnonzero(np.diff(klass, prepend=-1))].tolist()
    return classes, p, klass[is_p], q, klass[~is_p]


def _runs(*keys: np.ndarray) -> np.ndarray:
    """The run number of each position of sorted keys: 0 at the first, one
    more at each position where any key changes."""
    change = np.zeros(len(keys[0]), bool)
    for k in keys:
        change[1:] |= k[1:] != k[:-1]
    return np.cumsum(change)


def _match(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """TP flags (threshold x prediction) of prediction rows p (cell, x1, y1,
    x2, y2, score) against gt rows q (cell, x1, y1, x2, y2), a cell being a
    (class, video, frame) triple and the gt rows of a cell in file order:
    match_predictions on every cell at every threshold.

    Only a prediction whose best IoU reaches 0.5 ever claims a gt box. One
    that shares no overlapping box with another such prediction therefore
    gets its best box; the others, the rivals, claim in visit order (cell,
    then match_predictions' order). A cell's pairs stay in the cell, so the
    rivals of different cells share no box and their claims do not interact:
    round r resolves the r-th rival of every cell at once, and there are as
    many rounds as the most rivals in one cell."""
    labels = np.zeros((len(IOU_THRESHOLDS), len(p)), dtype=bool)
    if not len(p) or not len(q):
        return labels
    pi, pj, pv = _overlaps(p, q)
    best = np.zeros(len(p))
    np.maximum.at(best, pi, pv)
    labels[:] = best >= _THRESHOLDS[:, None]
    live = best[pi] >= _THRESHOLDS[0]
    shared = np.bincount(pj[live], minlength=len(q)) > 1
    rivals = np.unique(pi[live & shared[pj]])
    order = rivals[np.lexsort((p[rivals, 2], p[rivals, 1], -p[rivals, 5], p[rivals, 0]))]
    by_round, bounds = _rounds(p[order, 0])
    order = order[by_round]
    # the rivals' pairs, gathered round by round: rival k's are at[span[k]:span[k + 1]]
    lo = np.searchsorted(pi, order, "left")
    n = np.searchsorted(pi, order, "right") - lo
    first_pair = np.cumsum(n) - n
    at = np.arange(n.sum()) - np.repeat(first_pair - lo, n)
    js, ious, pos = pj[at], pv[at], np.arange(len(at))
    span = [*first_pair.tolist(), len(at)]
    # each rival's first pair and each pair's rival, counted from its round's first
    round_first = np.repeat(bounds[:-1], np.diff(bounds))
    start = first_pair - first_pair[round_first]
    rival = np.repeat(np.arange(len(order)) - round_first, n)
    claimed = np.zeros((len(IOU_THRESHOLDS), len(q)), dtype=bool)
    hits = np.empty((len(IOU_THRESHOLDS), len(order)), dtype=bool)
    rows = np.arange(len(IOU_THRESHOLDS))[:, None]
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):  # rivals a..b-1
        s, e = span[a], span[b]
        j, starts = js[s:e], start[a:b]
        iou = np.where(claimed[:, j], 0.0, ious[s:e])
        top = np.maximum.reduceat(iou, starts, axis=1)
        # each rival's earliest box of maximal IoU, as argmax takes it
        first = np.minimum.reduceat(np.where(iou == top[:, rival[s:e]], pos[:e - s], e),
                                    starts, axis=1)
        hit = hits[:, a:b] = top >= _THRESHOLDS[:, None]
        claimed[rows, j[first]] |= hit
    labels[:, order] = hits
    return labels


def _rounds(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split the positions of a visit order sorted by cell into rounds: round
    r holds the r-th position of every cell that has one, in visit order.
    Returns the positions round by round and the rounds' bounds among them."""
    _, first, size = np.unique(cells, return_index=True, return_counts=True)
    rank = np.arange(len(cells)) - np.repeat(first, size)
    return np.argsort(rank, kind="stable"), np.r_[0, np.cumsum(np.bincount(rank))]


def _overlaps(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(prediction, gt, IoU) of each same-cell pair with positive IoU, by
    prediction, then gt.

    IoU is computed only for the same-cell pairs whose x-extents overlap.
    With the gt rows sorted by (cell, x1) and the running max of x2 taken in
    each cell, a prediction's window runs from the first gt whose running max
    x2 is above its x1 to the first gt whose x1 reaches its x2; inside it,
    the gt whose own x2 does not pass its x1 are dropped. Every pair left out
    has min(x2) - max(x1) <= 0 in float, which iou_corners scores exactly 0.
    The windows are taken for at most _PAIR_CHUNK pairs at a time, or one
    prediction's."""
    order = np.argsort(_cell_keys(q, 1), kind="stable")
    lo = np.searchsorted(np.maximum.accumulate(_cell_keys(q, 3)[order]), _cell_keys(p, 1), "right")
    n = np.maximum(np.searchsorted(_cell_keys(q, 1)[order], _cell_keys(p, 3), "left") - lo, 0)
    end = np.cumsum(n)  # each prediction's pairs end here
    lo += n - end  # pair k of prediction i is at window position lo[i] + k
    parts = []
    start = done = 0
    while start < len(p):
        stop = max(int(np.searchsorted(end, done + _PAIR_CHUNK, "right")), start + 1)
        i = np.repeat(np.arange(start, stop), n[start:stop])
        j = order[lo[i] + np.arange(done, done + len(i))]
        in_x = np.flatnonzero(q[j, 3] > p[i, 1])
        i, j = i[in_x], j[in_x]
        iou = iou_corners(p[i, 1:5], q[j, 1:5])
        keep = np.flatnonzero(iou > 0.0)
        keep = keep[np.lexsort((j[keep], i[keep]))]  # back into gt row order
        parts.append((i[keep], j[keep], iou[keep]))
        start, done = stop, int(end[stop - 1])
    return tuple(np.concatenate(col) for col in zip(*parts))


def _cell_keys(rows: np.ndarray, x: int) -> np.ndarray:
    """Complex keys cell + i * rows[:, x]: numpy orders complex numbers by
    real part, then imaginary part, so sorting and searching them compares
    (cell, x) exactly, with -0.0 equal to 0.0."""
    key = rows[:, 0].astype(complex)
    key.imag = rows[:, x]
    return key


class _PRCurves(Mapping):
    """(class, threshold) -> _pr_points of the class's labels, built on lookup
    from its slice of the ranked scores and TP flags."""

    def __init__(self, classes: list[int], scores: np.ndarray, labels: np.ndarray,
                 num_pred: np.ndarray, num_gt: np.ndarray):
        ends = np.cumsum(num_pred).tolist()
        self._slices = {c: (slice(e - k, e), k_gt) for c, e, k, k_gt
                        in zip(classes, ends, num_pred.tolist(), num_gt.tolist())}
        self._scores, self._labels = scores, labels  # ranked by class, then score

    def __getitem__(self, key: tuple[int, float]) -> list[tuple[float, float]]:
        ranks, num_gt = self._slices[key[0]]
        is_tp = self._labels[_ROW[key[1]], ranks].tolist()
        return _pr_points(list(zip(self._scores[ranks].tolist(), is_tp)), num_gt)

    def __iter__(self):
        return ((c, t) for c in self._slices for t in IOU_THRESHOLDS)

    def __len__(self) -> int:
        return len(self._slices) * len(IOU_THRESHOLDS)


def _pr_points(scored: list[tuple[float, bool]], num_gt: int) -> list[tuple[float, float]]:
    """Raw cumulative (recall, precision) points in score order."""
    if num_gt == 0 or not scored:
        return []
    ordered = sorted(scored, key=lambda p: -p[0])
    points = []
    tp = 0
    for k, (_, lab) in enumerate(ordered, start=1):
        if lab:
            tp += 1
        points.append((tp / num_gt, tp / k))
    return points
