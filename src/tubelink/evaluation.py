"""COCO-style average-precision evaluation: AP per class and IoU threshold,
mAP50 and mAP50-95, PR curves and TP/FP/FN counts.

Matching is greedy in score order (the COCO convention): each prediction
claims the unclaimed ground-truth box of maximal IoU, provided the IoU
reaches the threshold. AP uses 101-point interpolation over the precision
envelope. Everything is deterministic for a given input.

match_predictions and average_precision score one (class, frame) cell at one
threshold; evaluate_columns gives their numbers in one columnar pass over the
arrays of io.read_columns. It computes the IoU of each same-cell pair whose
x-extents overlap once, found by a sort-and-sweep window over the gt boxes
sorted by x1 in each cell, in chunks; every other pair has IoU exactly 0. It
runs the greedy claim for all 10 thresholds together. The predictions that
compete for a box claim in rounds across cells: round r takes the r-th
competitor of every (video, frame) cell at once, which is exact because
competitors of different cells share no box. PR curves are built only when
looked up. evaluate_streams is evaluate_columns of io.columns_of.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .geometry import BBox, Detection, iou_corners, iou_matrix
from .io import BoxColumns, GroundTruth, VideoDetections, columns_of

IOU_THRESHOLDS: tuple[float, ...] = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))
_THRESHOLDS = np.array(IOU_THRESHOLDS)
_PAIR_CHUNK = 1 << 13  # candidate pairs, those of the x windows, taken at once to bound memory


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
    if num_gt < 0:
        raise ContractError(f"num_gt must be >= 0, got {num_gt}")
    ordered = sorted(scored, key=lambda p: -p[0])
    return _ranked_ap(np.array([lab for _, lab in ordered], dtype=bool), num_gt)


def _ranked_ap(is_tp: np.ndarray, num_gt: int) -> float:
    """average_precision of TP flags already in descending score order."""
    if num_gt == 0 or not len(is_tp):
        return 0.0
    tp = np.cumsum(is_tp, dtype=float)
    n = np.arange(1, len(tp) + 1)
    recall = tp / num_gt
    precision = tp / n
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    sample_recalls = np.linspace(0.0, 1.0, 101)
    idx = np.searchsorted(recall, sample_recalls, side="left")
    sampled = np.where(idx < len(tp), envelope[np.minimum(idx, len(tp) - 1)], 0.0)
    return float(np.mean(sampled))


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
    it, so a file's columns and its stream's give the same report.
    """
    preds: dict[int, list] = defaultdict(list)  # class -> row tables, one per pair
    gts: dict[int, list] = defaultdict(list)
    cell = 0  # numbers the (video, frame) pairs that hold a box, in pair order
    for v, g in pairs:
        if v.video_id != g.video_id:
            raise ContractError(f"video_id mismatch: {v.video_id!r} vs {g.video_id!r}")
        if v.frame_count != g.frame_count:
            raise ContractError(f"frame_count mismatch for {v.video_id!r}: "
                                f"{v.frame_count} vs {g.frame_count}")
        if v.frame_shape != g.frame_shape:
            raise ContractError(f"frame shape mismatch for {v.video_id!r}: "
                                f"{v.frame_shape} vs {g.frame_shape}")
        frames = np.union1d(v.frame_idx, g.frame_idx)  # the frames that hold a box, sorted
        for rows, s in ((preds, v), (gts, g)):
            cells = cell + np.searchsorted(frames, s.frame_idx)
            table = np.column_stack([cells, s.box, *([] if s.score is None else [s.score])])
            order = np.lexsort((cells, s.class_id))  # stable: file order within a cell
            classes, first = np.unique(s.class_id[order], return_index=True)
            for c, part in zip(classes.tolist(), np.split(order, first[1:])):
                rows[c].append(table[part])
        cell += len(frames)
    return _evaluate_rows(*({c: t[0] if len(t) == 1 else np.concatenate(t) for c, t in rows.items()}
                            for rows in (preds, gts)))


def _evaluate_rows(preds: Mapping[int, np.ndarray], gts: Mapping[int, np.ndarray]) -> EvalReport:
    """The report of per-class float arrays of prediction rows (cell, x, y, w,
    h, score) and gt rows (cell, x, y, w, h), each in cell order and in file
    order within a cell. The arrays are changed in place."""
    classes = sorted(preds.keys() | gts.keys())
    per_class_ap: dict[tuple[int, float], float] = {}
    flags: dict[int, tuple[np.ndarray, dict[float, np.ndarray], int]] = {}
    count_acc = {t: [0, 0, 0] for t in IOU_THRESHOLDS}

    for c in classes:
        p = preds.get(c, np.empty((0, 6)))
        q = gts.get(c, np.empty((0, 5)))
        p[:, 3:5] += p[:, 1:3]  # (w, h) -> (x2, y2), the corners iou_matrix uses
        q[:, 3:5] += q[:, 1:3]
        labels = _match_class(p, q)
        # a stable sort keeps equal scores in stream order, as sorted() does
        ranked = labels[:, np.argsort(-p[:, 5], kind="stable")]
        for t, is_tp, tp in zip(IOU_THRESHOLDS, ranked, labels.sum(axis=1).tolist()):
            per_class_ap[(c, t)] = _ranked_ap(is_tp, len(q))
            count_acc[t][0] += tp
            count_acc[t][1] += len(p) - tp
            count_acc[t][2] += len(q) - tp
        flags[c] = (p[:, 5].copy(), dict(zip(IOU_THRESHOLDS, labels)), len(q))

    if classes:
        map50 = float(np.mean([per_class_ap[(c, 0.5)] for c in classes]))
        map50_95 = float(
            np.mean([per_class_ap[(c, t)] for c in classes for t in IOU_THRESHOLDS])
        )
    else:
        map50 = 0.0
        map50_95 = 0.0

    return EvalReport(
        classes=classes,
        per_class_ap=per_class_ap,
        map50=map50,
        map50_95=map50_95,
        pr_curves=_PRCurves(flags),
        counts={t: tuple(acc) for t, acc in count_acc.items()},
    )


def _match_class(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """TP flags (threshold x prediction) of one class's prediction rows p
    (cell, x1, y1, x2, y2, score) against its gt rows q (cell, x1, y1, x2, y2):
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
    """(class, threshold) -> _pr_points of the class's labels, built on lookup."""

    def __init__(self, flags: dict[int, tuple[np.ndarray, dict[float, np.ndarray], int]]):
        self._flags = flags  # class -> (scores, threshold -> TP flags, num_gt)

    def __getitem__(self, key: tuple[int, float]) -> list[tuple[float, float]]:
        scores, by_threshold, num_gt = self._flags[key[0]]
        is_tp = by_threshold[key[1]].tolist()
        return _pr_points(list(zip(scores.tolist(), is_tp)), num_gt)

    def __iter__(self):
        return ((c, t) for c in self._flags for t in IOU_THRESHOLDS)

    def __len__(self) -> int:
        return len(self._flags) * len(IOU_THRESHOLDS)


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
