"""Pairwise link features and the logistic similarity scorer.

A candidate link between two detections in nearby frames is described by an
8-feature vector covering location (normalized center displacement), geometry
(log size ratios, IoU), appearance (descriptor cosine) and semantics (class
agreement, confidence). A weighted logistic model turns the features into a
probability-like linking score.

Displacement and size-ratio features enter the score as magnitudes
(dx^2, dy^2, |log ratio|), so the score does not depend on motion direction:
small jitters are cheap, large jumps expensive.

feature_columns is the one feature path: it computes the features of many
pairs with numpy, with the float operations of one pair in Python, so the
linker's chunks and the single-pair functions (link_features, and
linking.tubelet_link_score through one_pair_features) give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, FitError, ValidationError
from .geometry import BBox, Detection, FrameShape, iou_corners
from .io import read_text
from .settings import FINITE, Check

MODEL_MAGIC = "repp-model v1"

# Built-in heuristic weights, tuned on the simulator so the toolkit works with
# no training data. Order matches feature_vector(): dx^2, dy^2, |log_w_ratio|,
# |log_h_ratio|, iou, score_geo_mean, class_match, appearance_sim. Signs are
# constrained: displacement/size terms penalize, the rest reward. The
# quadratic displacement weight reaches a penalty of 1.0 at 5% of the frame
# per frame (64 px/frame at 1280 wide), far above plausible object motion, so
# jitter is nearly free while cross-object jumps are crushed even after
# per-frame gap normalization.
DEFAULT_WEIGHTS = (-400.0, -400.0, -2.0, -2.0, 1.5, 1.0, 4.0, 1.0)
DEFAULT_BIAS = -4.0


@dataclass(slots=True, init=False)
class LinkFeatures:
    """Features of an ordered detection pair (earlier frame -> later frame).

    The linker builds none for the pairs it scores: feature_columns checks
    these rules on a whole chunk with numpy and link_score takes each pair's
    fields as a tuple. One is built for a single pair (link_features,
    tubelet_link_score) and for a chunk's first pair that breaks a rule, to
    raise its error. Iterating one yields its fields in field order, so
    link_score scores it like that tuple. Slotted, with a written-out
    __init__ that checks its arguments as locals before storing them; the
    dataclass still gives equality, repr, fields(), replace() and
    __match_args__.
    """

    dx: float                 # center x displacement / frame width
    dy: float                 # center y displacement / frame height
    log_w_ratio: float        # ln(w2 / w1)
    log_h_ratio: float        # ln(h2 / h1)
    iou: float
    score_geo_mean: float     # sqrt(s1 * s2)
    class_match: float        # 1.0 when class ids agree, else 0.0
    appearance_sim: float     # descriptor cosine, 0.0 when either is absent

    def __init__(self, dx: float, dy: float, log_w_ratio: float, log_h_ratio: float, iou: float,
                 score_geo_mean: float, class_match: float, appearance_sim: float) -> None:
        # one test on the sum, which is finite only when every field is
        # (or when it overflows: then the loop finds nothing to name)
        if not math.isfinite(dx + dy + log_w_ratio + log_h_ratio + iou + score_geo_mean
                             + class_match + appearance_sim):
            for name, v in zip(self.__match_args__, (dx, dy, log_w_ratio, log_h_ratio, iou,
                                                     score_geo_mean, class_match, appearance_sim)):
                if not math.isfinite(v):
                    raise ValidationError(f"link feature {name} is not finite: {v!r}")
        if not (0.0 <= iou <= 1.0):
            raise ValidationError(f"iou feature out of [0,1]: {iou}")
        if class_match not in (0.0, 1.0):
            raise ValidationError(f"class_match must be 0 or 1: {class_match}")
        self.dx = dx
        self.dy = dy
        self.log_w_ratio = log_w_ratio
        self.log_h_ratio = log_h_ratio
        self.iou = iou
        self.score_geo_mean = score_geo_mean
        self.class_match = class_match
        self.appearance_sim = appearance_sim

    def __iter__(self):
        return iter((self.dx, self.dy, self.log_w_ratio, self.log_h_ratio, self.iou,
                     self.score_geo_mean, self.class_match, self.appearance_sim))


# a tuple, so that a model hashes with the PipelineConfig that holds it
WEIGHTS = Check(lambda v: isinstance(v, tuple) and len(v) == 8 and all(map(FINITE.ok, v)),
                "a tuple of 8 finite numbers")


@dataclass(frozen=True)
class SimilarityModel:
    """Logistic scorer: sigmoid(bias + weights . transformed features).
    A field that breaks its Check raises ValidationError naming it."""

    weights: tuple[float, ...]
    bias: float

    def __post_init__(self):
        WEIGHTS.require("weights", self.weights)
        FINITE.require("bias", self.bias)


def default_model() -> SimilarityModel:
    return SimilarityModel(DEFAULT_WEIGHTS, DEFAULT_BIAS)


@np.errstate(over="ignore", invalid="ignore")
def feature_columns(a: tuple, b: tuple, i: np.ndarray, j: np.ndarray, steps: np.ndarray,
                    shape: FrameShape) -> tuple[tuple[list, ...], ValidationError | None]:
    """The link features of the pairs of rows a[i[k]] -> b[j[k]], the one
    feature path of every scorer. A side holds BoxColumns' columns
    (class_id, box, score, descriptor, descriptor_len); pair k's centre
    displacement is divided by the frame side and then by steps[k], the
    number of frames it spans.

    Returns the LinkFeatures fields as 8 lists of floats, up to the first
    pair whose features cannot be built or break a rule of LinkFeatures, and
    that pair's ValidationError (or None). Its features cannot be built when
    its descriptor lengths differ or a size ratio underflows the log; those
    checks come first. The rules are checked on the whole chunk, field by
    field, and the error of a pair that breaks one is the one LinkFeatures
    raises for it: every row returned keeps the rules, and no LinkFeatures
    is built for it. Every value has the float operations of one pair in
    Python: geometry.iou's for the IoU, np.dot's for the descriptor cosine,
    and math.log for the size ratios, as np.log may round differently.
    """
    # each side at its pairs' rows, but for the descriptors: those are
    # gathered per length below, only the values that a dot takes
    (ac, abox, ascore, alen), (bc, bbox, bscore, blen) = (
        [side[k][rows] for k in (0, 1, 2, 4)] for side, rows in ((a, i), (b, j)))
    (ax, ay, aw, ah), (bx, by, bw, bh) = abox.T, bbox.T
    overlap = iou_corners(np.column_stack([ax, ay, ax + aw, ay + ah]),
                          np.column_stack([bx, by, bx + bw, by + bh]))
    w_ratio, h_ratio = bw / aw, bh / ah
    app = np.zeros(len(steps))
    both = (alen > 0) & (blen > 0)
    for k in np.unique(alen[both & (alen == blen)]).tolist():
        at = np.flatnonzero(both & (alen == k) & (blen == k))
        app[at] = np.matmul(a[3][i[at], None, :k], b[3][j[at], :k, None])[:, 0, 0]  # stacked dots
    bad = (both & (alen != blen)) | (w_ratio == 0.0) | (h_ratio == 0.0)
    fields = [((bx + bw / 2.0) - (ax + aw / 2.0)) / shape.width / steps,
              ((by + bh / 2.0) - (ay + ah / 2.0)) / shape.height / steps,
              w_ratio, h_ratio, overlap, np.sqrt(ascore * bscore),
              np.where(ac == bc, 1.0, 0.0), np.clip(app, -1.0, 1.0)]
    # LinkFeatures' rules, each field on its own, as a sum of finite fields
    # may overflow; a positive size ratio's log is finite exactly when it is
    broken = bad | ~((overlap >= 0.0) & (overlap <= 1.0))
    broken |= (fields[6] != 0.0) & (fields[6] != 1.0)
    for c in fields:
        broken |= ~np.isfinite(c)
    n = int(broken.argmax()) if broken.any() else len(broken)
    error = None
    if n < len(broken) and bad[n]:  # the checks of one pair, in their order
        error = ValidationError(f"descriptor lengths differ: {alen[n]} and {blen[n]}"
                                if both[n] and alen[n] != blen[n]
                                else "link feature log size ratio is not finite: -inf")
    elif n < len(broken):  # a rule broken: LinkFeatures names it
        row = [float(c[n]) for c in fields]
        row[2:4] = map(math.log, row[2:4])
        try:
            LinkFeatures(*row)
        except ValidationError as e:
            error = e
    columns = [c[:n].tolist() for c in fields]
    columns[2:4] = (list(map(math.log, c)) for c in columns[2:4])
    return tuple(columns), error


def one_pair_features(a: tuple, b: tuple, steps: int, shape: FrameShape) -> LinkFeatures:
    """feature_columns of the one pair a -> b, each side a (class_id, BBox,
    score, descriptor or None) tuple."""
    sides = []
    for class_id, box, score, appearance in (a, b):
        app = np.array([appearance or ()], float)
        sides.append((np.array([class_id]), np.array([[box.x, box.y, box.w, box.h]], float),
                      np.array([score], float), app, np.array([app.shape[1]])))
    row = np.zeros(1, np.int64)
    columns, error = feature_columns(*sides, row, row, np.array([steps]), shape)
    if error:
        raise error
    return LinkFeatures(*(c[0] for c in columns))


def link_features(d1: Detection, d2: Detection, shape: FrameShape) -> LinkFeatures:
    """Compute the link features of the ordered pair d1 -> d2.

    d1 must lie in a strictly earlier frame than d2.
    """
    if d1.frame_idx >= d2.frame_idx:
        raise ContractError(
            f"link_features needs d1.frame_idx < d2.frame_idx "
            f"(got {d1.frame_idx} and {d2.frame_idx})"
        )
    return one_pair_features((d1.class_id, d1.bbox, d1.score, d1.appearance),
                             (d2.class_id, d2.bbox, d2.score, d2.appearance), 1, shape)


def feature_vector(f: LinkFeatures) -> tuple[float, ...]:
    """The transformed feature vector the model weights apply to."""
    return (
        f.dx * f.dx,
        f.dy * f.dy,
        abs(f.log_w_ratio),
        abs(f.log_h_ratio),
        f.iou,
        f.score_geo_mean,
        f.class_match,
        f.appearance_sim,
    )


_SCORE_MIN = math.nextafter(0.0, 1.0)
_SCORE_MAX = math.nextafter(1.0, 0.0)


def link_score(m: SimilarityModel, f: LinkFeatures | tuple[float, ...]) -> float:
    """Linking probability in (0, 1) for a feature point under a model.

    f is a LinkFeatures or the tuple of its 8 fields in field order, as
    feature_columns' rows come to the linker; both score with the same float
    operations. A tuple is not checked: its fields must keep LinkFeatures'
    rules. Extreme inputs that would saturate the sigmoid in float64 clamp
    to the nearest representable neighbors of 0 and 1, so the score never
    reaches either endpoint. A logit with no value (weighted terms of +inf
    and -inf) raises ValidationError.
    """
    # feature_vector's terms, added in its order, without building it
    w0, w1, w2, w3, w4, w5, w6, w7 = m.weights
    dx, dy, log_w, log_h, iou, geo, match, app = f
    z = (m.bias + w0 * (dx * dx) + w1 * (dy * dy) + w2 * abs(log_w) + w3 * abs(log_h)
         + w4 * iou + w5 * geo + w6 * match + w7 * app)
    # numerically stable sigmoid
    if z >= 0.0:
        s = 1.0 / (1.0 + math.exp(-z))
    elif z < 0.0:
        e = math.exp(z)
        s = e / (1.0 + e)
    else:
        raise ValidationError("link score logit is undefined: weighted terms of +inf and -inf")
    return _SCORE_MIN if s < _SCORE_MIN else _SCORE_MAX if s > _SCORE_MAX else s


def load_model(source: str | Path) -> SimilarityModel:
    """Load a model file, or the built-in weights when source is "default".

    Format: line 1 the magic ``repp-model v1``, line 2 eight weights,
    line 3 the bias.
    """
    if str(source) == "default":
        return default_model()
    path = str(source)
    lines = [ln for ln in read_text(path).splitlines() if ln.strip()]
    if len(lines) != 3 or lines[0].strip() != MODEL_MAGIC:
        raise ConfigError(f"{path}: expected 3 lines starting with '{MODEL_MAGIC}'")
    try:
        weights = tuple(float(t) for t in lines[1].split())
        bias_tokens = lines[2].split()
        if len(bias_tokens) != 1:
            raise ConfigError(f"{path}: bias line must hold exactly 1 number")
        bias = float(bias_tokens[0])
    except ValueError:
        raise ConfigError(f"{path}: model file holds non-numeric tokens") from None
    try:
        return SimilarityModel(weights, bias)
    except ValidationError as e:  # not 8 weights, or the weights or bias are not finite
        raise ConfigError(f"{path}: {e}") from None


def save_model(m: SimilarityModel, path: str | Path) -> None:
    """Write a model in the format load_model expects."""
    lines = [
        MODEL_MAGIC,
        " ".join(repr(w) for w in m.weights),
        repr(m.bias),
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def fit_model(
    pairs: list[tuple[LinkFeatures, int]],
    learning_rate: float = 0.5,
    iterations: int = 4000,
) -> SimilarityModel:
    """Fit logistic weights on labeled feature pairs by full-batch descent.

    Minimizes mean log-loss with a fixed step size and iteration count and no
    shuffling, so identical input yields a bitwise-identical model. Requires
    at least one positive and one negative label.
    """
    from scipy.special import expit  # only fitting needs scipy; keep it off the import path

    if not pairs:
        raise FitError("fit_model needs at least one labeled pair")
    labels = {label for _, label in pairs}
    if not labels <= {0, 1}:
        raise FitError(f"labels must be 0 or 1, got {sorted(labels)}")
    if labels != {0, 1}:
        raise FitError("fit_model needs both positive and negative labels")

    X = np.array([feature_vector(f) for f, _ in pairs], dtype=np.float64)
    y = np.array([label for _, label in pairs], dtype=np.float64)
    n = len(pairs)

    w = np.zeros(8, dtype=np.float64)
    b = 0.0
    for _ in range(iterations):
        p = expit(X @ w + b)
        err = p - y
        w -= learning_rate * (X.T @ err) / n
        b -= learning_rate * float(np.sum(err)) / n
    return SimilarityModel(tuple(float(v) for v in w), float(b))
