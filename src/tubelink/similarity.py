"""Pairwise link features and the logistic similarity scorer.

A candidate link between two detections in nearby frames is described by an
8-feature vector covering location (normalized center displacement), geometry
(log size ratios, IoU), appearance (descriptor cosine) and semantics (class
agreement, confidence). A weighted logistic model turns the features into a
probability-like linking score.

Displacement and size-ratio features enter the score as magnitudes
(dx^2, dy^2, |log ratio|), so the score does not depend on motion direction:
small jitters are cheap, large jumps expensive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy.special import expit

from .errors import ConfigError, ContractError, FitError, ValidationError
from .geometry import BBox, Detection, FrameShape, center
from .io import read_text

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


@dataclass(slots=True)
class LinkFeatures:
    """Features of an ordered detection pair (earlier frame -> later frame).

    Slotted and not frozen: one is built per scored pair, and a frozen
    dataclass sets each field through object.__setattr__, about three times
    the cost of the construction.
    """

    dx: float                 # center x displacement / frame width
    dy: float                 # center y displacement / frame height
    log_w_ratio: float        # ln(w2 / w1)
    log_h_ratio: float        # ln(h2 / h1)
    iou: float
    score_geo_mean: float     # sqrt(s1 * s2)
    class_match: float        # 1.0 when class ids agree, else 0.0
    appearance_sim: float     # descriptor cosine, 0.0 when either is absent

    def __post_init__(self):
        # one test on the sum, which is finite only when every field is
        # (or when it overflows: then the loop finds nothing to name)
        if not math.isfinite(
            self.dx + self.dy + self.log_w_ratio + self.log_h_ratio + self.iou
            + self.score_geo_mean + self.class_match + self.appearance_sim
        ):
            for f in fields(self):
                v = getattr(self, f.name)
                if not math.isfinite(v):
                    raise ValidationError(f"link feature {f.name} is not finite: {v!r}")
        if not (0.0 <= self.iou <= 1.0):
            raise ValidationError(f"iou feature out of [0,1]: {self.iou}")
        if self.class_match not in (0.0, 1.0):
            raise ValidationError(f"class_match must be 0 or 1: {self.class_match}")


@dataclass(frozen=True)
class SimilarityModel:
    """Logistic scorer: sigmoid(bias + weights . transformed features)."""

    weights: tuple[float, ...]
    bias: float

    def __post_init__(self):
        if len(self.weights) != 8:
            raise ValidationError(
                f"similarity model needs exactly 8 weights, got {len(self.weights)}"
            )
        if not all(math.isfinite(w) for w in self.weights) or not math.isfinite(self.bias):
            raise ValidationError("similarity model weights/bias must be finite")


def default_model() -> SimilarityModel:
    return SimilarityModel(DEFAULT_WEIGHTS, DEFAULT_BIAS)


def box_terms(b: BBox, score: float, appearance: tuple[float, ...] | None = None) -> tuple:
    """What pair_features needs of a box, computed once per box however many
    pairs it is in: corners and area (as geometry.iou computes them),
    centre, size, score and descriptor."""
    x2, y2 = b.x2, b.y2
    app = None if appearance is None else np.array(appearance)
    return (b.x, b.y, x2, y2, (x2 - b.x) * (y2 - b.y), *center(b), b.w, b.h, score, app)


def pair_features(
    a: tuple, b: tuple, class_match: float, shape: FrameShape, steps: int = 1
) -> LinkFeatures:
    """The link features of box a -> box b from their box_terms; every scorer
    builds its features here. The centre displacement is divided by the
    frame side and then by `steps`, the number of frames it spans."""
    ax1, ay1, ax2, ay2, a_area, acx, acy, aw, ah, a_score, a_app = a
    bx1, by1, bx2, by2, b_area, bcx, bcy, bw, bh, b_score, b_app = b
    # geometry.iou's float ops; min/max keep the first of equal values
    ix = (bx2 if bx2 < ax2 else ax2) - (bx1 if bx1 > ax1 else ax1)
    iy = (by2 if by2 < ay2 else ay2) - (by1 if by1 > ay1 else ay1)
    inter = ix * iy
    overlap = (0.0 if ix <= 0.0 or iy <= 0.0 or inter == 0.0
               else inter / (a_area + b_area - inter))
    app = 0.0
    if a_app is not None and b_app is not None:
        if len(a_app) != len(b_app):
            raise ValidationError(f"descriptor lengths differ: {len(a_app)} and {len(b_app)}")
        app = max(-1.0, min(1.0, float(np.dot(a_app, b_app))))
    try:
        log_w, log_h = math.log(bw / aw), math.log(bh / ah)
    except ValueError:  # the size ratio underflowed to 0
        raise ValidationError("link feature log size ratio is not finite: -inf") from None
    return LinkFeatures((bcx - acx) / shape.width / steps, (bcy - acy) / shape.height / steps,
                        log_w, log_h, overlap, math.sqrt(a_score * b_score), class_match, app)


def link_features(d1: Detection, d2: Detection, shape: FrameShape) -> LinkFeatures:
    """Compute the link features of the ordered pair d1 -> d2.

    d1 must lie in a strictly earlier frame than d2.
    """
    if d1.frame_idx >= d2.frame_idx:
        raise ContractError(
            f"link_features needs d1.frame_idx < d2.frame_idx "
            f"(got {d1.frame_idx} and {d2.frame_idx})"
        )
    return pair_features(
        box_terms(d1.bbox, d1.score, d1.appearance),
        box_terms(d2.bbox, d2.score, d2.appearance),
        1.0 if d1.class_id == d2.class_id else 0.0,
        shape,
    )


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


def link_score(m: SimilarityModel, f: LinkFeatures) -> float:
    """Linking probability in (0, 1) for a feature point under a model.

    Extreme inputs that would saturate the sigmoid in float64 clamp to the
    nearest representable neighbors of 0 and 1, so the score never reaches
    either endpoint. A logit with no value (weighted terms of +inf and -inf)
    raises ValidationError.
    """
    # feature_vector's terms, added in its order, without building it
    w0, w1, w2, w3, w4, w5, w6, w7 = m.weights
    z = (m.bias + w0 * (f.dx * f.dx) + w1 * (f.dy * f.dy) + w2 * abs(f.log_w_ratio)
         + w3 * abs(f.log_h_ratio) + w4 * f.iou + w5 * f.score_geo_mean
         + w6 * f.class_match + w7 * f.appearance_sim)
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
    if len(weights) != 8:
        raise ConfigError(f"{path}: expected 8 weights, got {len(weights)}")
    return SimilarityModel(weights, bias)


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
