"""Synthetic scenario generator: ground-truth tracks plus a controllably
degraded detection stream.

Tracks move with constant velocity, perturbed by per-frame Gaussian noise and
reflected at the frame boundary so every ground-truth box stays inside the
frame. Detections derive from the tracks through center/size jitter,
independent per-frame drops, multi-frame burst dropouts, score noise, and
Poisson false positives with uniform random boxes.

All randomness comes from one numpy PCG64 generator seeded from the config,
drawn in a fixed order (per frame: per track ascending, then false
positives), so a seed reproduces the exact same files anywhere.

Each run of consecutive draws of one kind is one sized call: a track's box
and velocity uniforms, a motion step's two normals, and a detection's jitter,
score and appearance normals. A sized call draws exactly what as many scalar
calls would, and each value is scaled here by numpy's own formula, loc +
scale * z for a normal and low + (high - low) * u for a uniform, so the bits
are those of one scalar ``normal``/``uniform`` call per draw. ``integers``
and ``poisson`` stay scalar: no two of their draws are consecutive, and
below 2**32 an ``integers`` value takes a 32-bit half of a word that the bit
generator buffers, so one call over draws that are not consecutive would
change the stream. A draw that an earlier draw decides (a burst, then a
drop, then a detection) is never merged across that decision. Every real
setting enters as a Python float, so a numpy-typed setting gives the bits of
its Python twin, which it compares equal to. numpy.random is imported by
generate, not by ``import tubelink``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ValidationError
from .geometry import _MAX_ID, BBox, Detection, FrameShape
from .io import MAX_FRAME_COUNT, VIDEO_ID, GroundTruth, TrackBox, VideoDetections
from .settings import (
    FRAME_SIDE, NON_NEGATIVE, UNIT_CLOSED, UNIT_HALF_OPEN, int_at_least, integer, read_settings,
    real, setting, validate,
)

MAX_TRACKS = 30
# frame_count is bounded by io.MAX_FRAME_COUNT, the bound of a stream header
MIN_BOX_SIDE = 2.0  # jittered sizes are clamped here so boxes stay valid
BOX_SIDE = real(lambda v: MIN_BOX_SIDE <= v < math.inf, f"a finite number >= {MIN_BOX_SIDE:g}")
# False positives per frame, on average. Far beyond any use (the benchmark's
# crowded scenario has 5), and it keeps numpy's Poisson draw in range.
MAX_FP_RATE = 100.0
# Descriptor length: the width of common re-id embeddings. Each track and each
# detection draws this many normals in one call.
MAX_APPEARANCE_DIM = 2048


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one synthetic scenario, each setting declared
    once, on its field: the ``simulate`` flags, their ranges in ``--help``
    and the config-file keys derive from them. Construction raises
    ValidationError on a value outside its field's check, then on a break of
    the cross-field rules in __post_init__. describe() keeps the field order.
    """

    seed: int = setting(0, int_at_least(0))
    video_id: str = setting("sim", VIDEO_ID)
    frame_count: int = setting(300, integer(
        lambda v: 1 <= v <= MAX_FRAME_COUNT, f"an integer in [1, {MAX_FRAME_COUNT}]"))
    width: int = setting(1280, FRAME_SIDE)
    height: int = setting(720, FRAME_SIDE)
    num_tracks: int = setting(
        8, integer(lambda v: 0 <= v <= MAX_TRACKS, f"an integer in [0, {MAX_TRACKS}]"))
    classes: int = setting(1, integer(lambda v: 1 <= v <= _MAX_ID, "an integer in [1, 2**63 - 1]"))
    box_min: float = setting(24.0, BOX_SIDE)
    box_max: float = setting(64.0, BOX_SIDE)
    speed_max: float = setting(4.0, NON_NEGATIVE)
    sigma_motion: float = setting(0.5, NON_NEGATIVE)
    jitter_sigma: float = setting(0.0, NON_NEGATIVE)
    drop_prob: float = setting(0.0, UNIT_HALF_OPEN)
    burst_prob: float = setting(0.0, UNIT_HALF_OPEN)
    # burst_max + 1 is the bound of an int64 draw
    burst_max: int = setting(0, integer(lambda v: 0 <= v < _MAX_ID, "an integer in [0, 2**63 - 2]"))
    fp_rate: float = setting(
        0.0, real(lambda v: 0.0 <= v <= MAX_FP_RATE, f"in [0, {MAX_FP_RATE:g}]"))
    tp_score_mean: float = setting(0.8, UNIT_CLOSED)
    tp_score_sigma: float = setting(0.1, NON_NEGATIVE)
    fp_score_mean: float = setting(0.6, UNIT_CLOSED)
    fp_score_sigma: float = setting(0.2, NON_NEGATIVE)
    appearance_dim: int = setting(0, integer(
        lambda v: 0 <= v <= MAX_APPEARANCE_DIM, f"an integer in [0, {MAX_APPEARANCE_DIM}]"))
    appearance_noise: float = setting(0.1, NON_NEGATIVE)

    def __post_init__(self):
        validate(self)
        if self.box_min > self.box_max:
            raise ValidationError(f"need box_min <= box_max, got {self.box_min}..{self.box_max}")
        if self.box_max >= min(self.width, self.height):
            raise ValidationError("box_max must be smaller than the frame")
        # A step longer than the narrowest span of box centres could overshoot
        # the frame by more than one span; far enough out, _reflect's
        # 2 * bound - pos loses the position and never returns.
        span = min(self.width, self.height) - self.box_max
        for name in ("speed_max", "sigma_motion"):
            if getattr(self, name) > span:
                raise ValidationError(
                    f"{name} must be at most min(width, height) - box_max = {span}"
                )

    @property
    def frame_shape(self) -> FrameShape:
        return FrameShape(self.width, self.height)


def standard_scenario(seed: int) -> ScenarioConfig:
    """The degradation mix used by the benchmark suite and the demos:
    independent drops, occasional multi-frame bursts, 2 px jitter, half a
    false positive per frame, and overlapping TP/FP score distributions.
    """
    return ScenarioConfig(
        seed=seed,
        video_id=f"sim-{seed}",
        frame_count=300,
        num_tracks=8,
        drop_prob=0.15,
        burst_prob=0.05,
        burst_max=8,
        jitter_sigma=2.0,
        fp_rate=0.5,
        tp_score_mean=0.75,
        tp_score_sigma=0.12,
        fp_score_mean=0.72,
        fp_score_sigma=0.15,
    )


def _reflect(pos: float, lo: float, hi: float) -> tuple[float, float]:
    """Fold a coordinate back into [lo, hi], lo < hi; returns (position, sign flip)."""
    flip = 1.0
    while pos < lo or pos > hi:
        if pos < lo:
            pos = 2 * lo - pos
        else:
            pos = 2 * hi - pos
        flip = -flip
    return pos, flip


def _unit(v):
    """v over its norm, a norm below 1e-12 counting as 1e-12."""
    return v / max(1e-12, math.sqrt(float(v @ v)))


def generate(config: ScenarioConfig) -> tuple[GroundTruth, VideoDetections]:
    """Simulate a scenario; bitwise deterministic for a given config."""
    from numpy.random import PCG64, Generator  # here, so that `import tubelink` does not load it

    rng = Generator(PCG64(config.seed))
    normals, uniforms, integers = rng.standard_normal, rng.random, rng.integers
    # each real setting once as a Python float: numpy arithmetic on a float32
    # setting would round in float32, and compare in it
    (box_min, box_max, speed, sigma, jitter, drop_prob, burst_prob, fp_rate, tp_mean, tp_sigma,
     fp_mean, fp_sigma, noise) = (float(getattr(config, name)) for name in (
         "box_min box_max speed_max sigma_motion jitter_sigma drop_prob burst_prob fp_rate"
         " tp_score_mean tp_score_sigma fp_score_mean fp_score_sigma appearance_noise").split())
    W, H, classes = float(config.width), float(config.height), config.classes
    dim, burst_max, box_span = config.appearance_dim, int(config.burst_max), box_max - box_min

    def class_and_box(k: int) -> tuple[int, float, float, float, float, list[float]]:
        """A class, then k uniforms: a box (w, h, cx, cy) inside the frame,
        for a track and for a false positive alike, and what is left over.
        Each uniform is low + (high - low) * u, numpy's own formula."""
        class_id = int(integers(0, classes))
        u = uniforms(k).tolist()
        w, h = box_min + box_span * u[0], box_min + box_span * u[1]
        hw, hh = w / 2, h / 2
        return class_id, w, h, hw + (W - hw - hw) * u[2], hh + (H - hh - hh) * u[3], u[4:]

    # track initialization, per track ascending: the box and the velocity in
    # one call, then the appearance base
    tracks = []  # per track: class, w, h, cx, cy, vx, vy, base, frames of burst left
    for _ in range(config.num_tracks):
        class_id, w, h, cx, cy, (ux, uy) = class_and_box(6)
        vx, vy = -speed + (speed + speed) * ux, -speed + (speed + speed) * uy
        tracks.append([class_id, w, h, cx, cy, vx, vy, _unit(normals(dim)) if dim else None, 0])

    # a detection's normals, in one call: 4 of jitter, 1 of score, then its appearance
    n_scalar = 4 * (jitter > 0) + (tp_sigma > 0)
    n_normals = n_scalar + dim
    gt_frames: dict[int, list[TrackBox]] = {}
    det_frames: dict[int, list[Detection]] = {}
    for f in range(config.frame_count):
        gt_frames[f], det_frames[f] = gt_row, det_row = [], []
        for tid, tr in enumerate(tracks):
            class_id, w, h, cx, cy, vx, vy, base, burst_left = tr
            hw, hh = w / 2, h / 2
            if f > 0:
                zx, zy = normals(2).tolist() if sigma > 0 else (0.0, 0.0)
                cx += vx + sigma * zx
                cy += vy + sigma * zy
                if not hw <= cx <= W - hw:
                    cx, fx = _reflect(cx, hw, W - hw)
                    vx *= fx
                if not hh <= cy <= H - hh:
                    cy, fy = _reflect(cy, hh, H - hh)
                    vy *= fy
                tr[3:7] = cx, cy, vx, vy
            gt_row.append(TrackBox(f, class_id, tid, BBox(cx - hw, cy - hh, w, h)))

            # dropout decisions, each drawn only when the one before let it be:
            # a burst under way, a new burst, a single drop
            if burst_left > 0:
                tr[8] = burst_left - 1
                continue
            if burst_prob > 0 and uniforms() < burst_prob and burst_max > 0:
                tr[8] = int(integers(1, burst_max + 1)) - 1
                continue
            if drop_prob > 0 and uniforms() < drop_prob:
                continue

            score, appearance = tp_mean, None
            if n_normals:
                z = normals(n_normals)
                zs = z.tolist()
                if jitter > 0:
                    cx += jitter * zs[0]
                    cy += jitter * zs[1]
                    w = max(MIN_BOX_SIDE, w + jitter * zs[2])
                    h = max(MIN_BOX_SIDE, h + jitter * zs[3])
                if tp_sigma > 0:
                    score += tp_sigma * zs[n_scalar - 1]
                if dim:
                    appearance = tuple(_unit(base + noise * z[n_scalar:]).tolist())
            det_row.append(Detection(f, class_id, BBox(cx - w / 2, cy - h / 2, w, h),
                                     min(1.0, max(0.0, score)), appearance))

        # false positives after the tracks
        if fp_rate > 0:
            for _ in range(int(rng.poisson(fp_rate))):
                class_id, w, h, cx, cy, _ = class_and_box(4)
                score = fp_mean + fp_sigma * normals() if fp_sigma > 0 else fp_mean
                det_row.append(Detection(f, class_id, BBox(cx - w / 2, cy - h / 2, w, h),
                                         min(1.0, max(0.0, score))))

    shape = config.frame_shape
    gt = GroundTruth(config.video_id, shape, config.frame_count, gt_frames)
    dets = VideoDetections(config.video_id, shape, config.frame_count, det_frames)
    return gt, dets


def describe(config: ScenarioConfig) -> str:
    """Stable key = value summary of a scenario; parse_config inverts it."""
    lines = [f"{f.name} = {getattr(config, f.name)}" for f in fields(ScenarioConfig)]
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> ScenarioConfig:
    """Parse a key = value scenario description (unknown keys are errors)."""
    return ScenarioConfig(**read_settings(text, [ScenarioConfig], "scenario"))
