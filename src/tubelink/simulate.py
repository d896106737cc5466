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
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, fields

from numpy.random import Generator, PCG64

from .errors import ValidationError
from .geometry import _MAX_ID, BBox, Detection, FrameShape
from .io import MAX_FRAME_COUNT, GroundTruth, TrackBox, VideoDetections
from .settings import (
    FRAME_SIDE, NON_NEGATIVE, UNIT_CLOSED, UNIT_HALF_OPEN, Check, int_at_least, integer,
    read_settings, setting, validate,
)

MAX_TRACKS = 30
# frame_count is bounded by io.MAX_FRAME_COUNT, the bound of a stream header
MIN_BOX_SIDE = 2.0  # jittered sizes are clamped here so boxes stay valid
BOX_SIDE = Check(lambda v: MIN_BOX_SIDE <= v < math.inf, f"a finite number >= {MIN_BOX_SIDE:g}")
# False positives per frame, on average. Far beyond any use (the benchmark's
# crowded scenario has 5), and it keeps numpy's Poisson draw in range.
MAX_FP_RATE = 100.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one synthetic scenario, each setting declared
    once, on its field: the ``simulate`` flags, their ranges in ``--help``
    and the config-file keys derive from them. Construction raises
    ValidationError on a value outside its field's check, then on a break of
    the cross-field rules in __post_init__. describe() keeps the field order.
    """

    seed: int = setting(0, int_at_least(0))
    video_id: str = setting("sim")
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
        0.0, Check(lambda v: 0.0 <= v <= MAX_FP_RATE, f"in [0, {MAX_FP_RATE:g}]"))
    tp_score_mean: float = setting(0.8, UNIT_CLOSED)
    tp_score_sigma: float = setting(0.1, NON_NEGATIVE)
    fp_score_mean: float = setting(0.6, UNIT_CLOSED)
    fp_score_sigma: float = setting(0.2, NON_NEGATIVE)
    appearance_dim: int = setting(0, int_at_least(0))
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


def generate(config: ScenarioConfig) -> tuple[GroundTruth, VideoDetections]:
    """Simulate a scenario; bitwise deterministic for a given config."""
    rng = Generator(PCG64(config.seed))
    W, H = float(config.width), float(config.height)

    # track initialization, per track ascending
    tracks = []
    for tid in range(config.num_tracks):
        class_id = int(rng.integers(0, config.classes))
        w = float(rng.uniform(config.box_min, config.box_max))
        h = float(rng.uniform(config.box_min, config.box_max))
        cx = float(rng.uniform(w / 2, W - w / 2))
        cy = float(rng.uniform(h / 2, H - h / 2))
        vx = float(rng.uniform(-config.speed_max, config.speed_max))
        vy = float(rng.uniform(-config.speed_max, config.speed_max))
        base = None
        if config.appearance_dim > 0:
            raw = rng.normal(size=config.appearance_dim)
            base = raw / max(1e-12, float(math.sqrt(float(raw @ raw))))
        tracks.append({
            "class_id": class_id, "w": w, "h": h, "cx": cx, "cy": cy,
            "vx": vx, "vy": vy, "base": base, "burst_left": 0,
        })

    gt_frames: defaultdict[int, list[TrackBox]] = defaultdict(list)
    det_frames: defaultdict[int, list[Detection]] = defaultdict(list)

    for f in range(config.frame_count):
        for tid, tr in enumerate(tracks):
            if f > 0:
                dx, dy = tr["vx"], tr["vy"]
                if config.sigma_motion > 0:
                    dx += float(rng.normal(0.0, config.sigma_motion))
                    dy += float(rng.normal(0.0, config.sigma_motion))
                tr["cx"] += dx
                tr["cy"] += dy
                tr["cx"], fx = _reflect(tr["cx"], tr["w"] / 2, W - tr["w"] / 2)
                tr["cy"], fy = _reflect(tr["cy"], tr["h"] / 2, H - tr["h"] / 2)
                tr["vx"] *= fx
                tr["vy"] *= fy
            box = BBox(tr["cx"] - tr["w"] / 2, tr["cy"] - tr["h"] / 2, tr["w"], tr["h"])
            gt_frames[f].append(TrackBox(f, tr["class_id"], tid, box))

            # dropout decisions
            dropped = False
            if tr["burst_left"] > 0:
                tr["burst_left"] -= 1
                dropped = True
            elif config.burst_prob > 0 and float(rng.random()) < config.burst_prob:
                length = int(rng.integers(1, config.burst_max + 1)) if config.burst_max > 0 else 0
                if length > 0:
                    tr["burst_left"] = length - 1
                    dropped = True
            if not dropped and config.drop_prob > 0 and float(rng.random()) < config.drop_prob:
                dropped = True
            if dropped:
                continue

            cx, cy, w, h = tr["cx"], tr["cy"], tr["w"], tr["h"]
            if config.jitter_sigma > 0:
                cx += float(rng.normal(0.0, config.jitter_sigma))
                cy += float(rng.normal(0.0, config.jitter_sigma))
                w = max(MIN_BOX_SIDE, w + float(rng.normal(0.0, config.jitter_sigma)))
                h = max(MIN_BOX_SIDE, h + float(rng.normal(0.0, config.jitter_sigma)))
            score = _clamped_score(rng, config.tp_score_mean, config.tp_score_sigma)
            appearance = None
            if tr["base"] is not None:
                noisy = tr["base"] + rng.normal(0.0, config.appearance_noise, size=config.appearance_dim)
                norm = float(math.sqrt(float(noisy @ noisy)))
                appearance = tuple(float(a) for a in noisy / max(1e-12, norm))
            det_frames[f].append(
                Detection(f, tr["class_id"], BBox(cx - w / 2, cy - h / 2, w, h), score, appearance)
            )

        # false positives after the tracks
        if config.fp_rate > 0:
            for _ in range(int(rng.poisson(config.fp_rate))):
                class_id = int(rng.integers(0, config.classes))
                w = float(rng.uniform(config.box_min, config.box_max))
                h = float(rng.uniform(config.box_min, config.box_max))
                cx = float(rng.uniform(w / 2, W - w / 2))
                cy = float(rng.uniform(h / 2, H - h / 2))
                score = _clamped_score(rng, config.fp_score_mean, config.fp_score_sigma)
                det_frames[f].append(
                    Detection(f, class_id, BBox(cx - w / 2, cy - h / 2, w, h), score)
                )

    shape = config.frame_shape
    gt = GroundTruth(config.video_id, shape, config.frame_count, gt_frames)
    dets = VideoDetections(config.video_id, shape, config.frame_count, det_frames)
    return gt, dets


def _clamped_score(rng: Generator, mean: float, sigma: float) -> float:
    s = mean + float(rng.normal(0.0, sigma)) if sigma > 0 else mean
    return min(1.0, max(0.0, s))


def describe(config: ScenarioConfig) -> str:
    """Stable key = value summary of a scenario; parse_config inverts it."""
    lines = [f"{f.name} = {getattr(config, f.name)}" for f in fields(ScenarioConfig)]
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> ScenarioConfig:
    """Parse a key = value scenario description (unknown keys are errors)."""
    return ScenarioConfig(**read_settings(text, [ScenarioConfig], "scenario"))
