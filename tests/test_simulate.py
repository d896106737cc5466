import contextlib
import dataclasses
import math
import os
import random
import signal
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from numpy.random import PCG64, Generator

from tubelink import (
    ConfigError,
    ScenarioConfig,
    ValidationError,
    build_tubelets,
    default_model,
    describe,
    generate,
    link_tubelets,
    parse_config,
    standard_scenario,
    write_detections,
    write_ground_truth,
)
from tubelink.cli import main
from tubelink.geometry import BBox, Detection
from tubelink.io import MAX_FRAME_COUNT, GroundTruth, TrackBox, VideoDetections
from tubelink.simulate import MAX_APPEARANCE_DIM, MIN_BOX_SIDE

SRC = Path(__file__).resolve().parents[1] / "src"


def clean_config(**kw):
    base = dict(
        seed=1, frame_count=30, num_tracks=3,
        jitter_sigma=0.0, drop_prob=0.0, burst_prob=0.0, fp_rate=0.0,
        tp_score_mean=1.0, tp_score_sigma=0.0,
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestGenerate:
    def test_no_degradation_identity(self):
        gt, dets = generate(clean_config())
        for f in range(30):
            assert len(dets.frames[f]) == len(gt.frames[f]) == 3
            for d, b in zip(dets.frames[f], gt.frames[f]):
                assert d.bbox == b.bbox
                assert d.score == 1.0
                assert d.class_id == b.class_id

    def test_drop_rate_within_binomial_bounds(self):
        cfg = clean_config(seed=7, frame_count=200, num_tracks=5, drop_prob=0.3)
        _, dets = generate(cfg)
        kept = sum(len(dets.frames[f]) for f in range(200))
        n = 200 * 5
        expected = n * 0.7
        sigma = math.sqrt(n * 0.3 * 0.7)
        assert abs(kept - expected) < 5 * sigma

    def test_same_seed_bitwise_identical(self):
        cfg = standard_scenario(3)
        assert generate(cfg) == generate(cfg)

    def test_different_seeds_differ(self):
        g1, d1 = generate(clean_config(seed=1))
        g2, d2 = generate(clean_config(seed=2))
        assert d1 != d2

    def test_ground_truth_boxes_inside_frame(self):
        for seed in range(20):
            cfg = ScenarioConfig(seed=seed, frame_count=120, num_tracks=6, speed_max=9.0)
            gt, _ = generate(cfg)
            for f in range(cfg.frame_count):
                for b in gt.frames[f]:
                    assert b.bbox.x >= -1e-9
                    assert b.bbox.y >= -1e-9
                    assert b.bbox.x + b.bbox.w <= cfg.width + 1e-9
                    assert b.bbox.y + b.bbox.h <= cfg.height + 1e-9

    def test_track_ids_unique_and_stable(self):
        gt, _ = generate(clean_config())
        for f in range(30):
            ids = [b.track_id for b in gt.frames[f]]
            assert ids == list(range(3))

    def test_false_positive_rate(self):
        cfg = clean_config(seed=5, frame_count=300, num_tracks=0, fp_rate=2.0)
        _, dets = generate(cfg)
        total = sum(len(dets.frames[f]) for f in range(300))
        # Poisson(2) over 300 frames: mean 600, sd ~24.5
        assert abs(total - 600) < 5 * math.sqrt(600)

    def test_appearance_vectors_unit_norm(self):
        cfg = clean_config(appearance_dim=8, appearance_noise=0.2)
        _, dets = generate(cfg)
        d = dets.frames[0][0]
        assert d.appearance is not None and len(d.appearance) == 8
        norm = math.sqrt(sum(a * a for a in d.appearance))
        assert norm == pytest.approx(1.0, abs=1e-6)

    def test_same_track_appearance_correlated(self):
        cfg = clean_config(appearance_dim=16, appearance_noise=0.1)
        _, dets = generate(cfg)
        a0 = dets.frames[0][0].appearance
        a1 = dets.frames[1][0].appearance
        cos = sum(x * y for x, y in zip(a0, a1))
        assert cos > 0.8

    def test_burst_recovery_end_to_end(self):
        """Bursts split tracks; linking with g_max >= burst_max restores them."""
        model = default_model()
        for seed in (0, 1, 2, 3, 4):
            cfg = clean_config(
                seed=seed, frame_count=100, num_tracks=4,
                burst_prob=0.04, burst_max=6,
                tp_score_mean=0.9, tp_score_sigma=0.0,
            )
            gt, dets = generate(cfg)
            ts = build_tubelets(dets, model)
            out = link_tubelets(ts, model, g_max=cfg.burst_max, tau_tub=0.5,
                                shape=cfg.frame_shape)
            assert len(out) == cfg.num_tracks


class TestConfigValidation:
    def test_too_many_tracks(self):
        with pytest.raises(ValidationError, match=r"^num_tracks must be an integer in \[0, 30\]"):
            ScenarioConfig(num_tracks=31)

    def test_drop_prob_one_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioConfig(drop_prob=1.0)

    def test_zero_frames_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioConfig(frame_count=0)

    def test_frame_count_bounded(self, tmp_path, capsys):
        # generate() makes a list per frame before it draws anything, so an
        # unbounded frame_count used to exhaust memory
        with time_limit(2.0):
            for count in (MAX_FRAME_COUNT + 1, 10 ** 12):
                with pytest.raises(ValidationError, match="frame_count"):
                    ScenarioConfig(frame_count=count)
                with pytest.raises(ConfigError, match="frame_count"):
                    parse_config(f"frame_count = {count}\n")
                with pytest.raises(SystemExit) as e:
                    main(["simulate", "--frame-count", str(count),
                          "--ground-truth", str(tmp_path / "g.txt"),
                          "--detections", str(tmp_path / "d.txt")])
                assert e.value.code == 2
        assert "frame-count must be an integer in [1, 1000000]" in capsys.readouterr().err
        assert not (tmp_path / "g.txt").exists()
        assert ScenarioConfig(frame_count=MAX_FRAME_COUNT).frame_count == MAX_FRAME_COUNT

    def test_appearance_dim_bounded(self, tmp_path, capsys):
        # generate() draws appearance_dim normals per track and per detection,
        # so --appearance-dim 100000000 used to ask for 800 MB a draw; these
        # values are refused before anything of that size is made
        expect = f"must be an integer in [0, {MAX_APPEARANCE_DIM}]"
        outputs = ["--ground-truth", str(tmp_path / "g.txt"),
                   "--detections", str(tmp_path / "d.txt")]
        for count in (MAX_APPEARANCE_DIM + 1, 10 ** 8):
            with pytest.raises(ValidationError) as e:
                ScenarioConfig(appearance_dim=count)
            assert str(e.value) == f"appearance_dim {expect}, got {count}"
            with pytest.raises(SystemExit) as e:
                main(["simulate", "--appearance-dim", str(count), *outputs])
            assert e.value.code == 2
            assert f"appearance-dim {expect}, got '{count}'" in capsys.readouterr().err
            (tmp_path / "s.cfg").write_text(f"seed = 1\nappearance_dim = {count}\n")
            assert main(["simulate", "--config", str(tmp_path / "s.cfg"), *outputs]) == 1
            assert f"s.cfg: line 2: bad value: appearance_dim {expect}" in capsys.readouterr().err
        assert not (tmp_path / "g.txt").exists() and not (tmp_path / "d.txt").exists()
        assert ScenarioConfig(appearance_dim=MAX_APPEARANCE_DIM).appearance_dim == \
            MAX_APPEARANCE_DIM

    def test_box_larger_than_frame_rejected(self):
        with pytest.raises(ValidationError, match="^box_max must be smaller than the frame$"):
            ScenarioConfig(width=50, height=50, box_max=64.0)
        with pytest.raises(ValidationError, match=r"^need box_min <= box_max, got 40\.0\.\.30\.0$"):
            ScenarioConfig(box_min=40.0, box_max=30.0)

    def test_non_finite_floats_rejected(self):
        names = [f.name for f in dataclasses.fields(ScenarioConfig) if f.type == "float"]
        assert "speed_max" in names and "fp_rate" in names
        for name in names:
            for bad in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValidationError, match=name):
                    ScenarioConfig(**{name: bad})

    def test_runaway_steps_rejected_in_bounded_time(self):
        # speed_max=1e300 used to make _reflect ping-pong forever
        with time_limit(5.0):
            for name in ("speed_max", "sigma_motion"):
                with pytest.raises(ValidationError, match=name):
                    generate(ScenarioConfig(frame_count=3, num_tracks=1, **{name: 1e300}))
                with pytest.raises(ValidationError):
                    parse_config(f"{name} = 1e300\n")

    def test_largest_steps_stay_in_frame_in_bounded_time(self):
        span = min(1280, 720) - 64.0
        with pytest.raises(ValidationError):
            ScenarioConfig(speed_max=span + 1e-9)
        cfg = ScenarioConfig(seed=3, frame_count=200, num_tracks=6,
                             speed_max=span, sigma_motion=span)
        with time_limit(5.0):
            gt, _ = generate(cfg)
        for boxes in gt.frames.values():
            for b in boxes:
                assert -1e-9 <= b.bbox.x and b.bbox.x2 <= cfg.width + 1e-9
                assert -1e-9 <= b.bbox.y and b.bbox.y2 <= cfg.height + 1e-9


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the block with TimeoutError when it runs longer than `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


DEFAULT_SUMMARY = """\
seed = 0
video_id = sim
frame_count = 300
width = 1280
height = 720
num_tracks = 8
classes = 1
box_min = 24.0
box_max = 64.0
speed_max = 4.0
sigma_motion = 0.5
jitter_sigma = 0.0
drop_prob = 0.0
burst_prob = 0.0
burst_max = 0
fp_rate = 0.0
tp_score_mean = 0.8
tp_score_sigma = 0.1
fp_score_mean = 0.6
fp_score_sigma = 0.2
appearance_dim = 0
appearance_noise = 0.1
"""


class TestDescribe:
    def test_default_config_fixture_string(self):
        # the summary format is a stability commitment for experiment logs
        assert describe(ScenarioConfig()) == DEFAULT_SUMMARY

    def test_round_trip(self):
        cfg = standard_scenario(9)
        assert parse_config(describe(cfg)) == cfg

    def test_round_trip_defaults(self):
        cfg = ScenarioConfig()
        assert parse_config(describe(cfg)) == cfg

    def test_seed_change_touches_one_line(self):
        a = describe(dataclasses.replace(standard_scenario(1), video_id="x"))
        b = describe(dataclasses.replace(standard_scenario(2), video_id="x"))
        diff = [
            (la, lb) for la, lb in zip(a.splitlines(), b.splitlines()) if la != lb
        ]
        assert diff == [("seed = 1", "seed = 2")]

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception, match="unknown scenario key"):
            parse_config("nonsense = 4\n")

    def test_bad_value_rejected(self):
        with pytest.raises(Exception, match="bad value"):
            parse_config("frame_count = many\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# comment\n\nseed = 12\n")
        assert cfg.seed == 12


# ---------------------------------------------------------------- draw order
#
# The scalar-draw generator that generate() replaced: one numpy call per
# draw, in the order that fixes the bits of every simulated file. It is kept
# here, unchanged, as the oracle of the draw order.

def _oracle_reflect(pos, lo, hi):
    flip = 1.0
    while pos < lo or pos > hi:
        if pos < lo:
            pos = 2 * lo - pos
        else:
            pos = 2 * hi - pos
        flip = -flip
    return pos, flip


def _oracle_class_and_box(rng, config):
    class_id = int(rng.integers(0, config.classes))
    w = float(rng.uniform(config.box_min, config.box_max))
    h = float(rng.uniform(config.box_min, config.box_max))
    cx = float(rng.uniform(w / 2, float(config.width) - w / 2))
    return class_id, w, h, cx, float(rng.uniform(h / 2, float(config.height) - h / 2))


def _oracle_unit(v):
    return v / max(1e-12, math.sqrt(float(v @ v)))


def _oracle_clamped_score(rng, mean, sigma):
    s = mean + float(rng.normal(0.0, sigma)) if sigma > 0 else mean
    return min(1.0, max(0.0, s))


def oracle_generate(config):
    rng = Generator(PCG64(config.seed))
    W, H = float(config.width), float(config.height)

    tracks = []
    for tid in range(config.num_tracks):
        class_id, w, h, cx, cy = _oracle_class_and_box(rng, config)
        vx = float(rng.uniform(-config.speed_max, config.speed_max))
        vy = float(rng.uniform(-config.speed_max, config.speed_max))
        base = (_oracle_unit(rng.normal(size=config.appearance_dim))
                if config.appearance_dim > 0 else None)
        tracks.append({
            "class_id": class_id, "w": w, "h": h, "cx": cx, "cy": cy,
            "vx": vx, "vy": vy, "base": base, "burst_left": 0,
        })

    gt_frames = defaultdict(list)
    det_frames = defaultdict(list)

    for f in range(config.frame_count):
        for tid, tr in enumerate(tracks):
            if f > 0:
                dx, dy = tr["vx"], tr["vy"]
                if config.sigma_motion > 0:
                    dx += float(rng.normal(0.0, config.sigma_motion))
                    dy += float(rng.normal(0.0, config.sigma_motion))
                tr["cx"] += dx
                tr["cy"] += dy
                tr["cx"], fx = _oracle_reflect(tr["cx"], tr["w"] / 2, W - tr["w"] / 2)
                tr["cy"], fy = _oracle_reflect(tr["cy"], tr["h"] / 2, H - tr["h"] / 2)
                tr["vx"] *= fx
                tr["vy"] *= fy
            box = BBox(tr["cx"] - tr["w"] / 2, tr["cy"] - tr["h"] / 2, tr["w"], tr["h"])
            gt_frames[f].append(TrackBox(f, tr["class_id"], tid, box))

            if tr["burst_left"] > 0:
                tr["burst_left"] -= 1
                continue
            if (config.burst_prob > 0 and float(rng.random()) < config.burst_prob
                    and config.burst_max > 0):
                tr["burst_left"] = int(rng.integers(1, config.burst_max + 1)) - 1
                continue
            if config.drop_prob > 0 and float(rng.random()) < config.drop_prob:
                continue

            cx, cy, w, h = tr["cx"], tr["cy"], tr["w"], tr["h"]
            if config.jitter_sigma > 0:
                cx += float(rng.normal(0.0, config.jitter_sigma))
                cy += float(rng.normal(0.0, config.jitter_sigma))
                w = max(MIN_BOX_SIDE, w + float(rng.normal(0.0, config.jitter_sigma)))
                h = max(MIN_BOX_SIDE, h + float(rng.normal(0.0, config.jitter_sigma)))
            score = _oracle_clamped_score(rng, config.tp_score_mean, config.tp_score_sigma)
            appearance = None
            if tr["base"] is not None:
                appearance = tuple(_oracle_unit(tr["base"] + rng.normal(
                    0.0, config.appearance_noise, size=config.appearance_dim)).tolist())
            det_frames[f].append(
                Detection(f, tr["class_id"], BBox(cx - w / 2, cy - h / 2, w, h), score, appearance)
            )

        if config.fp_rate > 0:
            for _ in range(int(rng.poisson(config.fp_rate))):
                class_id, w, h, cx, cy = _oracle_class_and_box(rng, config)
                score = _oracle_clamped_score(rng, config.fp_score_mean, config.fp_score_sigma)
                det_frames[f].append(
                    Detection(f, class_id, BBox(cx - w / 2, cy - h / 2, w, h), score)
                )

    shape = config.frame_shape
    gt = GroundTruth(config.video_id, shape, config.frame_count, gt_frames)
    dets = VideoDetections(config.video_id, shape, config.frame_count, det_frames)
    return gt, dets


REALS = [f.name for f in dataclasses.fields(ScenarioConfig) if f.type == "float"]
INTEGERS = [f.name for f in dataclasses.fields(ScenarioConfig) if f.type == "int"]
DRAW_ORDER_CASES = 240


def python_twin(cfg):
    """cfg with every real setting as a Python float: a config that compares
    equal to cfg and that the oracle reads as generate() reads cfg."""
    return dataclasses.replace(cfg, **{name: float(getattr(cfg, name)) for name in REALS})


def random_config(k):
    """Case k of the draw-order suite: every branch of the generator is
    toggled at random. Cases 1 and 3 mod 4 give the integer settings numpy
    types, cases 2 and 3 mod 4 give every real setting as np.float32."""
    r = random.Random(k)
    kw = dict(
        seed=k, frame_count=r.choice((1, 2, 12, 30)), num_tracks=r.choice((0, 1, 3, 6)),
        classes=r.choice((1, 2, 30)), width=r.choice((200, 1280)), height=r.choice((150, 720)),
        box_min=r.choice((2.0, 24.0)), box_max=r.choice((24.0, 64.0)),
        speed_max=r.choice((0.0, 4.0, 80.0)), sigma_motion=r.choice((0.0, 0.5, 60.0)),
        jitter_sigma=r.choice((0.0, 2.0, 30.0)),
        drop_prob=r.choice((0.0, 0.3)), burst_prob=r.choice((0.0, 0.2)),
        burst_max=r.choice((0, 1, 6)), fp_rate=r.choice((0.0, 0.5, 5.0)),
        tp_score_mean=r.choice((0.0, 0.75, 1.0)), tp_score_sigma=r.choice((0.0, 0.12, 0.6)),
        fp_score_mean=r.choice((0.0, 0.6, 1.0)), fp_score_sigma=r.choice((0.0, 0.3)),
        appearance_dim=r.choice((0, 4, 16)), appearance_noise=r.choice((0.0, 0.2)),
    )
    if k % 4 in (1, 3):
        kw.update({name: r.choice((np.int64, np.int32, np.uint16))(kw[name])
                   for name in INTEGERS if name in kw})
    if k % 4 in (2, 3):
        kw.update({name: np.float32(kw[name]) for name in REALS})
    return ScenarioConfig(**kw)


def written(gt, dets, path):
    """The bytes of gt and dets as the CLI writes them."""
    write_ground_truth(gt, path.with_suffix(".gt"))
    write_detections(dets, path.with_suffix(".det"))
    return path.with_suffix(".gt").read_bytes(), path.with_suffix(".det").read_bytes()


class TestDrawOrder:
    def test_generate_draws_what_the_scalar_oracle_draws(self, tmp_path):
        seen = defaultdict(int)
        for k in range(DRAW_ORDER_CASES):
            cfg = random_config(k)
            gt, dets = generate(cfg)
            want_gt, want_dets = oracle_generate(python_twin(cfg))
            assert (gt, dets) == (want_gt, want_dets), describe(cfg)
            assert written(gt, dets, tmp_path / "got") == \
                written(want_gt, want_dets, tmp_path / "want"), describe(cfg)
            n_dets = sum(map(len, dets.frames.values()))
            seen["numpy integers"] += type(cfg.seed) is not int
            seen["numpy reals"] += type(cfg.sigma_motion) is not float
            seen["no tracks"] += cfg.num_tracks == 0
            seen["burst without length"] += cfg.burst_prob > 0 and cfg.burst_max == 0
            seen["bursts and drops"] += cfg.burst_prob > 0 and cfg.drop_prob > 0 and n_dets > 0
            seen["descriptors without noise"] += cfg.appearance_dim > 0 == cfg.appearance_noise
            seen["classes without descriptors"] += cfg.classes > 1 and cfg.appearance_dim == 0
            seen["many false positives"] += cfg.fp_rate == 5.0
            seen["every sigma 0"] += not (cfg.sigma_motion or cfg.jitter_sigma
                                          or cfg.tp_score_sigma or cfg.fp_score_sigma)
        # each branch is taken by several cases
        assert len(seen) == 9 and min(seen.values()) >= 3, dict(seen)

    def test_numpy_settings_generate_the_bytes_of_their_python_twin(self, tmp_path):
        # tp_score_mean + z used to be computed in float32 here, and written
        # as 0.8093748092651367 where the twin writes 0.8093748071785822
        numpy_cfg = ScenarioConfig(seed=1, frame_count=20, tp_score_mean=np.float32(0.75),
                                   fp_rate=1.0, fp_score_mean=np.float32(0.5))
        python_cfg = ScenarioConfig(seed=1, frame_count=20, tp_score_mean=0.75,
                                    fp_rate=1.0, fp_score_mean=0.5)
        assert numpy_cfg == python_cfg and describe(numpy_cfg) == describe(python_cfg)
        got, want = generate(numpy_cfg), generate(python_cfg)
        assert got == want
        assert written(*got, tmp_path / "numpy") == written(*want, tmp_path / "python")
        assert b" 0.8093748071785822\n" in written(*got, tmp_path / "numpy")[1]

    def test_a_numpy_probability_is_compared_as_its_value(self):
        # u is the drop draw of the only track's first frame, after the six
        # uniforms of its box and velocity. np.float32(u) rounds up, so u is
        # below it and the detection drops; a float32 comparison would see
        # the two equal and keep the detection.
        def drop_draw(seed):
            return Generator(PCG64(seed)).random(7)[6]

        seed = next(s for s in range(100) if np.float32(drop_draw(s)) > drop_draw(s))
        cfg = ScenarioConfig(seed=seed, frame_count=1, num_tracks=1,
                             drop_prob=np.float32(drop_draw(seed)))
        gt, dets = generate(cfg)
        assert len(gt.frames[0]) == 1 and dets.frames[0] == []
        assert (gt, dets) == generate(python_twin(cfg)) == oracle_generate(python_twin(cfg))

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_every_generated_number_is_a_python_float(self, sigma):
        reals = {name: np.float32(getattr(ScenarioConfig(), name)) for name in REALS}
        reals.update(fp_rate=np.float32(2.0), tp_score_sigma=np.float32(sigma),
                     fp_score_sigma=np.float32(sigma))
        cfg = ScenarioConfig(seed=2, frame_count=10, **reals)
        gt, dets = generate(cfg)
        boxes = [d.bbox for d in dets.all_detections()] + [
            b.bbox for f in gt.frames.values() for b in f]
        assert len(dets.all_detections()) > 80
        assert {type(d.score) for d in dets.all_detections()} == {float}
        assert {type(v) for b in boxes for v in dataclasses.astuple(b)} == {float}

    def test_import_does_not_load_numpy_random(self):
        code = ("import sys, tubelink\n"
                "assert 'numpy.random' not in sys.modules, 'loaded by import tubelink'\n"
                "gt, dets = tubelink.generate(tubelink.standard_scenario(4))\n"
                "print(len(dets.all_detections()), len(gt.frames))\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
        assert done.returncode == 0, done.stderr
        gt, dets = generate(standard_scenario(4))
        assert done.stdout.split() == [str(len(dets.all_detections())), str(len(gt.frames))]
