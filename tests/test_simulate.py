import contextlib
import dataclasses
import math
import signal

import pytest

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
)
from tubelink.cli import main
from tubelink.io import MAX_FRAME_COUNT


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
