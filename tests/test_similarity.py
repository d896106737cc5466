import dataclasses
import math
import re

import numpy as np
import pytest

from tubelink import (
    BBox,
    ConfigError,
    ContractError,
    Detection,
    FitError,
    LinkFeatures,
    SimilarityModel,
    ScenarioConfig,
    ValidationError,
    VideoDetections,
    build_tubelets,
    center,
    default_model,
    feature_vector,
    fit_model,
    generate,
    iou,
    link_features,
    link_score,
    load_model,
    match_frame_pair,
    save_model,
    tubelet_gap,
)
from tubelink import tubelets as tubelets_module
from tubelink.tubelets import _exact_assignment

from conftest import SHAPE, det, random_bbox, unit_vector


def identity_features(score=1.0, app=0.0):
    return LinkFeatures(0.0, 0.0, 0.0, 0.0, 1.0, score, 1.0, app)


class TestLinkFeatures:
    def test_identity_pair(self):
        f = link_features(det(frame=0, score=1.0), det(frame=1, score=1.0), SHAPE)
        assert f == identity_features()

    def test_exact_copy_yields_identity_point(self, rng):
        # copying a detection to the next frame gives (0,0,0,0,1,s,1,.)
        for _ in range(50):
            s = float(rng.uniform(0.05, 1.0))
            f = link_features(det(frame=2, score=s), det(frame=3, score=s), SHAPE)
            assert (f.dx, f.dy, f.log_w_ratio, f.log_h_ratio) == (0, 0, 0, 0)
            assert f.iou == 1.0 and f.class_match == 1.0
            assert f.score_geo_mean == pytest.approx(s, abs=1e-12)

    def test_x_shift_normalized_by_width(self):
        # +64 px on a 1280-wide frame
        f = link_features(det(frame=0, x=100), det(frame=1, x=164), SHAPE)
        assert f.dx == 0.05
        assert f.dy == 0.0

    def test_width_doubling(self):
        f = link_features(det(frame=0, w=10), det(frame=1, w=20), SHAPE)
        assert f.log_w_ratio == pytest.approx(math.log(2), abs=1e-12)

    def test_equal_frames_rejected(self):
        with pytest.raises(ContractError):
            link_features(det(frame=3), det(frame=3), SHAPE)

    def test_reversed_frames_rejected(self):
        with pytest.raises(ContractError):
            link_features(det(frame=4), det(frame=2), SHAPE)

    def test_appearance_cosine(self, rng):
        v = unit_vector(rng, 8)
        f = link_features(det(frame=0, app=v), det(frame=1, app=v), SHAPE)
        assert f.appearance_sim == pytest.approx(1.0, abs=1e-9)

    def test_appearance_missing_is_neutral(self, rng):
        f = link_features(det(frame=0, app=unit_vector(rng, 8)), det(frame=1), SHAPE)
        assert f.appearance_sim == 0.0

    def test_non_finite_feature_rejected(self):
        with pytest.raises(ValidationError):
            LinkFeatures(float("nan"), 0, 0, 0, 0.5, 0.5, 1.0, 0.0)

    def test_value_equality_and_repr(self):
        values = (0.1, -0.2, 0.0, 0.5, 0.25, 0.5, 1.0, -0.5)
        f = LinkFeatures(*values)
        assert f == LinkFeatures(*values)
        assert f != LinkFeatures(*values[:7], 0.5)
        assert f != values
        assert repr(f) == ("LinkFeatures(dx=0.1, dy=-0.2, log_w_ratio=0.0, log_h_ratio=0.5, "
                           "iou=0.25, score_geo_mean=0.5, class_match=1.0, appearance_sim=-0.5)")
        assert not hasattr(f, "__dict__")  # slotted: one is built per scored pair

    @pytest.mark.parametrize("k, value, message", [
        (4, -0.25, "iou feature out of [0,1]: -0.25"),
        (4, 1.5, "iou feature out of [0,1]: 1.5"),
        (6, 0.5, "class_match must be 0 or 1: 0.5"),
        (6, -1.0, "class_match must be 0 or 1: -1.0"),
    ])
    def test_range_messages(self, k, value, message):
        values = [0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 0.0]
        values[k] = value
        with pytest.raises(ValidationError, match=re.escape(message)):
            LinkFeatures(*values)


class TestLinkScore:
    def test_zero_model_gives_half(self, rng):
        m = SimilarityModel((0.0,) * 8, 0.0)
        for _ in range(20):
            f = LinkFeatures(
                float(rng.normal()), float(rng.normal()),
                float(rng.normal()), float(rng.normal()),
                float(rng.uniform()), float(rng.uniform()),
                1.0, float(rng.uniform(-1, 1)),
            )
            assert link_score(m, f) == 0.5

    def test_identity_pair_scores_high(self):
        assert link_score(default_model(), identity_features()) > 0.9

    def test_class_mismatch_scores_low(self):
        f = dataclasses.replace(identity_features(), class_match=0.0)
        assert link_score(default_model(), f) < 0.5
        # even a perfect appearance match does not rescue a class mismatch
        f = dataclasses.replace(f, appearance_sim=1.0)
        assert link_score(default_model(), f) < 0.5

    def test_extreme_inputs_stay_in_unit_interval(self):
        m = default_model()
        far = LinkFeatures(5.0, 5.0, 3.0, 3.0, 0.0, 0.0, 0.0, -1.0)
        assert 0.0 < link_score(m, far) < 1.0

    def test_undefined_logit_raises(self):
        # 1e308 * 2.0**2 and -1e308 * 2.0**2 overflow to +inf and -inf: the
        # score was nan, which no threshold accepts or rejects meaningfully
        m = SimilarityModel((1e308, -1e308, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), 0.0)
        with pytest.raises(ValidationError, match="link score logit is undefined"):
            link_score(m, LinkFeatures(2.0, 2.0, 0.0, 0.0, 0.0, 0.5, 1.0, 0.0))
        # one infinite term alone saturates to the clamps
        assert link_score(m, LinkFeatures(2.0, 0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 0.0)) == (
            math.nextafter(1.0, 0.0))
        assert link_score(m, LinkFeatures(0.0, 2.0, 0.0, 0.0, 0.0, 0.5, 1.0, 0.0)) == (
            math.nextafter(0.0, 1.0))

    def test_default_model_monotonicity(self, rng):
        """Perturbing one feature in its 'worse' direction never raises the score."""
        m = default_model()
        for _ in range(1000):
            f = LinkFeatures(
                dx=float(rng.uniform(-0.5, 0.5)),
                dy=float(rng.uniform(-0.5, 0.5)),
                log_w_ratio=float(rng.uniform(-1.5, 1.5)),
                log_h_ratio=float(rng.uniform(-1.5, 1.5)),
                iou=float(rng.uniform(0, 1)),
                score_geo_mean=float(rng.uniform(0, 1)),
                class_match=float(rng.integers(0, 2)),
                appearance_sim=float(rng.uniform(-1, 1)),
            )
            s = link_score(m, f)
            step = float(rng.uniform(0.01, 0.5))
            worse = {
                "dx": f.dx + step if f.dx >= 0 else f.dx - step,
                "dy": f.dy + step if f.dy >= 0 else f.dy - step,
                "log_w_ratio": f.log_w_ratio + step if f.log_w_ratio >= 0 else f.log_w_ratio - step,
                "log_h_ratio": f.log_h_ratio + step if f.log_h_ratio >= 0 else f.log_h_ratio - step,
                "iou": max(0.0, f.iou - step),
                "score_geo_mean": max(0.0, f.score_geo_mean - step),
                "class_match": 0.0,
                "appearance_sim": max(-1.0, f.appearance_sim - step),
            }
            for name, value in worse.items():
                s2 = link_score(m, dataclasses.replace(f, **{name: value}))
                assert s2 <= s + 1e-15, f"score rose when {name} degraded"


class TestModelFiles:
    def test_default_keyword(self):
        m = load_model("default")
        assert m == default_model()
        assert len(m.weights) == 8

    def test_round_trip(self, tmp_path):
        p = tmp_path / "model.txt"
        save_model(default_model(), p)
        assert load_model(p) == default_model()

    def test_wrong_arity(self, tmp_path):
        p = tmp_path / "model.txt"
        p.write_text("repp-model v1\n1 2 3 4 5 6 7\n0.5\n")
        with pytest.raises(ConfigError, match="8 weights"):
            load_model(p)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "model.txt"
        p.write_text("something-else\n1 2 3 4 5 6 7 8\n0.5\n")
        with pytest.raises(ConfigError):
            load_model(p)

    def test_non_numeric(self, tmp_path):
        p = tmp_path / "model.txt"
        p.write_text("repp-model v1\n1 2 3 4 5 6 7 x\n0.5\n")
        with pytest.raises(ConfigError):
            load_model(p)


def far_pair_features(rng):
    return LinkFeatures(
        dx=float(rng.uniform(0.2, 0.6)) * float(rng.choice([-1, 1])),
        dy=float(rng.uniform(0.2, 0.6)) * float(rng.choice([-1, 1])),
        log_w_ratio=float(rng.uniform(-1, 1)),
        log_h_ratio=float(rng.uniform(-1, 1)),
        iou=0.0,
        score_geo_mean=float(rng.uniform(0.2, 1.0)),
        class_match=1.0,
        appearance_sim=float(rng.uniform(-0.3, 0.3)),
    )


def near_pair_features(rng):
    return LinkFeatures(
        dx=float(rng.uniform(-0.01, 0.01)),
        dy=float(rng.uniform(-0.01, 0.01)),
        log_w_ratio=float(rng.uniform(-0.05, 0.05)),
        log_h_ratio=float(rng.uniform(-0.05, 0.05)),
        iou=float(rng.uniform(0.6, 1.0)),
        score_geo_mean=float(rng.uniform(0.4, 1.0)),
        class_match=1.0,
        appearance_sim=float(rng.uniform(0.5, 1.0)),
    )


class TestFitModel:
    def test_single_class_rejected(self, rng):
        pairs = [(near_pair_features(rng), 1) for _ in range(5)]
        with pytest.raises(FitError):
            fit_model(pairs)

    def test_empty_rejected(self):
        with pytest.raises(FitError):
            fit_model([])

    def test_bad_label_rejected(self, rng):
        with pytest.raises(FitError):
            fit_model([(near_pair_features(rng), 2), (far_pair_features(rng), 0)])

    def test_separable_toy_set_ranked(self, rng):
        pairs = [(near_pair_features(rng), 1) for _ in range(40)]
        pairs += [(far_pair_features(rng), 0) for _ in range(40)]
        m = fit_model(pairs)
        pos = [link_score(m, f) for f, lab in pairs if lab == 1]
        neg = [link_score(m, f) for f, lab in pairs if lab == 0]
        assert min(pos) > max(neg)

    def test_deterministic(self, rng):
        pairs = [(near_pair_features(rng), 1) for _ in range(10)]
        pairs += [(far_pair_features(rng), 0) for _ in range(10)]
        m1 = fit_model(pairs)
        m2 = fit_model(pairs)
        assert m1 == m2  # bitwise-equal weights and bias

    def test_recovers_generator_ranking(self, rng):
        """Fitting on labels produced by a known model reproduces its ranking."""
        gen = default_model()
        train, held = [], []
        for k in range(400):
            f = near_pair_features(rng) if k % 2 == 0 else far_pair_features(rng)
            s = link_score(gen, f)
            if 0.45 < s < 0.55:
                continue  # keep the toy set cleanly separated
            (train if k % 5 else held).append((f, 1 if s > 0.5 else 0))
        m = fit_model(train)
        gen_order = sorted(range(len(held)), key=lambda i: link_score(gen, held[i][0]))
        fit_order = sorted(range(len(held)), key=lambda i: link_score(m, held[i][0]))
        # same decision boundary side for every held-out point
        for f, lab in held:
            assert (link_score(m, f) > 0.5) == bool(lab)
        # and broadly the same ordering on the clearly separated points
        gen_labels = [held[i][1] for i in gen_order]
        fit_labels = [held[i][1] for i in fit_order]
        assert gen_labels == fit_labels


class TestFeatureVector:
    def test_magnitude_transform(self):
        f = LinkFeatures(-0.1, 0.2, -0.5, 0.25, 0.7, 0.6, 1.0, -0.4)
        v = feature_vector(f)
        assert v == (pytest.approx(0.01), pytest.approx(0.04), 0.5, 0.25, 0.7, 0.6, 1.0, -0.4)

    def test_model_arity_enforced(self):
        with pytest.raises(ValidationError):
            SimilarityModel((1.0,) * 7, 0.0)


# ------------------------------------------- the lean path against the seed's

def oracle_link_features(d1, d2, shape):
    """The seed's per-pair link_features: every box term recomputed per pair."""
    if d1.frame_idx >= d2.frame_idx:
        raise ContractError("d1 must lie in an earlier frame than d2")
    c1x, c1y = center(d1.bbox)
    c2x, c2y = center(d2.bbox)
    if d1.appearance is not None and d2.appearance is not None:
        app = float(np.dot(d1.appearance, d2.appearance))
        app = max(-1.0, min(1.0, app))
    else:
        app = 0.0
    return LinkFeatures(
        dx=(c2x - c1x) / shape.width,
        dy=(c2y - c1y) / shape.height,
        log_w_ratio=math.log(d2.bbox.w / d1.bbox.w),
        log_h_ratio=math.log(d2.bbox.h / d1.bbox.h),
        iou=iou(d1.bbox, d2.bbox),
        score_geo_mean=math.sqrt(d1.score * d2.score),
        class_match=1.0 if d1.class_id == d2.class_id else 0.0,
        appearance_sim=app,
    )


def oracle_link_score(m, f):
    """The seed's loop over feature_vector."""
    z = m.bias
    for w, v in zip(m.weights, feature_vector(f)):
        z += w * v
    if z >= 0.0:
        s = 1.0 / (1.0 + math.exp(-z))
    else:
        e = math.exp(z)
        s = e / (1.0 + e)
    return min(max(s, math.nextafter(0.0, 1.0)), math.nextafter(1.0, 0.0))


def oracle_tubelet_link_score(a, b, m, shape):
    """The seed's tubelet_link_score: two Detections, then replace for the gap."""
    return oracle_link_score(m, oracle_tubelet_features(a, b, shape))


def oracle_tubelet_features(a, b, shape):
    if a.class_id != b.class_id:
        raise ContractError("tubelet classes differ")
    gap = tubelet_gap(a, b)
    if gap < 0:
        raise ContractError("tubelets overlap or are out of order")
    tail, head = a.entries[-1], b.entries[0]
    f = oracle_link_features(
        Detection(tail.frame_idx, a.class_id, tail.bbox, tail.score),
        Detection(head.frame_idx, b.class_id, head.bbox, head.score),
        shape,
    )
    return dataclasses.replace(f, dx=f.dx / (gap + 1), dy=f.dy / (gap + 1))


def oracle_match_frame_pair(frame_t, frame_t1, m, tau_link, shape, assignment="greedy"):
    """The seed's match_frame_pair, scoring each pair with the oracles."""
    scored = []
    for i, d1 in enumerate(frame_t):
        for j, d2 in enumerate(frame_t1):
            if d1.class_id != d2.class_id:
                continue
            s = oracle_link_score(m, oracle_link_features(d1, d2, shape))
            if s >= tau_link:
                scored.append((s, i, j))
    if assignment == "exact":
        return _exact_assignment(scored, len(frame_t), len(frame_t1))
    scored.sort(key=lambda p: (-p[0], p[1], p[2]))
    taken_t, taken_t1, out = set(), set(), []
    for _, i, j in scored:
        if i not in taken_t and j not in taken_t1:
            taken_t.add(i)
            taken_t1.add(j)
            out.append((i, j))
    return out


def random_model(rng):
    """The default model, or weights of either sign (fit_model does not
    constrain signs)."""
    if rng.random() < 0.5:
        return default_model()
    return SimilarityModel(tuple(float(w) for w in rng.normal(0.0, 50.0, 8)),
                           float(rng.normal(0.0, 5.0)))


def tie_box(rng):
    """A box on a coarse grid, so that equal boxes and equal scores recur."""
    x, y = (float(v) for v in rng.integers(0, 8, 2) * 8.0)
    w, h = (float(v) for v in rng.integers(1, 4, 2) * 8.0)
    return BBox(x, y, w, h)


def random_box(rng):
    return tie_box(rng) if rng.random() < 0.5 else random_bbox(rng)


# descriptors seen more than once; the cosine of the last with itself
# rounds to 1.0000000000000002, which clamps to 1.0
DESCRIPTORS = [unit_vector(np.random.default_rng(k), 4) for k in (0, 1, 2, 9)]


def random_det(rng, frame, classes=2):
    """Boxes from a coarse grid (ties) or drawn freely; descriptors on 70%,
    half of them repeats."""
    score = float(rng.choice([0.5, 0.8])) if rng.random() < 0.5 else float(rng.uniform())
    app = None
    if rng.random() < 0.7:
        app = DESCRIPTORS[int(rng.integers(0, 4))] if rng.random() < 0.5 else unit_vector(rng, 4)
    return Detection(frame, int(rng.integers(0, classes)), random_box(rng), score, app)


class TestLeanPathMatchesOracle:
    """The per-box/per-pair scoring path reproduces the seed's per-pair
    algorithm bit for bit: exact ==, not approx."""

    def test_features_and_scores(self, rng):
        clamped = 0
        for _ in range(2000):
            f1 = int(rng.integers(0, 5))
            d1 = random_det(rng, f1)
            d2 = random_det(rng, f1 + 1 + int(rng.integers(0, 21)))
            m = random_model(rng)
            f = link_features(d1, d2, SHAPE)
            assert f == oracle_link_features(d1, d2, SHAPE)
            assert link_score(m, f) == oracle_link_score(m, f)
            clamped += d1.appearance == d2.appearance == DESCRIPTORS[3]
        assert clamped > 0

    def test_extreme_feature_points(self, rng):
        for _ in range(500):
            f = LinkFeatures(*(float(v) for v in rng.normal(0.0, 30.0, 4)),
                             float(rng.uniform()), float(rng.uniform()),
                             float(rng.integers(0, 2)), float(rng.uniform(-1, 1)))
            m = random_model(rng)
            assert link_score(m, f) == oracle_link_score(m, f)

    def test_size_ratio_overflow_raises_validation_error(self):
        small, big = det(frame=0, w=1e-300), det(frame=1, w=1e300)
        for scorer in (link_features, oracle_link_features):
            with pytest.raises(ValidationError, match="log_w_ratio"):
                scorer(small, big, SHAPE)

    def test_size_ratio_underflow_raises_validation_error(self):
        # the ratio 1e-600 is 0.0 in float64; the seed let math.log's bare
        # ValueError escape, which the CLI printed as a traceback
        big, small = det(frame=0, h=1e300), det(frame=1, h=1e-300)
        with pytest.raises(ValueError) as seed_error:
            oracle_link_features(big, small, SHAPE)
        assert not isinstance(seed_error.value, ValidationError)
        with pytest.raises(ValidationError, match="log size ratio"):
            link_features(big, small, SHAPE)

    def test_descriptor_lengths_differ(self):
        d1, d2 = det(frame=0, app=(1.0,)), det(frame=1, app=(0.6, 0.8))
        with pytest.raises(ValueError) as seed_error:
            oracle_link_features(d1, d2, SHAPE)
        assert not isinstance(seed_error.value, ValidationError)
        with pytest.raises(ValidationError, match="descriptor lengths differ: 1 and 2"):
            link_features(d1, d2, SHAPE)

    def test_intersection_that_rounds_to_zero(self):
        # 1e-200 * 1e-200 underflows and so do both areas: the seed divided
        # 0 by 0 and raised ZeroDivisionError, a traceback in the CLI
        tiny = (det(frame=0, w=1e-200, h=1e-200), det(frame=1, w=1e-200, h=1e-200))
        assert link_features(*tiny, SHAPE) == oracle_link_features(*tiny, SHAPE)
        assert link_features(*tiny, SHAPE).iou == 0.0
        assert match_frame_pair([tiny[0]], [tiny[1]], default_model(), 0.5, SHAPE) == [(0, 0)]

    def test_sum_overflow_is_not_a_non_finite_field(self):
        f = LinkFeatures(1e308, 1e308, 1e308, 0.0, 0.5, 0.5, 1.0, 0.0)
        assert f.dx == 1e308

    @pytest.mark.parametrize("k", range(8))
    def test_non_finite_field_is_named(self, k):
        values = [0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 0.0]
        values[k] = float("nan") if k % 2 else float("-inf")
        name = dataclasses.fields(LinkFeatures)[k].name
        with pytest.raises(ValidationError, match=f"link feature {name} is not finite"):
            LinkFeatures(*values)

    @pytest.mark.parametrize("assignment", ["greedy", "exact"])
    def test_match_frame_pair(self, rng, assignment):
        ties = 0
        for _ in range(300):
            frames = []
            for f in (3, 4):
                frame = [random_det(rng, f) for _ in range(int(rng.integers(0, 7)))]
                if frame and rng.random() < 0.5:
                    frame.append(frame[int(rng.integers(0, len(frame)))])  # a copy ties
                frames.append(frame)
            m, tau = random_model(rng), float(rng.uniform(0.05, 0.95))
            got = match_frame_pair(*frames, m, tau, SHAPE, assignment)
            assert got == oracle_match_frame_pair(*frames, m, tau, SHAPE, assignment)
            scores = [link_score(m, link_features(d1, d2, SHAPE))
                      for d1 in frames[0] for d2 in frames[1] if d1.class_id == d2.class_id]
            ties += len(scores) - len(set(scores))
        assert ties > 100

    def test_wrong_frame_order_of_a_class_matched_pair(self):
        later, earlier = [det(frame=3, cls=0)], [det(frame=2, cls=0)]
        for match in (match_frame_pair, oracle_match_frame_pair):
            for frame_t1 in (earlier, [det(frame=3, cls=0)]):
                with pytest.raises(ContractError):
                    match(later, frame_t1, default_model(), 0.5, SHAPE)
            # a class-mismatched pair is never scored, so its order is not checked
            assert match(later, [det(frame=2, cls=1)], default_model(), 0.5, SHAPE) == []

    def test_size_ratio_overflow_in_match_frame_pair(self):
        for match in (match_frame_pair, oracle_match_frame_pair):
            with pytest.raises(ValidationError):
                match([det(frame=0, w=1e-300)], [det(frame=1, w=1e300)],
                      default_model(), 0.5, SHAPE)

    @pytest.mark.parametrize("assignment", ["greedy", "exact"])
    def test_build_tubelets(self, rng, monkeypatch, assignment):
        streams = [
            VideoDetections("v", SHAPE, 10, {
                f: [random_det(rng, f) for _ in range(int(rng.integers(0, 6)))]
                for f in range(10)
            })
            for _ in range(20)
        ]
        streams.append(generate(ScenarioConfig(
            seed=3, frame_count=40, num_tracks=6, classes=2, jitter_sigma=2.0,
            drop_prob=0.1, fp_rate=2.0, appearance_dim=4))[1])
        cases = [(v, random_model(rng), float(rng.uniform(0.05, 0.95))) for v in streams]
        lean = [build_tubelets(v, m, tau, assignment) for v, m, tau in cases]
        monkeypatch.setattr(tubelets_module, "match_frame_pair", oracle_match_frame_pair)
        assert lean == [build_tubelets(v, m, tau, assignment) for v, m, tau in cases]
