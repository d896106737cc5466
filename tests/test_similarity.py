import dataclasses
import inspect
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
    PipelineConfig,
    SimilarityModel,
    ScenarioConfig,
    Tubelet,
    TubeletEntry,
    ValidationError,
    VideoDetections,
    build_tubelets,
    center,
    default_model,
    FrameShape,
    feature_vector,
    fit_model,
    generate,
    iou,
    link_features,
    link_score,
    link_tubelets,
    load_model,
    save_model,
    standard_scenario,
    tubelet_gap,
    tubelet_link_score,
)
from tubelink import similarity, tubelets
from tubelink.io import columns_of
from tubelink.similarity import feature_columns, one_pair_features
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
        assert not hasattr(f, "__dict__")  # slotted, as link_features builds one per call

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


    def test_dataclass_api_under_the_written_init(self):
        names = ["dx", "dy", "log_w_ratio", "log_h_ratio", "iou", "score_geo_mean",
                 "class_match", "appearance_sim"]
        values = (0.1, -0.2, 0.0, 0.5, 0.25, 0.5, 1.0, -0.5)
        assert [f.name for f in dataclasses.fields(LinkFeatures)] == names
        assert list(inspect.signature(LinkFeatures).parameters) == names
        assert LinkFeatures.__match_args__ == tuple(names)
        f = LinkFeatures(**dict(zip(names, values)))
        assert f == LinkFeatures(*values)
        match f:
            case LinkFeatures(dx, dy):
                assert (dx, dy) == (0.1, -0.2)
        assert dataclasses.replace(f, iou=0.75) == LinkFeatures(*values[:4], 0.75, *values[5:])
        with pytest.raises(ValidationError, match=re.escape("iou feature out of [0,1]: 1.5")):
            dataclasses.replace(f, iou=1.5)
        with pytest.raises(TypeError):
            LinkFeatures(*values[:7])
        with pytest.raises(TypeError):
            LinkFeatures(**dict(zip(names[1:], values[1:])))


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
        with pytest.raises(ConfigError, match="^" + re.escape(
                f"{p}: weights must be a tuple of 8 finite numbers, "
                "got (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)") + "$"):
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

    @pytest.mark.parametrize("weights, bias, message", [
        # a list made a model whose PipelineConfig could not be hashed
        ([0.0] * 8, 0.0, "weights must be a tuple of 8 finite numbers, got " + repr([0.0] * 8)),
        # None and a str bias raised a bare TypeError, and a bool bias was taken
        (None, 0.0, "weights must be a tuple of 8 finite numbers, got None"),
        ((0.0,) * 8, "0", "bias must be a finite number, got '0'"),
        ((0.0,) * 8, True, "bias must be a finite number, got True"),
        ((True,) + (0.0,) * 7, 0.0,
         "weights must be a tuple of 8 finite numbers, got " + repr((True,) + (0.0,) * 7)),
        ((0.0,) * 9, 0.0, "weights must be a tuple of 8 finite numbers, got " + repr((0.0,) * 9)),
        ((math.nan,) * 8, 0.0,
         "weights must be a tuple of 8 finite numbers, got " + repr((math.nan,) * 8)),
        ((0.0,) * 8, -math.inf, "bias must be a finite number, got -inf"),
    ])
    def test_model_fields_are_checked(self, weights, bias, message):
        with pytest.raises(ValidationError) as raised:
            SimilarityModel(weights, bias)
        assert type(raised.value) is ValidationError and str(raised.value) == message

    def test_numpy_weights_and_bias_are_taken(self):
        m = SimilarityModel(tuple(np.arange(8.0)), np.float32(0.5))
        assert hash(PipelineConfig(model=m)) == hash(PipelineConfig(model=m))


# ------------------------------------------- the lean path against the seed's

@pytest.fixture(params=[1, 3, None], ids=["chunk1", "chunk3", "chunk_default"])
def pair_chunk(request, monkeypatch):
    """The candidate pairs' features computed 1, 3 or the default number of
    pairs at a time: chunks must not change a score, an order or an error."""
    if request.param:
        monkeypatch.setattr(tubelets, "_PAIR_CHUNK", request.param)


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


# the thresholds where the log gate's margin matters: the smallest float
# (no gate), one just above the gate's floor, and the largest below 1
GATE_TAUS = (5e-324, 1e-300, math.nextafter(1.0, 0.0))


def random_tau(rng):
    """One of GATE_TAUS, a threshold in [0.05, 0.95], or one within 1e-300
    of 0 or 1e-16 of 1."""
    k = int(rng.integers(0, 4))
    if k == 0:
        return float(rng.choice(GATE_TAUS))
    if k == 1:
        return float(rng.uniform(0.05, 0.95))
    near = 10.0 ** -float(rng.uniform(1.0, 300.0 if k == 2 else 15.9))
    return near if k == 2 else 1.0 - near


def large_model(rng):
    """Weights of random signs, about a third of them 1e5, 1e150 or 1e300 in
    magnitude, and a bias of either sign. On random_box's boxes the terms
    stay finite, and a score near tau comes from huge terms that vanish
    (equal sizes, equal centres) or from the others."""
    scale = [float(rng.choice([1e5, 1e150, 1e300])) if rng.random() < 0.3
             else float(rng.uniform(0.0, 50.0)) for _ in range(8)]
    signs = rng.choice([-1.0, 1.0], 9)
    return SimilarityModel(tuple(float(v) for v in signs[:8] * scale),
                           float(signs[8] * rng.uniform(0.0, 10.0)))


def split_log_pair(rng):
    """A model and two boxes whose width ratio r has np.log(r) !=
    math.log(r). The bias cancels the width term of math.log(r) exactly, so
    the logit is moderate; with np.log(r) it is of order -1e284, since that
    term weighs 1e300. The linker scores below tau with np.log's ratio, so
    it must take math.log's to keep the pair at its score."""
    r = 1.0 + rng.random(4096)
    differ = np.flatnonzero(np.log(r) != [math.log(v) for v in r.tolist()])
    if not len(differ):
        pytest.skip("np.log rounds as math.log on all 4096 ratios")
    r = float(r[differ[0]])
    w = -1e300 if float(np.log(np.array([r]))[0]) > math.log(r) else 1e300
    m = SimilarityModel((0.0, 0.0, w, 0.0, 1.5, 1.0, 4.0, 1.0), -(w * math.log(r)))
    return m, BBox(100.0, 100.0, 16.0, 10.0), BBox(100.0, 100.0, 16.0 * r, 10.0)


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
        v = VideoDetections("v", SHAPE, 2, {0: [tiny[0]], 1: [tiny[1]]})
        assert [len(t) for t in build_tubelets(v, default_model(), 0.5)] == [2]

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
            v = VideoDetections("v", SHAPE, 5, {3: frames[0], 4: frames[1]})
            assert build_tubelets(v, m, tau, assignment) == \
                oracle_build_tubelets(v, m, tau, assignment)
            scores = [link_score(m, link_features(d1, d2, SHAPE))
                      for d1 in frames[0] for d2 in frames[1] if d1.class_id == d2.class_id]
            ties += len(scores) - len(set(scores))
        assert ties > 100

    def test_size_ratio_overflow_in_match_frame_pair(self):
        small, big = det(frame=0, w=1e-300), det(frame=1, w=1e300)
        v = VideoDetections("v", SHAPE, 2, {0: [small], 1: [big]})
        for build in (build_tubelets, oracle_build_tubelets):
            with pytest.raises(ValidationError):
                build(v, default_model(), 0.5, "greedy")

    @pytest.mark.parametrize("assignment", ["greedy", "exact"])
    def test_build_tubelets(self, rng, assignment):
        streams = [VideoDetections("v", SHAPE, 10, {f: random_frame(rng, f) for f in range(10)})
                   for _ in range(20)]
        streams.append(generate(ScenarioConfig(
            seed=3, frame_count=40, num_tracks=6, classes=2, jitter_sigma=2.0,
            drop_prob=0.1, fp_rate=2.0, appearance_dim=4))[1])
        empty = copies = 0
        for v in streams:
            m, tau = random_model(rng), float(rng.uniform(0.05, 0.95))
            assert build_tubelets(v, m, tau, assignment) == \
                oracle_build_tubelets(v, m, tau, assignment)
            empty += v.frame_count - len(v.frames)
            copies += sum(len(f) - len(set(f)) for f in v.frames.values())
        assert empty > 20 and copies > 20

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("assignment", ["greedy", "exact"])
    def test_build_tubelets_in_small_chunks(self, rng, monkeypatch, assignment, chunk):
        monkeypatch.setattr(tubelets, "_PAIR_CHUNK", chunk)
        self.test_match_frame_pair(rng, assignment)
        self.test_build_tubelets(rng, assignment)

    @pytest.mark.parametrize("assignment", ["greedy", "exact"])
    def test_class_ids_beyond_float64_precision_never_link_across(self, rng, assignment):
        # 2**53 and 2**53 + 1 are one float64, and 2**63 - 1 rounds to 2**63:
        # the sweep keys the rows by dense class ids, which it holds exactly
        big = [2**53, 2**53 + 1, 2**63 - 1]
        crossed = 0
        for _ in range(40):
            frames = {f: [dataclasses.replace(d, class_id=big[d.class_id])
                          for d in (random_det(rng, f, classes=3)
                                    for _ in range(int(rng.integers(1, 6))))]
                      for f in range(10)}
            v = VideoDetections("v", SHAPE, 10, frames)
            m, tau = random_model(rng), float(rng.uniform(0.05, 0.95))
            assert build_tubelets(v, m, tau, assignment) == \
                oracle_build_tubelets(v, m, tau, assignment)
            crossed += sum(a.class_id != b.class_id for f in range(9)
                           for a in frames[f] for b in frames[f + 1])
        assert crossed > 500

    def test_link_candidates_against_every_pair(self, rng, pair_chunk):
        missing = candidates_against_every_pair(
            rng, 300, random_model, lambda rng: float(rng.uniform(0.05, 0.95)))
        assert missing > 30

    @pytest.mark.parametrize("tau", [*GATE_TAUS, None], ids=[*map(repr, GATE_TAUS), "random"])
    def test_large_weights_of_random_signs(self, rng, tau):
        # the linker takes np.log's size ratios for the pairs whose bound
        # keeps them below tau; the kept scores must be math.log's
        draw = random_tau if tau is None else lambda rng: tau
        candidates_against_every_pair(rng, 300, large_model, draw)
        for _ in range(20):
            v = VideoDetections("v", SHAPE, 8, {f: random_frame(rng, f) for f in range(8)})
            m, t = large_model(rng), draw(rng)
            for assignment in ("greedy", "exact"):
                assert build_tubelets(v, m, t, assignment) == \
                    oracle_build_tubelets(v, m, t, assignment)

    def test_a_pair_whose_logs_differ_scoring_tau(self, rng):
        m, tail, head = split_log_pair(rng)
        d1, d2 = Detection(0, 0, tail, 0.9), Detection(1, 0, head, 0.9)
        tau = link_score(m, oracle_link_features(d1, d2, SHAPE))
        v = VideoDetections("v", SHAPE, 2, {0: [d1], 1: [d2]})
        c = columns_of(v)
        ends = (c.frame_idx, c.class_id, c.box, c.score, c.descriptor, c.descriptor_len)
        got = tubelets._link_candidates(ends, ends, m, 0, tau, SHAPE)
        assert [a.tolist() for a in got] == [[tau], [0], [1]]
        assert [len(t) for t in build_tubelets(v, m, tau)] == [2]

    def test_random_weight_signs(self, rng, pair_chunk):
        # fit_model does not constrain signs: any weight may reward or penalize
        for _ in range(30):
            signs = rng.choice([-1.0, 1.0], 8)
            m = SimilarityModel(tuple(float(v) for v in signs * rng.uniform(0.0, 50.0, 8)),
                                float(rng.normal(0.0, 5.0)))
            v = VideoDetections("v", SHAPE, 8, {f: random_frame(rng, f) for f in range(8)})
            tau = float(rng.uniform(0.05, 0.95))
            for assignment in ("greedy", "exact"):
                assert build_tubelets(v, m, tau, assignment) == \
                    oracle_build_tubelets(v, m, tau, assignment)

    def test_batched_cosine_equals_np_dot_pair_by_pair(self, rng):
        # descriptors of several lengths in one matrix, each row padded with
        # zeros as BoxColumns stores them; pairs of equal lengths only
        n, width = 4000, 40
        lengths = rng.choice([1, 2, 3, 4, 5, 7, 8, 16, 17, 33, 40], n)
        app = np.zeros((n, width))
        for r, k in enumerate(lengths.tolist()):
            app[r, :k] = unit_vector(rng, k)
        i = rng.integers(0, n, 3 * n)
        j = np.array([rng.choice(np.flatnonzero(lengths == lengths[a])) for a in i.tolist()])
        side = (np.zeros(n, np.int64), np.tile([10.0, 10.0, 5.0, 5.0], (n, 1)), np.ones(n),
                app, lengths)
        columns, error = feature_columns(side, side, i, j, np.ones(len(i)), SHAPE)
        assert error is None
        expect = [max(-1.0, min(1.0, float(np.dot(app[a, :k], app[b, :k]))))
                  for a, b, k in zip(i.tolist(), j.tolist(), lengths[i].tolist())]
        assert columns[7] == expect


class TestLogGate:
    @pytest.mark.parametrize("tau, exact_pairs", [(0.5, 1145), (5e-324, 40169)])
    def test_few_pairs_take_exact_logs(self, monkeypatch, tau, exact_pairs):
        # a crowded stream under the default model: only the pairs whose
        # logit may come within 1 of logit(tau) take math.log's ratios, and
        # every pair where logit(tau) - 1 is below the gate's floor
        exact_logs, score = similarity._exact_logs, tubelets.link_score
        counts = {"exact": 0, "scored": 0}

        def exact(ratios):
            counts["exact"] += len(ratios)
            return exact_logs(ratios)

        def scored(m, f):
            counts["scored"] += 1
            return score(m, f)

        monkeypatch.setattr(similarity, "_exact_logs", exact)
        monkeypatch.setattr(tubelets, "link_score", scored)
        _, v = generate(dataclasses.replace(standard_scenario(0), frame_count=60, num_tracks=30,
                                            fp_rate=5.0))
        build_tubelets(v, default_model(), tau)
        # at tau = 0.5, 1,145 of the 40,169 pairs (2.9%); two ratios each
        assert counts == {"exact": 2 * exact_pairs, "scored": 40169}

    def test_the_largest_gated_logit_scores_below_tau(self, rng):
        # one pair of zero features under a model of bias b alone: its logit
        # is b. The largest b that the gate leaves to np.log must score
        # below tau, down to one ulp below 1
        zeros = [np.zeros(1)] * 8

        def gate(b, tau):
            return similarity._may_reach(SimilarityModel((0.0,) * 8, b), tau, zeros, zeros[2:4])

        assert gate(-1e4, GATE_TAUS[0]) == slice(None)  # below the floor, no gate
        taus = [*GATE_TAUS[1:], *(1.0 - k * 2.0**-53 for k in range(2, 40)),
                *(random_tau(rng) for _ in range(200))]
        gated = 0
        for tau in taus:
            if isinstance(gate(-1e4, tau), slice):
                assert tau < math.exp(-699.0)
                continue
            lo, hi = -1e3, 1e3  # the gate drops lo, not hi
            while (mid := lo + (hi - lo) / 2.0) not in (lo, hi):
                lo, hi = (mid, hi) if len(gate(mid, tau)) == 0 else (lo, mid)
            assert link_score(SimilarityModel((0.0,) * 8, lo), (0.0,) * 8) < tau
            gated += 1
        assert gated > 150


def candidates_against_every_pair(rng, rounds, model, tau):
    """Check tubelets._link_candidates on random tails and heads against
    each pair scored alone, under model(rng) and at tau(rng); returns how
    many tail classes were missing from the heads."""
    # tails and heads of their own, so that a tail's class may be missing
    # from the heads; each pair scored alone, heads in frame order
    def ends(n):
        boxes = [random_box(rng) for _ in range(n)]
        return (rng.integers(0, 12, n), rng.integers(0, 4, n),
                np.array([[b.x, b.y, b.w, b.h] for b in boxes]).reshape(n, 4),
                rng.uniform(0.0, 1.0, n), np.zeros((n, 0)), np.zeros(n, np.int64))

    missing = 0
    for _ in range(rounds):
        tails, heads = ends(int(rng.integers(0, 8))), ends(int(rng.integers(0, 8)))
        m, g_max = model(rng), int(rng.integers(0, 5))
        t = tau(rng)
        expect = []
        for a in range(len(tails[0])):
            for b in sorted(range(len(heads[0])), key=lambda b: heads[0][b]):
                steps = int(heads[0][b] - tails[0][a])
                if heads[1][b] == tails[1][a] and 1 <= steps <= g_max + 1:
                    f = one_pair_features(*((e[1][r], BBox(*e[2][r]), e[3][r], None)
                                            for e, r in ((tails, a), (heads, b))), steps, SHAPE)
                    if (s := link_score(m, f)) >= t:
                        expect.append((s, a, b))
        got = tubelets._link_candidates(tails, heads, m, g_max, t, SHAPE)
        assert list(zip(*(a.tolist() for a in got))) == expect
        missing += sum(min(heads[1], default=9) < c < max(heads[1], default=0)
                       for c in set(tails[1].tolist()) - set(heads[1].tolist()))
    return missing


def random_frame(rng, f):
    """Up to 5 detections, a copy of one of them (equal scores) on half the
    frames; no detections on a third of them."""
    if rng.random() < 1 / 3:
        return []
    frame = [random_det(rng, f) for _ in range(int(rng.integers(1, 6)))]
    if rng.random() < 0.5:
        frame.append(frame[int(rng.integers(0, len(frame)))])
    return frame


def oracle_build_tubelets(v, m, tau_link, assignment):
    """The per-frame build loop that build_tubelets ran before both levels
    shared one linker: each stored frame matched to the frame before it by
    oracle_match_frame_pair, one chain per detection without a backward
    match, chains ordered by (start frame, x, y) and then creation order."""
    chains, prev_t, prev, active = [], -1, [], []
    for t, curr in v.frames.items():
        if t != prev_t + 1:
            prev = []
        back = {j: i for i, j in oracle_match_frame_pair(
            prev, curr, m, tau_link, v.frame_shape, assignment)}
        next_active = []
        for j, d in enumerate(curr):
            if j in back:
                chain = active[back[j]]
            else:
                chain = []
                chains.append(chain)
            chain.append(d)
            next_active.append(chain)
        prev_t, prev, active = t, curr, next_active
    chains.sort(key=lambda c: (c[0].frame_idx, c[0].bbox.x, c[0].bbox.y))
    return [Tubelet(k, c[0].class_id, tuple(TubeletEntry(d.frame_idx, d.bbox, d.score) for d in c))
            for k, c in enumerate(chains)]


class TestFirstFailingPairRaises:
    """Of a stream's candidate pairs, the first in enumeration order (tails
    in stored order, each tail's heads in frame order) that cannot be scored
    raises its own error, at both levels."""

    UNDERFLOW = (det(frame=0, x=300.0, h=1e300), det(frame=1, x=300.0, h=1e-300))

    @staticmethod
    def build(frames, m=None):
        v = VideoDetections("v", SHAPE, 2, {f: list(ds) for f, ds in frames.items()})
        return build_tubelets(v, m or default_model(), 0.5)

    @staticmethod
    def link(pairs, m=None, g_max=3):
        ts = [Tubelet(k, 0, (TubeletEntry(f, b, 0.9),))
              for k, (f, b) in enumerate(p for pair in pairs for p in pair)]
        return link_tubelets(ts, m or default_model(), g_max, 0.5, SHAPE)

    def test_mixed_descriptor_lengths(self, pair_chunk):
        frames = {0: [det(frame=0, cls=0, app=(1.0, 0.0)), det(frame=0, cls=1, app=(0.6, 0.8))],
                  1: [det(frame=1, cls=1, app=(0.0, 0.6, 0.8)),
                      det(frame=1, cls=0, app=(0.0, 0.0, 1.0, 0.0))]}
        with pytest.raises(ValidationError, match=re.escape("descriptor lengths differ: 2 and 4")):
            self.build(frames)

    def test_size_ratio_underflow(self, pair_chunk):
        with pytest.raises(ValidationError,
                           match=re.escape("link feature log size ratio is not finite: -inf")):
            self.build({0: [self.UNDERFLOW[0]], 1: [self.UNDERFLOW[1]]})
        with pytest.raises(ValidationError,
                           match=re.escape("link feature log size ratio is not finite: -inf")):
            self.link([((0, self.UNDERFLOW[0].bbox), (2, self.UNDERFLOW[1].bbox))])

    def test_non_finite_dx_before_an_underflow(self, pair_chunk):
        # the centre displacement 2e308 overflows to inf
        far = (BBox(-1e308, 0.0, 1.0, 10.0), BBox(1e308, 0.0, 1.0, 10.0))
        frames = {0: [det(frame=0, x=-1e308, w=1.0), self.UNDERFLOW[0]],
                  1: [det(frame=1, x=1e308, w=1.0), self.UNDERFLOW[1]]}
        message = re.escape("link feature dx is not finite: inf")
        with pytest.raises(ValidationError, match=message):
            self.build(frames)
        with pytest.raises(ValidationError, match=message):
            self.link([((0, far[0]), (1, far[1])),
                       ((0, self.UNDERFLOW[0].bbox), (1, self.UNDERFLOW[1].bbox))], g_max=0)

    def test_undefined_logit_before_an_underflow(self, pair_chunk):
        m = SimilarityModel((1e308, -1e308, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), 0.0)
        # dx = dy = 2: weighted terms of +inf and -inf
        frames = {0: [det(frame=0), self.UNDERFLOW[0]],
                  1: [det(frame=1, x=2560.0, y=1440.0), self.UNDERFLOW[1]]}
        with pytest.raises(ValidationError, match="link score logit is undefined"):
            self.build(frames, m)

    def test_equal_heads_keep_row_order(self, pair_chunk):
        # two heads of one class in one frame: the first listed is scored first
        frames = {0: [det(frame=0, app=(1.0, 0.0))],
                  1: [det(frame=1, x=5.0, app=(0.0, 0.0, 1.0, 0.0)),
                      det(frame=1, app=(0.0, 0.6, 0.8))]}
        with pytest.raises(ValidationError, match=re.escape("descriptor lengths differ: 2 and 4")):
            self.build(frames)

    def test_descriptor_lengths_before_the_log_in_one_pair(self, pair_chunk):
        frames = {0: [det(frame=0, h=1e300, app=(1.0, 0.0))],
                  1: [det(frame=1, h=1e-300, app=(0.0, 0.6, 0.8))]}
        with pytest.raises(ValidationError, match=re.escape("descriptor lengths differ: 2 and 3")):
            self.build(frames)

    def test_underflow_before_a_non_finite_dx_in_one_pair(self, pair_chunk):
        # the log of the size ratio is taken before the features are checked
        frames = {0: [det(frame=0, x=-1e308, w=1.0, h=1e300)],
                  1: [det(frame=1, x=1e308, w=1.0, h=1e-300)]}
        with pytest.raises(ValidationError, match="log size ratio is not finite"):
            self.build(frames)


class TestChunkScoredInOnePass:
    """A chunk's pairs are scored by one lazy map, pair after pair: pair k's
    link_score on its tuple of checked features, then pair k + 1's. The
    columns stop at the first pair that breaks a rule of LinkFeatures, and
    its error is raised after the pairs before it are scored. A numpy mask
    then keeps the scores that reach tau."""

    # log size ratios of ln 3 weigh in as terms of +inf and -inf
    M = SimilarityModel((0.0, 0.0, 1.7e308, -1.7e308, 0.0, 0.0, 0.0, 0.0), 0.0)
    K = 4  # the pairs scored before the two that fail; at chunk 3 all fail in one
    OK = det(frame=1, x=-1e308)
    LOGIT = det(frame=1, x=-1e308, w=30.0, h=30.0)
    DX = det(frame=1, x=1e308)  # the centre displacement 2e308 overflows

    @pytest.mark.parametrize("failing, message, calls", [
        ((LOGIT, DX), "link score logit is undefined", K + 1),
        ((DX, LOGIT), "link feature dx is not finite: inf", K),
    ], ids=["logit_then_dx", "dx_then_logit"])
    def test_first_failing_pair_in_one_chunk(self, pair_chunk, monkeypatch, failing, message,
                                             calls):
        scored = 0

        def counted(m, f):
            nonlocal scored
            scored += 1
            return link_score(m, f)

        monkeypatch.setattr(tubelets, "link_score", counted)
        v = VideoDetections("v", SHAPE, 2, {0: [det(frame=0, x=-1e308)],
                                            1: [self.OK] * self.K + list(failing)})
        with pytest.raises(ValidationError, match=re.escape(message)):
            build_tubelets(v, self.M, 0.5)
        assert scored == calls

    def test_score_equal_to_tau_is_kept_at_both_levels(self, pair_chunk):
        m = default_model()
        a, b = det(frame=0, x=100.0), det(frame=1, x=105.0, w=12.0)
        far = [det(frame=1, x=600.0), det(frame=1, x=1000.0)]
        s = link_score(m, link_features(a, b, SHAPE))
        assert all(link_score(m, link_features(a, d, SHAPE)) < s for d in far)
        v = VideoDetections("v", SHAPE, 2, {0: [a], 1: [far[0], b, far[1]]})
        linked = [t for t in build_tubelets(v, m, s) if len(t) == 2]
        assert [[e.bbox for e in t.entries] for t in linked] == [[a.bbox, b.bbox]]
        assert max(map(len, build_tubelets(v, m, math.nextafter(s, 1.0)))) == 1

        tail = Tubelet(0, 0, (TubeletEntry(0, a.bbox, 0.9),))
        heads = [Tubelet(k, 0, (TubeletEntry(2, d.bbox, 0.9),))
                 for k, d in enumerate((far[0], b, far[1]), 1)]
        s = tubelet_link_score(tail, heads[1], m, SHAPE)
        assert all(tubelet_link_score(tail, h, m, SHAPE) < s for h in heads[::2])
        merged = [t for t in link_tubelets([tail, *heads], m, 3, s, SHAPE) if len(t) > 1]
        assert [(t.entries[0].bbox, t.entries[-1].bbox) for t in merged] == [(a.bbox, b.bbox)]
        assert max(map(len, link_tubelets([tail, *heads], m, 3, math.nextafter(s, 1.0),
                                          SHAPE))) == 1


# ------------------------------------- LinkFeatures' rules, checked per chunk

EXTREME_XS = (0.0, 100.0, 1e308, -1e308)
EXTREME_SIDES = (10.0, 1e300, 1e-300, 1e-200)


def extreme_det(rng, frame):
    """A box with corners at +-1e308 or sides of 1e+-300 and 1e-200 on 40%
    of its fields; a descriptor of length 2 or 3 on half the detections."""
    x, y = (float(rng.choice(EXTREME_XS)) if rng.random() < 0.4 else float(rng.uniform(0, 200))
            for _ in range(2))
    w, h = (float(rng.choice(EXTREME_SIDES)) if rng.random() < 0.4 else float(rng.uniform(1, 60))
            for _ in range(2))
    app = unit_vector(rng, int(rng.choice([2, 2, 2, 3]))) if rng.random() < 0.5 else None
    return Detection(frame, int(rng.integers(0, 2)), BBox(x, y, w, h), float(rng.uniform()), app)


def sides_of(dets):
    """BoxColumns' columns (class_id, box, score, descriptor, descriptor_len)
    of a list of detections, descriptors padded with zeros."""
    lens = np.array([len(d.appearance or ()) for d in dets], np.int64)
    app = np.zeros((len(dets), int(lens.max())))
    for r, d in enumerate(dets):
        app[r, :lens[r]] = d.appearance or ()
    return (np.array([d.class_id for d in dets], np.int64),
            np.array([[d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h] for d in dets]),
            np.array([d.score for d in dets]), app, lens)


def oracle_rows(pairs, shape):
    """The seed's path pair by pair: oracle_link_features, its displacement
    divided by the frames spanned. The rows before the first pair that fails
    and that pair's message, or None. The seed let np.dot's and math.log's
    bare ValueErrors escape; they are given the messages of the pair that
    raised them."""
    rows = []
    for d1, d2, steps in pairs:
        try:
            f = oracle_link_features(d1, d2, shape)
            f = dataclasses.replace(f, dx=f.dx / steps, dy=f.dy / steps)
        except ValidationError as e:
            return rows, str(e)
        except ValueError:
            a1, a2 = d1.appearance, d2.appearance
            return rows, (f"descriptor lengths differ: {len(a1)} and {len(a2)}"
                          if a1 and a2 and len(a1) != len(a2)
                          else "link feature log size ratio is not finite: -inf")
        rows.append(tuple(f))
    return rows, None


def bits(rows):
    return [tuple(map(float.hex, r)) for r in rows]


class TestBulkRulesEqualLinkFeatures:
    """feature_columns checks LinkFeatures' rules on a whole chunk with
    numpy: its columns stop where a per-pair loop of LinkFeatures would
    raise, with the error that loop raises."""

    def test_columns_and_error_equal_a_loop_of_link_features(self, rng, pair_chunk):
        errors, overflows, kept = set(), 0, 0
        for _ in range(400):
            # at width 1 a centre displacement of 1e308 is a finite dx of 1e308
            shape = SHAPE if rng.random() < 0.5 else FrameShape(1, 1)
            tails = [extreme_det(rng, 0) for _ in range(int(rng.integers(1, 5)))]
            heads = [extreme_det(rng, 3) for _ in range(int(rng.integers(1, 5)))]
            n = int(rng.integers(1, 10))
            i, j = rng.integers(0, len(tails), n), rng.integers(0, len(heads), n)
            steps = rng.integers(1, 4, n)
            expect, message = oracle_rows(
                [(tails[a], heads[b], int(k)) for a, b, k in zip(i, j, steps)], shape)
            rows, error = [], None
            for first in range(0, n, tubelets._PAIR_CHUNK):
                at = slice(first, first + tubelets._PAIR_CHUNK)
                columns, error = feature_columns(sides_of(tails), sides_of(heads), i[at], j[at],
                                                 steps[at], shape)
                rows += zip(*columns)
                if error:
                    break
            assert bits(rows) == bits(expect)
            assert (error and str(error)) == message
            assert error is None or type(error) is ValidationError
            errors.add(message and message.split(":")[0])
            overflows += sum(not math.isfinite(sum(r)) for r in rows)
            kept += len(rows)
        assert errors >= {None, "descriptor lengths differ", "link feature dx is not finite",
                          "link feature log_w_ratio is not finite",
                          "link feature log size ratio is not finite"}
        assert overflows > 10 and kept > 1000

    def test_a_sum_that_overflows_does_not_cut_the_chunk(self):
        # dx = dy = 1e308 are finite, their sum is not
        tail, head = det(frame=0), det(frame=1, x=1e308, y=1e308)
        a, b = sides_of([tail, det(frame=0, x=-1e308)]), sides_of([head, det(frame=1)])
        i, j = np.array([0, 0, 1, 0]), np.array([0, 1, 1, 0])
        columns, error = feature_columns(a, b, i, j, np.ones(4), FrameShape(1, 1))
        rows = list(zip(*columns))
        assert error is None
        assert [r[:2] for r in rows] == [(1e308, 1e308), (0.0, 0.0), (1e308, 0.0), (1e308, 1e308)]
        assert tuple(LinkFeatures(*rows[0])) == rows[0]


class TestLinkScoreTakesATuple:
    def test_tuple_of_fields_follows_field_order(self):
        f = LinkFeatures(0.1, -0.2, 0.3, -0.4, 0.5, 0.6, 1.0, -0.7)
        assert tuple(f) == tuple(getattr(f, field.name) for field in dataclasses.fields(f))
        assert tuple(f) == (0.1, -0.2, 0.3, -0.4, 0.5, 0.6, 1.0, -0.7)

    def test_tuple_and_link_features_score_the_same_bits(self, rng):
        extreme = (0.0, 1e-308, 1e-5, 1e5, 1e150, 1e308)
        undefined = 0
        for _ in range(3000):
            signs = rng.choice([-1.0, 1.0], 8)
            scale = [float(rng.choice(extreme)) if rng.random() < 0.3
                     else float(rng.uniform(0.0, 50.0)) for _ in range(8)]
            m = SimilarityModel(tuple(float(v) for v in signs * scale), float(rng.normal(0.0, 5.0)))
            big = float(rng.choice([1.0, 1e5, 1e155, 1e305]))
            f = LinkFeatures(*(float(v) for v in rng.normal(0.0, big, 4)),
                             float(rng.uniform()), float(rng.uniform()),
                             float(rng.integers(0, 2)), float(rng.uniform(-1, 1)))
            try:
                s = link_score(m, f)
            except ValidationError:
                undefined += 1
                with pytest.raises(ValidationError, match="link score logit is undefined"):
                    link_score(m, tuple(f))
                continue
            assert s.hex() == link_score(m, tuple(f)).hex() == oracle_link_score(m, f).hex()
        assert 0 < undefined < 1000


class TestNoLinkFeaturesPerPair:
    """The linker scores each candidate pair with one link_score call on a
    tuple: it builds a LinkFeatures only to raise a broken rule's error."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"built": 0, "scored": 0}
        init = LinkFeatures.__init__

        def counted_init(self, *fields):
            counts["built"] += 1
            init(self, *fields)

        def counted_score(m, f):
            counts["scored"] += 1
            return link_score(m, f)

        monkeypatch.setattr(LinkFeatures, "__init__", counted_init)
        monkeypatch.setattr(tubelets, "link_score", counted_score)
        return counts

    def test_a_clean_stream_builds_none(self, counts):
        v = generate(ScenarioConfig(seed=5, frame_count=30, num_tracks=5, classes=2,
                                    fp_rate=2.0, appearance_dim=4))[1]
        # gap-0 candidates: same-class pairs of consecutive stored frames
        per_class = {t: np.bincount([d.class_id for d in ds], minlength=2)
                     for t, ds in v.frames.items()}
        pairs = sum(int(per_class[t] @ per_class[t + 1]) for t in per_class if t + 1 in per_class)
        ts = build_tubelets(v, default_model(), 0.5)
        assert counts == {"built": 0, "scored": pairs} and pairs > 300
        link_tubelets(ts, default_model(), 3, 0.3, v.frame_shape)
        assert counts["built"] == 0 and counts["scored"] > pairs

    def test_a_non_finite_dx_builds_one(self, counts):
        k = 5
        ok, far = det(frame=1, x=-1e308), det(frame=1, x=1e308)  # 2e308 overflows to inf
        v = VideoDetections("v", SHAPE, 2, {0: [det(frame=0, x=-1e308)], 1: [ok] * k + [far, ok]})
        with pytest.raises(ValidationError, match=re.escape("link feature dx is not finite: inf")):
            build_tubelets(v, default_model(), 0.5)
        assert counts == {"built": 1, "scored": k}
