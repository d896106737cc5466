import bisect
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelink import (
    BBox,
    ContractError,
    Detection,
    ScenarioConfig,
    Tubelet,
    TubeletEntry,
    ValidationError,
    VideoDetections,
    build_tubelets,
    default_model,
    generate,
    interpolate_gap,
    link_features,
    link_score,
    link_tubelets,
    tubelet_gap,
    tubelet_link_score,
)

from tubelink import geometry
from tubelink import tubelets as tubelets_module
from tubelink.similarity import one_pair_features

from conftest import SHAPE, det
from test_tubelets import ORACLE, added, tubelets
from test_similarity import (
    GATE_TAUS, large_model, oracle_tubelet_features, oracle_tubelet_link_score, random_box,
    random_model, random_tau, split_log_pair,
)

MODEL = default_model()


def tubelet(entries, cls=0, tid=0):
    return Tubelet(tid, cls, tuple(TubeletEntry(*e) for e in entries))


def run(start, length, box=None, score=0.8, cls=0, tid=0, step=0.0):
    box = box or BBox(100, 100, 40, 40)
    entries = []
    for k in range(length):
        b = BBox(box.x + step * k, box.y, box.w, box.h)
        entries.append((start + k, b, score))
    return tubelet(entries, cls=cls, tid=tid)


class TestTubeletGap:
    def test_adjacent(self):
        assert tubelet_gap(run(0, 10), run(10, 5)) == 0

    def test_three_frame_gap(self):
        assert tubelet_gap(run(0, 10), run(13, 5)) == 3

    def test_overlap_is_negative(self):
        assert tubelet_gap(run(0, 10), run(8, 5)) == -2


class TestTubeletLinkScore:
    def test_copy_to_next_frame_equals_pair_score(self):
        a = run(0, 5, score=0.7)
        b = run(5, 1, score=0.7)
        tail, head = a.entries[-1], b.entries[0]
        expected = link_score(
            MODEL,
            link_features(
                Detection(tail.frame_idx, 0, tail.bbox, tail.score),
                Detection(head.frame_idx, 0, head.bbox, head.score),
                SHAPE,
            ),
        )
        assert tubelet_link_score(a, b, MODEL, SHAPE) == expected

    def test_zero_displacement_gap_invariant(self):
        a = run(0, 5)
        assert tubelet_link_score(a, run(5, 3), MODEL, SHAPE) == pytest.approx(
            tubelet_link_score(a, run(9, 3), MODEL, SHAPE), abs=1e-12
        )

    def test_per_frame_normalization(self):
        # 6 px boxes moving 10 px/frame: both the adjacent-frame step and the
        # gap-4 jump (50 px total) are IoU-0 with the same per-frame motion,
        # so their scores coincide
        box = BBox(100, 100, 6, 6)
        a = tubelet([(k, BBox(100 + 10 * k, 100, 6, 6), 0.8) for k in range(3)])
        adjacent = tubelet([(3, BBox(130, 100, 6, 6), 0.8)])
        across = tubelet([(7, BBox(170, 100, 6, 6), 0.8)])
        s_adj = tubelet_link_score(a, adjacent, MODEL, SHAPE)
        s_far = tubelet_link_score(a, across, MODEL, SHAPE)
        assert s_adj == pytest.approx(s_far, abs=1e-12)

    def test_class_mismatch_rejected(self):
        with pytest.raises(ContractError):
            tubelet_link_score(run(0, 5, cls=0), run(6, 5, cls=1), MODEL, SHAPE)

    def test_negative_gap_rejected(self):
        with pytest.raises(ContractError):
            tubelet_link_score(run(0, 10), run(5, 5), MODEL, SHAPE)


class TestInterpolateGap:
    def test_linear_thirds(self):
        a = tubelet([(0, BBox(-15, 0, 30, 30), 0.8)])       # cx 0
        b = tubelet([(3, BBox(15, 0, 30, 30), 0.8)], tid=1)  # cx 30
        out = interpolate_gap(a, b)
        assert [e.frame_idx for e in out] == [1, 2]
        centers = [e.bbox.x + e.bbox.w / 2 for e in out]
        assert centers == pytest.approx([10.0, 20.0])

    def test_scores_average_of_tubelet_means(self):
        # fragment means 0.6 and 0.8 -> every synthesized frame scores 0.7
        a = tubelet([(0, BBox(0, 0, 10, 10), 0.5), (1, BBox(0, 0, 10, 10), 0.7)])
        b = tubelet([(5, BBox(0, 0, 10, 10), 0.9), (6, BBox(0, 0, 10, 10), 0.7)], tid=1)
        assert a.mean_score() == pytest.approx(0.6)
        assert b.mean_score() == pytest.approx(0.8)
        out = interpolate_gap(a, b)
        assert len(out) == 3
        assert all(e.score == pytest.approx(0.7, abs=1e-12) for e in out)
        assert all(e.interpolated for e in out)

    def test_endpoint_score_mode(self):
        a = tubelet([(0, BBox(0, 0, 10, 10), 0.5), (1, BBox(0, 0, 10, 10), 0.9)])
        b = tubelet([(4, BBox(0, 0, 10, 10), 0.3)], tid=1)
        out = interpolate_gap(a, b, score_mode="endpoint")
        assert all(e.score == pytest.approx((0.9 + 0.3) / 2) for e in out)

    def test_identical_boxes_copied(self):
        box = BBox(40, 40, 12, 12)
        a = tubelet([(0, box, 0.8)])
        b = tubelet([(4, box, 0.8)], tid=1)
        out = interpolate_gap(a, b)
        assert len(out) == 3
        for e in out:
            assert e.bbox.x == pytest.approx(box.x)
            assert e.bbox.w == pytest.approx(box.w)

    def test_box_that_overflows_rejected(self):
        # the centres' difference is not finite, so neither is the box between
        a = tubelet([(0, BBox(-1.6e308, 0, 1, 1), 0.8)])
        b = tubelet([(3, BBox(1.6e308, 0, 1, 1), 0.8)], tid=1)
        with pytest.raises(ValidationError, match=r"^bbox\.x must be a finite number, got inf$"):
            interpolate_gap(a, b)

    def test_adjacent_rejected(self):
        with pytest.raises(ContractError):
            interpolate_gap(run(0, 5), run(5, 5, tid=1))

    def test_unknown_score_mode(self):
        with pytest.raises(ContractError):
            interpolate_gap(run(0, 5), run(7, 5, tid=1), score_mode="max")


def oracle_interpolate_gap(a, b, score_mode="mean"):
    """The per-entry arithmetic of interpolate_gap: one entry per missing
    frame, each box and score computed on its own."""
    gap = b.start_frame - a.end_frame - 1
    tail, head = a.entries[-1], b.entries[0]
    if score_mode == "mean":
        score = (added(e.score for e in a.entries) / len(a.entries)
                 + added(e.score for e in b.entries) / len(b.entries)) / 2.0
    else:
        score = (tail.score + head.score) / 2.0
    tcx, tcy = tail.bbox.x + tail.bbox.w / 2.0, tail.bbox.y + tail.bbox.h / 2.0
    hcx, hcy = head.bbox.x + head.bbox.w / 2.0, head.bbox.y + head.bbox.h / 2.0
    out = []
    for k in range(1, gap + 1):
        t = k / (gap + 1)
        cx, cy = tcx + t * (hcx - tcx), tcy + t * (hcy - tcy)
        w = tail.bbox.w + t * (head.bbox.w - tail.bbox.w)
        h = tail.bbox.h + t * (head.bbox.h - tail.bbox.h)
        out.append(TubeletEntry(tail.frame_idx + k, BBox(cx - w / 2.0, cy - h / 2.0, w, h),
                                score, True))
    return out


class TestInterpolateGapMatchesPerEntryArithmetic:
    @ORACLE
    @given(tubelets(start=st.integers(0, 5)), tubelets(start=st.integers(46, 90)),
           st.sampled_from(["mean", "endpoint"]))
    def test_interpolate_gap(self, a, b, mode):
        assert interpolate_gap(a, b, mode) == oracle_interpolate_gap(a, b, mode)


def split_track_stream(gap_start=5, gap_len=3, frames=15):
    frame_map = {}
    for f in range(frames):
        if gap_start <= f < gap_start + gap_len:
            frame_map[f] = []
        else:
            frame_map[f] = [det(frame=f, x=100 + 2.0 * f, y=100, w=40, h=40, score=0.8)]
    return VideoDetections("v", SHAPE, frames, frame_map)


class TestLinkTubelets:
    def test_dropout_merged_within_gmax(self):
        ts = build_tubelets(split_track_stream(), MODEL)
        assert len(ts) == 2
        out = link_tubelets(ts, MODEL, g_max=5, tau_tub=0.5, shape=SHAPE)
        assert len(out) == 1
        assert out[0].start_frame == 0 and out[0].end_frame == 14
        assert sum(e.interpolated for e in out[0].entries) == 3

    def test_dropout_not_merged_beyond_gmax(self):
        ts = build_tubelets(split_track_stream(), MODEL)
        out = link_tubelets(ts, MODEL, g_max=2, tau_tub=0.5, shape=SHAPE)
        assert len(out) == 2
        assert out == ts  # untouched, ids already canonical

    def test_far_apart_objects_never_merge(self):
        a = run(0, 6, box=BBox(50, 50, 40, 40), tid=0)
        b = run(8, 6, box=BBox(1100, 600, 40, 40), tid=1)
        out = link_tubelets([a, b], MODEL, g_max=10, tau_tub=0.5, shape=SHAPE)
        assert len(out) == 2

    def test_degenerate_parameters_identity(self):
        # the largest threshold below 1, which link_score can still reach
        ts = build_tubelets(split_track_stream(), MODEL)
        out = link_tubelets(ts, MODEL, g_max=0, tau_tub=math.nextafter(1.0, 0.0), shape=SHAPE)
        assert out == ts

    @pytest.mark.parametrize("tau", [0.0, 1.0, 1.5])
    def test_threshold_outside_the_open_unit_interval_rejected(self, tau):
        # link_score stays below 1, so a threshold of 1 used to link nothing silently
        ts = build_tubelets(split_track_stream(), MODEL)
        with pytest.raises(ContractError, match=r"must be in \(0,1\)"):
            link_tubelets(ts, MODEL, g_max=5, tau_tub=tau, shape=SHAPE)
        with pytest.raises(ContractError, match=r"must be in \(0,1\)"):
            build_tubelets(split_track_stream(), MODEL, tau_link=tau)

    def test_score_equal_to_the_threshold_merges(self):
        a, b = run(0, 3), run(6, 3, tid=1, box=BBox(104, 100, 40, 44))
        s = tubelet_link_score(a, b, MODEL, SHAPE)
        assert len(link_tubelets([a, b], MODEL, 5, s, SHAPE)) == 1
        assert len(link_tubelets([a, b], MODEL, 5, math.nextafter(s, 1.0), SHAPE)) == 2

    def test_chain_collapses_transitively(self):
        # A --gap-- B --gap-- C with a shared moving box line
        frame_map = {}
        frames = 22
        holes = {5, 6, 13, 14}
        for f in range(frames):
            frame_map[f] = [] if f in holes else [
                det(frame=f, x=100 + 2.0 * f, y=100, w=40, h=40, score=0.8)
            ]
        v = VideoDetections("v", SHAPE, frames, frame_map)
        ts = build_tubelets(v, MODEL)
        assert len(ts) == 3
        out = link_tubelets(ts, MODEL, g_max=4, tau_tub=0.5, shape=SHAPE)
        assert len(out) == 1
        assert len(out[0]) == frames
        assert sum(e.interpolated for e in out[0].entries) == len(holes)

    def test_contiguity_after_linking(self):
        ts = build_tubelets(split_track_stream(), MODEL)
        for t in link_tubelets(ts, MODEL, g_max=5, tau_tub=0.5, shape=SHAPE):
            frames = [e.frame_idx for e in t.entries]
            assert frames == list(range(frames[0], frames[0] + len(frames)))

    def test_original_entries_preserved_exactly(self):
        ts = build_tubelets(split_track_stream(), MODEL)
        originals = {
            (e.frame_idx, e.bbox, e.score) for t in ts for e in t.entries
        }
        out = link_tubelets(ts, MODEL, g_max=5, tau_tub=0.5, shape=SHAPE)
        kept = {
            (e.frame_idx, e.bbox, e.score)
            for t in out for e in t.entries if not e.interpolated
        }
        assert kept == originals

    def test_interpolated_count_equals_gap_sum(self, rng):
        for seed in range(10):
            cfg = ScenarioConfig(
                seed=seed, frame_count=60, num_tracks=4,
                burst_prob=0.08, burst_max=5, tp_score_mean=0.85, tp_score_sigma=0.05,
            )
            _, dets = generate(cfg)
            ts = build_tubelets(dets, MODEL)
            out = link_tubelets(ts, MODEL, g_max=6, tau_tub=0.5, shape=SHAPE)
            merges = len(ts) - len(out)
            interpolated = sum(
                e.interpolated for t in out for e in t.entries
            )
            covered = sum(len(t) for t in out) - sum(len(t) for t in ts)
            assert interpolated == covered  # synthesized frames only fill gaps
            assert merges >= 0

    def test_gmax_monotonicity_on_simulated_streams(self):
        for seed in range(8):
            cfg = ScenarioConfig(
                seed=seed, frame_count=80, num_tracks=5,
                drop_prob=0.1, burst_prob=0.05, burst_max=6,
                jitter_sigma=1.0, tp_score_mean=0.8, tp_score_sigma=0.08,
            )
            _, dets = generate(cfg)
            ts = build_tubelets(dets, MODEL)
            accepted = []
            for g_max in (0, 2, 5, 10, 20):
                out = link_tubelets(ts, MODEL, g_max=g_max, tau_tub=0.5, shape=SHAPE)
                accepted.append(len(ts) - len(out))
            assert accepted == sorted(accepted)

    def test_duplicate_ids_rejected(self):
        a = run(0, 5, tid=3)
        b = run(8, 5, tid=3)
        with pytest.raises(ContractError):
            link_tubelets([a, b], MODEL, g_max=5, tau_tub=0.5, shape=SHAPE)

    def test_shape_required(self):
        with pytest.raises(ContractError):
            link_tubelets([run(0, 5)], MODEL, g_max=5, tau_tub=0.5, shape=None)


# ------------------------------------------- the lean path against the seed's

def oracle_link_tubelets(ts, m, g_max, tau_tub, shape, score_mode="mean"):
    """The seed's link_tubelets: every candidate scored by the seed's
    tubelet_link_score, each box's terms recomputed per pair."""
    by_id = {t.tubelet_id: t for t in ts}
    starts = sorted(ts, key=lambda t: (t.start_frame, t.tubelet_id))
    start_frames = [t.start_frame for t in starts]
    candidates = []
    for a in ts:
        lo = bisect.bisect_left(start_frames, a.end_frame + 1)
        hi = bisect.bisect_right(start_frames, a.end_frame + 1 + g_max)
        for b in starts[lo:hi]:
            if b.class_id != a.class_id or b.tubelet_id == a.tubelet_id:
                continue
            s = oracle_tubelet_link_score(a, b, m, shape)
            if s >= tau_tub:
                candidates.append((s, a.tubelet_id, b.tubelet_id))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    successor, predecessor = {}, {}
    for _, a_id, b_id in candidates:
        if a_id not in successor and b_id not in predecessor:
            successor[a_id] = b_id
            predecessor[b_id] = a_id
    merged = []
    for t in ts:
        if t.tubelet_id in predecessor:
            continue
        entries, cur = list(t.entries), t
        while cur.tubelet_id in successor:
            nxt = by_id[successor[cur.tubelet_id]]
            if tubelet_gap(cur, nxt) >= 1:
                entries.extend(interpolate_gap(cur, nxt, score_mode))
            entries.extend(nxt.entries)
            cur = nxt
        merged.append(Tubelet(t.tubelet_id, t.class_id, tuple(entries)))
    merged.sort(key=lambda t: (t.start_frame, t.entries[0].bbox.x, t.entries[0].bbox.y, t.tubelet_id))
    return [Tubelet(k, t.class_id, t.entries) for k, t in enumerate(merged)]


def random_tubelets(rng, n, frames=40, classes=2):
    """Short tubelets, half their boxes on a coarse grid: many gaps of 0..20
    frames, class mismatches and equal link scores."""
    ts = []
    for tid in range(n):
        start = int(rng.integers(0, frames))
        length = int(rng.integers(1, 4))
        entries = tuple(
            TubeletEntry(start + k, random_box(rng), float(rng.choice([0.5, 0.8])))
            for k in range(length)
        )
        ts.append(Tubelet(tid, int(rng.integers(0, classes)), entries))
    return ts


class TestLeanPathMatchesOracle:
    def test_tubelet_link_scores(self, rng):
        for _ in range(2000):
            a, b = random_tubelets(rng, 2)
            m = random_model(rng)
            if a.class_id != b.class_id or tubelet_gap(a, b) < 0:
                for scorer in (tubelet_link_score, oracle_tubelet_link_score):
                    with pytest.raises(ContractError):
                        scorer(a, b, m, SHAPE)
            else:
                assert tubelet_link_score(a, b, m, SHAPE) == oracle_tubelet_link_score(a, b, m, SHAPE)
                # the features too, which a score can round away
                tail, head = a.entries[-1], b.entries[0]
                f = one_pair_features((a.class_id, tail.bbox, tail.score, None),
                                      (b.class_id, head.bbox, head.score, None),
                                      tubelet_gap(a, b) + 1, SHAPE)
                assert f == oracle_tubelet_features(a, b, SHAPE)

    def test_size_ratio_overflow_raises_validation_error(self):
        a = tubelet([(0, BBox(0, 0, 1e-300, 1), 0.8)])
        b = tubelet([(3, BBox(0, 0, 1e300, 1), 0.8)], tid=1)
        for scorer in (tubelet_link_score, oracle_tubelet_link_score):
            with pytest.raises(ValidationError, match="log_w_ratio"):
                scorer(a, b, MODEL, SHAPE)

    def test_link_tubelets(self, rng):
        ties = 0
        for _ in range(150):
            ts = random_tubelets(rng, int(rng.integers(0, 25)))
            m, g_max = random_model(rng), int(rng.integers(0, 21))
            tau, mode = float(rng.uniform(0.05, 1.0)), str(rng.choice(["mean", "endpoint"]))
            # the same tubelets with random unique ids, in an order that is
            # neither the ids' nor the start frames': ties still go by id
            ids = rng.choice(10**6, len(ts), replace=False).tolist()
            shuffled = [Tubelet(ids[k], ts[k].class_id, ts[k].entries)
                        for k in rng.permutation(len(ts)).tolist()]
            for inputs in (ts, shuffled):
                got = link_tubelets(inputs, m, g_max, tau, SHAPE, mode)
                assert got == oracle_link_tubelets(inputs, m, g_max, tau, SHAPE, mode)
            if len(ts) > 1:
                last = shuffled[-1]
                shuffled[-1] = Tubelet(shuffled[0].tubelet_id, last.class_id, last.entries)
                with pytest.raises(ContractError, match="ids must be unique"):
                    link_tubelets(shuffled, m, g_max, tau, SHAPE, mode)
            scores = [tubelet_link_score(a, b, m, SHAPE) for a in ts for b in ts
                      if a.class_id == b.class_id and 0 <= tubelet_gap(a, b) <= g_max]
            ties += len(scores) - len(set(scores))
        assert ties > 100

    def test_build_tubelets_is_gap_0_linking(self, rng):
        # without descriptors, since link_tubelets scores no appearance
        streams = [VideoDetections("v", SHAPE, 12, {
            f: [Detection(f, int(rng.integers(0, 2)), random_box(rng), float(rng.choice([0.5, 0.8])))
                for _ in range(int(rng.integers(0, 6)))]
            for f in range(12)}) for _ in range(30)]
        streams += [generate(ScenarioConfig(
            seed=seed, frame_count=60, num_tracks=8, classes=2, drop_prob=0.15,
            jitter_sigma=2.0, fp_rate=2.0))[1] for seed in range(10)]
        for v in streams:
            m, tau = random_model(rng), float(rng.uniform(0.05, 0.95))
            dets = [d for frame in v.frames.values() for d in frame]
            singles = [Tubelet(k, d.class_id, (TubeletEntry(d.frame_idx, d.bbox, d.score),))
                       for k, d in enumerate(dets)]
            assert build_tubelets(v, m, tau) == link_tubelets(singles, m, 0, tau, v.frame_shape)

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_link_tubelets_in_small_chunks(self, rng, monkeypatch, chunk):
        monkeypatch.setattr(tubelets_module, "_PAIR_CHUNK", chunk)
        self.test_link_tubelets(rng)

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("budget", [1, 3])
    def test_link_tubelets_in_small_sweep_chunks(self, rng, monkeypatch, budget, chunk):
        # sweep chunks of 1 or 3 window pairs end between tails, and slices
        # of 1 or 3 scored pairs inside a tail's window
        monkeypatch.setattr(geometry, "PAIR_BUDGET", budget)
        self.test_link_tubelets_in_small_chunks(rng, monkeypatch, chunk)

    def test_class_ids_beyond_float64_precision_never_link_across(self, rng):
        # 2**53 and 2**53 + 1 are one float64, and 2**63 - 1 rounds to 2**63:
        # the sweep keys tails and heads by dense class ids, which it holds
        big = [2**53, 2**53 + 1, 2**63 - 1]
        crossed = 0
        for _ in range(100):
            ts = [Tubelet(t.tubelet_id, big[t.class_id], t.entries)
                  for t in random_tubelets(rng, int(rng.integers(0, 25)), classes=3)]
            m, g_max = random_model(rng), int(rng.integers(0, 21))
            tau = float(rng.uniform(0.05, 0.95))
            assert link_tubelets(ts, m, g_max, tau, SHAPE) == \
                oracle_link_tubelets(ts, m, g_max, tau, SHAPE)
            crossed += sum(a.class_id != b.class_id and 0 <= tubelet_gap(a, b) <= g_max
                           for a in ts for b in ts)
        assert crossed > 1000

    def test_three_tubelets_at_the_int64_bound_merge(self):
        # end + 1 + g_max leaves int64 here: the window must not wrap around
        top = 2**63 - 1
        ts = [run(top - 10, 1, tid=0), run(top - 5, 1, tid=1), run(top, 1, tid=2)]
        for g_max in (20, 2**63, 10**23):
            got = link_tubelets(ts, MODEL, g_max, 0.5, SHAPE)
            assert got == oracle_link_tubelets(ts, MODEL, g_max, 0.5, SHAPE)
            assert [(t.start_frame, len(t)) for t in got] == [(top - 10, 11)]

    @pytest.mark.parametrize("g_max", [1, 7, 20, 2**63 - 2, 2**63 - 1, 2**63, 10**23])
    @pytest.mark.parametrize("near", ["zero", "top"])
    def test_frames_and_gaps_at_the_int64_bound(self, rng, g_max, near):
        shift = 2**63 - 1 - 45 if near == "top" else 0
        for _ in range(20):
            ts = [Tubelet(t.tubelet_id, t.class_id, tuple(dataclasses.replace(
                e, frame_idx=e.frame_idx + shift) for e in t.entries))
                for t in random_tubelets(rng, int(rng.integers(0, 15)), frames=43)]
            m, tau = random_model(rng), float(rng.uniform(0.05, 0.95))
            assert link_tubelets(ts, m, g_max, tau, SHAPE) == \
                oracle_link_tubelets(ts, m, g_max, tau, SHAPE)

    @pytest.mark.parametrize("tau", [*GATE_TAUS, None], ids=[*map(repr, GATE_TAUS), "random"])
    def test_large_weights_of_random_signs(self, rng, tau):
        # the linker takes np.log's size ratios for the pairs whose bound
        # keeps them below tau; the merges must be those of math.log's scores
        for _ in range(60):
            ts = random_tubelets(rng, int(rng.integers(0, 25)))
            m, g_max = large_model(rng), int(rng.integers(0, 21))
            t = random_tau(rng) if tau is None else tau
            assert link_tubelets(ts, m, g_max, t, SHAPE) == \
                oracle_link_tubelets(ts, m, g_max, t, SHAPE)

    def test_a_pair_whose_logs_differ_scoring_tau(self, rng):
        m, tail, head = split_log_pair(rng)
        ts = [tubelet([(0, tail, 0.9)]), tubelet([(2, head, 0.9)], tid=1)]
        tau = oracle_tubelet_link_score(*ts, m, SHAPE)
        ends = [(np.array([f]), np.array([0]), np.array([[b.x, b.y, b.w, b.h]]), np.array([0.9]),
                 np.zeros((1, 0)), np.zeros(1, np.int64)) for f, b in ((0, tail), (2, head))]
        got = tubelets_module._link_candidates(*ends, m, 1, tau, SHAPE)
        assert [a.tolist() for a in got] == [[tau], [0], [0]]
        assert [len(t) for t in link_tubelets(ts, m, 1, tau, SHAPE)] == [3]

    def test_link_tubelets_on_simulated_streams(self):
        for seed in range(4):
            _, dets = generate(ScenarioConfig(
                seed=seed, frame_count=80, num_tracks=8, classes=2, drop_prob=0.15,
                burst_prob=0.05, burst_max=8, jitter_sigma=2.0, fp_rate=1.0))
            ts = build_tubelets(dets, MODEL)
            for g_max in (0, 5, 20):
                assert link_tubelets(ts, MODEL, g_max, 0.5, SHAPE) == \
                    oracle_link_tubelets(ts, MODEL, g_max, 0.5, SHAPE)
