import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    filter_short,
    generate,
    link_features,
    link_score,
    link_tubelets,
    rescore,
    smooth_coordinates,
)

from tubelink.tubelets import TubeletColumns, _rescore, _smooth

from conftest import SHAPE, det, random_stream
from test_simulate import time_limit

MODEL = default_model()


def greedy_oracle(frame_t, frame_t1, tau):
    """Literal trace of the greedy rule over all scored pairs."""
    scored = []
    for i, d1 in enumerate(frame_t):
        for j, d2 in enumerate(frame_t1):
            if d1.class_id != d2.class_id:
                continue
            s = link_score(MODEL, link_features(d1, d2, SHAPE))
            if s >= tau:
                scored.append((s, i, j))
    scored.sort(key=lambda p: (-p[0], p[1], p[2]))
    used_i, used_j, out = set(), set(), []
    for s, i, j in scored:
        if i not in used_i and j not in used_j:
            used_i.add(i)
            used_j.add(j)
            out.append((i, j))
    return out


def linked_pairs(frame_t, frame_t1, tau, assignment="greedy"):
    """The (i, j) index pairs that build_tubelets links on the two-frame
    stream frame_t, frame_t1, sorted. Entries map back to indices by value,
    (frame, box, score), which must tell every detection apart."""
    index = {(d.frame_idx, d.bbox, d.score): k
             for frame in (frame_t, frame_t1) for k, d in enumerate(frame)}
    assert len(index) == len(frame_t) + len(frame_t1), "two detections share a value"
    v = VideoDetections("v", SHAPE, 2, {0: frame_t, 1: frame_t1})
    return sorted(tuple(index[e.frame_idx, e.bbox, e.score] for e in t.entries)
                  for t in build_tubelets(v, MODEL, tau, assignment) if len(t) == 2)


def tubelet(entries, cls=0, tid=0):
    return Tubelet(tid, cls, tuple(TubeletEntry(*e) for e in entries))


class TestMatchFramePair:
    """The matching of one pair of consecutive frames, as build_tubelets
    makes it on a two-frame stream."""

    def test_single_identical_pair(self):
        a, b = det(frame=0), det(frame=1)
        assert linked_pairs([a], [b], 0.5) == [(0, 0)]

    def test_empty_next_frame(self):
        assert linked_pairs([det(frame=0)], [], 0.5) == []

    def test_class_mismatch_excluded(self):
        a, b = det(frame=0, cls=0), det(frame=1, cls=1)
        assert linked_pairs([a], [b], 0.5) == []

    def test_threshold_out_of_range(self):
        with pytest.raises(ContractError):
            linked_pairs([], [], 0.0)

    def test_unknown_assignment_mode(self):
        with pytest.raises(ContractError):
            linked_pairs([], [], 0.5, assignment="magic")

    def test_score_equal_to_the_threshold_links(self):
        a, b = det(frame=0, x=100), det(frame=1, x=105, w=12)
        s = link_score(MODEL, link_features(a, b, SHAPE))
        assert linked_pairs([a], [b], s) == [(0, 0)]
        assert linked_pairs([a], [b], math.nextafter(s, 1.0)) == []

    def test_matches_exhaustive_greedy_trace(self, rng):
        for _ in range(300):
            n, n1 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            frame_t = [
                det(frame=0, x=float(rng.uniform(0, 300)), y=float(rng.uniform(0, 300)),
                    w=float(rng.uniform(10, 50)), h=float(rng.uniform(10, 50)),
                    score=float(rng.uniform(0.1, 1.0)), cls=int(rng.integers(0, 2)))
                for _ in range(n)
            ]
            frame_t1 = [
                det(frame=1, x=float(rng.uniform(0, 300)), y=float(rng.uniform(0, 300)),
                    w=float(rng.uniform(10, 50)), h=float(rng.uniform(10, 50)),
                    score=float(rng.uniform(0.1, 1.0)), cls=int(rng.integers(0, 2)))
                for _ in range(n1)
            ]
            got = linked_pairs(frame_t, frame_t1, 0.3)
            assert got == sorted(greedy_oracle(frame_t, frame_t1, 0.3))

    def test_3x3_against_oracle(self, rng):
        for _ in range(100):
            frame_t = [
                det(frame=0, x=float(rng.uniform(0, 100)), y=float(rng.uniform(0, 100)),
                    score=float(rng.uniform(0.5, 1.0)))
                for _ in range(3)
            ]
            frame_t1 = [
                det(frame=1, x=float(rng.uniform(0, 100)), y=float(rng.uniform(0, 100)),
                    score=float(rng.uniform(0.5, 1.0)))
                for _ in range(3)
            ]
            got = linked_pairs(frame_t, frame_t1, 0.3)
            assert got == sorted(greedy_oracle(frame_t, frame_t1, 0.3))

    def test_exact_mode_maximizes_total_score(self, rng):
        def total(pairs, frame_t, frame_t1):
            return sum(
                link_score(MODEL, link_features(frame_t[i], frame_t1[j], SHAPE))
                for i, j in pairs
            )

        from itertools import permutations

        for _ in range(60):
            n = int(rng.integers(1, 4))
            frame_t = [
                det(frame=0, x=float(rng.uniform(0, 80)), y=float(rng.uniform(0, 80)),
                    score=float(rng.uniform(0.4, 1.0)))
                for _ in range(n)
            ]
            frame_t1 = [
                det(frame=1, x=float(rng.uniform(0, 80)), y=float(rng.uniform(0, 80)),
                    score=float(rng.uniform(0.4, 1.0)))
                for _ in range(n)
            ]
            got = linked_pairs(frame_t, frame_t1, 0.3, assignment="exact")
            # brute-force best one-to-one matching over eligible pairs
            best = 0.0
            for perm in permutations(range(n)):
                pairs = [
                    (i, j) for i, j in enumerate(perm)
                    if link_score(MODEL, link_features(frame_t[i], frame_t1[j], SHAPE)) >= 0.3
                ]
                best = max(best, total(pairs, frame_t, frame_t1))
            assert total(got, frame_t, frame_t1) == pytest.approx(best, abs=1e-9)


def moving_track_stream(frames=10, tracks=1, spacing=400.0, drop=None):
    frame_map = {}
    for f in range(frames):
        dets = []
        for k in range(tracks):
            if drop and (f, k) in drop:
                continue
            dets.append(det(frame=f, x=50 + spacing * k + 3.0 * f, y=60 + 2.0 * f, score=0.8))
        frame_map[f] = dets
    return VideoDetections("v", SHAPE, frames, frame_map)


class TestBuildTubelets:
    def test_single_smooth_track(self):
        v = moving_track_stream(10)
        ts = build_tubelets(v, MODEL)
        assert len(ts) == 1 and len(ts[0]) == 10

    def test_two_far_tracks(self):
        v = moving_track_stream(10, tracks=2)
        ts = build_tubelets(v, MODEL)
        assert len(ts) == 2 and all(len(t) == 10 for t in ts)

    def test_dropped_frame_splits(self):
        v = moving_track_stream(10, drop={(5, 0)})
        ts = build_tubelets(v, MODEL)
        assert sorted(len(t) for t in ts) == [4, 5]
        assert ts[0].start_frame == 0 and ts[1].start_frame == 6

    def test_ids_canonical_and_sequential(self, rng):
        for _ in range(20):
            v = random_stream(rng, frame_count=8)
            ts = build_tubelets(v, MODEL)
            assert [t.tubelet_id for t in ts] == list(range(len(ts)))
            keys = [(t.start_frame, t.entries[0].bbox.x, t.entries[0].bbox.y) for t in ts]
            assert keys == sorted(keys)

    def test_ties_on_start_and_corner_keep_file_order(self):
        # same frame, same top-left corner: ids follow the order in the frame
        a, b = det(frame=1, w=10, cls=0), det(frame=1, w=20, cls=1)
        for frame in ([a, b], [b, a]):
            ts = build_tubelets(VideoDetections("v", SHAPE, 3, {1: frame}), MODEL)
            assert [t.class_id for t in ts] == [d.class_id for d in frame]

    def test_partition_property(self, rng):
        def key(frame_idx, bbox, score):
            return (frame_idx, bbox.x, bbox.y, bbox.w, bbox.h, score)

        for _ in range(50):
            v = random_stream(rng, frame_count=8, max_per_frame=5)
            ts = build_tubelets(v, MODEL)
            got = sorted(key(e.frame_idx, e.bbox, e.score) for t in ts for e in t.entries)
            want = sorted(
                key(d.frame_idx, d.bbox, d.score)
                for f in v.frames.values()
                for d in f
            )
            assert got == want

    def test_contiguity_property(self, rng):
        for _ in range(50):
            v = random_stream(rng, frame_count=8, max_per_frame=5)
            for t in build_tubelets(v, MODEL):
                frames = [e.frame_idx for e in t.entries]
                assert frames == list(range(frames[0], frames[0] + len(frames)))

    def test_deterministic(self, rng):
        v = random_stream(rng, frame_count=10, max_per_frame=6)
        assert build_tubelets(v, MODEL) == build_tubelets(v, MODEL)

    def test_exact_mode_also_partitions(self, rng):
        v = random_stream(rng, frame_count=8, max_per_frame=5)
        ts = build_tubelets(v, MODEL, assignment="exact")
        total = sum(len(t) for t in ts)
        assert total == sum(len(f) for f in v.frames.values())


class TestRescore:
    def test_alpha_one_is_identity(self):
        t = tubelet([(0, BBox(0, 0, 5, 5), 0.2), (1, BBox(0, 0, 5, 5), 0.8)])
        assert rescore(t, 1.0) == t

    def test_alpha_zero_replaces_with_mean(self):
        t = tubelet([(0, BBox(0, 0, 5, 5), 0.2), (1, BBox(0, 0, 5, 5), 0.8)])
        out = rescore(t, 0.0)
        assert [e.score for e in out.entries] == [0.5, 0.5]

    def test_half_blend(self):
        t = tubelet([(0, BBox(0, 0, 5, 5), 0.2), (1, BBox(0, 0, 5, 5), 0.8)])
        out = rescore(t, 0.5)
        assert [e.score for e in out.entries] == pytest.approx([0.35, 0.65])

    def test_geometry_untouched(self):
        t = tubelet([(0, BBox(1, 2, 3, 4), 0.2), (1, BBox(5, 6, 7, 8), 0.8)])
        out = rescore(t, 0.3)
        assert [e.bbox for e in out.entries] == [e.bbox for e in t.entries]

    def test_alpha_out_of_range(self):
        t = tubelet([(0, BBox(0, 0, 5, 5), 0.2)])
        with pytest.raises(ContractError):
            rescore(t, 1.5)

    def test_mean_preserved_and_variance_reduced(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            scores = [float(rng.uniform(0, 1)) for _ in range(n)]
            t = tubelet([(k, BBox(0, 0, 5, 5), s) for k, s in enumerate(scores)])
            alpha = float(rng.uniform(0, 1))
            out = rescore(t, alpha)
            assert out.mean_score() == pytest.approx(t.mean_score(), abs=1e-12)
            if n > 1 and np.var(scores) > 1e-12 and alpha < 1.0:
                assert np.var([e.score for e in out.entries]) < np.var(scores)


class TestSmoothCoordinates:
    def test_window_one_is_identity(self):
        t = tubelet([(0, BBox(0, 0, 5, 5), 0.5), (1, BBox(10, 0, 5, 5), 0.5)])
        assert smooth_coordinates(t, 1) == t

    def test_constant_box_fixed_point(self, rng):
        for window in (1, 3, 5, 9):
            t = tubelet([(k, BBox(10, 20, 30, 40), 0.5) for k in range(7)])
            out = smooth_coordinates(t, window)
            for e in out.entries:
                assert e.bbox.x == pytest.approx(10, abs=1e-9)
                assert e.bbox.y == pytest.approx(20, abs=1e-9)
                assert e.bbox.w == pytest.approx(30, abs=1e-9)
                assert e.bbox.h == pytest.approx(40, abs=1e-9)

    def test_truncated_window_means(self):
        # centers 0, 10, 20 with window 3 -> 5, 10, 15
        t = tubelet([
            (0, BBox(-5, -5, 10, 10), 0.5),
            (1, BBox(5, -5, 10, 10), 0.5),
            (2, BBox(15, -5, 10, 10), 0.5),
        ])
        out = smooth_coordinates(t, 3)
        centers = [e.bbox.x + e.bbox.w / 2 for e in out.entries]
        assert centers == pytest.approx([5.0, 10.0, 15.0])

    def test_scores_and_flags_untouched(self):
        entries = (
            TubeletEntry(0, BBox(0, 0, 5, 5), 0.3, interpolated=True),
            TubeletEntry(1, BBox(9, 0, 5, 5), 0.7, interpolated=False),
        )
        out = smooth_coordinates(Tubelet(0, 0, entries), 3)
        assert [(e.score, e.interpolated) for e in out.entries] == [(0.3, True), (0.7, False)]

    def test_even_window_rejected(self):
        t = tubelet([(0, BBox(0, 0, 5, 5), 0.5)])
        with pytest.raises(ContractError):
            smooth_coordinates(t, 4)


def added(xs):
    """xs added left to right: the seed's sum() on Python 3.11, which is what
    tubelink computes on every version (later sum()s compensate)."""
    total = 0.0
    for x in xs:
        total += x
    return total


def oracle_rescore(t, alpha):
    """The seed's rescore, through dataclasses.replace."""
    mean = added(e.score for e in t.entries) / len(t.entries)
    entries = tuple(
        dataclasses.replace(e, score=alpha * e.score + (1.0 - alpha) * mean) for e in t.entries
    )
    return Tubelet(t.tubelet_id, t.class_id, entries)


def oracle_smooth_coordinates(t, window):
    """The seed's smooth_coordinates, through dataclasses.replace."""
    if window == 1 or len(t.entries) == 1:
        return t
    half, n = window // 2, len(t.entries)
    cx = [e.bbox.x + e.bbox.w / 2.0 for e in t.entries]
    cy = [e.bbox.y + e.bbox.h / 2.0 for e in t.entries]
    w = [e.bbox.w for e in t.entries]
    h = [e.bbox.h for e in t.entries]
    entries = []
    for k, e in enumerate(t.entries):
        lo, hi = max(0, k - half), min(n, k + half + 1)
        span = hi - lo
        mcx, mcy = added(cx[lo:hi]) / span, added(cy[lo:hi]) / span
        mw, mh = added(w[lo:hi]) / span, added(h[lo:hi]) / span
        entries.append(dataclasses.replace(e, bbox=BBox(mcx - mw / 2.0, mcy - mh / 2.0, mw, mh)))
    return Tubelet(t.tubelet_id, t.class_id, tuple(entries))


def random_tubelet(rng):
    """1 to 40 entries: scores that tie or are drawn freely, boxes that
    repeat or wander, some entries interpolated."""
    start, n = int(rng.integers(0, 50)), int(rng.integers(1, 41))
    entries = []
    for k in range(n):
        if rng.random() < 0.3:
            box = BBox(8.0, 16.0, 24.0, 32.0)
        else:
            box = BBox(*(float(v) for v in rng.uniform(-50.0, 500.0, 2)),
                       *(float(v) for v in rng.uniform(0.5, 90.0, 2)))
        score = 0.5 if rng.random() < 0.3 else float(rng.uniform())
        entries.append(TubeletEntry(start + k, box, score, bool(rng.random() < 0.2)))
    return Tubelet(int(rng.integers(0, 9)), int(rng.integers(0, 3)), tuple(entries))


class TestRefinementMatchesReplace:
    """rescore and smooth_coordinates build their entries directly; the
    values equal the seed's dataclasses.replace versions exactly."""

    def test_rescore(self, rng):
        for _ in range(300):
            t, alpha = random_tubelet(rng), float(rng.choice([0.0, 0.5, 1.0, rng.uniform()]))
            assert rescore(t, alpha) == oracle_rescore(t, alpha)

    @pytest.mark.parametrize("window", [1, 3, 5, 9, 41])
    def test_smooth_coordinates(self, rng, window):
        for _ in range(200):
            t = random_tubelet(rng)
            assert smooth_coordinates(t, window) == oracle_smooth_coordinates(t, window)


# Hypothesis-drawn tubelets: coordinates that tie or are drawn freely, boxes
# that repeat, scores at 0, 1/2, 1 or anywhere in [0, 1], interpolated flags
COORD = st.one_of(st.sampled_from([0.0, 8.0, -0.5]), st.floats(-1e5, 1e5))
SIZE = st.one_of(st.sampled_from([1.0, 24.0]), st.floats(1e-3, 1e4))
BOX = st.one_of(st.just(BBox(8.0, 16.0, 24.0, 32.0)), st.builds(BBox, COORD, COORD, SIZE, SIZE))
SCORE = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
ORACLE = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def tubelets(draw, start=st.integers(0, 50)):
    first = draw(start)
    entries = draw(st.lists(st.tuples(BOX, SCORE, st.booleans()), min_size=1, max_size=40))
    return Tubelet(draw(st.integers(0, 9)), draw(st.integers(0, 3)), tuple(
        TubeletEntry(first + k, box, score, flag) for k, (box, score, flag) in enumerate(entries)))


class TestRefinementMatchesPerEntryArithmetic:
    """rescore and smooth_coordinates give, value for value, what the
    per-entry arithmetic of the oracles above gives."""

    @ORACLE
    @given(tubelets(), st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
    def test_rescore(self, t, alpha):
        assert rescore(t, alpha) == oracle_rescore(t, alpha)

    @ORACLE
    @given(tubelets(), st.sampled_from([1, 3, 5, 7, 9, 41]))
    def test_smooth_coordinates(self, t, window):
        assert smooth_coordinates(t, window) == oracle_smooth_coordinates(t, window)


class TestBatchedRefinementMatchesPerTubelet:
    """The array core refines all tubelets at once; each tubelet's values are
    the oracles' of that tubelet alone, windows never reaching across."""

    @ORACLE
    @given(st.lists(tubelets(), max_size=6), st.sampled_from([0.0, 0.3, 1.0]),
           st.sampled_from([1, 3, 5, 9]))
    # a one-entry tubelet keeps its box: (0.1 + 0.35) - 0.35 is not 0.1
    @example([Tubelet(0, 0, (TubeletEntry(4, BBox(0.1, 0.1, 0.7, 0.7), 0.5),))], 0.3, 5)
    def test_rescore_and_smooth(self, ts, alpha, window):
        t = TubeletColumns.of(ts)
        assert _rescore(t, alpha).tolist() == [
            e.score for x in ts for e in oracle_rescore(x, alpha).entries]
        assert _smooth(t, window).tolist() == [
            [e.bbox.x, e.bbox.y, e.bbox.w, e.bbox.h]
            for x in ts for e in oracle_smooth_coordinates(x, window).entries]


    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(tubelets(), min_size=1, max_size=6))
    def test_window_beyond_the_longest_tubelet(self, ts):
        # the offsets of the window run over the longest tubelet, not the window
        t = TubeletColumns.of(ts)
        with time_limit(10):
            assert _smooth(t, 10**9 + 1).tolist() == _smooth(t, 2 * int(t.length.max()) + 1).tolist()


class TestFilterShort:
    def test_min_len_one_is_identity(self):
        ts = [tubelet([(0, BBox(0, 0, 5, 5), 0.5)], tid=0)]
        assert filter_short(ts, 1) == ts

    def test_drops_short(self):
        t1 = tubelet([(0, BBox(0, 0, 5, 5), 0.5)], tid=0)
        t5 = tubelet([(k, BBox(0, 0, 5, 5), 0.5) for k in range(5)], tid=1)
        assert filter_short([t1, t5], 2) == [t5]

    def test_min_len_zero_rejected(self):
        with pytest.raises(ContractError):
            filter_short([], 0)

    def test_removes_simulated_false_positives(self):
        # clean tracks plus injected false positives; with no jitter a true
        # detection's box coincides exactly with its ground-truth box
        cfg = ScenarioConfig(
            seed=11, frame_count=40, num_tracks=4, fp_rate=1.0,
            jitter_sigma=0.0, drop_prob=0.0, tp_score_mean=0.9, tp_score_sigma=0.05,
        )
        gt, dets = generate(cfg)
        true_boxes = {
            (f, b.bbox) for f in range(cfg.frame_count) for b in gt.frames[f]
        }
        ts = build_tubelets(dets, MODEL)
        kept = filter_short(ts, 3)
        # all true tracks retained in full
        true_kept = [
            t for t in kept
            if all((e.frame_idx, e.bbox) in true_boxes for e in t.entries)
        ]
        assert len(true_kept) == cfg.num_tracks
        assert all(len(t) == cfg.frame_count for t in true_kept)
        # every kept tubelet that contains a false positive is short-lived noise;
        # none of the purely false tubelets survive the length filter
        for t in kept:
            fp_entries = [e for e in t.entries if (e.frame_idx, e.bbox) not in true_boxes]
            assert len(fp_entries) == 0 or len(t) >= 3


class TestTubeletInvariants:
    def test_hole_rejected(self):
        entries = (
            TubeletEntry(0, BBox(0, 0, 5, 5), 0.5),
            TubeletEntry(2, BBox(0, 0, 5, 5), 0.5),
        )
        with pytest.raises(ValidationError, match="hole"):
            Tubelet(0, 0, entries)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Tubelet(0, 0, ())

    @pytest.mark.parametrize("frame, score, message", [
        (-1, 0.5, "^frame_idx must be >= 0, got -1$"),
        (0, 1.5, r"^score out of \[0,1\]: 1.5$"),
        (0, math.nan, r"^score out of \[0,1\]: nan$"),
    ])
    def test_entry_frame_and_score_rejected(self, frame, score, message):
        with pytest.raises(ValidationError, match=message):
            TubeletEntry(frame, BBox(0, 0, 5, 5), score)

    def test_negative_class_rejected(self):
        # tubelet_link_score used to catch this only by building a Detection
        with pytest.raises(ValidationError, match="class_id"):
            Tubelet(0, -1, (TubeletEntry(0, BBox(0, 0, 5, 5), 0.5),))

    @pytest.mark.parametrize("tubelet_id", ["x", True, 1.5, 2.0, None])
    def test_tubelet_id_must_be_an_integer(self, tubelet_id):
        # mixed id types made link_tubelets and tubelets_to_detections raise a bare TypeError
        with pytest.raises(ValidationError, match=f"^tubelet_id must be an integer, got "
                                                  f"{re.escape(repr(tubelet_id))}$"):
            Tubelet(tubelet_id, 0, (TubeletEntry(0, BBox(0, 0, 5, 5), 0.5),))

    @pytest.mark.parametrize("tubelet_id", [-2 ** 70, -1, 2 ** 63, 2 ** 70, np.int64(7)])
    def test_tubelet_id_of_any_size_is_taken(self, tubelet_id):
        entries = (TubeletEntry(0, BBox(0, 0, 5, 5), 0.5),)
        assert Tubelet(tubelet_id, 0, entries).tubelet_id == tubelet_id

    def test_class_and_frame_beyond_int64_rejected(self):
        # both are int64 columns in TubeletColumns: a larger value used to
        # escape every stage as a raw OverflowError
        box = BBox(0, 0, 5, 5)
        with pytest.raises(ValidationError, match=r"^class_id must be at most 2\*\*63 - 1, got "
                                                  f"{2 ** 63}$"):
            Tubelet(0, 2 ** 63, (TubeletEntry(0, box, 0.5),))
        with pytest.raises(ValidationError, match=r"^frame_idx must be at most 2\*\*63 - 1, got "
                                                  f"{2 ** 63}$"):
            TubeletEntry(2 ** 63, box, 0.5)
        with pytest.raises(ValidationError, match="frame_idx must be at most"):
            Tubelet(0, 0, (TubeletEntry(2 ** 63 - 1, box, 0.5), TubeletEntry(2 ** 63, box, 0.5)))

    def test_largest_class_and_frame_pass_every_stage(self):
        top = 2 ** 63 - 1
        box = BBox(0, 0, 5, 5)
        t = Tubelet(0, top, (TubeletEntry(top - 1, box, 0.4), TubeletEntry(top, box, 0.6)))
        assert (t.class_id, t.end_frame) == (top, top)
        assert rescore(t, 0.0).entries[1] == TubeletEntry(top, box, t.mean_score())
        assert smooth_coordinates(t, 3) == t
        assert link_tubelets([t], MODEL, 20, 0.5, SHAPE) == [t]
