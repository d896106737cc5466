"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 1 is a statement rather than a computation: the published absolute
benchmark scores of the detector experiments this toolkit post-processes
require a trained detector plus proprietary video data, so they are not
reproducible at desk scale. They are replaced here by the directional and
oracle criteria 2-4 on the synthetic suite.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from tubelink import (
    BBox,
    Detection,
    FrameShape,
    IOU_THRESHOLDS,
    PipelineConfig,
    ScenarioConfig,
    Tubelet,
    TubeletEntry,
    VideoDetections,
    average_precision,
    build_tubelets,
    default_model,
    evaluate,
    evaluate_streams,
    filter_short,
    generate,
    iou,
    link_tubelets,
    match_predictions,
    nms,
    postprocess_video,
    read_detections,
    rescore,
    smooth_coordinates,
    standard_scenario,
    write_detections,
    write_ground_truth,
)
from tubelink.cli import main

from conftest import det, random_bbox, random_ground_truth, random_stream
from test_evaluation import ap_oracle, match_oracle


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_absolute_scores_out_of_scope():
    """Absolute mAP scores from the original detector experiments need
    external models and data; criteria 2-4 stand in as directional and
    oracle-based checks on synthetic streams."""
    report(1, "absolute benchmark scores replaced by criteria 2-4 (statement)")


def test_criterion_2_directional_ablation():
    """On the standard suite the pipeline stages must improve mean mAP50 in
    order, by at least 2 percentage points overall, within 30 seconds."""
    t0 = time.perf_counter()
    base_scores, repp_scores, full_scores = [], [], []
    for seed in range(10):
        gt, dets = generate(standard_scenario(seed))
        base_scores.append(evaluate(dets, gt).map50)
        repp_out, _ = postprocess_video(dets, PipelineConfig(tubelet_link=False))
        repp_scores.append(evaluate(repp_out, gt).map50)
        full_out, _ = postprocess_video(dets, PipelineConfig())
        full_scores.append(evaluate(full_out, gt).map50)
    elapsed = time.perf_counter() - t0
    base = float(np.mean(base_scores))
    repp = float(np.mean(repp_scores))
    full = float(np.mean(full_scores))
    assert base < repp < full
    assert full - base >= 0.02
    assert elapsed < 30.0
    report(2, f"mean mAP50 {base:.4f} < {repp:.4f} < {full:.4f} "
              f"(+{100 * (full - base):.1f} points) in {elapsed:.1f}s")


def test_criterion_3_evaluator_oracle_equivalence():
    """average_precision matches a brute-force 101-point AP on tiny fixtures
    at 1e-9; match_predictions matches an exhaustive greedy trace on all
    configurations of up to 4 predictions x 4 gt boxes."""
    rng = np.random.default_rng(31)
    ap_cases = 0
    for num_gt in (1, 2, 3, 4, 5):
        for n in range(6):
            for _ in range(10):
                scored = [
                    (float(rng.uniform(0, 1)), bool(rng.random() < 0.5))
                    for _ in range(n)
                ]
                assert average_precision(scored, num_gt) == pytest.approx(
                    ap_oracle(scored, num_gt), abs=1e-9
                )
                ap_cases += 1

    match_cases = 0
    for n_pred in range(5):
        for n_gt in range(5):
            for _ in range(30):
                preds = [
                    det(x=float(rng.uniform(0, 40)), y=float(rng.uniform(0, 40)),
                        w=float(rng.uniform(5, 35)), h=float(rng.uniform(5, 35)),
                        score=float(rng.uniform(0, 1)))
                    for _ in range(n_pred)
                ]
                gts = [random_bbox(rng, 0, 40, 5, 35) for _ in range(n_gt)]
                for t in (0.3, 0.5, 0.75):
                    assert match_predictions(preds, gts, t) == match_oracle(preds, gts, t)
                    match_cases += 1
    report(3, f"AP oracle agreement on {ap_cases} cases at 1e-9; "
              f"matcher trace agreement on {match_cases} configurations")


def _burst_stream(num_tracks, frames, L, shape):
    """Far-apart constant-velocity tracks, one L-frame dropout per track at
    staggered positions, deterministic varying scores."""
    origins = [(120 + 520 * (k % 3), 120 + 400 * (k // 3)) for k in range(num_tracks)]
    starts = {k: 18 + 4 * k for k in range(num_tracks)}

    def score(k, f):
        return 0.5 + 0.3 * ((f * 7 + k * 13) % 10) / 10

    frame_map = {f: [] for f in range(frames)}
    for f in range(frames):
        for k, (ox, oy) in enumerate(origins):
            if starts[k] <= f < starts[k] + L:
                continue
            frame_map[f].append(
                Detection(f, 0, BBox(ox + 1.5 * f, oy + 0.8 * f, 40, 40), score(k, f))
            )
    v = VideoDetections("burst", shape, frames, frame_map)
    return v, starts, score


def test_criterion_4_burst_recovery():
    """Clean tracks with one L-frame dropout each: the pipeline restores
    exactly num_tracks contiguous tubelets iff g_max >= L, and synthesized
    scores equal the average of the fragment means to 1e-9."""
    shape = FrameShape(1280, 720)
    model = default_model()
    num_tracks, frames = 4, 64
    checked_scores = 0
    for L in (2, 5, 8):
        v, starts, score_fn = _burst_stream(num_tracks, frames, L, shape)

        def run_pipeline(g_max):
            ts = build_tubelets(v, model)
            ts = [smooth_coordinates(rescore(t, 0.5), 5) for t in ts]
            ts = filter_short(ts, 2)
            return link_tubelets(ts, model, g_max, 0.5, shape)

        merged = run_pipeline(L)
        assert len(merged) == num_tracks
        for t in merged:
            fs = [e.frame_idx for e in t.entries]
            assert fs == list(range(fs[0], fs[0] + len(fs)))  # contiguous

        unmerged = run_pipeline(L - 1)
        assert len(unmerged) == 2 * num_tracks

        # interpolated confidences: average of the two fragments' mean scores
        for t in merged:
            interp = [e for e in t.entries if e.interpolated]
            assert len(interp) == L
            k = next(k for k, s in starts.items() if interp[0].frame_idx == s)
            mean_a = float(np.mean([score_fn(k, f) for f in range(0, starts[k])]))
            mean_b = float(np.mean(
                [score_fn(k, f) for f in range(starts[k] + L, frames)]
            ))
            expected = (mean_a + mean_b) / 2
            for e in interp:
                assert abs(e.score - expected) <= 1e-9
                checked_scores += 1
    report(4, f"recovery holds for L in (2, 5, 8) at both g_max sides; "
              f"{checked_scores} interpolated scores within 1e-9")


def test_criterion_5_invariant_suites():
    """Property suites, >= 1000 random cases each at fixed seeds."""
    model = default_model()
    cases = 1000

    # IoU symmetry / bounds / identity
    rng = np.random.default_rng(51)
    for _ in range(cases):
        a, b = random_bbox(rng), random_bbox(rng)
        v = iou(a, b)
        assert v == iou(b, a) and 0.0 <= v <= 1.0 and iou(a, a) == 1.0

    # NMS idempotence
    rng = np.random.default_rng(52)
    for _ in range(cases):
        dets = [
            det(x=float(rng.uniform(0, 50)), y=float(rng.uniform(0, 50)),
                w=float(rng.uniform(5, 30)), h=float(rng.uniform(5, 30)),
                score=float(rng.uniform(0, 1)), cls=int(rng.integers(0, 2)))
            for _ in range(int(rng.integers(0, 7)))
        ]
        once = nms(dets, 0.5)
        assert nms(once, 0.5) == once and len(once) <= len(dets)

    # tubelet partition and contiguity over tiny random streams
    rng = np.random.default_rng(53)
    for _ in range(cases):
        nf = int(rng.integers(2, 7))
        frames = {}
        for f in range(nf):
            frames[f] = [
                det(frame=f, x=float(rng.uniform(0, 200)), y=float(rng.uniform(0, 200)),
                    w=float(rng.uniform(8, 40)), h=float(rng.uniform(8, 40)),
                    score=float(rng.uniform(0.1, 1)), cls=int(rng.integers(0, 2)))
                for _ in range(int(rng.integers(0, 4)))
            ]
        v = VideoDetections("p", FrameShape(256, 256), nf, frames)
        ts = build_tubelets(v, model)
        got = sorted(
            (e.frame_idx, e.bbox.x, e.bbox.y, e.bbox.w, e.bbox.h, e.score)
            for t in ts for e in t.entries
        )
        want = sorted(
            (d.frame_idx, d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h, d.score)
            for fr in v.frames.values() for d in fr
        )
        assert got == want
        for t in ts:
            fs = [e.frame_idx for e in t.entries]
            assert fs == list(range(fs[0], fs[0] + len(fs)))

    # rescore mean preservation and variance reduction
    rng = np.random.default_rng(54)
    for _ in range(cases):
        n = int(rng.integers(1, 10))
        scores = [float(rng.uniform(0, 1)) for _ in range(n)]
        t = Tubelet(0, 0, tuple(
            TubeletEntry(k, BBox(0, 0, 5, 5), s) for k, s in enumerate(scores)
        ))
        alpha = float(rng.uniform(0, 1))
        out = rescore(t, alpha)
        assert abs(out.mean_score() - t.mean_score()) <= 1e-12
        if n > 1 and float(np.var(scores)) > 1e-12 and alpha < 1.0:
            assert float(np.var([e.score for e in out.entries])) < float(np.var(scores))

    # smoothing fixed points: window 1 always, any odd window on constant boxes
    rng = np.random.default_rng(55)
    for _ in range(cases):
        n = int(rng.integers(1, 9))
        box = random_bbox(rng)
        moving = Tubelet(0, 0, tuple(
            TubeletEntry(k, random_bbox(rng), 0.5) for k in range(n)
        ))
        assert smooth_coordinates(moving, 1) == moving
        constant = Tubelet(0, 0, tuple(
            TubeletEntry(k, box, 0.5) for k in range(n)
        ))
        window = int(rng.choice([3, 5, 7]))
        for e in smooth_coordinates(constant, window).entries:
            assert math.isclose(e.bbox.x, box.x, abs_tol=1e-9)
            assert math.isclose(e.bbox.y, box.y, abs_tol=1e-9)
            assert math.isclose(e.bbox.w, box.w, abs_tol=1e-9)
            assert math.isclose(e.bbox.h, box.h, abs_tol=1e-9)

    # AP invariance under strictly monotone score transforms
    rng = np.random.default_rng(56)
    for _ in range(cases):
        n = int(rng.integers(1, 10))
        scores = np.sort(rng.uniform(0.01, 1.0, size=n))[::-1]
        scored = [(float(s), bool(rng.random() < 0.5)) for s in scores]
        num_gt = int(rng.integers(1, 6))
        base = average_precision(scored, num_gt)
        warped = [(s ** 3, lab) for s, lab in scored]
        shifted = [(0.1 + s / 2, lab) for s, lab in scored]
        assert average_precision(warped, num_gt) == base
        assert average_precision(shifted, num_gt) == base

    # AP monotone non-increase in the IoU threshold
    rng = np.random.default_rng(424242)
    for _ in range(cases):
        nf = int(rng.integers(1, 4))
        v = random_stream(rng, frame_count=nf, max_per_frame=4, classes=1)
        g = random_ground_truth(rng, frame_count=nf, max_per_frame=4, classes=1)
        rep = evaluate_streams([(v, g)])
        for c in rep.classes:
            aps = [rep.per_class_ap[(c, t)] for t in IOU_THRESHOLDS]
            assert all(a >= b - 1e-12 for a, b in zip(aps, aps[1:]))

    # simulator bitwise determinism
    for seed in range(cases):
        cfg = ScenarioConfig(
            seed=seed, frame_count=8, num_tracks=2, drop_prob=0.2,
            burst_prob=0.1, burst_max=3, jitter_sigma=1.0, fp_rate=0.5,
        )
        assert generate(cfg) == generate(cfg)

    report(5, "eight invariant suites pass at >= 1000 cases each")


def test_criterion_6_round_trip_and_determinism(tmp_path):
    """File round trip reproduces every real within 1e-9 (it is exact), and
    the CLI pipeline is byte-identical across repeat runs and --jobs values."""
    rng = np.random.default_rng(61)
    p = tmp_path / "stream.txt"
    for k in range(300):
        v = random_stream(rng, with_appearance=(k % 3 == 0))
        write_detections(v, p)
        back = read_detections(p)
        assert back.video_id == v.video_id and back.frame_count == v.frame_count
        for f in range(v.frame_count):
            for d1, d2 in zip(v.frames[f], back.frames[f]):
                assert abs(d1.bbox.x - d2.bbox.x) <= 1e-9
                assert abs(d1.bbox.y - d2.bbox.y) <= 1e-9
                assert abs(d1.bbox.w - d2.bbox.w) <= 1e-9
                assert abs(d1.bbox.h - d2.bbox.h) <= 1e-9
                assert abs(d1.score - d2.score) <= 1e-9
                if d1.appearance is not None:
                    assert all(
                        abs(a - b) <= 1e-9
                        for a, b in zip(d1.appearance, d2.appearance)
                    )
        assert back == v  # the round trip is in fact exact

    # pipeline byte-identity across runs and --jobs
    inputs = []
    for seed in (1, 2):
        gt, dets = generate(standard_scenario(seed))
        ip = tmp_path / f"in{seed}.txt"
        write_detections(dets, ip)
        inputs.append(str(ip))
    runs = {}
    for tag, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
        outs = [str(tmp_path / f"{tag}{k}.txt") for k in range(2)]
        rc = main(["postprocess",
                   "--detections", inputs[0], "--detections", inputs[1],
                   "--out", outs[0], "--out", outs[1], "--jobs", jobs])
        assert rc == 0
        runs[tag] = [Path(o).read_bytes() for o in outs]
    assert runs["a"] == runs["b"] == runs["c"]
    report(6, "round trip exact over 300 streams; pipeline byte-identical "
              "across repeat runs and --jobs 1/2")
