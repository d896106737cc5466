import os
import re
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

from tubelink import (
    ContractError,
    PipelineConfig,
    postprocess_video,
    read_detections,
    read_detections_with_ids,
    standard_scenario,
    generate,
    write_detections,
    write_ground_truth,
)
from tubelink import cli, io
from tubelink.cli import main
from tubelink.io import MAX_FRAME_COUNT

from conftest import line_by_line, random_stream, read_in_bulk
from test_simulate import time_limit

SRC = Path(__file__).resolve().parents[1] / "src"
# two valid boxes in consecutive frames whose intersection overflows a float
HUGE_BOXES = "0 0 0 0 1e200 1e200 0.9\n1 0 0 0 1e200 1e200 0.9\n"


def python(*argv, cwd=None):
    """Run a fresh interpreter that imports tubelink from src/."""
    return subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)


def write_scenario(tmp_path, seed=0, **overrides):
    import dataclasses

    cfg = dataclasses.replace(standard_scenario(seed), **overrides)
    gt, dets = generate(cfg)
    gt_path = tmp_path / f"gt{seed}.txt"
    det_path = tmp_path / f"raw{seed}.txt"
    write_ground_truth(gt, gt_path)
    write_detections(dets, det_path)
    return cfg, gt_path, det_path


class TestPostprocessVideo:
    def test_identity_when_all_stages_off(self, rng):
        v = random_stream(rng, frame_count=6)
        out, ids = postprocess_video(v, PipelineConfig(repp=False, tubelet_link=False))
        assert out == v and ids is None

    def test_output_is_valid_stream(self, tmp_path):
        cfg, _, det_path = write_scenario(tmp_path, seed=2, frame_count=80)
        stream = read_detections(det_path)
        out, ids = postprocess_video(stream, PipelineConfig())
        p = tmp_path / "out.txt"
        write_detections(out, p, ids)
        back, back_ids = read_detections_with_ids(p)
        assert back == out and back_ids == ids

    def test_ids_are_stored_like_frames(self, rng):
        v = random_stream(rng, frame_count=12)
        out, ids = postprocess_video(v, PipelineConfig(min_len=1, tubelet_link=False))
        empty = [f for f in range(12) if not out.frames[f]]
        assert empty and all(ids[f] == [] for f in empty)
        assert list(ids) == list(out.frames)  # reading an empty frame stored nothing

    def test_nms_stage(self, rng):
        from conftest import SHAPE, det
        from tubelink import VideoDetections

        dup = [det(score=0.9), det(score=0.8)]
        v = VideoDetections("v", SHAPE, 1, {0: dup})
        out, _ = postprocess_video(
            v, PipelineConfig(nms_iou=0.5, repp=False, tubelet_link=False)
        )
        assert out.frames[0] == [dup[0]]

    def test_tubelet_ids_of_any_size_flatten(self):
        from conftest import SHAPE
        from tubelink import BBox, Tubelet, TubeletEntry, VideoDetections, tubelets_to_detections

        ts = [Tubelet(i, 0, (TubeletEntry(1, BBox(i % 7, 0, 5, 5), 0.5),)) for i in (2 ** 70, 3)]
        out, ids = tubelets_to_detections(ts, VideoDetections("v", SHAPE, 2, {}))
        assert ids == {1: [3, 2 ** 70]}
        assert [d.bbox.x for d in out.frames[1]] == [3.0, float(2 ** 70 % 7)]
        with pytest.raises(ContractError,
                           match="^tubelet 3 reaches frame 1 beyond the video's 1 frames$"):
            tubelets_to_detections(ts, VideoDetections("v", SHAPE, 1, {}))

    def test_link_without_refinement(self, tmp_path):
        # tubelet linking alone still needs tubelets built underneath
        cfg, _, det_path = write_scenario(
            tmp_path, seed=5, frame_count=60, drop_prob=0.0, jitter_sigma=0.0,
            fp_rate=0.0, burst_prob=0.05, burst_max=5, tp_score_sigma=0.0,
        )
        stream = read_detections(det_path)
        out, ids = postprocess_video(stream, PipelineConfig(repp=False))
        assert ids is not None
        tubelets = {t for frame in ids.values() for t in frame}
        assert len(tubelets) == cfg.num_tracks
        # counting synthesized entries: the output can only have gained detections
        assert sum(len(f) for f in out.frames.values()) >= sum(
            len(f) for f in stream.frames.values()
        )


class TestCliSimulate:
    def test_deterministic_files(self, tmp_path, capsys):
        args = ["simulate", "--seed", "7", "--frame-count", "40"]
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        for d in (a, b):
            rc = main(args + ["--ground-truth", str(d / "gt.txt"),
                              "--detections", str(d / "det.txt")])
            assert rc == 0
        assert (a / "gt.txt").read_bytes() == (b / "gt.txt").read_bytes()
        assert (a / "det.txt").read_bytes() == (b / "det.txt").read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "scenario.txt"
        cfg_file.write_text("seed = 3\nframe_count = 25\nnum_tracks = 2\n")
        rc = main([
            "simulate", "--config", str(cfg_file), "--seed", "9",
            "--ground-truth", str(tmp_path / "gt.txt"),
            "--detections", str(tmp_path / "det.txt"),
        ])
        assert rc == 0
        echo = capsys.readouterr().out
        assert "seed = 9" in echo          # flag wins
        assert "frame_count = 25" in echo  # file value kept
        v = read_detections(tmp_path / "det.txt")
        assert v.frame_count == 25

    def test_bad_flag_value_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["simulate", "--drop-prob", "2.0",
                  "--ground-truth", "g", "--detections", "d"])
        assert e.value.code == 2

    def test_invalid_scenario_is_data_error(self, tmp_path, capsys):
        # each flag is in range; only the rule across fields fails
        rc = main(["simulate", "--box-min", "50", "--box-max", "40",
                   "--ground-truth", str(tmp_path / "g"),
                   "--detections", str(tmp_path / "d")])
        assert rc == 1
        assert capsys.readouterr().err == "error: need box_min <= box_max, got 50.0..40.0\n"


class TestCliPostprocess:
    def test_identity_pipeline_round_trips_bytes(self, tmp_path, capsys):
        _, _, det_path = write_scenario(tmp_path, seed=1, frame_count=50)
        out = tmp_path / "out.txt"
        rc = main(["postprocess", "--detections", str(det_path), "--out", str(out),
                   "--no-repp", "--no-tubelet-link"])
        assert rc == 0
        assert out.read_bytes() == det_path.read_bytes()

    @pytest.mark.parametrize("body, message", [
        # the size ratio 1e-600 underflows to 0: math.log used to raise a bare
        # ValueError, printed as a traceback
        ("0 0 1 1 1e300 1 0.9\n1 0 1 1 1e-300 1 0.9\n", "log size ratio is not finite"),
        ("0 0 1 1 1e-300 1 0.9\n1 0 1 1 1e300 1 0.9\n", "log_w_ratio is not finite"),
    ])
    def test_extreme_size_ratio_is_a_data_error(self, tmp_path, capsys, body, message):
        det_path = tmp_path / "raw.txt"
        det_path.write_text("#video v 100 100 2\n" + body)
        rc = main(["postprocess", "--detections", str(det_path), "--out", str(tmp_path / "o.txt")])
        assert rc == 1
        assert f"error: link feature {message}" in capsys.readouterr().err

    def test_unbounded_gap_and_window(self, tmp_path):
        # over 300 frames, no gap exceeds 298 frames and no tubelet 300: the
        # largest settings give the bytes of these, in bounded time
        _, _, det_path = write_scenario(tmp_path, seed=2)
        outs = []
        for g_max, window in (("300", "601"), (str(10**23), str(10**9 + 1))):
            out = tmp_path / f"out{len(outs)}.txt"
            with time_limit(30):
                assert main(["postprocess", "--detections", str(det_path), "--out", str(out),
                             "--g-max", g_max, "--smooth-window", window]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_boxes_whose_intersection_underflows(self, tmp_path, capsys):
        # 1e-200 * 1e-200 rounds to 0: the IoU divided 0 by 0, a traceback
        det_path = tmp_path / "raw.txt"
        det_path.write_text("#video v 100 100 2\n0 0 0 0 1e-200 1e-200 0.9\n"
                            "1 0 0 0 1e-200 1e-200 0.9\n")
        argv = ["postprocess", "--detections", str(det_path), "--out", str(tmp_path / "o.txt")]
        assert main(argv + ["--nms-iou", "0.5"]) == 0

    def test_boxes_whose_intersection_overflows(self, tmp_path, capsys):
        # 1e200 * 1e200 is inf: the IoU was NaN, so linking failed on a NaN
        # feature and NMS printed numpy's RuntimeWarnings. A fresh process for
        # NMS, so that stderr holds any warning.
        raw, linked, twins = tmp_path / "raw.txt", tmp_path / "linked.txt", tmp_path / "twins.txt"
        raw.write_text("#video v 100 100 2\n" + HUGE_BOXES)
        assert main(["postprocess", "--detections", str(raw), "--out", str(linked)]) == 0
        _, ids = read_detections_with_ids(linked)
        assert ids == {0: [0], 1: [0]}
        (tmp_path / "dup.txt").write_text("#video v 100 100 1\n" + 2 * "0 0 0 0 1e200 1e200 0.9\n")
        done = python("-m", "tubelink", "postprocess", "--detections", str(tmp_path / "dup.txt"),
                      "--out", str(twins), "--nms-iou", "0.5", "--no-repp", "--no-tubelet-link")
        assert (done.returncode, done.stderr) == (0, "")
        assert len(read_detections(twins).frames[0]) == 1

    def test_boxes_whose_corners_overflow(self, tmp_path):
        # x + w is inf: the IoU was NaN, NMS printed numpy's RuntimeWarning and
        # linking failed on a NaN feature. A fresh process, so that stderr
        # holds any warning.
        det_path = tmp_path / "raw.txt"
        det_path.write_text("#video v 100 100 2\n0 0 1e308 0 1e308 5 0.9\n"
                            "0 0 1e308 0 1e308 5 0.9\n1 0 1e308 0 1e308 5 0.9\n")
        done = python("-m", "tubelink", "postprocess", "--detections", str(det_path),
                      "--out", str(tmp_path / "o.txt"), "--nms-iou", "0.5")
        assert done.returncode == 1
        assert f"error: {det_path}:2: bbox corner is not finite" in done.stderr
        assert "RuntimeWarning" not in done.stderr

    def test_smoothed_box_that_overflows_is_a_data_error(self, tmp_path, capsys):
        # each box's corner is finite, but the sum of their centres is not:
        # the smoothed box is rejected as BBox rejects it, not written as inf
        det_path = tmp_path / "raw.txt"
        det_path.write_text("#video v 100 100 2\n0 0 1.6e308 0 1e307 5 0.9\n"
                            "1 0 1.6e308 0 1e307 5 0.9\n")
        rc = main(["postprocess", "--detections", str(det_path), "--out", str(tmp_path / "o.txt")])
        assert rc == 1
        assert capsys.readouterr().err == "error: bbox field x is not finite: inf\n"

    def test_descriptor_lengths_differ_is_a_data_error(self, tmp_path, capsys):
        # found by tests/test_fuzz_readers.py: np.dot's shape ValueError used
        # to escape as a traceback
        det_path = tmp_path / "raw.txt"
        det_path.write_text("#video v 100 100 2\n0 0 1 1 5 5 0.5 1\n1 0 1 1 5 5 0.5 0.6 0.8\n")
        rc = main(["postprocess", "--detections", str(det_path), "--out", str(tmp_path / "o.txt")])
        assert rc == 1
        assert "error: descriptor lengths differ: 1 and 2" in capsys.readouterr().err

    def test_config_file_not_utf8(self, tmp_path, capsys):
        _, _, det_path = write_scenario(tmp_path, seed=1, frame_count=5)
        cfg = tmp_path / "pp.txt"
        cfg.write_bytes(b"alpha = 0.5 \xfe\n")
        rc = main(["postprocess", "--config", str(cfg), "--detections", str(det_path),
                   "--out", str(tmp_path / "o.txt")])
        assert rc == 1
        assert f"error: {cfg}: not UTF-8 text" in capsys.readouterr().err

    def test_full_pipeline_reruns_byte_identical(self, tmp_path, capsys):
        _, _, det_path = write_scenario(tmp_path, seed=1, frame_count=50)
        out1, out2 = tmp_path / "o1.txt", tmp_path / "o2.txt"
        assert main(["postprocess", "--detections", str(det_path), "--out", str(out1)]) == 0
        assert main(["postprocess", "--detections", str(det_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_jobs_do_not_change_output(self, tmp_path, capsys):
        _, _, p1 = write_scenario(tmp_path, seed=1, frame_count=40)
        _, _, p2 = write_scenario(tmp_path, seed=2, frame_count=40)
        seq = [tmp_path / "s1.txt", tmp_path / "s2.txt"]
        par = [tmp_path / "p1.txt", tmp_path / "p2.txt"]
        assert main(["postprocess", "--detections", str(p1), "--detections", str(p2),
                     "--out", str(seq[0]), "--out", str(seq[1]), "--jobs", "1"]) == 0
        assert main(["postprocess", "--detections", str(p1), "--detections", str(p2),
                     "--out", str(par[0]), "--out", str(par[1]), "--jobs", "2"]) == 0
        for s, p in zip(seq, par):
            assert s.read_bytes() == p.read_bytes()

    def test_a_failing_video_leaves_the_files_of_jobs_1(self, tmp_path, capsys, monkeypatch):
        # b holds a score of 1.5, and c writes over its own input: for every
        # --jobs the run stops at b, with a written and c untouched
        inputs = {}
        for name, seed in (("a", 1), ("b", 2), ("c", 3)):
            _, _, p = write_scenario(tmp_path, seed=seed, frame_count=30)
            inputs[f"{name}.txt"] = p.read_bytes()
        inputs["b.txt"] += b"3 0 1 1 5 5 1.5\n"
        runs = []
        for jobs in ("1", "3"):
            d = tmp_path / f"jobs{jobs}"
            d.mkdir()
            for name, text in inputs.items():
                (d / name).write_bytes(text)
            monkeypatch.chdir(d)
            code = main(["postprocess", "--jobs", jobs, "--detections", "a.txt", "--out", "a.out",
                         "--detections", "b.txt", "--out", "b.out",
                         "--detections", "c.txt", "--out", "c.txt"])
            files = {p.name: p.read_bytes() for p in d.iterdir()}
            runs.append((code, capsys.readouterr(), files))
        assert runs[0] == runs[1]
        code, printed, files = runs[0]
        assert code == 1 and printed.out.startswith("sim-1: ") and printed.out.count("\n") == 1
        assert printed.err.startswith("error: b.txt:") and "score out of [0,1]: 1.5" in printed.err
        assert files.keys() == {"a.txt", "b.txt", "c.txt", "a.out"}
        assert files["c.txt"] == inputs["c.txt"]

    def test_at_most_one_video_per_worker_is_computed_ahead(self, tmp_path, capsys,
                                                           monkeypatch):
        # results wait in memory until they are written: at most one per worker
        ahead, most = [], []

        class CountingPool:
            """Runs each task in this process and counts the results not yet taken."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                ahead.append(fut)
                most.append(len(ahead))
                take = fut.result
                fut.result = lambda: ahead.remove(fut) or take()
                return fut

        monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        _, _, det_path = write_scenario(tmp_path, seed=1, frame_count=10)
        argv = ["postprocess", "--jobs", "2"]
        for k in range(5):
            argv += ["--detections", str(det_path), "--out", str(tmp_path / f"o{k}.txt")]
        assert main(argv) == 0
        assert max(most) == 2 and not ahead
        assert len(capsys.readouterr().out.splitlines()) == 5

    @pytest.mark.parametrize("jobs, cpus, workers", [
        (64, 8, 3),   # capped by the number of inputs
        (2, 8, 2),    # as asked
        (64, 2, 2),   # capped by the CPU count
        (4, None, 1),  # CPU count unknown
    ])
    def test_jobs_pool_is_capped(self, tmp_path, capsys, monkeypatch, jobs, cpus, workers):
        seen = []

        class InlinePool:
            """Runs each task in this process and records the pool size."""

            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        argv = ["postprocess", "--jobs", str(jobs)]
        for k in range(3):
            _, _, det_path = write_scenario(tmp_path, seed=k, frame_count=10)
            argv += ["--detections", str(det_path), "--out", str(tmp_path / f"o{k}.txt")]
        assert main(argv) == 0
        assert seen == [workers]
        assert all((tmp_path / f"o{k}.txt").exists() for k in range(3))

    @pytest.mark.parametrize("tubelet_id", [2 ** 63, -1])
    def test_any_tubelet_id_takes_the_column_path(self, tmp_path, capsys, monkeypatch,
                                                   tubelet_id):
        # the ids of a #tubelets file are read as read_detections reads them,
        # and neither postprocess nor eval uses them
        det_path, gt_path = tmp_path / "d.txt", tmp_path / "g.txt"
        det_path.write_text(f"#video v 100 100 3\n#tubelets\n0 0 1 1 5 5 0.5 {tubelet_id}\n"
                            f"1 0 1 1 5 5 0.7 {tubelet_id}\n2 1 9 9 5 5 0.6 3\n")
        gt_path.write_text("#video v 100 100 3\n0 0 0 1 1 5 5\n")
        want = tmp_path / "want.txt"
        refined, ids = postprocess_video(read_detections(det_path))
        write_detections(refined, want, ids)

        def refuse(path):
            raise AssertionError(f"{path} was read into objects")

        monkeypatch.setattr(io, "read_detections", refuse)
        monkeypatch.setattr(io, "read_ground_truth", refuse)
        out = tmp_path / "out.txt"
        assert main(["postprocess", "--detections", str(det_path), "--out", str(out)]) == 0
        assert out.read_bytes() == want.read_bytes()
        assert main(["eval", "--detections", str(det_path), "--ground-truth", str(gt_path)]) == 0

    def test_lines_out_of_frame_order_give_the_bytes_of_frame_order(self, tmp_path, capsys):
        # the rows are sorted by frame with a stable sort, as the object reader
        # stores them: odd frames first, each frame's lines in file order
        _, _, det_path = write_scenario(tmp_path, seed=3, frame_count=40, classes=3,
                                        appearance_dim=4)
        header, *lines = det_path.read_text().splitlines()
        shuffled = tmp_path / "shuffled.txt"
        odd_first = sorted(lines, key=lambda line: int(line.split()[0]) % 2 == 0)
        shuffled.write_text("\n".join([header, *odd_first]))
        assert shuffled.read_text().splitlines()[1].split()[0] == "1"
        for flags in ([], ["--nms-iou", "0.5"], ["--no-repp", "--no-tubelet-link"]):
            outs = [tmp_path / "o1.txt", tmp_path / "o2.txt"]
            for src, out in zip((det_path, shuffled), outs):
                argv = ["postprocess", "--detections", str(src), "--out", str(out), *flags]
                assert main(argv) == 0
            assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[0].read_bytes() == det_path.read_bytes()  # all stages off

    def test_output_reusable_as_input(self, tmp_path, capsys):
        _, _, det_path = write_scenario(tmp_path, seed=3, frame_count=40)
        out1, out2 = tmp_path / "o1.txt", tmp_path / "o2.txt"
        assert main(["postprocess", "--detections", str(det_path), "--out", str(out1)]) == 0
        assert main(["postprocess", "--detections", str(out1), "--out", str(out2)]) == 0

    def test_burst_ablation_split_vs_merged(self, tmp_path, capsys):
        _, _, det_path = write_scenario(
            tmp_path, seed=4, frame_count=80,
            drop_prob=0.0, jitter_sigma=0.0, fp_rate=0.0,
            burst_prob=0.04, burst_max=6, tp_score_sigma=0.0,
        )
        split, merged = tmp_path / "split.txt", tmp_path / "merged.txt"
        assert main(["postprocess", "--detections", str(det_path),
                     "--out", str(split), "--no-tubelet-link"]) == 0
        assert main(["postprocess", "--detections", str(det_path),
                     "--out", str(merged)]) == 0

        def tubelet_count(path):
            _, ids = read_detections_with_ids(path)
            return len({t for frame in ids.values() for t in frame})

        assert tubelet_count(merged) == 8
        assert tubelet_count(split) > tubelet_count(merged)

    def test_mismatched_out_count_is_error(self, tmp_path, capsys):
        _, _, det_path = write_scenario(tmp_path, seed=1, frame_count=30)
        rc = main(["postprocess", "--detections", str(det_path),
                   "--detections", str(det_path), "--out", str(tmp_path / "o.txt")])
        assert rc == 1

    @pytest.mark.parametrize("outs", [
        ["o.txt", "o.txt"],          # one file written by two videos
        ["o.txt", "./sub/../o.txt"],  # the same file under another spelling
        ["raw1.txt", "o.txt"],       # video 0 writes what video 1 reads
        ["o.txt", "raw0.txt"],       # video 1 writes what video 0 reads
    ])
    def test_colliding_out_paths_are_rejected(self, tmp_path, capsys, monkeypatch, outs):
        # the file's bytes used to depend on --jobs and on the worker schedule
        for seed in (0, 1):
            write_scenario(tmp_path, seed=seed, frame_count=10)
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.glob("*.txt")}
        monkeypatch.setattr(cli, "read_detections", None)  # no input is read
        argv = ["postprocess", "--detections", "raw0.txt", "--detections", "raw1.txt",
                "--jobs", "2"]
        for o in outs:
            argv += ["--out", o]
        assert main(argv) == 1
        assert "is also another video's --out or --detections" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.glob("*.txt")} == before

    def test_out_may_overwrite_its_own_input(self, tmp_path, capsys):
        _, _, raw0 = write_scenario(tmp_path, seed=0, frame_count=10)
        _, _, raw1 = write_scenario(tmp_path, seed=1, frame_count=10)
        want = tmp_path / "want.txt"
        assert main(["postprocess", "--detections", str(raw0), "--out", str(want)]) == 0
        assert main(["postprocess", "--detections", str(raw0), "--detections", str(raw1),
                     "--out", str(raw0), "--out", str(tmp_path / "o1.txt")]) == 0
        assert raw0.read_bytes() == want.read_bytes()

    def test_undefined_link_logit_is_a_data_error(self, tmp_path, capsys):
        # 1.7e308 * |ln 3| overflows to +inf and -1.7e308 * |ln 3| to -inf:
        # the pair used to score nan and was silently never linked
        model_path = tmp_path / "model.txt"
        model_path.write_text("repp-model v1\n0 0 1.7e308 -1.7e308 0 0 0 0\n0\n")
        det_path = tmp_path / "raw.txt"
        det_path.write_text("#video v 100 100 2\n0 0 1 1 5 5 0.5\n1 0 1 1 15 15 0.5\n")
        rc = main(["postprocess", "--detections", str(det_path),
                   "--out", str(tmp_path / "o.txt"), "--model", str(model_path)])
        assert rc == 1
        assert "error: link score logit is undefined" in capsys.readouterr().err

    def test_missing_input_exits_1(self, tmp_path, capsys):
        rc = main(["postprocess", "--detections", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path / "o.txt")])
        assert rc == 1

    def test_even_smooth_window_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["postprocess", "--detections", "x", "--out", "y",
                  "--smooth-window", "4"])
        assert e.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main(["postprocess", "--detections", "x", "--out", "y", "--frobnicate"])
        assert e.value.code == 2

    def test_config_file_applies(self, tmp_path, capsys):
        _, _, det_path = write_scenario(tmp_path, seed=1, frame_count=30)
        cfg = tmp_path / "pp.txt"
        cfg.write_text("no_repp = true\nno_tubelet_link = true\n")
        out = tmp_path / "out.txt"
        rc = main(["postprocess", "--config", str(cfg),
                   "--detections", str(det_path), "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == det_path.read_bytes()

    def test_unknown_config_key_is_data_error(self, tmp_path, capsys):
        _, _, det_path = write_scenario(tmp_path, seed=1, frame_count=30)
        cfg = tmp_path / "pp.txt"
        cfg.write_text("frobnicate = 1\n")
        rc = main(["postprocess", "--config", str(cfg),
                   "--detections", str(det_path), "--out", str(tmp_path / "o.txt")])
        assert rc == 1

    def test_nms_flag_applies(self, tmp_path, capsys):
        from conftest import SHAPE, det
        from tubelink import VideoDetections

        dup = VideoDetections("v", SHAPE, 1, {0: [det(score=0.9), det(score=0.8)]})
        p = tmp_path / "dup.txt"
        write_detections(dup, p)
        out = tmp_path / "out.txt"
        rc = main(["postprocess", "--detections", str(p), "--out", str(out),
                   "--nms-iou", "0.5", "--no-repp", "--no-tubelet-link"])
        assert rc == 0
        assert len(read_detections(out).frames[0]) == 1

    def test_model_file_flag(self, tmp_path, capsys):
        from tubelink import default_model, save_model

        _, _, det_path = write_scenario(tmp_path, seed=1, frame_count=30)
        model_path = tmp_path / "model.txt"
        save_model(default_model(), model_path)
        via_file, via_default = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["postprocess", "--detections", str(det_path),
                     "--out", str(via_file), "--model", str(model_path)]) == 0
        assert main(["postprocess", "--detections", str(det_path),
                     "--out", str(via_default), "--model", "default"]) == 0
        assert via_file.read_bytes() == via_default.read_bytes()

    def test_malformed_model_file_exits_1(self, tmp_path, capsys):
        _, _, det_path = write_scenario(tmp_path, seed=1, frame_count=30)
        model_path = tmp_path / "model.txt"
        model_path.write_text("repp-model v1\n1 2 3\n0\n")
        rc = main(["postprocess", "--detections", str(det_path),
                   "--out", str(tmp_path / "o.txt"), "--model", str(model_path)])
        assert rc == 1

    @pytest.mark.parametrize("weights, bias", [("1 1 1 1 1 1 1 nan", "0"),
                                               ("1 1 1 1 1 1 1 1", "1e309")],
                             ids=["nan_weight", "overflowing_bias"])
    def test_non_finite_model_file_is_named(self, tmp_path, capsys, weights, bias):
        # the error used to leave out the file, which every other model error names
        _, _, det_path = write_scenario(tmp_path, seed=1, frame_count=30)
        model_path = tmp_path / "bad.model"
        model_path.write_text(f"repp-model v1\n{weights}\n{bias}\n")
        rc = main(["postprocess", "--detections", str(det_path),
                   "--out", str(tmp_path / "o.txt"), "--model", str(model_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {model_path}: similarity model weights/bias must be finite\n")


class TestFreshProcess:
    def test_import_loads_no_scipy(self):
        # scipy costs about 0.45 s and 50 MiB to import; only fit_model and
        # exact assignment use it, and they import it themselves
        done = python("-c", "import sys, tubelink; "
                            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_header_only_stream_at_the_frame_bound(self, tmp_path):
        # storage follows the lines, not the header: this 23-byte pair of
        # files used to take about 5.7 s and 645 MiB
        header = f"#video v 10 10 {MAX_FRAME_COUNT}\n"
        (tmp_path / "raw.txt").write_text(header)
        (tmp_path / "gt.txt").write_text(header)
        # the peak is read from the child's own VmHWM: on Linux, ru_maxrss of
        # a spawned child starts at its parent's high-water mark
        code = ("import re, sys\n"
                "from tubelink.cli import main\n"
                "rc = (main(['postprocess', '--detections', 'raw.txt', '--out', 'out.txt'])\n"
                "      or main(['eval', '--detections', 'out.txt', '--ground-truth', 'gt.txt']))\n"
                "with open('/proc/self/status') as f:\n"
                "    print(re.search(r'VmHWM:\\s*(\\d+) kB', f.read()).group(1))\n"
                "sys.exit(rc)\n")
        start = time.perf_counter()
        done = python("-c", code, cwd=tmp_path)
        wall = time.perf_counter() - start
        assert done.returncode == 0, done.stderr
        assert wall < 2.0
        assert int(done.stdout.split()[-1]) < 200 * 1024  # VmHWM is in KiB


def parse_map_lines(out):
    m50 = float(re.search(r"mAP50\s+([0-9.]+)", out).group(1))
    m5095 = float(re.search(r"mAP50-95\s+([0-9.]+)", out).group(1))
    return m50, m5095


class TestCliEval:
    def test_perfect_predictions(self, tmp_path, capsys):
        cfg, gt_path, _ = write_scenario(
            tmp_path, seed=1, frame_count=30,
            drop_prob=0.0, burst_prob=0.0, jitter_sigma=0.0, fp_rate=0.0,
            tp_score_mean=1.0, tp_score_sigma=0.0,
        )
        det_path = tmp_path / "raw1.txt"
        rc = main(["eval", "--detections", str(det_path), "--ground-truth", str(gt_path)])
        assert rc == 0
        m50, m5095 = parse_map_lines(capsys.readouterr().out)
        assert m50 == 1.0 and m5095 == 1.0

    def test_ablation_ordering(self, tmp_path, capsys):
        _, gt_path, det_path = write_scenario(tmp_path, seed=0)
        variants = {}
        for tag, flags in [
            ("baseline", ["--no-repp", "--no-tubelet-link"]),
            ("repp", ["--no-tubelet-link"]),
            ("full", []),
        ]:
            out = tmp_path / f"{tag}.txt"
            assert main(["postprocess", "--detections", str(det_path),
                         "--out", str(out)] + flags) == 0
            assert main(["eval", "--detections", str(out),
                         "--ground-truth", str(gt_path)]) == 0
            variants[tag], _ = parse_map_lines(capsys.readouterr().out)
        assert variants["baseline"] < variants["repp"] < variants["full"]

    def test_report_and_pr_files(self, tmp_path, capsys):
        import json

        _, gt_path, det_path = write_scenario(tmp_path, seed=1, frame_count=30)
        report = tmp_path / "report.json"
        pr = tmp_path / "pr.csv"
        rc = main(["eval", "--detections", str(det_path), "--ground-truth", str(gt_path),
                   "--out", str(report), "--pr-out", str(pr)])
        assert rc == 0
        data = json.loads(report.read_text())
        assert set(data) == {"classes", "map50", "map50_95", "per_class_ap", "counts"}
        header = pr.read_text().splitlines()[0]
        assert header == "class_id,iou_thresh,recall,precision"

    def test_per_video_tables(self, tmp_path, capsys):
        _, g1, d1 = write_scenario(tmp_path, seed=1, frame_count=20)
        _, g2, d2 = write_scenario(tmp_path, seed=2, frame_count=20)
        rc = main(["eval", "--detections", str(d1), "--detections", str(d2),
                   "--ground-truth", str(g1), "--ground-truth", str(g2),
                   "--per-video"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "video sim-1" in out and "video sim-2" in out and "pooled" in out

    def test_missing_ground_truth_exits_1(self, tmp_path, capsys):
        _, _, det_path = write_scenario(tmp_path, seed=1, frame_count=20)
        rc = main(["eval", "--detections", str(det_path),
                   "--ground-truth", str(tmp_path / "missing.txt")])
        assert rc == 1

    def test_mismatched_metadata_exits_1(self, tmp_path, capsys):
        _, g1, _ = write_scenario(tmp_path, seed=1, frame_count=20)
        _, _, d2 = write_scenario(tmp_path, seed=2, frame_count=30)
        rc = main(["eval", "--detections", str(d2), "--ground-truth", str(g1)])
        assert rc == 1
        rc = main(["eval", "--detections", str(d2), "--detections", str(d2),
                   "--ground-truth", str(g1)])
        assert rc == 1
        assert capsys.readouterr().err.endswith(
            "error: got 2 --detections but 1 --ground-truth paths\n")

    def test_boxes_whose_intersection_overflows(self, tmp_path, capsys):
        # the IoU of two equal 1e200-sided boxes was NaN, so they never matched
        det_path, gt_path = tmp_path / "d.txt", tmp_path / "g.txt"
        det_path.write_text("#video v 100 100 2\n" + HUGE_BOXES)
        gt_path.write_text("#video v 100 100 2\n0 0 0 0 0 1e200 1e200\n1 0 0 0 0 1e200 1e200\n")
        assert main(["eval", "--detections", str(det_path), "--ground-truth", str(gt_path)]) == 0
        assert parse_map_lines(capsys.readouterr().out) == (1.0, 1.0)

    def test_postprocess_output_takes_the_column_path(self, tmp_path, capsys, monkeypatch):
        _, gt_path, det_path = write_scenario(tmp_path, seed=1, frame_count=40, classes=3)
        out = tmp_path / "out.txt"
        assert main(["postprocess", "--detections", str(det_path), "--out", str(out)]) == 0

        def refuse(path):
            raise AssertionError(f"{path} was read into objects")

        monkeypatch.setattr(io, "read_detections", refuse)
        monkeypatch.setattr(io, "read_ground_truth", refuse)
        assert main(["eval", "--detections", str(out), "--ground-truth", str(gt_path),
                     "--per-video", "--out", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize("case", ["descriptors", "ragged"])
    def test_both_eval_paths_write_the_same_bytes(self, tmp_path, capsys, case):
        # raw simulator output carries descriptors on the true positives only,
        # so its lines differ in length; both files are parsed in bulk
        _, gt_path, det_path = write_scenario(tmp_path, seed=2, frame_count=40, classes=4,
                                              appearance_dim=4,
                                              fp_rate=0.0 if case == "descriptors" else 1.0)
        read_in_bulk(det_path)
        read_in_bulk(gt_path, ground_truth=True)

        def run():
            report, pr = tmp_path / "r.json", tmp_path / "pr.csv"
            assert main(["eval", "--detections", str(det_path), "--ground-truth", str(gt_path),
                         "--detections", str(det_path), "--ground-truth", str(gt_path),
                         "--per-video", "--out", str(report), "--pr-out", str(pr)]) == 0
            return capsys.readouterr().out, report.read_bytes(), pr.read_bytes()

        columns = run()
        with line_by_line():
            assert run() == columns

    def test_repeated_track_names_file_and_line(self, tmp_path, capsys):
        det_path, gt_path = tmp_path / "d.txt", tmp_path / "g.txt"
        det_path.write_text("#video v 100 100 2\n0 0 1 1 5 5 0.5\n")
        gt_path.write_text("#video v 100 100 2\n0 0 0 1 1 5 5\n0 0 0 9 9 5 5\n")
        assert main(["eval", "--detections", str(det_path), "--ground-truth", str(gt_path)]) == 1
        assert capsys.readouterr().err == f"error: {gt_path}:3: duplicate track_id 0 in frame 0\n"

    @pytest.mark.parametrize("command", ["postprocess", "eval", "inspect"])
    def test_id_beyond_int64_exits_1_on_every_command(self, tmp_path, capsys, command):
        det_path, gt_path = tmp_path / "d.txt", tmp_path / "g.txt"
        det_path.write_text(f"#video v 100 100 2\n0 0 1 1 5 5 0.5\n1 {2 ** 63} 1 1 5 5 0.5\n")
        gt_path.write_text("#video v 100 100 2\n0 0 0 1 1 5 5\n")
        argv = {"postprocess": ["--out", str(tmp_path / "o.txt")],
                "eval": ["--ground-truth", str(gt_path)], "inspect": []}[command]
        assert main([command, "--detections", str(det_path), *argv]) == 1
        assert capsys.readouterr().err == (
            f"error: {det_path}:3: class_id must be at most 2**63 - 1, got {2 ** 63}\n")


class TestCliInspect:
    def test_empty_video(self, tmp_path, capsys):
        from conftest import SHAPE
        from tubelink import VideoDetections

        p = tmp_path / "empty.txt"
        write_detections(VideoDetections("empty", SHAPE, 5, {}), p)
        rc = main(["inspect", "--detections", str(p)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 detections" in out and "0.00/frame" in out

    def test_histogram_after_postprocess(self, tmp_path, capsys):
        # inspect only reads: the pipeline's tubelets are those of postprocess' output
        _, _, det_path = write_scenario(tmp_path, seed=1, frame_count=40)
        out = tmp_path / "out.txt"
        assert main(["postprocess", "--detections", str(det_path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["inspect", "--detections", str(out)]) == 0
        assert "length histogram" in capsys.readouterr().out
        with pytest.raises(SystemExit) as usage:
            main(["inspect", "--detections", str(det_path), "--postprocess"])
        assert usage.value.code == 2

    def test_tubelet_lengths_of_a_marked_file(self, tmp_path, capsys):
        # tubelet 7 spans 3 frames, 2 and 9 one frame each, 4 two frames
        lines = ["#video v 10 10 4", "#tubelets",
                 "0 0 1 1 2 2 0.5 7", "0 0 5 5 2 2 0.5 2",
                 "1 0 1 1 2 2 0.5 7", "1 1 5 5 2 2 0.5 4",
                 "2 0 1 1 2 2 0.5 7", "2 1 5 5 2 2 0.5 4", "3 0 1 1 2 2 0.5 9"]
        p = tmp_path / "marked.txt"
        p.write_text("\n".join(lines) + "\n")
        assert main(["inspect", "--detections", str(p)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "video v: 4 frames, 7 detections, 1.75/frame",
            "  tubelets: 4, length histogram: 1:2 2:1 3:1",
        ]
        p.write_text("#video v 10 10 4\n#tubelets\n")
        assert main(["inspect", "--detections", str(p)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "video v: 4 frames, 0 detections, 0.00/frame", "  tubelets: 0"]
