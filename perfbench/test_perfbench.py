"""Smoke tests of the benchmark at a tiny size; they run in a few seconds."""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import pytest

import run as bench  # perfbench/run.py, found through this directory
import tubelink.linking
import tubelink.tubelets
from hostclock import HostClock
from tubelink import cli

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = bench.Workload("tiny", 2, {"frame_count": 40}, None)
TINY_NMS = dataclasses.replace(
    TINY, name="tiny_nms", scenario={"frame_count": 40, "num_tracks": 12, "fp_rate": 3.0},
    nms_iou=0.5,
)
TINY_MULTICLASS = dataclasses.replace(
    TINY, name="tiny_multiclass", videos=1,
    scenario={"frame_count": 120, "classes": 5, "num_tracks": 10, "appearance_dim": 4},
)


@pytest.fixture(autouse=True)
def one_setup_round(monkeypatch):
    """One set-up round is enough to check the benchmark's logic."""
    monkeypatch.setattr(bench, "IMPORT_REPEATS", 1)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_reports_every_metric(tmp_path, trace):
    spans = tmp_path / "spans.jsonl"
    result = bench.run(TINY_NMS, 0, 0.0, trace, tmp_path / "work", spans)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert spans.exists() == trace


@pytest.mark.parametrize("trace", [False, True])
def test_tampered_output_counts_as_failure(tmp_path, monkeypatch, trace):
    write = cli.write_detections

    def write_then_move_one_box(v, path, ids=None):
        write(v, path, ids)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        k = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        fields = lines[k].split()
        fields[2] = repr(float(fields[2]) + 1.0)
        lines[k] = " ".join(fields)
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    monkeypatch.setattr(cli, "write_detections", write_then_move_one_box)
    result = bench.run(TINY, 0, 0.0, trace, tmp_path / "work")
    assert not result["correct"]
    assert result["failed"] >= TINY.videos
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_main_exits_nonzero_when_a_check_fails(tmp_path, monkeypatch, capsys):
    write = cli.write_detections

    def write_then_drop_last_line(v, path, ids=None):
        write(v, path, ids)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        Path(path).write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")

    monkeypatch.setattr(cli, "write_detections", write_then_drop_last_line)
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "WORKLOADS", {TINY.name: TINY})
    assert bench.main(["--workload", TINY.name, "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0


def test_quality_set_does_not_follow_the_seed(tmp_path):
    def maps(seed):
        m = bench.run(TINY, seed, 0.0, False, tmp_path / str(seed))["metrics"]
        return m["map50"], m["map50_95"]

    assert maps(1) == maps(2)


@pytest.mark.parametrize("w", [TINY, TINY_NMS, TINY_MULTICLASS], ids=lambda w: w.name)
def test_candidate_pairs_equal_link_score_calls(tmp_path, monkeypatch, w):
    calls = 0
    score = tubelink.tubelets.link_score

    def counted(m, f):
        nonlocal calls
        calls += 1
        return score(m, f)

    monkeypatch.setattr(tubelink.tubelets, "link_score", counted)
    monkeypatch.setattr(tubelink.linking, "link_score", counted)
    for v in bench.write_inputs(w, 3, tmp_path):
        calls = 0
        c = bench.count_chain(w, v, *bench.chain(w, v, bench._untraced))
        assert c.tubelet_pairs > 0 and c.link_pairs > 0
        assert c.tubelet_pairs + c.link_pairs == calls


def test_inputs_follow_the_seed(tmp_path):
    def files(seed, sub):
        return [(v.det.read_bytes(), v.gt.read_bytes())
                for v in bench.write_inputs(TINY, seed, tmp_path / sub)]

    for sub in ("a", "b", "c"):
        (tmp_path / sub).mkdir()
    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")


def test_self_time_subtracts_covered_child_time():
    t = bench.Tracer()
    t.spans = [
        {"name": "root", "start": 0.0, "end": 10.0, "parent": None, "scale": 1.0},
        {"name": "a", "start": 1.0, "end": 3.0, "parent": 0, "scale": 1.0},
        {"name": "b", "start": 4.0, "end": 8.0, "parent": 0, "scale": 1.0},
        {"name": "c", "start": 5.0, "end": 6.0, "parent": 2, "scale": 1.0},
    ]
    assert t.self_times() == [4.0, 2.0, 3.0, 1.0]


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]
    assert bench.tail(samples) == (30.0, 75.0)
    assert bench.tail(samples[:21]) == (11.0, 50.0)
    assert bench.tail(samples[:4]) == (2.5, 50.0)


def test_host_clock_leaves_its_own_sampling_out_of_the_block():
    clock = HostClock()
    with clock.block() as t:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert clock.paused > 0.0
    assert abs(t.wall + clock.paused - 0.2) < 0.01
    assert t.seconds == t.wall * t.scale > 0.0
