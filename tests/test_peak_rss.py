"""tools/peak_rss.py runs one CLI call in a fresh interpreter and reports its
exit code and its own peak RSS."""

import importlib.util
import time
from pathlib import Path

import numpy as np

from tubelink import FrameShape
from tubelink.io import BoxColumns, read_columns, write_detections

TOOL = Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py"
spec = importlib.util.spec_from_file_location("peak_rss", TOOL)
peak_rss = importlib.util.module_from_spec(spec)
spec.loader.exec_module(peak_rss)


def test_nms_of_a_dense_frame_runs_in_bounded_memory(tmp_path):
    # one frame of 4,000 same-class 200-px boxes that all overlap: the N x N
    # matrix of nms_rows took 664 MiB of peak RSS
    n, rng = 4000, np.random.default_rng(5)
    box = np.column_stack([rng.uniform(0, 20, (n, 2)), np.full((n, 2), 200.0)])
    write_detections(BoxColumns("dense", FrameShape(1280, 720), 1, np.zeros(n, np.int64),
                                np.zeros(n, np.int64), box, rng.random(n), np.zeros((n, 0)),
                                np.zeros(n, np.int64)), tmp_path / "in.det")
    start = time.perf_counter()
    code, mib = peak_rss.peak_rss(["postprocess", "--detections", str(tmp_path / "in.det"),
                                   "--out", str(tmp_path / "out.det"), "--nms-iou", "0.5"])
    assert code == 0 and mib < 100
    assert time.perf_counter() - start < 10
    assert read_columns(tmp_path / "out.det").video_id == "dense"


def test_the_exit_code_of_a_failed_call_is_reported(tmp_path, capsys):
    assert peak_rss.main(["--", "eval", "--detections", str(tmp_path / "none.det"),
                          "--ground-truth", str(tmp_path / "none.gt")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "exit 1" and lines[1].startswith("peak_rss_mb ")
    assert 0 < float(lines[1].split()[1]) < 1000


def test_arguments_follow_a_double_dash(capsys):
    assert peak_rss.main(["postprocess"]) == 2
    assert capsys.readouterr().err.startswith("usage: python tools/peak_rss.py -- ")


def test_the_memory_of_the_calling_process_is_not_counted():
    # getrusage's ru_maxrss of a spawned process also counts its parent's
    # memory at the spawn: it read pytest's peak, 138 MiB, for a call of 41
    held = np.ones(128 * 2 ** 20 // 8)  # 128 MiB, written so that they are resident
    code, mib = peak_rss.peak_rss(["eval", "--help"])
    assert code == 0 and mib < 100 and held[-1] == 1
