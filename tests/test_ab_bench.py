"""tools/ab_bench.py summarizes paired perfbench results; these tests feed it
canned results and start no process."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)

METRICS = [
    {"name": "eval_dets_per_s", "unit": "det/s", "better": "higher", "bound": 0.24},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "map50", "unit": "1", "better": "higher", "bound": 0.001},
]


def result(correct=True, **values):
    return {"correct": correct, "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}}


@pytest.fixture(autouse=True)
def no_process(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the summary started a process")
    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)


def row(lines, name):
    return next(line for line in lines if line.startswith(name + " "))


def test_medians_quartiles_ratio_and_wins():
    base = [result(eval_dets_per_s=v, setup_s=1.0, map50=0.5) for v in (100, 110, 90, 105, 95)]
    change = [result(eval_dets_per_s=v, setup_s=1.0, map50=0.5) for v in (120, 130, 85, 125, 115)]
    lines = ab_bench.summarize(METRICS, base, change)
    assert not any("WORSE" in line or "GAIN" in line for line in lines)
    eval_row = row(lines, "eval_dets_per_s")
    # base 90..110: median 100, quartiles 92.5 and 107.5; change median 120 (100, 127.5)
    assert "100 [92.5, 107.5]" in eval_row and "120 [100, 127.5]" in eval_row
    assert "  1.200 " in eval_row and " 4/5" in eval_row
    # 4 of 5 pairs is fewer than nine tenths, so there is no GAIN
    # equal runs: ratio 1, no pair won, no flag
    assert row(lines, "setup_s").endswith(" 0/5")


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_spread():
    base = [result(eval_dets_per_s=100 + k, setup_s=2.0 - k / 100, map50=0.5) for k in range(10)]
    change = [result(eval_dets_per_s=120 + k, setup_s=2.0 - k / 100 + 0.001, map50=0.5)
              for k in range(10)]
    lines = ab_bench.summarize(METRICS, base, change)
    assert row(lines, "eval_dets_per_s").endswith("10/10 GAIN")
    # setup_s is lower-better: every change run is slower, but within the bound
    assert row(lines, "setup_s").endswith(" 0/10")
    # 9 of 10 pairs won, but by less than the base's quartile spread
    change = [result(eval_dets_per_s=100 + k + (k > 0) * 0.5, setup_s=2.0, map50=0.5)
              for k in range(10)]
    assert row(ab_bench.summarize(METRICS, base, change), "eval_dets_per_s").endswith(" 9/10")


def test_worse_by_more_than_the_bound_is_flagged_in_the_metrics_direction():
    base = [result(eval_dets_per_s=100, setup_s=1.0, map50=0.5) for _ in range(3)]
    change = [result(eval_dets_per_s=70, setup_s=1.3, map50=0.4996) for _ in range(3)]
    lines = ab_bench.summarize(METRICS, base, change)
    assert row(lines, "eval_dets_per_s").endswith("0/3 WORSE by more than 0.24")
    assert row(lines, "setup_s").endswith("0/3 WORSE by more than 0.25")
    assert row(lines, "map50").endswith(" 0/3")  # 0.0008 of the base median is within 0.001
    change = [result(eval_dets_per_s=77, setup_s=1.24, map50=0.4994) for _ in range(3)]
    lines = ab_bench.summarize(METRICS, base, change)
    assert [line.split()[0] for line in lines if "WORSE" in line] == ["map50"]


def test_a_run_without_metrics_drops_only_its_pair():
    base = [result(eval_dets_per_s=100, setup_s=1.0, map50=0.5), result(eval_dets_per_s=200)]
    change = [result(False), result(eval_dets_per_s=300)]
    lines = ab_bench.summarize(METRICS, base, change)
    assert " 1/1" in row(lines, "eval_dets_per_s") and "1.500" in row(lines, "eval_dets_per_s")
    assert row(lines, "setup_s").endswith("no pair of runs has it")


def test_quartiles_are_those_of_the_baseline(monkeypatch):
    """One spread definition: the A/B quartiles are those perfbench/baseline.py
    reports for the same runs."""
    monkeypatch.syspath_prepend(str(TOOL.parents[1] / "perfbench"))
    baseline = importlib.import_module("baseline")
    for values in ([5.0], [3.0, 1.0], [100 + k * k for k in range(10)], [7, 1, 4, 4, 9, 2, 8]):
        s = baseline.summarize([result(eval_dets_per_s=v) for v in values])["eval_dets_per_s"]
        assert ab_bench.quartiles(values) == (s["q1"], s["median"], s["q3"])


def test_fewer_pairs_than_a_gain_claim_needs_are_refused(capsys):
    with pytest.raises(SystemExit) as e:
        ab_bench.main(["--base", "HEAD", "--workload", "standard", "--pairs", "9"])
    assert e.value.code == 2 and "--pairs must be >= 10" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        ab_bench.main(["--base", "HEAD", "--workload", "standard", "--seconds", "5"])


@pytest.mark.parametrize("workload", ["standrad", "", "STANDARD"])
def test_an_unknown_workload_is_refused_before_any_run(capsys, monkeypatch, workload):
    # the no_process fixture fails the test if a run, or the export, starts
    monkeypatch.setattr(ab_bench, "export", lambda ref, tree: pytest.fail("exported"))
    with pytest.raises(SystemExit) as e:
        ab_bench.main(["--base", "HEAD", "--workload", workload])
    err = capsys.readouterr().err
    assert e.value.code == 2 and "argument --workload: invalid choice" in err
    assert all(w["name"] in err for w in ab_bench.BENCHMARK["workloads"])


def test_a_seed_is_passed_to_both_sides(monkeypatch, capsys):
    seconds = str(ab_bench.BENCHMARK["run_seconds"])
    assert ab_bench.perfbench_argv("crowded", None)[1:] == [
        "perfbench/run.py", "--workload", "crowded", "--seconds", seconds, "--trace", "0"]
    assert ab_bench.perfbench_argv("crowded", 7919)[1:] == [
        "perfbench/run.py", "--workload", "crowded", "--seconds", seconds, "--trace", "0",
        "--seed", "7919"]
    # main runs that argv in both trees; the no_process fixture fails the test
    # if anything starts a process
    runs = []
    monkeypatch.setattr(ab_bench, "export", lambda ref, tree: None)
    monkeypatch.setattr(ab_bench, "run_perfbench",
                        lambda tree, argv: runs.append((tree, argv)) or result(setup_s=1.0))
    assert ab_bench.main(["--base", "HEAD", "--workload", "standard", "--seed", "7919"]) == 0
    assert len(runs) == 2 * ab_bench.MIN_PAIRS and len({tree for tree, _ in runs}) == 2
    assert all(argv == ab_bench.perfbench_argv("standard", 7919) for _, argv in runs)
    assert "seed 7919" in capsys.readouterr().out
    with pytest.raises(SystemExit) as e:
        ab_bench.main(["--base", "HEAD", "--workload", "standard", "--seed", "-1"])
    assert e.value.code == 2 and "--seed must be >= 0" in capsys.readouterr().err
