"""Print a sha256 digest of every file of the run set, one `sha256  name`
line per file, so that two checkouts give the same bytes exactly when a
`diff` of their outputs is empty.

The run set is every perfbench workload video at seeds 0 and 7919 with the
workload's postprocess flags (the scenarios are read from perfbench/run.py's
WORKLOADS), and standard_scenario seeds 0-9 with the default flags, with
`--nms-iou 0.5`, with `--assignment exact`, with `--no-repp` (which links
every tubelet, one-frame ones included) and with `--interp-score endpoint`.
One more run takes the first multiclass_long video at seed 0 with its
detection file re-spaced: a tab separates each body line's first two
fields, and two spaces separate the others. Its widths of 7 and 23 fields then defeat
both of the reader's bulk groupings, the single file width and the width
that single spaces give, so the reader groups its lines by str.split's
field counts. Each run calls `simulate`, `postprocess`, `eval --out
--pr-out` and `inspect` of the postprocess output through tubelink.cli.main
in a temporary directory; its files are the ground truth, the detections, the
postprocess output, the eval report, the PR-curve CSV, whose points show
every TP flag that the report's APs can hide, and inspect's stdout, whose
tubelet counts and length histograms are read back from the tubelet-id
column, which eval ignores. Then
one `eval --per-video --out --pr-out` per group pools all its runs, so that
cells of different videos meet in one evaluation; its report and CSV are
digested too. Last come `simulate`-only runs, whose ground truth and
detections are digested: standard_scenario seeds 0-2 with the generator
branches that no run above takes (every sigma 0, descriptors without noise,
several classes without descriptors, bursts of length 0). Any exit code but
0 ends the script with 1.

Run from anywhere: python tools/digest_runs.py > digest.txt
It imports tubelink from the src/ next to this file.
"""

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from tubelink import cli, describe, standard_scenario  # noqa: E402

SEEDS = (0, 7919)
STANDARD = {"default": [], "nms-0.5": ["--nms-iou", "0.5"], "exact": ["--assignment", "exact"],
            "no-repp": ["--no-repp"], "endpoint": ["--interp-score", "endpoint"]}
SIMULATE_ONLY = {
    "zero-sigmas": dict(sigma_motion=0.0, jitter_sigma=0.0, tp_score_sigma=0.0,
                        fp_score_sigma=0.0),
    "noiseless-descriptors": dict(appearance_dim=8, appearance_noise=0.0),
    "classes": dict(classes=5),
    "zero-length-bursts": dict(burst_prob=0.3, burst_max=0),
}


def workloads() -> dict:
    """perfbench/run.py's WORKLOADS, loaded without running its main."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.WORKLOADS


def runs():
    """(directory name, scenario, postprocess flags, whether the detection
    file is re-spaced) of every run."""
    named = workloads()
    for name, w in named.items():
        for seed in SEEDS:
            for cfg in w.scenarios(seed):
                yield f"{name}-seed{seed}", cfg, w.postprocess_flags(), False
    w = named["multiclass_long"]
    yield "multiclass_long-respaced", w.scenarios(0)[0], w.postprocess_flags(), True
    for variant, flags in STANDARD.items():
        for seed in range(10):
            yield f"standard_scenario-{variant}", standard_scenario(seed), flags, False


def respaced(text: str) -> str:
    """A stream's text with a tab between each body line's first two fields
    and two spaces between the others."""
    header, *body = text.splitlines()
    return "\n".join([header, *(line.replace(" ", "\t", 1).replace(" ", "  ")
                                for line in body)]) + "\n"


def call(argv: list[str]) -> str:
    """What cli.main(argv) prints to stdout; any exit code but 0 exits."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    if code != 0:
        sys.exit(f"digest_runs: exit code {code} from {' '.join(argv)}")
    return out.getvalue()


def digest(files: list[Path], tmp: str) -> None:
    for f in files:
        print(f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.relative_to(tmp)}", flush=True)


def main() -> int:
    pooled: dict[str, list[str]] = {}  # group -> the eval arguments of its runs
    with tempfile.TemporaryDirectory() as tmp:
        for group, cfg, flags, respace in runs():
            stem = Path(tmp) / group / cfg.video_id
            stem.parent.mkdir(exist_ok=True)
            files = [Path(f"{stem}.{ext}")
                     for ext in ("cfg", "gt", "det", "out.det", "eval.json", "pr.csv",
                                 "inspect.txt")]
            scenario, gt, det, out, report, pr, inspected = files
            scenario.write_text(describe(cfg), encoding="utf-8")
            call(["simulate", "--config", str(scenario), "--ground-truth", str(gt),
                  "--detections", str(det)])
            if respace:
                det.write_text(respaced(det.read_text(encoding="utf-8")), encoding="utf-8")
            call(["postprocess", "--detections", str(det), "--out", str(out), *flags])
            call(["eval", "--detections", str(out), "--ground-truth", str(gt),
                  "--out", str(report), "--pr-out", str(pr)])
            inspected.write_text(call(["inspect", "--detections", str(out)]), encoding="utf-8")
            digest(files[1:], tmp)
            pooled.setdefault(group, []).extend(["--detections", str(out), "--ground-truth", str(gt)])
        for group, argv in pooled.items():
            report, pr = Path(tmp) / group / "pooled.eval.json", Path(tmp) / group / "pooled.pr.csv"
            call(["eval", *argv, "--per-video", "--out", str(report), "--pr-out", str(pr)])
            digest([report, pr], tmp)
        for variant, overrides in SIMULATE_ONLY.items():
            for seed in range(3):
                stem = Path(tmp) / f"simulate-{variant}" / f"sim-{seed}"
                stem.parent.mkdir(exist_ok=True)
                scenario, gt, det = (Path(f"{stem}.{ext}") for ext in ("cfg", "gt", "det"))
                scenario.write_text(describe(dataclasses.replace(standard_scenario(seed),
                                                                 **overrides)), encoding="utf-8")
                call(["simulate", "--config", str(scenario), "--ground-truth", str(gt),
                      "--detections", str(det)])
                digest([gt, det], tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
