"""Run the benchmark over ten seeds, report each metric's spread, and
optionally record the result as the baseline.

Run from the repository root:

    python3 perfbench/baseline.py
    python3 perfbench/baseline.py --record

For every workload it makes one untraced run of BENCHMARK.json's run_seconds
on each of the seeds 0-9 and prints, per end-to-end metric, the median of the
runs and the distance between the first and third quartile as a share of the
median, next to the metric's bound in BENCHMARK.json. With ``--record`` it
also makes a traced run on the default and on the held-out seed of each
workload, checks that the workloads differ as designed, and writes
everything, with the environment, the workload parameters and the map from
layer metrics to end-to-end metrics, to baseline.json next to this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

import run as bench

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = list(range(10))
BASELINE = Path(__file__).resolve().parent / "baseline.json"

# Which end-to-end metric each layer metric should move, and the workload on
# which it moves most and least.
LAYER_MAP = {
    "simulate.": (["setup_s"], "multiclass_long", "crowded"),
    "io.read_ground_truth_s": (["eval_dets_per_s"], "multiclass_long", "crowded"),
    "io.": (["postprocess_dets_per_s", "eval_dets_per_s"], "multiclass_long", "crowded"),
    "geometry.": (["postprocess_dets_per_s"], "crowded", "standard"),
    "tubelets.refine_s": (["postprocess_dets_per_s"], "multiclass_long", "crowded"),
    "tubelets.built": (["postprocess_dets_per_s"], "multiclass_long", "crowded"),
    "tubelets.dropped_short": (["postprocess_dets_per_s"], "multiclass_long", "crowded"),
    "tubelets.": (["postprocess_dets_per_s"], "crowded", "multiclass_long"),
    "linking.": (["postprocess_dets_per_s", "postprocess_video_s.p50", "postprocess_video_s.tail"],
                 "crowded, standard", "multiclass_long"),
    "pipeline.": (["postprocess_dets_per_s"], "multiclass_long", "crowded"),
    "evaluation.": (["eval_dets_per_s"], "multiclass_long", "crowded"),
    "cli.": (["postprocess_video_s.p50", "postprocess_video_s.tail"], "standard", "multiclass_long"),
    "trace.": ([], "all", "none"),
}

UNMEASURED = {
    "postprocess --jobs N": "process-pool parallelism; every run uses the default --jobs 1",
    "postprocess --assignment exact": "the Hungarian assignment; every run uses greedy",
    "similarity.fit_model": "model fitting; every run uses the built-in weights",
    "inspect": "the stream statistics subcommand",
}


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict]) -> dict[str, dict]:
    out = {}
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
        out[name] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / abs(med) if med else 0.0}
    return out


def layer_map() -> dict[str, dict]:
    out = {}
    for m in BENCHMARK["per_layer"]:
        moves, most, least = next(v for k, v in LAYER_MAP.items() if m["name"].startswith(k))
        out[m["name"]] = {"moves": moves, "mostly_on": most, "barely_on": least}
    return out


def design_checks(traced: dict[str, dict[int, dict]]) -> dict[str, bool]:
    """The counts show that the workloads differ as the benchmark intends."""
    def value(w, seed, name):
        return traced[w][seed]["metrics"][name]["value"]

    checks = {}
    for seed in (bench.DEFAULT_SEED, bench.HELD_OUT_SEED):
        checks[f"seed {seed}: crowded pairs_per_det >= 10x multiclass_long"] = (
            value("crowded", seed, "tubelets.pairs_per_det")
            >= 10 * value("multiclass_long", seed, "tubelets.pairs_per_det"))
        share = {w: value(w, seed, "evaluation.evaluate_s") / value(w, seed, "trace.chain_s")
                 for w in ("crowded", "multiclass_long")}
        checks[f"seed {seed}: evaluate share of the chain higher on multiclass_long "
               f"({share['multiclass_long']:.3f}) than on crowded ({share['crowded']:.3f})"] = (
            share["multiclass_long"] > share["crowded"])
    return checks


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--record", action="store_true",
                   help=f"also make traced runs and write the baseline to {BASELINE.name}")
    args = p.parse_args()

    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    results = {}
    for w in workloads:
        runs = [run_once(w, seed, 0) for seed in SEEDS]
        summary = summarize(runs)
        print(f"{w}: {len(runs)} runs, {sum(r['failed'] for r in runs)} failed of "
              f"{sum(r['attempted'] for r in runs)} attempted")
        for name, s in summary.items():
            over = "  OVER" if s["spread"] > bounds[name] else ""
            print(f"  {name:28s} median {s['median']:<12.6g} {s['unit']:6s} "
                  f"spread {s['spread']:.4f}  bound {bounds[name]:g}{over}", flush=True)
        results[w] = {"end_to_end": summary, "runs": runs}
    if not args.record:
        return 0

    traced = {w: {seed: run_once(w, seed, 1) for seed in (bench.DEFAULT_SEED, bench.HELD_OUT_SEED)}
              for w in workloads}
    checks = design_checks(traced)
    for what, ok in checks.items():
        print(f"{'ok ' if ok else 'NOT'} {what}")
    why = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    record = {
        "environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                        "nproc": os.cpu_count(), "machine": platform.machine()},
        "seeds": {"default": bench.DEFAULT_SEED, "held_out": bench.HELD_OUT_SEED,
                  "quality_set": bench.QUALITY_SEED, "untraced_runs": SEEDS},
        "run_seconds": BENCHMARK["run_seconds"],
        "workloads": {w: {**dataclasses.asdict(bench.WORKLOADS[w]), "why": why[w]}
                      for w in workloads},
        "end_to_end": BENCHMARK["end_to_end"],
        "per_layer": layer_map(),
        "unmeasured": UNMEASURED,
        "design_checks": checks,
        "baseline": {
            w: {"end_to_end": results[w]["end_to_end"],
                "per_layer": {str(seed): r["metrics"] for seed, r in traced[w].items()}}
            for w in workloads
        },
    }
    BASELINE.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
