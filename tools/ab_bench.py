"""Compare the end-to-end benchmark metrics of a base commit and the working
tree over alternating pairs of perfbench runs.

    python tools/ab_bench.py --base REF --workload W [--pairs N] [--seed S]

REF's files are exported with `git archive` into a temporary directory (under
$TMPDIR), so nothing is registered in the repository and an interrupted run
leaves no worktree behind. Pair k runs BENCHMARK.json's `command` with
`--workload W --seconds run_seconds --trace 0`, with `--seed S` if it is
given (perfbench's held-out seed is 7919), once in that tree and once in the
working tree, the base first in even pairs and the working tree first in odd
ones, so that a drift of the host's speed does not favour one side. Each
side runs its own perfbench/ and src/. N is at least 10, the pairs a gain
claim needs.

For every end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, computed as perfbench/baseline.py computes them, the
change/base ratio of the medians and the pairs the change won in the
metric's `better` direction (ties count for neither). It marks
GAIN where the change won at least nine tenths of the pairs and its median is
better than the base's by more than the base's quartile spread, and WORSE
where its median is worse than the base's by more than the metric's bound, a
fraction of the base median. It exits 1 if any run is not `correct`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
MIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile, by the
    statistics.quantiles call of perfbench/baseline.py's summarize."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return q1, med, q3


def summarize(metrics: list[dict], base: list[dict], change: list[dict]) -> list[str]:
    """The report lines of paired perfbench results, base[k] against
    change[k], one per metric. A metric is compared over the pairs where both
    runs have it."""
    lines = [f"{'metric':28s} {'base median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
             f" {'ratio':>7s} {'wins':>6s}"]
    for m in metrics:
        pairs = [(b["metrics"][m["name"]]["value"], c["metrics"][m["name"]]["value"])
                 for b, c in zip(base, change)
                 if m["name"] in b.get("metrics", {}) and m["name"] in c.get("metrics", {})]
        if not pairs:
            lines.append(f"{m['name']:28s} no pair of runs has it")
            continue
        sign = 1.0 if m["better"] == "higher" else -1.0
        b1, bm, b3 = quartiles([b for b, _ in pairs])
        c1, cm, c3 = quartiles([c for _, c in pairs])
        wins = sum(sign * (c - b) > 0 for b, c in pairs)
        ratio = f"{cm / bm:7.3f}" if bm else f"{'-':>7s}"
        flags = []
        if wins >= 0.9 * len(pairs) and sign * (cm - bm) > b3 - b1:
            flags.append("GAIN")
        if sign * (bm - cm) > m["bound"] * abs(bm):
            flags.append(f"WORSE by more than {m['bound']:g}")
        lines.append(f"{m['name']:28s} {f'{bm:.6g} [{b1:.6g}, {b3:.6g}]':>34s}"
                     f" {f'{cm:.6g} [{c1:.6g}, {c3:.6g}]':>34s} {ratio} "
                     f"{f'{wins}/{len(pairs)}':>6s} {' '.join(flags)}".rstrip())
    return lines


def perfbench_argv(workload: str, seed: int | None) -> list[str]:
    """The command of one benchmark run; perfbench's own seed if seed is None."""
    return [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0",
            *([] if seed is None else ["--seed", str(seed)])]


def run_perfbench(tree: Path, argv: list[str]) -> dict:
    """One benchmark run of argv in a tree: the JSON object of its last
    output line, or a result that is not correct if it printed none."""
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "metrics": {}}


def export(ref: str, tree: Path) -> None:
    """REF's committed files, written into the new directory tree."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, check=True,
                             capture_output=True).stdout
    tree.mkdir()
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="the commit to compare against, e.g. HEAD")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in BENCHMARK["workloads"]])
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--seed", type=int, help="perfbench's input seed on both sides "
                   "(default: perfbench's own)")
    args = p.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        p.error(f"--pairs must be >= {MIN_PAIRS}")
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be >= 0")
    command = perfbench_argv(args.workload, args.seed)
    base, change = [], []
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        try:
            export(args.base, Path(tmp) / "tree")
        except subprocess.CalledProcessError as e:
            p.error(f"cannot export --base {args.base}: {e.stderr.decode().strip()}")
        trees = {"base": Path(tmp) / "tree", "change": ROOT}
        for k in range(args.pairs):
            for side in ("base", "change") if k % 2 == 0 else ("change", "base"):
                result = run_perfbench(trees[side], command)
                (base if side == "base" else change).append(result)
                print(f"pair {k + 1}/{args.pairs} {side}: correct={result['correct']}",
                      file=sys.stderr, flush=True)
    lines = summarize(BENCHMARK["end_to_end"], base, change)
    seed = "" if args.seed is None else f", seed {args.seed}"
    print(f"{args.workload}: {args.pairs} pairs of {BENCHMARK['run_seconds']:g} s{seed}, "
          f"base {args.base} against the working tree")
    print("\n".join(lines))
    failed = [f"{side} run {k + 1}" for side, runs in (("base", base), ("change", change))
              for k, r in enumerate(runs) if not r["correct"]]
    if failed:
        print("not correct: " + ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
