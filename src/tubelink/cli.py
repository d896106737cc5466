"""Command-line interface: simulate -> postprocess -> eval, plus inspect.

Exit codes are stable: 0 success, 1 data error (bad file contents, mismatched
metadata, I/O failure), 2 usage error (unknown flags, values out of range).
``simulate`` and ``postprocess`` can also read their settings from a plain
``key = value`` config file; explicit flags override file values. The keys
are the field names of ScenarioConfig, or of PipelineConfig and RunSettings;
each flag is ``--`` plus a key with ``-`` for ``_``. ``no_repp`` and
``no_tubelet_link`` (``--no-repp``, ``--no-tubelet-link``) switch a stage
off. File booleans are strict (``1/true/yes/0/false/no``). A bad file value
exits 1 before any input is read; a bad flag value exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .errors import TubelinkError
from .evaluation import IOU_THRESHOLDS, EvalReport, evaluate_streams
from .io import (
    read_detections,
    read_detections_with_ids,
    read_ground_truth,
    read_text,
    write_detections,
    write_ground_truth,
)
from .pipeline import PipelineConfig, postprocess_video
from .similarity import load_model
from .settings import add_flags, int_at_least, read_settings, setting, settings_of
from .simulate import ScenarioConfig, describe, generate


def _settings(args, *classes, what: str) -> list[dict]:
    """Per class, its settings from the --config file, overridden by the
    flags given (an unset flag sets no attribute)."""
    values = {}
    if args.config:
        text = read_text(args.config)
        values = read_settings(text, classes, what, where=f"{args.config}: ")
    values.update(vars(args))
    return [{f.name: values[f.name] for f in settings_of(c) if f.name in values} for c in classes]


# ---------------------------------------------------------------- simulate

def _add_simulate(sub):
    p = sub.add_parser("simulate", help="generate a synthetic ground-truth/detection pair")
    p.add_argument("--config", help="scenario config file (key = value)")
    add_flags(p, ScenarioConfig)
    p.add_argument("--ground-truth", required=True, help="output ground-truth file")
    p.add_argument("--detections", required=True, help="output detection file")
    p.set_defaults(func=cmd_simulate)


def cmd_simulate(args) -> int:
    (values,) = _settings(args, ScenarioConfig, what="scenario")
    config = ScenarioConfig(**values)
    gt, dets = generate(config)
    write_ground_truth(gt, args.ground_truth)
    write_detections(dets, args.detections)
    sys.stdout.write(describe(config))
    print(f"wrote {args.ground_truth} and {args.detections}")
    return 0


# ---------------------------------------------------------------- postprocess

@dataclass(frozen=True)
class RunSettings:
    """The postprocess settings that are not PipelineConfig fields; their
    values are checked as the flags and the config file are read."""

    model: str = setting("default", help="similarity model file or 'default'")
    jobs: int = setting(1, int_at_least(1), "process input videos in parallel (default 1)")


def _add_postprocess(sub):
    p = sub.add_parser("postprocess", help="refine detection streams into consistent tubelets")
    p.add_argument("--config", help="settings file (key = value, keys mirror flags)")
    p.add_argument("--detections", action="append", required=True, help="input stream (repeatable)")
    p.add_argument("--out", action="append", required=True, help="output stream, one per input")
    add_flags(p, RunSettings)
    add_flags(p, PipelineConfig)
    p.set_defaults(func=cmd_postprocess)


def _process_one(in_path: str, out_path: str, config: PipelineConfig) -> str:
    stream = read_detections(in_path)
    refined, ids = postprocess_video(stream, config)
    write_detections(refined, out_path, ids)
    total = sum(len(d) for d in refined.frames.values())
    return f"{stream.video_id}: {total} detections -> {out_path}"


def cmd_postprocess(args) -> int:
    if len(args.detections) != len(args.out):
        raise TubelinkError(
            f"got {len(args.detections)} --detections but {len(args.out)} --out paths"
        )
    # a file that two videos write, or that one writes and another reads,
    # would hold what the worker schedule leaves; a video may overwrite its own input
    ins = [os.path.realpath(p) for p in args.detections]
    outs = [os.path.realpath(p) for p in args.out]
    for k, o in enumerate(outs):
        if o in outs[:k] or o in ins[:k] + ins[k + 1:]:
            raise TubelinkError(
                f"--out {args.out[k]} is also another video's --out or --detections")
    pipeline, run = _settings(args, PipelineConfig, RunSettings, what="postprocess")
    run = RunSettings(**run)
    config = PipelineConfig(model=load_model(run.model), **pipeline)
    if run.jobs > 1 and len(args.detections) > 1:
        workers = min(run.jobs, len(args.detections), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_process_one, i, o, config)
                for i, o in zip(args.detections, args.out)
            ]
            for fut in futures:
                print(fut.result())
    else:
        for i, o in zip(args.detections, args.out):
            print(_process_one(i, o, config))
    return 0


# ---------------------------------------------------------------- eval

def _add_eval(sub):
    p = sub.add_parser("eval", help="score predictions against ground truth (mAP50, mAP50-95)")
    p.add_argument("--detections", action="append", required=True, help="prediction stream (repeatable)")
    p.add_argument("--ground-truth", dest="ground_truth", action="append", required=True,
                   help="matching ground-truth file, one per prediction stream")
    p.add_argument("--out", help="write a JSON report here")
    p.add_argument("--pr-out", dest="pr_out", help="write PR-curve points as CSV here")
    p.add_argument("--per-video", dest="per_video", action="store_true",
                   help="also print one table per video before the pooled one")
    p.set_defaults(func=cmd_eval)


def _print_report(report: EvalReport, title: str) -> None:
    print(title)
    print(f"{'class':>8}  {'AP50':>8}  {'AP50-95':>8}")
    for c in report.classes:
        print(f"{c:>8}  {report.per_class_ap[(c, 0.5)]:>8.4f}  {report.class_ap50_95(c):>8.4f}")
    print(f"mAP50    {report.map50:.4f}")
    print(f"mAP50-95 {report.map50_95:.4f}")


def cmd_eval(args) -> int:
    if len(args.detections) != len(args.ground_truth):
        raise TubelinkError(
            f"got {len(args.detections)} --detections but "
            f"{len(args.ground_truth)} --ground-truth paths"
        )
    pairs = [
        (read_detections(d), read_ground_truth(g))
        for d, g in zip(args.detections, args.ground_truth)
    ]
    if args.per_video:
        for v, g in pairs:
            _print_report(evaluate_streams([(v, g)]), f"video {v.video_id}")
    report = evaluate_streams(pairs)
    _print_report(report, "pooled" if len(pairs) > 1 else f"video {pairs[0][0].video_id}")

    if args.out:
        Path(args.out).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.pr_out:
        lines = ["class_id,iou_thresh,recall,precision"]
        for c in report.classes:
            for t in IOU_THRESHOLDS:
                for r, p in report.pr_curves[(c, t)]:
                    lines.append(f"{c},{t:.2f},{r!r},{p!r}")
        Path(args.pr_out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


# ---------------------------------------------------------------- inspect

def _add_inspect(sub):
    p = sub.add_parser("inspect", help="print per-video stream statistics")
    p.add_argument("--detections", action="append", required=True, help="stream file (repeatable)")
    p.add_argument("--postprocess", action="store_true",
                   help="run the default pipeline before computing tubelet stats")
    p.add_argument("--model", default="default", help="similarity model for --postprocess")
    p.set_defaults(func=cmd_inspect)


def cmd_inspect(args) -> int:
    for path in args.detections:
        stream, ids = read_detections_with_ids(path)
        if args.postprocess:
            stream, ids = postprocess_video(stream, PipelineConfig(model=load_model(args.model)))
        total = sum(len(d) for d in stream.frames.values())
        per_frame = total / stream.frame_count if stream.frame_count else 0.0
        print(f"video {stream.video_id}: {stream.frame_count} frames, "
              f"{total} detections, {per_frame:.2f}/frame")
        if ids is not None:
            lengths: dict[int, int] = {}
            for frame_ids in ids.values():
                for tid in frame_ids:
                    lengths[tid] = lengths.get(tid, 0) + 1
            hist: dict[int, int] = {}
            for n in lengths.values():
                hist[n] = hist.get(n, 0) + 1
            if hist:
                bars = " ".join(f"{k}:{hist[k]}" for k in sorted(hist))
                print(f"  tubelets: {len(lengths)}, length histogram: {bars}")
            else:
                print("  tubelets: 0")
    return 0


# ---------------------------------------------------------------- entry

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubelink",
        description="Temporal post-processing and evaluation for video object detections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_postprocess(sub)
    _add_eval(sub)
    _add_inspect(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TubelinkError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
