"""Command-line interface: simulate -> postprocess -> eval, plus inspect.

Exit codes are stable: 0 success, 1 data error (bad file contents, mismatched
metadata, I/O failure), 2 usage error (unknown flags, values out of range).
``simulate`` and ``postprocess`` can also read their settings from a plain
``key = value`` config file; explicit flags override file values.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .errors import ConfigError, TubelinkError
from .evaluation import IOU_THRESHOLDS, EvalReport, evaluate_streams
from .io import (
    read_detections,
    read_detections_with_ids,
    read_ground_truth,
    write_detections,
    write_ground_truth,
)
from .pipeline import PipelineConfig, postprocess_video
from .similarity import load_model
from .simulate import ScenarioConfig, describe, generate, parse_config


# ---------------------------------------------------------------- validators

def _typed(name, convert, check, expect):
    def parse(s: str):
        try:
            v = convert(s)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be {expect}, got {s!r}") from None
        if not check(v):
            raise argparse.ArgumentTypeError(f"{name} must be {expect}, got {s!r}")
        return v
    return parse


_unit_open = lambda name: _typed(name, float, lambda v: 0.0 < v < 1.0, "in (0,1)")
_unit_closed = lambda name: _typed(name, float, lambda v: 0.0 <= v <= 1.0, "in [0,1]")
_odd_window = _typed("smooth-window", int, lambda v: v >= 1 and v % 2 == 1, "an odd integer >= 1")
_pos_int = lambda name: _typed(name, int, lambda v: v >= 1, "an integer >= 1")
_nonneg_int = lambda name: _typed(name, int, lambda v: v >= 0, "an integer >= 0")
_nonneg_float = lambda name: _typed(name, float, lambda v: v >= 0.0, "a number >= 0")


def _read_kv_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


# ---------------------------------------------------------------- simulate

_SCENARIO_KEYS = [f.name for f in dataclasses.fields(ScenarioConfig)]


def _add_simulate(sub):
    p = sub.add_parser("simulate", help="generate a synthetic ground-truth/detection pair")
    p.add_argument("--config", help="scenario config file (key = value)")
    p.add_argument("--seed", type=int)
    p.add_argument("--video-id", dest="video_id")
    p.add_argument("--frame-count", dest="frame_count", type=_pos_int("frame-count"))
    p.add_argument("--width", type=_pos_int("width"))
    p.add_argument("--height", type=_pos_int("height"))
    p.add_argument("--num-tracks", dest="num_tracks", type=_nonneg_int("num-tracks"))
    p.add_argument("--classes", type=_pos_int("classes"))
    p.add_argument("--box-min", dest="box_min", type=_nonneg_float("box-min"))
    p.add_argument("--box-max", dest="box_max", type=_nonneg_float("box-max"))
    p.add_argument("--speed-max", dest="speed_max", type=_nonneg_float("speed-max"))
    p.add_argument("--sigma-motion", dest="sigma_motion", type=_nonneg_float("sigma-motion"))
    p.add_argument("--jitter-sigma", dest="jitter_sigma", type=_nonneg_float("jitter-sigma"))
    p.add_argument("--drop-prob", dest="drop_prob", type=_unit_closed("drop-prob"))
    p.add_argument("--burst-prob", dest="burst_prob", type=_unit_closed("burst-prob"))
    p.add_argument("--burst-max", dest="burst_max", type=_nonneg_int("burst-max"))
    p.add_argument("--fp-rate", dest="fp_rate", type=_nonneg_float("fp-rate"))
    p.add_argument("--tp-score-mean", dest="tp_score_mean", type=_unit_closed("tp-score-mean"))
    p.add_argument("--tp-score-sigma", dest="tp_score_sigma", type=_nonneg_float("tp-score-sigma"))
    p.add_argument("--fp-score-mean", dest="fp_score_mean", type=_unit_closed("fp-score-mean"))
    p.add_argument("--fp-score-sigma", dest="fp_score_sigma", type=_nonneg_float("fp-score-sigma"))
    p.add_argument("--appearance-dim", dest="appearance_dim", type=_nonneg_int("appearance-dim"))
    p.add_argument("--appearance-noise", dest="appearance_noise", type=_nonneg_float("appearance-noise"))
    p.add_argument("--ground-truth", required=True, help="output ground-truth file")
    p.add_argument("--detections", required=True, help="output detection file")
    p.set_defaults(func=cmd_simulate)


def cmd_simulate(args) -> int:
    overrides = {
        k: getattr(args, k) for k in _SCENARIO_KEYS if getattr(args, k, None) is not None
    }
    if args.config:
        config = parse_config(Path(args.config).read_text(encoding="utf-8"))
        config = dataclasses.replace(config, **overrides)
    else:
        config = ScenarioConfig(**overrides)
    gt, dets = generate(config)
    write_ground_truth(gt, args.ground_truth)
    write_detections(dets, args.detections)
    sys.stdout.write(describe(config))
    print(f"wrote {args.ground_truth} and {args.detections}")
    return 0


# ---------------------------------------------------------------- postprocess

def _add_postprocess(sub):
    p = sub.add_parser("postprocess", help="refine detection streams into consistent tubelets")
    p.add_argument("--config", help="settings file (key = value, keys mirror flags)")
    p.add_argument("--detections", action="append", required=True, help="input stream (repeatable)")
    p.add_argument("--out", action="append", required=True, help="output stream, one per input")
    p.add_argument("--model", default=None, help="similarity model file or 'default'")
    p.add_argument("--nms-iou", dest="nms_iou", type=_unit_open("nms-iou"),
                   help="run per-frame NMS at this IoU before linking (off by default)")
    p.add_argument("--no-repp", dest="no_repp", action="store_const", const=True,
                   help="skip rescoring/smoothing/short-tubelet removal")
    p.add_argument("--no-tubelet-link", dest="no_tubelet_link", action="store_const", const=True,
                   help="skip tubelet linking and gap interpolation")
    p.add_argument("--tau-link", dest="tau_link", type=_unit_open("tau-link"))
    p.add_argument("--assignment", choices=["greedy", "exact"])
    p.add_argument("--alpha", type=_unit_closed("alpha"))
    p.add_argument("--smooth-window", dest="smooth_window", type=_odd_window)
    p.add_argument("--min-len", dest="min_len", type=_pos_int("min-len"))
    p.add_argument("--g-max", dest="g_max", type=_nonneg_int("g-max"))
    p.add_argument("--tau-tub", dest="tau_tub", type=_unit_open("tau-tub"))
    p.add_argument("--interp-score", dest="interp_score", choices=["mean", "endpoint"])
    p.add_argument("--jobs", type=_pos_int("jobs"), default=None,
                   help="process input videos in parallel (default 1)")
    p.set_defaults(func=cmd_postprocess)


_POSTPROCESS_DEFAULTS = {
    "model": "default",
    "nms_iou": None,
    "no_repp": False,
    "no_tubelet_link": False,
    "tau_link": 0.5,
    "assignment": "greedy",
    "alpha": 0.5,
    "smooth_window": 5,
    "min_len": 2,
    "g_max": 20,
    "tau_tub": 0.5,
    "interp_score": "mean",
    "jobs": 1,
}

_POSTPROCESS_PARSERS = {
    "nms_iou": float, "tau_link": float, "alpha": float, "tau_tub": float,
    "smooth_window": int, "min_len": int, "g_max": int, "jobs": int,
    "no_repp": lambda s: s.lower() in ("1", "true", "yes"),
    "no_tubelet_link": lambda s: s.lower() in ("1", "true", "yes"),
}


def _postprocess_settings(args) -> dict:
    settings = dict(_POSTPROCESS_DEFAULTS)
    if args.config:
        for key, raw in _read_kv_config(args.config).items():
            if key not in settings:
                raise ConfigError(f"{args.config}: unknown postprocess key {key!r}")
            parse = _POSTPROCESS_PARSERS.get(key, str)
            try:
                settings[key] = parse(raw)
            except ValueError:
                raise ConfigError(f"{args.config}: bad value for {key}: {raw!r}") from None
    for key in settings:
        v = getattr(args, key, None)
        if v is not None:
            settings[key] = v
    return settings


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
    s = _postprocess_settings(args)
    config = PipelineConfig(
        model=load_model(s["model"]),
        nms_iou=s["nms_iou"],
        repp=not s["no_repp"],
        tubelet_link=not s["no_tubelet_link"],
        tau_link=s["tau_link"],
        assignment=s["assignment"],
        alpha=s["alpha"],
        smooth_window=s["smooth_window"],
        min_len=s["min_len"],
        g_max=s["g_max"],
        tau_tub=s["tau_tub"],
        interp_score=s["interp_score"],
    )
    jobs = s["jobs"]
    if jobs > 1 and len(args.detections) > 1:
        workers = min(jobs, len(args.detections), os.cpu_count() or 1)
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
