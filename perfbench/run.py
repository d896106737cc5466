"""Benchmark for tubelink: CLI throughput, output quality and per-layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload standard --seed 0 --seconds 25 --trace 0

Each workload is a set of simulated videos: a fixed quality set and videos
made from ``--seed``. The process imports tubelink from ``src/``, writes the
inputs under ``.perfbench_work/`` and then drives the user-facing path
in-process through ``tubelink.cli.main``: ``postprocess`` and then ``eval
--out`` for each video, with the default ``--jobs 1``. Passes over the videos
repeat until ``--seconds`` have passed. The mAPs are those of the quality set,
which does not follow ``--seed``, so they read the same on every run of the
same code and any change of output quality shows in them.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` is a separate run
that calls each module's public functions in ``postprocess_video``'s stage
order, records one span per call and prints the per-layer metrics. Its spans
are written to ``.perfbench_out/`` when the run ends. Both modes check the
outputs. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every time it reports is in seconds of a reference host (see hostclock.py),
so that the speed changes of a shared host do not show as changes of
tubelink. The benchmark touches nothing under ``src/``. It counts the work of
each layer (candidate pairs, merges, evaluation cells) from its own inputs
and the intermediate results of its stage-by-stage run.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import dataclasses
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from unittest import mock

from hostclock import HostClock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import tubelink as tl
    from tubelink import cli
except ImportError as e:
    sys.exit(f"perfbench: cannot import tubelink from {ROOT / 'src'}: {e}")
if Path(tl.__file__).resolve().parent != ROOT / "src" / "tubelink":
    sys.exit(f"perfbench: tubelink was imported from {tl.__file__}, not from {ROOT / 'src'}")

DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
QUALITY_SEED = DEFAULT_SEED  # the seed of every workload's quality set
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
MIN_TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it


@dataclasses.dataclass(frozen=True)
class Workload:
    """A set of simulated videos and the postprocess flags used on them.

    Video k is ``standard_scenario(s * 1000 + k)`` with ``scenario`` applied
    on top, where s is QUALITY_SEED for the first ``quality_videos`` videos
    (the quality set) and the run's seed for the rest. So the same seed
    always gives the same input files, and the default seed gives the first
    ``videos`` videos of that seed.
    """

    name: str
    videos: int
    scenario: dict
    nms_iou: float | None
    quality_videos: int = 1

    def scenarios(self, seed: int) -> list:
        return [
            dataclasses.replace(
                tl.standard_scenario(s * 1000 + k),
                video_id=f"{self.name}-{s}-{k}",
                **self.scenario,
            )
            for k in range(self.videos)
            for s in [QUALITY_SEED if k < self.quality_videos else seed]
        ]

    def postprocess_flags(self) -> list[str]:
        return [] if self.nms_iou is None else ["--nms-iou", repr(self.nms_iou)]

    def pipeline_config(self):
        return tl.PipelineConfig(nms_iou=self.nms_iou)


WORKLOADS = {
    w.name: w
    for w in (
        # the reasons for each workload are in BENCHMARK.json
        Workload("standard", 20, {}, None, quality_videos=4),
        Workload("crowded", 2, {"num_tracks": 30, "fp_rate": 5.0}, 0.5),
        Workload(
            "multiclass_long", 3,
            {"frame_count": 1000, "classes": 30, "num_tracks": 12, "fp_rate": 1.0,
             "appearance_dim": 16},
            None,
        ),
    )
}


# ---------------------------------------------------------------- tracing

class Tracer:
    """In-memory spans: name, start, end, parent span index and trace id.

    Times come from HostClock.now, so the clock's own sampling inside a span
    does not count as the span's time.
    """

    def __init__(self, clock: HostClock | None = None):
        self._now = clock.now if clock else time.perf_counter
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.trace_id = ""
        self.pass_idx = 0

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "name": name, "start": self._now(), "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "trace_id": self.trace_id, "pass": self.pass_idx, "scale": 1.0,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = self._now()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def rescale(self, first: int, scale: float) -> None:
        """Set the host scale (see HostClock) of the spans from index first on."""
        for s in self.spans[first:]:
            s["scale"] = scale

    def duration(self, i: int) -> float:
        s = self.spans[i]
        return (s["end"] - s["start"]) * s["scale"]

    def self_times(self) -> list[float]:
        """Each span's scaled duration minus the part of it that its children cover."""
        children: list[list[tuple[float, float]]] = [[] for _ in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        out = []
        for s, kids in zip(self.spans, children):
            covered, reach = 0.0, s["start"]
            for a, b in sorted(kids):
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            out.append((s["end"] - s["start"] - covered) * s["scale"])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s, self_s in zip(self.spans, self.self_times()):
                fh.write(json.dumps({**s, "self": self_s}) + "\n")


@contextlib.contextmanager
def _untraced(name: str):
    yield


# ---------------------------------------------------------------- inputs

@dataclasses.dataclass
class Video:
    name: str
    det: Path
    gt: Path
    out: Path
    report: Path
    ref: Path
    chain_out: Path
    dets_in: int = 0


def write_inputs(w: Workload, seed: int, workdir: Path, span=_untraced) -> list[Video]:
    """Generate the workload's videos and write their input files."""
    videos = []
    for cfg in w.scenarios(seed):
        stem = workdir / cfg.video_id
        v = Video(cfg.video_id, *(Path(f"{stem}.{ext}") for ext in
                                  ("det", "gt", "out.det", "eval.json", "ref.det", "chain.det")))
        with span("simulate.generate"):
            gt, dets = tl.generate(cfg)
        with span("io.write_ground_truth"):
            tl.write_ground_truth(gt, v.gt)
        with span("io.write_detections"):
            tl.write_detections(dets, v.det)
        v.dets_in = sum(len(f) for f in dets.frames.values())
        videos.append(v)
    return videos


def import_seconds() -> float:
    """Reference-host seconds that a fresh interpreter takes to import tubelink."""
    code = ("import sys; sys.path[:0] = sys.argv[1:]; from hostclock import HostClock\n"
            "with HostClock().block() as t:\n    import tubelink\nprint(t.seconds)")
    child = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).resolve().parent), str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(child.stdout)


def setup(w: Workload, seed: int, workdir: Path, clock: HostClock, tracer: Tracer | None = None):
    """Return (videos, set-up seconds).

    Set-up is what a fresh process pays before its inputs are on disk:
    importing tubelink, then generating and writing the workload's videos.
    The import is timed IMPORT_REPEATS times in child interpreters and the
    rest SETUP_REPEATS times in this process; set-up is the sum of the two
    medians.
    """
    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    rounds = []
    for r in range(SETUP_REPEATS):
        first = len(tracer.spans) if tracer else 0
        with clock.block() as t:
            if tracer is None:
                videos = write_inputs(w, seed, workdir)
            else:
                tracer.trace_id, tracer.pass_idx = "setup", r
                with tracer.span("setup"):
                    videos = write_inputs(w, seed, workdir, tracer.span)
        if tracer:
            tracer.rescale(first, t.scale)
        rounds.append(t.seconds)
    return videos, statistics.median(imports) + statistics.median(rounds)


# ---------------------------------------------------------------- checks

class Tally:
    """Counts attempted and failed CLI calls and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def call_cli(argv: list[str]) -> int:
    """Call tubelink.cli.main with its output captured; return the exit code."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    except Exception:
        traceback.print_exc()
        code = 1
    if code != 0:
        print(sink.getvalue(), file=sys.stderr, end="")
    return code


def postprocess_argv(w: Workload, v: Video) -> list[str]:
    return ["postprocess", "--detections", str(v.det), "--out", str(v.out), *w.postprocess_flags()]


def eval_argv(v: Video) -> list[str]:
    return ["eval", "--detections", str(v.out), "--ground-truth", str(v.gt), "--out", str(v.report)]


def check_output(tally: Tally, w: Workload, v: Video) -> int:
    """Write write_detections(*postprocess_video(read_detections(in))) to
    v.ref and check that the CLI output equals it byte for byte and reads
    back through read_detections_with_ids to the same stream and ids.
    Returns the number of output detections."""
    refined, ids = tl.postprocess_video(tl.read_detections(v.det), w.pipeline_config())
    tl.write_detections(refined, v.ref, ids)
    tally.check(v.out.read_bytes() == v.ref.read_bytes(),
                f"{v.name}: postprocess output differs from postprocess_video")
    try:
        back = tl.read_detections_with_ids(v.out)
    except tl.TubelinkError as e:
        back = e
    tally.check(back == (refined, ids), f"{v.name}: output does not read back")
    return sum(len(f) for f in refined.frames.values())


def check_report(tally: Tally, v: Video) -> dict | None:
    """The eval --out report holds the mAPs that in-process evaluate gives."""
    try:
        report = json.loads(v.report.read_text(encoding="utf-8"))
        expect = tl.evaluate(tl.read_detections(v.out), tl.read_ground_truth(v.gt))
        ok = (report["map50"], report["map50_95"]) == (expect.map50, expect.map50_95)
    except (OSError, ValueError, KeyError, tl.TubelinkError):
        report, ok = None, False
    tally.check(ok, f"{v.name}: eval --out mAP differs from evaluate")
    return report if ok else None


# ---------------------------------------------------------------- trace 0

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has
    MIN_TAIL_BEYOND samples above it. With too few samples for such a
    percentile above the median, the tail is the median."""
    s = sorted(samples)
    n = len(s)
    k = n - MIN_TAIL_BEYOND - 1
    if k <= (n - 1) / 2:
        return statistics.median(s), 50.0
    return s[k], 100.0 * (n - MIN_TAIL_BEYOND) / n


def measure(w: Workload, videos: list[Video], seconds: float, tally: Tally,
            clock: HostClock) -> dict:
    """Time the CLI calls pass after pass until `seconds` have passed.

    Each video's first output is checked in full against in-process
    postprocess_video, after the timed call, and its first report against
    evaluate; later calls must write the same output bytes. The harness
    builds its reference objects only between timed calls. The mAPs are the
    means over the quality set's checked reports.
    """
    pp_s: list[float] = []
    ev_s: list[float] = []
    pp_wall = ev_wall = 0.0
    pp_dets = ev_dets = 0
    dets_out: dict[str, int] = {}
    reports: dict[str, dict] = {}
    passes = 0
    deadline = time.perf_counter() + seconds
    done = False
    while not done:
        for v in videos:
            with clock.block() as t:
                code = call_cli(postprocess_argv(w, v))
            if not tally.check(code == 0, f"{v.name}: postprocess exit {code}"):
                continue
            pp_s.append(t.seconds)
            pp_wall += t.wall
            pp_dets += v.dets_in
            if v.name in dets_out:
                tally.check(v.out.read_bytes() == v.ref.read_bytes(),
                            f"{v.name}: postprocess output changed between calls")
            else:
                dets_out[v.name] = check_output(tally, w, v)
            with clock.block() as t:
                code = call_cli(eval_argv(v))
            if tally.check(code == 0, f"{v.name}: eval exit {code}"):
                ev_s.append(t.seconds)
                ev_wall += t.wall
                ev_dets += dets_out[v.name]
                if v.name not in reports:
                    report = check_report(tally, v)
                    if report is not None:
                        reports[v.name] = report
            if passes > 0 and time.perf_counter() >= deadline:
                done = True
                break
        else:
            passes += 1
            done = time.perf_counter() >= deadline
    quality = [reports[v.name] for v in videos[:w.quality_videos] if v.name in reports]
    if not pp_s or not ev_s or not quality:
        raise RuntimeError("no successful postprocess and eval call to report")
    tail_s, tail_pct = tail(pp_s)
    q = statistics.quantiles(clock.scales, n=4)
    print(f"{w.name}: {passes} full passes, {len(pp_s)} postprocess calls, "
          f"{len(ev_s)} eval calls; tail is p{tail_pct:.1f} of {len(pp_s)} samples")
    print(f"host scale quartiles {q[0]:.3f} {q[1]:.3f} {q[2]:.3f}; unscaled "
          f"{pp_dets / pp_wall:.1f} postprocess det/s, {ev_dets / ev_wall:.1f} eval det/s")
    return {
        "postprocess_dets_per_s": (pp_dets / sum(pp_s), "det/s"),
        "eval_dets_per_s": (ev_dets / sum(ev_s), "det/s"),
        "postprocess_video_s.p50": (statistics.median(pp_s), "s"),
        "postprocess_video_s.tail": (tail_s, "s"),
        "map50": (statistics.fmean(r["map50"] for r in quality), "1"),
        "map50_95": (statistics.fmean(r["map50_95"] for r in quality), "1"),
    }


# ---------------------------------------------------------------- trace 1

@dataclasses.dataclass
class ChainCounts:
    """Work counts of one video's stage-by-stage run."""

    dets_generated: int
    read_bytes: int
    write_bytes: int
    nms_suppressed: int
    build_dets: int
    tubelet_pairs: int
    built: int
    dropped_short: int
    link_pairs: int
    merges: int
    frames_interpolated: int
    surviving_entries: int
    dets_out: int
    cells: int


def chain(w: Workload, v: Video, span) -> tuple:
    """postprocess_video's stages as separate public calls, then eval.

    Mirrors the stage order of tubelink.pipeline.postprocess_video for the
    settings the workloads use (refinement and tubelet linking on). The
    geometry.nms span is opened even when NMS is off, so it holds the cost of
    the stage's decision to skip. Returns the intermediate results.
    """
    cfg = w.pipeline_config()
    with span("io.read_detections"):
        raw = tl.read_detections(v.det)
    stream = raw
    with span("geometry.nms"):
        if cfg.nms_iou is not None:
            frames = {f: tl.nms(d, cfg.nms_iou) for f, d in raw.frames.items()}
            stream = tl.VideoDetections(raw.video_id, raw.frame_shape, raw.frame_count, frames)
    with span("tubelets.build_tubelets"):
        built = tl.build_tubelets(stream, cfg.model, cfg.tau_link, cfg.assignment)
    with span("tubelets.rescore"):
        refined = [tl.rescore(t, cfg.alpha) for t in built]
    with span("tubelets.smooth_coordinates"):
        refined = [tl.smooth_coordinates(t, cfg.smooth_window) for t in refined]
    with span("tubelets.filter_short"):
        kept = tl.filter_short(refined, cfg.min_len)
    with span("linking.link_tubelets"):
        linked = tl.link_tubelets(kept, cfg.model, cfg.g_max, cfg.tau_tub,
                                  stream.frame_shape, cfg.interp_score)
    with span("pipeline.tubelets_to_detections"):
        out, ids = tl.tubelets_to_detections(linked, stream)
    with span("io.write_detections"):
        tl.write_detections(out, v.chain_out, ids)
    with span("io.read_detections"):
        preds = tl.read_detections(v.chain_out)
    with span("io.read_ground_truth"):
        gt = tl.read_ground_truth(v.gt)
    with span("evaluation.evaluate"):
        tl.evaluate(preds, gt)
    return stream, built, kept, linked, out, preds, gt


def count_chain(w: Workload, v: Video, stream, built, kept, linked, out, preds, gt) -> ChainCounts:
    """The work counts of one chain run, from its inputs and intermediates."""
    build_dets = sum(len(f) for f in stream.frames.values())
    return ChainCounts(
        dets_generated=v.dets_in,
        read_bytes=v.det.stat().st_size + v.chain_out.stat().st_size,
        write_bytes=v.chain_out.stat().st_size,
        nms_suppressed=v.dets_in - build_dets,
        build_dets=build_dets,
        tubelet_pairs=frame_pair_count(stream),
        built=len(built),
        dropped_short=len(built) - len(kept),
        link_pairs=gap_pair_count(kept, w.pipeline_config().g_max),
        merges=len(kept) - len(linked),
        frames_interpolated=sum(e.interpolated for t in linked for e in t.entries),
        surviving_entries=sum(len(t) for t in kept),
        dets_out=sum(len(f) for f in out.frames.values()),
        cells=len({(d.class_id, d.frame_idx) for d in preds.all_detections()}
                  | {(b.class_id, b.frame_idx) for f in gt.frames.values() for b in f}),
    )


def frame_pair_count(stream) -> int:
    """Same-class detection pairs in consecutive frames: the pairs that
    build_tubelets scores."""
    per_frame = [
        _class_counts(stream.frames[f]) for f in range(stream.frame_count)
    ]
    return sum(
        n * nxt.get(c, 0)
        for cur, nxt in zip(per_frame, per_frame[1:])
        for c, n in cur.items()
    )


def _class_counts(dets) -> dict[int, int]:
    counts: dict[int, int] = {}
    for d in dets:
        counts[d.class_id] = counts.get(d.class_id, 0) + 1
    return counts


def gap_pair_count(tubelets, g_max: int) -> int:
    """Same-class (tail, head) pairs whose gap is 0..g_max frames: the pairs
    that link_tubelets scores."""
    starts: dict[int, list[int]] = {}
    for t in tubelets:
        starts.setdefault(t.class_id, []).append(t.start_frame)
    for s in starts.values():
        s.sort()
    return sum(
        bisect.bisect_right(starts[a.class_id], a.end_frame + 1 + g_max)
        - bisect.bisect_left(starts[a.class_id], a.end_frame + 1)
        for a in tubelets
    )


CLI_CALLS = {
    "cli.postprocess": {
        "load_model": "similarity.load_model",
        "read_detections": "io.read_detections",
        "postprocess_video": "pipeline.postprocess_video",
        "write_detections": "io.write_detections",
    },
    "cli.eval": {
        "read_detections": "io.read_detections",
        "read_ground_truth": "io.read_ground_truth",
        "evaluate_streams": "evaluation.evaluate_streams",
    },
}


def traced_cli(tracer: Tracer, clock: HostClock, root: str, argv: list[str]) -> int:
    """Run cli.main inside a root span, with each public call it makes wrapped
    in a child span, so the root's self time is the CLI's own cost."""
    first = len(tracer.spans)
    with contextlib.ExitStack() as stack:
        for attr, name in CLI_CALLS[root].items():
            stack.enter_context(mock.patch.object(cli, attr, tracer.wrap(name, getattr(cli, attr))))
        with clock.block() as t, tracer.span(root):
            code = call_cli(argv)
    tracer.rescale(first, t.scale)
    return code


LAYER_SPANS = {
    "io.read_detections_s": ("io.read_detections",),
    "io.write_detections_s": ("io.write_detections",),
    "io.read_ground_truth_s": ("io.read_ground_truth",),
    "geometry.nms_s": ("geometry.nms",),
    "tubelets.build_s": ("tubelets.build_tubelets",),
    "tubelets.refine_s": ("tubelets.rescore", "tubelets.smooth_coordinates", "tubelets.filter_short"),
    "linking.link_s": ("linking.link_tubelets",),
    "pipeline.flatten_s": ("pipeline.tubelets_to_detections",),
    "evaluation.evaluate_s": ("evaluation.evaluate",),
}


def trace_run(w: Workload, videos: list[Video], seconds: float, tally: Tally,
              clock: HostClock, tracer: Tracer, setup_spans: int) -> dict:
    """Traced passes for up to `seconds`; per-pass sums, median over passes.

    An untimed warm-up pass first counts the work and checks the counts. Each
    timed pass then runs, per video, the traced chain, the same chain untraced
    (in alternating order, for the tracing overhead) and the two CLI calls
    with their public calls traced.
    """
    per_pass: list[dict[str, float]] = []
    counts: dict[str, ChainCounts] = {}
    for v in videos:  # untimed warm-up pass: the work counts and their check
        c = counts[v.name] = count_chain(w, v, *chain(w, v, _untraced))
        tally.check(c.dets_out == c.surviving_entries + c.frames_interpolated,
                    f"{v.name}: dets out != surviving entries + interpolated frames")
    start = time.perf_counter()
    # a pass starts only when it can end by the deadline, judging by the last one
    while not per_pass or time.perf_counter() + pass_s <= start + seconds:
        pass_start = time.perf_counter()
        p = len(per_pass)
        tracer.pass_idx = p
        first_span = len(tracer.spans)
        untraced_s = 0.0
        for v in videos:
            tracer.trace_id = v.name
            for traced in ((True, False) if p % 2 == 0 else (False, True)):
                first = len(tracer.spans)
                with clock.block() as t:
                    if traced:
                        with tracer.span("chain"):
                            chain(w, v, tracer.span)
                    else:
                        chain(w, v, _untraced)
                if traced:
                    tracer.rescale(first, t.scale)
                else:
                    untraced_s += t.seconds
            for root, argv in (("cli.postprocess", postprocess_argv(w, v)),
                               ("cli.eval", eval_argv(v))):
                code = traced_cli(tracer, clock, root, argv)
                tally.check(code == 0, f"{v.name}: {root} exit {code}")
            tally.check(v.out.read_bytes() == v.chain_out.read_bytes(),
                        f"{v.name}: postprocess output differs from the stage-by-stage run")
        per_pass.append(pass_times(tracer, first_span, untraced_s, tally))
        pass_s = time.perf_counter() - pass_start

    setup_rounds = [0.0] * SETUP_REPEATS
    for i, s in enumerate(tracer.spans[:setup_spans]):
        if s["name"] == "simulate.generate":
            setup_rounds[s["pass"]] += tracer.duration(i)
    med = {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
    total = lambda field: sum(getattr(c, field) for c in counts.values())
    pairs, built_links = total("tubelet_pairs"), total("build_dets") - total("built")
    print(f"{w.name}: {len(per_pass)} traced passes")
    return {
        "simulate.generate_s": (statistics.median(setup_rounds), "s"),
        "simulate.dets_generated": (total("dets_generated"), "count"),
        "io.read_detections_s": (med["io.read_detections_s"], "s"),
        "io.read_bytes": (total("read_bytes"), "B"),
        "io.write_detections_s": (med["io.write_detections_s"], "s"),
        "io.write_bytes": (total("write_bytes"), "B"),
        "io.read_ground_truth_s": (med["io.read_ground_truth_s"], "s"),
        "geometry.nms_s": (med["geometry.nms_s"], "s"),
        "geometry.nms_suppressed": (total("nms_suppressed"), "count"),
        "tubelets.build_s": (med["tubelets.build_s"], "s"),
        "tubelets.candidate_pairs": (pairs, "count"),
        "tubelets.build_us_per_pair": (1e6 * med["tubelets.build_s"] / max(pairs, 1), "us"),
        "tubelets.pairs_per_det": (pairs / max(total("build_dets"), 1), "1"),
        "tubelets.links_accepted": (built_links, "count"),
        "tubelets.link_yield": (built_links / max(pairs, 1), "1"),
        "tubelets.refine_s": (med["tubelets.refine_s"], "s"),
        "tubelets.built": (total("built"), "count"),
        "tubelets.dropped_short": (total("dropped_short"), "count"),
        "linking.link_s": (med["linking.link_s"], "s"),
        "linking.candidate_pairs": (total("link_pairs"), "count"),
        "linking.merges": (total("merges"), "count"),
        "linking.merge_yield": (total("merges") / max(total("link_pairs"), 1), "1"),
        "linking.frames_interpolated": (total("frames_interpolated"), "count"),
        "pipeline.flatten_s": (med["pipeline.flatten_s"], "s"),
        "pipeline.dets_out": (total("dets_out"), "count"),
        "evaluation.evaluate_s": (med["evaluation.evaluate_s"], "s"),
        "evaluation.class_frame_cells": (total("cells"), "count"),
        "evaluation.match_calls": (total("cells") * len(tl.IOU_THRESHOLDS), "count"),
        "cli.postprocess_self_s": (med["cli.postprocess_self_s"], "s"),
        "cli.eval_self_s": (med["cli.eval_self_s"], "s"),
        "trace.chain_s": (med["trace.chain_s"], "s"),
        "trace.unattributed_s": (med["trace.unattributed_s"], "s"),
        "trace.overhead_ratio": (med["trace.overhead_ratio"], "1"),
    }


def pass_times(tracer: Tracer, first: int, untraced_s: float, tally: Tally) -> dict[str, float]:
    """Layer busy times, CLI self times and the chain remainder of one pass."""
    self_s = tracer.self_times()
    spans = tracer.spans
    busy: dict[str, float] = {}
    roots = {"chain": 0.0, "cli.postprocess": 0.0, "cli.eval": 0.0}
    roots_self = dict(roots)
    for i in range(first, len(spans)):
        s = spans[i]
        if s["parent"] is None:
            roots[s["name"]] += tracer.duration(i)
            roots_self[s["name"]] += self_s[i]
        elif spans[s["parent"]]["name"] == "chain":
            busy[s["name"]] = busy.get(s["name"], 0.0) + tracer.duration(i)
    chain_s, unattributed = roots["chain"], roots_self["chain"]
    tally.check(abs(sum(busy.values()) + unattributed - chain_s) <= 1e-9 * max(chain_s, 1.0),
                "chain spans and remainder do not add up to the chain wall time")
    out = {metric: sum(busy.get(n, 0.0) for n in names) for metric, names in LAYER_SPANS.items()}
    out.update({
        "cli.postprocess_self_s": roots_self["cli.postprocess"],
        "cli.eval_self_s": roots_self["cli.eval"],
        "trace.chain_s": chain_s,
        "trace.unattributed_s": unattributed,
        "trace.overhead_ratio": chain_s / untraced_s - 1.0,
    })
    return out


# ---------------------------------------------------------------- entry

def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
        spans_path: Path | None = None) -> dict:
    """One benchmark run; returns the result object that run.py prints last."""
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    clock = HostClock()
    tracer = Tracer(clock) if trace else None
    videos, setup_s = setup(w, seed, workdir, clock, tracer)
    if trace:
        metrics = trace_run(w, videos, seconds, tally, clock, tracer, len(tracer.spans))
        if spans_path is not None:
            tracer.write(spans_path)
    else:
        metrics = measure(w, videos, seconds, tally, clock)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        metrics["ok_ratio"] = (1.0 - tally.failed / tally.attempted, "1")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=25.0, help="how long to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    w = WORKLOADS[args.workload]
    tag = f"{w.name}-{args.seed}"
    workdir = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    try:
        result = run(w, args.seed, args.seconds, bool(args.trace), workdir,
                     ROOT / ".perfbench_out" / f"spans-{tag}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
