"""Fuzzing the stream and model readers: random headers, lines and tokens fed
to read_detections, read_ground_truth and load_model must either parse or
raise a TubelinkError (the CLI's exit 1), in bounded time. A stream that
reads is also postprocessed, since that is what the CLI does with it.

test_fuzz_eval_paths_agree feeds random detection/ground-truth file pairs to
``eval`` twice: as read_columns reads them, numpy parsing each body that it
takes as it stands, and with every body read line by line, as read_columns
reads a body that numpy refuses. Exit code, stderr, printed tables and
report bytes must agree.

test_fuzz_eval_identity scores small ground-truth files with extreme valid
values against themselves through ``eval --out``: the report must be the
oracle evaluator's, and every class whose boxes all have a positive float
corner area must reach AP50 1.

test_fuzz_postprocess feeds small detection files with extreme valid values
to ``postprocess`` (with the default flags, ``--nms-iou 0.5``, ``--assignment
exact`` and, now and then, ``--jobs 2``) and to ``inspect``: each exits 0 or
1 with one ``error:`` line, in bounded time, what it writes reads back, and
``--jobs 1`` and ``--jobs 2`` write the same bytes.

The case these tests found, descriptors of different lengths in one stream,
has its named regression test in test_pipeline_cli.py
(test_descriptor_lengths_differ_is_a_data_error). The header bound, the
UTF-8 check and the size-ratio error have theirs in test_io.py
(TestHeaderBounds, TestNotUtf8) and test_pipeline_cli.py.
"""

import contextlib
import io
import json
import sys
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tubelink import cli
from tubelink import (
    PipelineConfig,
    TubelinkError,
    load_model,
    postprocess_video,
    read_detections,
    read_ground_truth,
)
from tubelink.io import MAX_FRAME_COUNT

from conftest import line_by_line
from test_evaluation import evaluate_oracle
from test_simulate import time_limit

HUGE = "1" + "0" * 400  # an integer too large for a float

NUMBER = st.one_of(
    st.sampled_from([
        "0", "1", "2", "3", "-1", "-0", "0.5", "0.6", "0.8", "1.0", "10", "1280", "720",
        "1e300", "-1e300", "1e-300", "nan", "inf", "-inf", HUGE, "1" * 5000, "0x10", "1_0",
    ]),
    st.integers().map(str),
    st.floats().map(repr),
)
TOKEN = st.one_of(NUMBER, st.text(max_size=8))


def mostly(plausible, other=TOKEN, odds=10):
    """One draw in `odds` from `other`, the rest from `plausible`."""
    return st.integers(1, odds).flatmap(lambda k: other if k == odds else plausible)


def reals(lo, hi):
    return st.floats(lo, hi).map(repr)


FRAME_COUNT = mostly(
    st.one_of(st.integers(4, 8), st.integers(9, MAX_FRAME_COUNT)).map(str),
    st.sampled_from(["-1", "0", "1", str(MAX_FRAME_COUNT + 1), str(10 ** 12), HUGE,
                     "1" * 5000, "1e3", "x"]),
)
HEADER = mostly(st.builds(
    lambda w, h, n, extra: f"#video v {w} {h} {n}{extra}",
    mostly(st.integers(1, 2000).map(str)), mostly(st.integers(1, 2000).map(str)),
    FRAME_COUNT, mostly(st.just(""), st.just(" extra")),
), st.text(max_size=20))


def record(*fields, tail=st.just([])):
    """A line of plausible fields, each sometimes replaced by any token, with
    optional trailing tokens; or, one time in ten, a junk line."""
    line = st.builds(lambda head, rest: " ".join([*head, *rest]),
                     st.tuples(*[mostly(f, odds=60) for f in fields]), tail)
    junk = st.one_of(st.text(max_size=20), st.lists(TOKEN, max_size=9).map(" ".join))
    return mostly(line, junk, odds=30)


FRAME, CLASS = st.integers(0, 3).map(str), st.integers(0, 2).map(str)
BOX = [reals(-50, 300), reals(-50, 300), reals(1e-3, 80), reals(1e-3, 80)]
# unit descriptors, and components that are not
DESCRIPTOR = mostly(st.sampled_from([[], [], ["1", "0"], ["0", "1"], ["0.6", "0.8"], ["-0.8", "0.6"]]),
                    st.lists(NUMBER, max_size=3))
DETECTION_LINE = record(FRAME, CLASS, *BOX, reals(0, 1), tail=DESCRIPTOR)
TUBELET_LINE = record(FRAME, CLASS, *BOX, reals(0, 1), st.integers(0, 5).map(str), tail=DESCRIPTOR)
GROUND_TRUTH_LINE = record(FRAME, CLASS, st.integers(0, 30).map(str), *BOX)


def stream_texts(header, marker, line):
    return st.builds(lambda h, body: "\n".join([h, *marker, *body]),
                     header, mostly(st.lists(line, min_size=2, max_size=6),
                                    st.lists(line, max_size=1), odds=4))


DETECTION_TEXTS = st.one_of(stream_texts(HEADER, [], DETECTION_LINE),
                            stream_texts(HEADER, ["#tubelets"], TUBELET_LINE))
GROUND_TRUTH_TEXTS = stream_texts(HEADER, [], GROUND_TRUTH_LINE)
MODEL_TEXTS = st.builds(
    lambda magic, weights, bias, extra: "\n".join([magic, weights, bias, *extra]),
    mostly(st.just("repp-model v1")),
    mostly(st.lists(reals(-500, 500), min_size=8, max_size=8),
           st.lists(NUMBER, min_size=7, max_size=9)).map(" ".join),
    mostly(reals(-10, 10), st.lists(NUMBER, max_size=2).map(" ".join)),
    mostly(st.just([]), st.lists(st.text(max_size=10), max_size=1)),
)
# bytes that are not all UTF-8 after a valid header
RAW_BYTES = st.binary(max_size=40).map(lambda b: b"#video v 100 100 2\n0 0 1 1 5 5 0.5 " + b)

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "in.txt"


def feed(path, data, reader):
    """Write data to path and read it; only a TubelinkError may escape."""
    if isinstance(data, str):
        path.write_text(data, encoding="utf-8")
    else:
        path.write_bytes(data)
    with time_limit(2.0):
        try:
            return reader(path)
        except TubelinkError:
            return None


@FUZZ
@given(mostly(DETECTION_TEXTS, RAW_BYTES))
def test_fuzz_read_detections(path, text):
    stream = feed(path, text, read_detections)
    if stream is not None:
        with time_limit(2.0):
            try:
                postprocess_video(stream, PipelineConfig(nms_iou=0.5))
            except TubelinkError:
                pass


@FUZZ
@given(mostly(GROUND_TRUTH_TEXTS, RAW_BYTES))
def test_fuzz_read_ground_truth(path, text):
    feed(path, text, read_ground_truth)


@FUZZ
@given(mostly(MODEL_TEXTS, RAW_BYTES))
def test_fuzz_load_model(path, text):
    feed(path, text, load_model)


# Mostly valid eval inputs, so that both routes often get to the evaluator;
# the odd token is one the two routes must treat alike. Tokens that int() or
# float() take and numpy's text reader refuses (1_0, ٣) send a body line by
# line.
ODD_INT = st.one_of(
    st.sampled_from(["-1", "-0", "1_0", "+2", "1.5", "1.0", "٣", str(2 ** 63),
                     "-" + str(2 ** 63 + 1), "99999999999999999999999", HUGE, "x"]),
    st.integers(10 ** 19, 10 ** 40 - 1).map(str),  # 20-40 digits, beyond int64
)
ODD_REAL = st.sampled_from(["nan", "+nan", "inf", "-inf", "-0.0", "0", "1_0", "1_0.5", "1e308",
                            "5e-324", "1e", ".", "+.5e-3", "٣", "0x1", "x"])
EVAL_INT = lambda lo, hi: mostly(st.integers(lo, hi).map(str), ODD_INT, odds=50)


def long_reals(lo, hi):
    """Decimal strings of about 20-40 digits, more than a float holds, near
    floats in [lo, hi]: the digits past the 17th decide the rounding."""
    return st.builds(lambda x, digits: f"{x:.17f}{digits}", st.floats(lo, hi),
                     st.text("0123456789", min_size=3, max_size=21))


EVAL_REAL = lambda lo, hi: mostly(mostly(reals(lo, hi), long_reals(lo, hi), odds=5), ODD_REAL,
                                  odds=100)
EVAL_BOX = [EVAL_REAL(-10, 60), EVAL_REAL(-10, 60), EVAL_REAL(1, 40), EVAL_REAL(1, 40)]
EVAL_DESCRIPTOR = mostly(st.sampled_from([[], ["0.6", "0.8"], ["1", "0"], ["0", "-1"]]),
                         st.lists(NUMBER, max_size=3), odds=20)
# Every character that str.split splits on and str.splitlines leaves in a line
# (\t, \x1f, \xa0, \u2003, ...) separates fields as a space does, and a line of
# them alone is blank.
IN_LINE_SPACE = [c for c in map(chr, range(sys.maxunicode + 1))
                 if c.isspace() and len(f"a{c}a".splitlines()) == 1]
SEPARATOR = mostly(st.just(" "), st.text(st.sampled_from(IN_LINE_SPACE), min_size=1, max_size=2),
                   odds=8)
BLANK = st.one_of(st.just(""), st.text(st.sampled_from(IN_LINE_SPACE), min_size=1, max_size=3))


def eval_text(header, fields, tail=st.just([]), marker=False):
    line = st.builds(lambda head, rest, sep: sep.join([*head, *rest]), st.tuples(*fields), tail,
                     SEPARATOR)
    body = st.lists(mostly(line, BLANK, odds=8), max_size=8)
    return st.builds(lambda h, b: "\n".join([h, *(["#tubelets"] if marker else []), *b]),
                     header, body)


EVAL_HEADER = st.builds(lambda video, n: f"#video {video} 100 100 {n}",
                        mostly(st.just("v"), st.just("w"), odds=12),
                        mostly(st.just("4"), st.sampled_from(["3", "5"]), odds=12))
EVAL_FRAME, EVAL_CLASS = EVAL_INT(0, 3), EVAL_INT(0, 2)
EVAL_DETECTIONS = st.one_of(
    eval_text(EVAL_HEADER, [EVAL_FRAME, EVAL_CLASS, *EVAL_BOX, EVAL_REAL(0, 1)], EVAL_DESCRIPTOR),
    eval_text(EVAL_HEADER, [EVAL_FRAME, EVAL_CLASS, *EVAL_BOX, EVAL_REAL(0, 1), EVAL_INT(0, 5)],
              EVAL_DESCRIPTOR, marker=True),
)
# track ids 0..9 in frames 0..3 repeat now and then
EVAL_GROUND_TRUTH = eval_text(EVAL_HEADER, [EVAL_FRAME, EVAL_CLASS, EVAL_INT(0, 9), *EVAL_BOX])
EVAL_PAIRS = st.lists(st.tuples(mostly(EVAL_DETECTIONS, DETECTION_TEXTS),
                                mostly(EVAL_GROUND_TRUTH, GROUND_TRUTH_TEXTS)),
                      min_size=1, max_size=2)

GOOD_DETECTIONS = "#video v 100 100 4\n0 0 1 1 5 5 0.5\n2 1 3 3 5 5 0.9\n"
GOOD_GROUND_TRUTH = "#video v 100 100 4\n0 0 0 1 1 5 5\n2 1 0 3 3 6 5\n"
# a class id beyond int64, which both routes reject
BEYOND_INT64 = [(GOOD_DETECTIONS + f"1 {2 ** 64} 1 1 5 5 0.5\n", GOOD_GROUND_TRUTH)]
# two bad lines in one file: the first in file order wins
TWO_BAD_LINES = [("#video v 100 100 4\n0 0 1 1 5 5 1.5\n0 0 x 1 5 5 0.5\n", GOOD_GROUND_TRUTH)]


def run_eval(paths, per_video, out, pr):
    """eval's exit code, stdout, stderr and report bytes."""
    for p in (out, pr):
        p.unlink(missing_ok=True)
    argv = [a for d, g in paths for a in ("--detections", str(d), "--ground-truth", str(g))]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["eval", *argv, *(["--per-video"] if per_video else []),
                         "--out", str(out), "--pr-out", str(pr)])
    files = [p.read_bytes() if p.exists() else None for p in (out, pr)]
    return code, stdout.getvalue(), stderr.getvalue(), files


@FUZZ
@given(EVAL_PAIRS, st.booleans())
@example(TWO_BAD_LINES, False)
# a metadata mismatch in pair 1 and a parse error in pair 2: the read error wins
@example([(GOOD_DETECTIONS, GOOD_GROUND_TRUTH.replace("v", "w", 1)),
          (GOOD_DETECTIONS + "1 0 1 1 5 x 0.5\n", GOOD_GROUND_TRUTH)], True)
# a repeated track id, and a class id beyond int64
@example([(GOOD_DETECTIONS, GOOD_GROUND_TRUTH + "\n2 0 0 1 1 5 5\n")], False)
@example(BEYOND_INT64, True)
def test_fuzz_eval_paths_agree(tmp_path_factory, texts, per_video):
    tmp = tmp_path_factory.getbasetemp()
    paths = []
    for k, pair in enumerate(texts):
        paths.append((tmp / f"d{k}.txt", tmp / f"g{k}.txt"))
        for p, text in zip(paths[-1], pair):
            p.write_text(text, encoding="utf-8")
    out, pr = tmp / "report.json", tmp / "pr.csv"
    with time_limit(2.0):
        columns = run_eval(paths, per_video, out, pr)
        with line_by_line():
            objects = run_eval(paths, per_video, out, pr)
    assert columns == objects
    if texts == BEYOND_INT64:
        assert columns[0] == 1
    if texts == TWO_BAD_LINES:
        assert columns[:3] == (1, "", f"error: {paths[0][0]}:2: score out of [0,1]: 1.5\n")


# Extreme valid boxes: sides from 1e-300 to 1e300, coordinates far from 0,
# where x + w can round back to x, and intersections that overflow.
IDENTITY_COORD = st.one_of(st.floats(-50, 300), st.floats(-1e300, 1e300),
                           st.sampled_from([1e17, -1e17, 2.0 ** 60, -0.0, 1e300, -1e300]))
IDENTITY_SIDE = st.one_of(st.floats(0.5, 80), st.floats(1e-300, 1e300),
                          st.sampled_from([1e-300, 1.0, 1e300]))
IDENTITY_BOX = st.tuples(st.integers(0, 3), st.integers(0, 2), IDENTITY_COORD, IDENTITY_COORD,
                         IDENTITY_SIDE, IDENTITY_SIDE)
# a few distinct boxes drawn up to 40 times, so boxes repeat and frames hold many
IDENTITY_BOXES = st.lists(IDENTITY_BOX, min_size=1, max_size=12).flatmap(
    lambda boxes: st.lists(st.sampled_from(boxes), min_size=1, max_size=40))


@FUZZ
@given(IDENTITY_BOXES, st.booleans())
# a zero-width box, an area that underflows and two boxes whose IoU overflows
@example([(0, 0, 1e17, 0.0, 1.0, 1.0), (0, 0, 0.0, 0.0, 1e-300, 1e-300),
          (0, 1, 0.0, 0.0, 1e300, 1e300), (0, 1, 1e299, 0.0, 1e300, 1e300)], False)
def test_fuzz_eval_identity(tmp_path_factory, boxes, one_frame):
    """Ground truth scored against itself, each box a prediction of score 1."""
    if one_frame:
        boxes = [(0, *b[1:]) for b in boxes]
    tmp = tmp_path_factory.getbasetemp()
    gt, det, out = tmp / "identity.gt", tmp / "identity.det", tmp / "identity.json"
    header = "#video v 1280 720 4\n"
    gt.write_text(header + "".join(f"{f} {c} {k} {x!r} {y!r} {w!r} {h!r}\n"
                                   for k, (f, c, x, y, w, h) in enumerate(boxes)), encoding="utf-8")
    det.write_text(header + "".join(f"{f} {c} {x!r} {y!r} {w!r} {h!r} 1.0\n"
                                    for f, c, x, y, w, h in boxes), encoding="utf-8")
    stderr = io.StringIO()
    with time_limit(2.0), warnings.catch_warnings(), contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = cli.main(["eval", "--detections", str(det), "--ground-truth", str(gt),
                         "--out", str(out)])
    assert (code, stderr.getvalue()) == (0, "")
    want = evaluate_oracle([(read_detections(det), read_ground_truth(gt))])
    report = out.read_text(encoding="utf-8")
    assert report == json.dumps(want.to_dict(), indent=2, sort_keys=True) + "\n"
    for c, ap in json.loads(report)["per_class_ap"].items():
        if all((x + w - x) * (y + h - y) > 0.0 for _, k, x, y, w, h in boxes if k == int(c)):
            assert ap["0.50"] == 1.0


# Extreme valid postprocess inputs: the sides above, scores of 0 and 1,
# descriptors at the reader's bound |1 - |v|| <= 1e-6 (1 + 1e-6 passes it and
# 1 - 1e-6 rounds just beyond it) and now and then farther out, one frame
# holding many boxes, and frames up to the header's bound.
UNIT_DESCRIPTOR = mostly(
    st.sampled_from([(1.0, 0.0), (0.6, 0.8), (0.0, -1.0), (1 + 1e-6, 0.0), (0.0, 1 - 1e-6),
                     (-1 - 1e-6, 0.0)]),
    st.sampled_from([(1 + 2e-6, 0.0), (0.0, 1 - 2e-6)]), odds=40)
POST_BOX = st.tuples(st.integers(0, 3), st.integers(0, 2), IDENTITY_COORD, IDENTITY_COORD,
                     IDENTITY_SIDE, IDENTITY_SIDE,
                     st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)), UNIT_DESCRIPTOR)
POST_BOXES = st.lists(POST_BOX, min_size=1, max_size=12).flatmap(
    lambda boxes: st.lists(st.sampled_from(boxes), min_size=1, max_size=40))
POSTPROCESS_FLAGS = ([], ["--nms-iou", "0.5"], ["--assignment", "exact"])
# boxes near -+1.7e308 in consecutive frames: their centre displacement overflows
DX_OVERFLOW = [(0, 0, -1.7e308, 0.0, 1.0, 1.0, 0.9, (1.0, 0.0)),
               (1, 0, 1.7e308, 0.0, 1.0, 1.0, 0.9, (1.0, 0.0))]


def run_cli(*argv):
    """cli.main's exit code and stderr, with every warning raised as an error."""
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = cli.main([str(a) for a in argv])
    assert code in (0, 1)
    lines = stderr.getvalue().splitlines(keepends=True)
    assert (code, lines) == (0, []) or (code == 1 and len(lines) == 1
                                        and lines[0].startswith("error: "))
    return code, stderr.getvalue()


@FUZZ
@given(POST_BOXES, st.booleans(), st.sampled_from([3, MAX_FRAME_COUNT - 1]), st.booleans(),
       st.integers(0, 24))
@example(DX_OVERFLOW, False, 3, False, 1)
def test_fuzz_postprocess(tmp_path_factory, boxes, one_frame, last, descriptors, jobs_draw):
    """postprocess and inspect exit 0 or 1 with one error line, and what they
    write reads back; --jobs 2 writes the bytes of --jobs 1."""
    tmp = tmp_path_factory.getbasetemp()
    det, det2, out, out2 = (tmp / f"post.{name}" for name in ("det", "det2", "out", "out2"))
    lines = [f"#video v 1280 720 {last + 1}"]
    for f, c, x, y, w, h, score, (a, b) in boxes:
        tail = f" {a!r} {b!r}" if descriptors else ""
        lines.append(f"{last if one_frame else last - 3 + f} {c} {x!r} {y!r} {w!r} {h!r} "
                     f"{score!r}{tail}")
    det.write_text("\n".join(lines) + "\n", encoding="utf-8")
    det2.write_bytes(det.read_bytes())
    with time_limit(5.0):
        run_cli("inspect", "--detections", det)
        for flags in POSTPROCESS_FLAGS:
            out.unlink(missing_ok=True)
            code, stderr = run_cli("postprocess", "--detections", det, "--out", out, *flags)
            if boxes == DX_OVERFLOW:
                assert (code, stderr) == (1, "error: link feature dx is not finite: inf\n")
            if code == 0:
                read_detections(out)
                assert run_cli("inspect", "--detections", out) == (0, "")
        if jobs_draw == 0:  # a process pool per example: a few examples only
            written = []
            for jobs in (1, 2):
                for p in (out, out2):
                    p.unlink(missing_ok=True)
                result = run_cli("postprocess", "--detections", det, "--detections", det2,
                                 "--out", out, "--out", out2, "--jobs", jobs)
                written.append((result, [p.read_bytes() if p.exists() else None
                                         for p in (out, out2)]))
            assert written[0] == written[1]
