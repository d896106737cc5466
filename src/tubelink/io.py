"""Reading and writing detection streams and ground-truth annotations.

File format (UTF-8, space separated, one record per line):

    #video <video_id> <width> <height> <frame_count>
    #tubelets                          (optional marker, detections only)
    <frame_idx> <class_id> <x> <y> <w> <h> <score> [tubelet_id] [a1 ... ak]

Ground truth uses the same header and lines of
``<frame_idx> <class_id> <track_id> <x> <y> <w> <h>``.

The ``#tubelets`` marker announces an extra integer column after the score;
without it the trailing floats (if any) are the appearance descriptor. Reals
are serialized with Python's shortest exact representation, so a
write -> read round trip reproduces every value bit for bit.

Only frames that hold boxes are stored (see Frames). The header's
frame_count bounds the frame indices, and time and memory follow the lines:
read_columns holds a file's text and its lines together while it splits
them, and then the lines and their arrays, about 2.2 to 3.8 times the
file's size at its peak, and a writer adds at most one chunk of CHUNK_LINES
lines, formatted, joined and encoded at a time, to what it is given.

Validation is total: a malformed file raises ParseError or ValidationError
with the offending path/line, never a partially built stream.

Each header rule is one settings.Check: VIDEO_ID, FRAME_COUNT (an integer
in [0, MAX_FRAME_COUNT]) and, for width and height, FrameShape's
settings.FRAME_SIDE. The readers check the header with them, and a stream
when it is constructed, so every stream writes a header that reads back.

read_columns, the one parser of stream files, gives a file's boxes as arrays
in stored order, by frame: descriptors as rows of one matrix, and every
frame, class id, track id and tubelet id as int64. Each of these is one that
geometry.ID takes, an integer in [0, 2**63 - 1], so every stream fits the
arrays. The object readers build their objects from these columns.
columns_of and stream_of map a stream and its ids to columns and back.
write_detections writes either, each line formatted in one place. Before
it opens the file, it refuses a tubelet id that ID refuses, as the reader
would, and checks columns with the reader's own bulk checks (_rows_ok), a
chunk at a time, so a row that the reader would refuse is refused with its
objects' error; an id column that is not of a signed integer type, or
columns without scores (ground truth's), are refused as a misuse.

A line that breaks a value rule raises the error of the object it would
make (BBox, then Detection or TrackBox, then a tubelet id's ID), so a
file's message is the value types' own, prefixed with path:line: for example
``d.txt:2: score must be in [0,1], got 1.3``.
"""

from __future__ import annotations

import warnings
from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import ContractError, ParseError, ValidationError
from .geometry import _MAX_ID, BOX, ID, BBox, Detection, FrameShape, added
from .settings import Check, integer, shown

HEADER_TAG = "#video"
TUBELET_TAG = "#tubelets"
# Lines per write. A writer formats, joins and encodes one chunk of lines at
# a time, so its memory follows the chunk, not the file.
CHUNK_LINES = 4096
# Frames per video, about 9 h at 30 fps. Only frames that hold boxes are
# stored, so the bound does not guard memory; it keeps frame indices in a
# sane range, and the simulator's per-frame loop shares it.
MAX_FRAME_COUNT = 1_000_000
FRAME_COUNT = integer(lambda v: 0 <= v <= MAX_FRAME_COUNT, f"an integer in [0, {MAX_FRAME_COUNT}]")
# a header field: str.split must give it back whole, and UTF-8 must encode
# it, which refuses only the surrogates
VIDEO_ID = Check(lambda v: isinstance(v, str) and v != "" and not any(
                     c.isspace() or "\ud800" <= c <= "\udfff" for c in v),
                 "a non-empty UTF-8 string without whitespace")
_FRAME_SHAPE = Check(lambda v: isinstance(v, FrameShape), "a FrameShape")


def _check_video(video_id: str, frame_count: int) -> None:
    VIDEO_ID.require("video_id", video_id)
    FRAME_COUNT.require("frame_count", frame_count)


class Frames(dict):
    """Frame index -> that frame's list, holding only the non-empty frames, in
    frame order. Any other frame reads as an empty list that is not stored,
    so time and memory follow the boxes, not the frame count."""

    def __init__(self, frames: Mapping[int, list] = {}):
        super().__init__((f, frames[f]) for f in sorted(frames) if frames[f])

    def __missing__(self, frame_idx: int) -> list:
        return []


@dataclass
class _Stream:
    """One video's header fields and its boxes by frame, stored as Frames."""

    video_id: str
    frame_shape: FrameShape
    frame_count: int
    frames: dict[int, list] = field(default_factory=Frames)

    def __post_init__(self):
        _check_video(self.video_id, self.frame_count)
        _FRAME_SHAPE.require("frame_shape", self.frame_shape)
        for idx, boxes in self.frames.items():
            if not (0 <= idx < self.frame_count):
                raise ValidationError(
                    f"frame index {shown(idx)} outside [0, {self.frame_count})"
                )
            for b in boxes:
                if b.frame_idx != idx:
                    raise ValidationError(
                        f"box frame_idx {shown(b.frame_idx)} stored under frame {idx}"
                    )
        self.frames = Frames(self.frames)


@dataclass
class VideoDetections(_Stream):
    """Frame-indexed detections for one video.

    Only frames with detections are stored; ``frames[t]`` of any other frame
    is an empty list, so "no detections" and "frame missing" read the same.
    """

    def all_detections(self) -> list[Detection]:
        """Detections flattened in (frame, file) order."""
        return [d for dets in self.frames.values() for d in dets]


@dataclass(frozen=True)
class TrackBox:
    """One annotated ground-truth box with its track identity."""

    frame_idx: int
    class_id: int
    track_id: int
    bbox: BBox

    def __post_init__(self):
        # one inline test; only a value that fails it goes to ID, as in Detection
        f, k, t = self.frame_idx, self.class_id, self.track_id
        if not (type(f) is int and type(k) is int and type(t) is int
                and 0 <= f <= _MAX_ID and 0 <= k <= _MAX_ID and 0 <= t <= _MAX_ID):
            ID.require("frame_idx", f)
            ID.require("class_id", k)
            ID.require("track_id", t)
        if type(self.bbox) is not BBox:
            BOX.require("bbox", self.bbox)


@dataclass
class GroundTruth(_Stream):
    """Frame-indexed annotated boxes; track_ids are unique within a frame."""

    def __post_init__(self):
        super().__post_init__()
        for idx, boxes in self.frames.items():
            seen: set[int] = set()
            for b in boxes:
                if b.track_id in seen:
                    raise ValidationError(f"duplicate track_id {b.track_id} in frame {idx}")
                seen.add(b.track_id)


def read_text(path: str | Path) -> str:
    """A file's text; bytes that are not UTF-8 raise ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text ({e.reason} at byte {e.start})", str(path)) from None


def _parse(kind: type, token: str, what: str, path: str | None,
           line_no: int | None) -> int | float:
    try:
        return kind(token)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ParseError(f"{what} is not {noun}: {token!r}", path, line_no) from None


def _read_header(lines: list[str], path: str) -> tuple[str, FrameShape, int]:
    if not lines or not lines[0].startswith(HEADER_TAG + " "):
        raise ParseError(f"first line must start with '{HEADER_TAG}'", path, 1)
    parts = lines[0].split()
    if len(parts) != 5:
        raise ParseError(
            f"header needs '{HEADER_TAG} <video_id> <width> <height> <frame_count>'",
            path, 1,
        )
    _, video_id, w, h, n = parts
    width = _parse(int, w, "width", path, 1)
    height = _parse(int, h, "height", path, 1)
    frame_count = _parse(int, n, "frame_count", path, 1)
    try:
        _check_video(video_id, frame_count)
        shape = FrameShape(width, height)
    except ValidationError as e:
        raise ValidationError(f"{path}:1: {e}") from None
    return video_id, shape, frame_count


_DETECTION_COLUMNS = ("frame_idx", "class_id", "x", "y", "w", "h", "score")
_GROUND_TRUTH_COLUMNS = ("frame_idx", "class_id", "track_id", "x", "y", "w", "h")
_INTEGER_COLUMNS = {"frame_idx", "class_id", "track_id", "tubelet_id"}


def _values(parts: list[str], ground_truth: bool, has_ids: bool, path: str | None = None,
            line_no: int | None = None) -> list[int | float]:
    """A line's fields read with int() and float(); a wrong field count or a
    token that they refuse raises ParseError."""
    columns = (_GROUND_TRUTH_COLUMNS if ground_truth
               else _DETECTION_COLUMNS + ("tubelet_id",) * has_ids)
    n = len(columns)
    if len(parts) < n or (len(parts) > n and ground_truth):
        raise ParseError(
            f"line needs {'' if ground_truth else 'at least '}{n} fields "
            f"({' '.join(columns)}), got {len(parts)}",
            path, line_no,
        )
    names = [*columns, *["appearance component"] * (len(parts) - n)]
    return [_parse(int if c in _INTEGER_COLUMNS else float, t, c, path, line_no)
            for c, t in zip(names, parts)]


def _rows_ok(frame_count: int, ids: list[np.ndarray], box: np.ndarray, score: np.ndarray | None,
             descriptor: np.ndarray, descriptor_len: np.ndarray) -> np.ndarray:
    """Whether each row keeps every value rule, in bulk: its integer columns
    `ids` (the frame first, then class, track or tubelet ids) are >= 0, its
    frame is below frame_count, its box has finite corners and positive
    sides, its score, unless None, is in [0, 1], and its descriptor, its
    row of `descriptor` (0 past descriptor_len), has unit norm as in Detection."""
    x, y, w, h = box.T
    with np.errstate(over="ignore", invalid="ignore"):
        ok = (ids[0] < frame_count) & np.isfinite(x + w) & np.isfinite(y + h) & (w > 0) & (h > 0)
        # Detection's norm, component by component; a NaN or inf fails
        norm = np.sqrt(added(descriptor.T * descriptor.T))
        ok &= (descriptor_len == 0) | (abs(norm - 1.0) <= 1e-6)
        for a in ids:
            ok &= a >= 0  # ID's lower bound; an int64 column holds no value beyond its upper one
        if score is not None:
            ok &= (score >= 0) & (score <= 1)  # NaN and +-inf fail too
    return ok


def _refuse(values: list[int | float], ground_truth: bool, has_ids: bool, frame_count: int,
            where: str) -> NoReturn:
    """Raise the error of a row's values that break a rule, worded by their
    objects (BBox, then Detection or TrackBox, then the tubelet id's ID) as
    geometry.check_boxes does, and prefixed with `where: `."""
    try:
        if ground_truth:
            frame_idx, class_id, track_id, *box = values
            TrackBox(frame_idx, class_id, track_id, BBox(*box))
        else:
            frame_idx, class_id, *box, score = values[:7]
            Detection(frame_idx, class_id, BBox(*box), score, tuple(values[7 + has_ids:]) or None)
            if has_ids:
                ID.require("tubelet_id", values[7])
        # the one rule that no object checks
        raise ValidationError(f"frame_idx {frame_idx} outside [0, {frame_count})")
    except ValidationError as e:
        raise ValidationError(f"{where}: {e}") from None


def _chunks(items: Iterable) -> Iterator[list]:
    """items in lists of CHUNK_LINES, the last one shorter; none for no items."""
    it = iter(items)
    while chunk := list(islice(it, CHUNK_LINES)):
        yield chunk


def _slices(n: int) -> Iterator[slice]:
    """The slices of rows 0 to n in chunks of CHUNK_LINES."""
    return (slice(lo, lo + CHUNK_LINES) for lo in range(0, n, CHUNK_LINES))


def _write_stream(s: _Stream, chunks: Iterable[list[str]], path: str | Path) -> None:
    """Write s's header, then each chunk of lines as it comes; so the file's
    text is never held whole. Every check has run before the file is opened."""
    header = f"{HEADER_TAG} {s.video_id} {s.frame_shape.width} {s.frame_shape.height} {s.frame_count}"
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        for lines in chunks:
            f.write("\n".join(lines) + "\n")
            del lines  # before the next chunk is formatted


def read_detections(path: str | Path) -> VideoDetections:
    """Read and fully validate a detection stream file."""
    v, _ = read_detections_with_ids(path)
    return v


def read_detections_with_ids(
    path: str | Path,
) -> tuple[VideoDetections, dict[int, list[int]] | None]:
    """Like read_detections, but also recover the tubelet-id column if present.

    Returns (stream, ids) where ids maps frame_idx -> list of tubelet ids
    parallel to that frame's detections, stored like the stream's frames, or
    None when the file carries no ``#tubelets`` marker.
    """
    return stream_of(read_columns(path))


def write_detections(
    v: VideoDetections | BoxColumns,
    path: str | Path,
    tubelet_ids: dict[int, list[int]] | None = None,
) -> None:
    """Write a detection stream; read_detections(write_detections(v)) == v
    for every stream, as a stream refuses header fields that would not read
    back when it is constructed.

    tubelet_ids, when given with a stream, must hold one integer id per
    detection, keyed and ordered exactly like v.frames (a frame without
    detections may hold an empty list); they are emitted as an extra column
    announced by a ``#tubelets`` marker line. Columns, as postprocess writes
    them, carry their own tubelet_id column and are written a chunk of rows
    at a time, once the reader's checks pass on them; a refused row raises
    ValidationError, an id column that is not of a signed integer type or
    columns without scores ContractError, and no file is written.
    """
    if isinstance(v, BoxColumns):
        if tubelet_ids is not None:
            raise ContractError("columns carry their tubelet ids: pass no tubelet_ids")
        _check_columns(v)
        has_ids = v.tubelet_id is not None
        chunks = (_column_lines(v.take(rows)) for rows in _slices(len(v.frame_idx)))
    else:
        ids = None if tubelet_ids is None else _flat_ids(v, tubelet_ids)
        has_ids = ids is not None
        chunks = _object_lines(v, ids)
    _write_stream(v, chain([[TUBELET_TAG]] * has_ids, chunks), path)


def _column_lines(c: BoxColumns) -> list[str]:
    """The lines of columns' rows."""
    rows = zip(c.frame_idx.tolist(), c.class_id.tolist(), *c.box.T.tolist(), c.score.tolist())
    descriptors = ([None if a is None else a.tolist() for a in c.descriptors()]
                   if c.descriptor_len.any() else [])
    return _detection_lines(rows, None if c.tubelet_id is None else c.tubelet_id.tolist(),
                            descriptors)


def _object_lines(v: VideoDetections, ids: Iterator | None) -> Iterator[list[str]]:
    """The lines of a stream's detections, with the next of ids on each, a
    chunk at a time."""
    for dets in _chunks(d for ds in v.frames.values() for d in ds):
        yield _detection_lines([(d.frame_idx, d.class_id, float((b := d.bbox).x), float(b.y),
                                 float(b.w), float(b.h), float(d.score)) for d in dets],
                               None if ids is None else list(islice(ids, len(dets))),
                               [d.appearance for d in dets])


def _detection_lines(rows: Iterable[tuple], ids: list | None, descriptors: list) -> list[str]:
    """One line per row (frame, class, x, y, w, h, score), with its id when
    ids is not None and its descriptor, a row of descriptors, when that is
    not None."""
    # repr gives the shortest string that parses back to the same float
    if ids is None:
        out = [f"{f} {k} {x!r} {y!r} {w!r} {h!r} {s!r}" for f, k, x, y, w, h, s in rows]
    else:
        out = [f"{f} {k} {x!r} {y!r} {w!r} {h!r} {s!r} {i}"
               for (f, k, x, y, w, h, s), i in zip(rows, ids)]
    for i, a in enumerate(descriptors):
        if a is not None:
            out[i] = " ".join([out[i], *map(repr, map(float, a))])
    return out


def read_ground_truth(path: str | Path) -> GroundTruth:
    """Read and fully validate a ground-truth annotation file."""
    c = read_columns(path, ground_truth=True)
    frames = defaultdict(list)
    for f, k, t, b in zip(c.frame_idx.tolist(), c.class_id.tolist(), c.track_id.tolist(),
                          c.box.tolist()):
        frames[f].append(TrackBox(f, k, t, BBox(*b)))
    return GroundTruth(c.video_id, c.frame_shape, c.frame_count, frames)


def write_ground_truth(gt: GroundTruth, path: str | Path) -> None:
    """Write ground truth in the format read_ground_truth expects."""
    _write_stream(gt, ([
        f"{b.frame_idx} {b.class_id} {b.track_id} "
        f"{float(b.bbox.x)!r} {float(b.bbox.y)!r} {float(b.bbox.w)!r} {float(b.bbox.h)!r}"
        for b in boxes] for boxes in _chunks(b for bs in gt.frames.values() for b in bs)), path)


@dataclass
class BoxColumns:
    """A stream file's header fields and its boxes as arrays."""

    video_id: str
    frame_shape: FrameShape
    frame_count: int
    frame_idx: np.ndarray  # int64
    class_id: np.ndarray  # int64
    box: np.ndarray  # one row (x, y, w, h) per box
    score: np.ndarray | None  # None for ground truth
    # a box's descriptor is the first descriptor_len values of its row; the
    # rest of the row is padding, 0 in all columns the program builds
    descriptor: np.ndarray
    descriptor_len: np.ndarray  # int64, 0 for a box without one
    tubelet_id: np.ndarray | None = None  # int64; None without a #tubelets marker
    track_id: np.ndarray | None = None  # int64 for ground truth, else None

    def descriptors(self) -> list[np.ndarray | None]:
        """Each box's descriptor as a view of its row, or None."""
        return [a[:k] if k else None for a, k in zip(self.descriptor, self.descriptor_len.tolist())]

    def take(self, rows: np.ndarray) -> BoxColumns:
        """These columns at the given rows, in their order."""
        return BoxColumns(self.video_id, self.frame_shape, self.frame_count,
                          *(None if a is None else a[rows] for a in (
                              self.frame_idx, self.class_id, self.box, self.score,
                              self.descriptor, self.descriptor_len, self.tubelet_id,
                              self.track_id)))


def _check_columns(c: BoxColumns) -> None:
    """Raise ValidationError, as the reader of the file written from c would,
    unless c's header and every row keep the rules: the first refused row's
    error is its objects' own, prefixed with `row R: `. The rows are checked
    a chunk at a time, so the checks need memory for a chunk. Columns without
    scores, or an id column that is not of a signed integer type, raise
    ContractError."""
    if c.score is None:
        raise ContractError("write_detections writes detection columns, with scores; "
                            "these have none, as ground truth's")
    _check_video(c.video_id, c.frame_count)
    _FRAME_SHAPE.require("frame_shape", c.frame_shape)
    named = {"frame_idx": c.frame_idx, "class_id": c.class_id, "tubelet_id": c.tubelet_id}
    for name, a in named.items():
        if a is not None and a.dtype.kind != "i":  # a float or uint64 column writes what no ID takes
            raise ContractError(f"{name} must be a signed integer column, got {a.dtype}")
    for rows in _slices(len(c.frame_idx)):  # a chunk at a time, as the rows are written
        part = c.take(rows)
        ids = [a for a in (part.frame_idx, part.class_id, part.tubelet_id) if a is not None]
        # padding past a descriptor is not written, so it is not checked
        descriptor = np.where(np.arange(part.descriptor.shape[1]) < part.descriptor_len[:, None],
                              part.descriptor, 0.0)
        ok = _rows_ok(c.frame_count, ids, part.box, part.score, descriptor, part.descriptor_len)
        if not ok.all():
            row = int(ok.argmin())
            values = [part.frame_idx[row].item(), part.class_id[row].item(),
                      *part.box[row].tolist(), part.score[row].item(),
                      *[a[row].item() for a in ids[2:]],
                      *part.descriptor[row, :part.descriptor_len[row]].tolist()]
            _refuse(values, False, len(ids) > 2, c.frame_count, f"row {rows.start + row}")


def _flat_ids(s: _Stream, ids: Mapping) -> Iterator:
    """ids, one list per frame parallel to s.frames (a frame without boxes
    may hold an empty list), in stored order, as an iterator. Any other
    count, or an id that ID refuses, as the reader of a #tubelets file does,
    raises ValidationError naming the frame, on the call."""
    for idx in sorted(s.frames.keys() | ids.keys()):
        if len(ids.get(idx, ())) != len(s.frames[idx]):
            raise ValidationError(f"tubelet_ids for frame {idx} do not match detection count")
    for idx in s.frames:
        for i in ids[idx]:
            if not (type(i) is int and 0 <= i <= _MAX_ID):
                ID.require(f"tubelet_id in frame {idx}", i)
    return (i for idx in s.frames for i in ids[idx])


def columns_of(s: VideoDetections | GroundTruth, ids: Mapping | None = None) -> BoxColumns:
    """A stream's boxes, and ids as read_detections_with_ids gives them (as
    write_detections takes them), as columns in stored order: by frame,
    then as listed."""
    boxes = [b for bs in s.frames.values() for b in bs]
    apps = [getattr(b, "appearance", None) or () for b in boxes]
    width = max(map(len, apps), default=0)
    return BoxColumns(
        s.video_id, s.frame_shape, s.frame_count,
        np.array([b.frame_idx for b in boxes], np.int64),
        np.array([b.class_id for b in boxes], np.int64),
        np.array([(b.bbox.x, b.bbox.y, b.bbox.w, b.bbox.h) for b in boxes], float).reshape(-1, 4),
        np.array([d.score for d in boxes], float) if isinstance(s, VideoDetections) else None,
        np.array([(*a, *[0.0] * (width - len(a))) for a in apps], float).reshape(len(apps), width),
        np.array(list(map(len, apps)), np.int64),
        None if ids is None else np.fromiter(_flat_ids(s, ids), np.int64),
        np.array([b.track_id for b in boxes], np.int64) if isinstance(s, GroundTruth) else None,
    )


def stream_of(c: BoxColumns) -> tuple[VideoDetections, Frames | None]:
    """The detection stream of columns in stored order and its tubelet ids by
    frame, parallel to the stream's frames, or None: the inverse of columns_of."""
    frames, ids = defaultdict(list), defaultdict(list)
    for f, k, b, s, a, i in zip(c.frame_idx.tolist(), c.class_id.tolist(), c.box.tolist(),
                                c.score.tolist(), c.descriptors(),
                                repeat(None) if c.tubelet_id is None else c.tubelet_id.tolist()):
        frames[f].append(Detection(f, k, BBox(*b), s, None if a is None else tuple(a.tolist())))
        ids[f].append(i)
    stream = VideoDetections(c.video_id, c.frame_shape, c.frame_count, frames)
    return stream, None if c.tubelet_id is None else Frames(ids)


def read_columns(path: str | Path, ground_truth: bool = False) -> BoxColumns:
    """A detection or ground-truth file's boxes as columns in stored order.

    One set of bulk checks holds every value rule. A bad file raises at its
    earliest failing line, a failed check or _line_by_line's stop; a track id
    that repeats in its frame raises only when no line fails.
    """
    path = str(path)
    text = read_text(path)
    ascii_text, lines = text.isascii(), text.splitlines()
    del text  # the lines hold it; the parse needs no second copy
    video_id, shape, frame_count = _read_header(lines, path)
    has_ids = not ground_truth and len(lines) > 1 and lines[1].strip() == TUBELET_TAG
    body = lines[1 + has_ids:]
    # numpy's integer parser passes a character that is not ASCII to C's
    # isdigit(): it took "\U000b79c3" as 752019, and now and then crashed
    ascii_tokens = ascii_text or all(map(str.isascii, " ".join(body).split()))
    (head, descriptor, descriptor_len), stop = (_body_rows if ascii_tokens else _line_by_line)(
        body, ground_truth, has_ids)
    frame, cls, box = head["frame"], head["class"], head["box"]
    ok = _rows_ok(frame_count, [head[n] for n in head.dtype.names if n not in ("box", "score")],
                  box, None if ground_truth else head["score"], descriptor, descriptor_len)

    def line_of(row: int) -> int:  # rows are the non-blank lines; counted only to raise
        return [k for k, raw in enumerate(body) if raw.split()][row]
    if not ok.all() or stop is not None:
        k = stop if ok.all() else line_of(int(ok.argmin()))
        line = 2 + has_ids + k
        _refuse(_values(body[k].split(), ground_truth, has_ids, path, line), ground_truth,
                has_ids, frame_count, f"{path}:{line}")
    if ground_truth:
        track = head["track"]
        order = np.lexsort((track, frame))  # stable, so a repeat follows its first box
        f, t = frame[order], track[order]
        repeats = np.sort(order[1:][(f[1:] == f[:-1]) & (t[1:] == t[:-1])])
        if len(repeats):  # the first frame that repeats a track, and its first repeat
            row = int(repeats[frame[repeats].argmin()])
            raise ValidationError(f"{path}:{2 + line_of(row)}: duplicate track_id {track[row]} "
                                  f"in frame {frame[row]}")
    columns = BoxColumns(video_id, shape, frame_count, frame, cls, box,
                         None if ground_truth else head["score"], descriptor, descriptor_len,
                         head["id"] if has_ids else None, head["track"] if ground_truth else None)
    return columns.take(np.argsort(frame, kind="stable"))


# A line's fields before its descriptor, as numpy parses them
_FIELDS = {
    False: [("frame", np.int64), ("class", np.int64), ("box", np.float64, (4,)),
            ("score", np.float64)],
    True: [("frame", np.int64), ("class", np.int64), ("track", np.int64),
           ("box", np.float64, (4,))],
}


def _load(lines: list[str], fields: list, k: int) -> np.ndarray:
    """The non-blank lines parsed by numpy's C text reader, as rows of the
    fields and then k descriptor components. A warning raises: older numpy
    releases only warn of some loose integers, such as 1.0, that later ones
    refuse."""
    dtype = np.dtype([*fields, ("descriptor", np.float64, (k,))])
    if not any(map(str.strip, lines)):  # numpy warns of an input with no data
        return np.zeros(0, dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(lines, dtype, comments=None, ndmin=1)


def _by_width(lines: list[str], fields: list, n: int, counts: list[int]) -> list[tuple]:
    """The lines loaded one width at a time, counts[k] being line k's field
    count, 0 for a blank line: (where in the non-blank lines, rows) of each.
    A width below n, the fields before a descriptor, raises ValueError, as
    numpy does for a line whose field count is not its group's."""
    widths = np.array([k for k in counts if k])
    return [(widths == k, _load([s for s, c in zip(lines, counts) if c == k], fields, k - n))
            for k in set(counts) - {0}]


def _rows(lines: list[str], ground_truth: bool, has_ids: bool) -> tuple[np.ndarray, ...]:
    """The non-blank lines in file order: the fields before the descriptor,
    the descriptors as rows of one matrix, and their lengths. numpy's C text
    reader splits where str.split splits and parses reals as float() does,
    in one call for a body of one width. A body of several widths is
    grouped by the width that single spaces give, as the writer spaces its
    fields; numpy refuses a line whose field count is not its group's, so a
    grouping that loads is exact. Any other spacing is grouped by the field
    counts of str.split; a body of one width that failed as a whole fails
    again so. A line of a wrong width, or a token that numpy refuses (such
    as 1_0), raises ValueError, OverflowError or a Warning."""
    n = 7 + has_ids  # the columns before any descriptor
    fields = [*_FIELDS[ground_truth], *[("id", np.int64)] * has_ids]
    width = n if ground_truth else max(n, next((len(p) for p in map(str.split, lines) if p), n))
    try:
        parts = [(slice(None), _load(lines, fields, width - n))]  # (where in the rows, rows)
    except ValueError:  # lines of several widths, or a token numpy refuses
        if ground_truth:
            raise
        try:
            parts = _by_width(lines, fields, n, [0 if not line or line.isspace()
                                                 else line.count(" ") + 1 for line in lines])
        except (ValueError, OverflowError, Warning):  # other spacing, or a refusal
            parts = _by_width(lines, fields, n, [len(line.split()) for line in lines])
    count = sum(len(a) for _, a in parts)
    head, descriptor_len = np.zeros(count, fields), np.zeros(count, np.int64)
    descriptor = np.zeros((count, max(a["descriptor"].shape[1] for _, a in parts)))
    for at, a in parts:
        d = a["descriptor"]
        head[at] = a[[*head.dtype.names]]
        descriptor[at, :d.shape[1]], descriptor_len[at] = d, d.shape[1]
    return head, descriptor, descriptor_len


def _body_rows(body: list[str], ground_truth: bool,
               has_ids: bool) -> tuple[tuple[np.ndarray, ...], int | None]:
    """_rows of a body of ASCII tokens as numpy takes it, and no stop; or
    _line_by_line's rows and stop for a body that numpy refuses."""
    try:
        return _rows(body, ground_truth, has_ids), None
    except (ValueError, OverflowError, Warning):
        return _line_by_line(body, ground_truth, has_ids)


def _line_by_line(body: list[str], ground_truth: bool,
                  has_ids: bool) -> tuple[tuple[np.ndarray, ...], int | None]:
    """The body read with int() and float() up to its stop, the first line
    that they refuse, that has the wrong field count, or that has a frame,
    class id, track id or tubelet id beyond int64. The lines before the stop,
    rewritten as they read them, go to _rows. Returns the rows and the stop,
    or None."""
    lines = []
    for k, raw in enumerate(body):
        try:
            values = _values(parts, ground_truth, has_ids) if (parts := raw.split()) else []
        except ParseError:
            break
        if not all(-_MAX_ID - 1 <= v <= _MAX_ID for v in values if type(v) is int):
            break
        lines.append(" ".join(map(repr, values)))
    else:
        k = None
    return _rows(lines, ground_truth, has_ids), k
