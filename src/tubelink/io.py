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
frame_count bounds the frame indices, and time and memory follow the lines.

Validation is total: a malformed file raises ParseError or ValidationError
with the offending path/line, never a partially built stream.

read_columns gives eval, postprocess and inspect a file's boxes as arrays in
stored order, by frame: the descriptors as rows of one matrix, the ids of a
``#tubelets`` file as a column of Python ints of any size. A file that keeps
every rule is parsed in bulk by numpy's C text reader; any other file is
read by read_detections_with_ids or read_ground_truth, so their errors are
the only ones. Class and track ids are at most 2**63 - 1, so every stream
fits the arrays. columns_of and stream_of map a stream and its ids to columns
and back. write_detections writes either, each line formatted in one place.
"""

from __future__ import annotations

import warnings
from collections import defaultdict
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import ContractError, ParseError, ValidationError
from .geometry import _MAX_ID, BBox, Detection, FrameShape, added

HEADER_TAG = "#video"
TUBELET_TAG = "#tubelets"
# Frames per video, about 9 h at 30 fps. Only frames that hold boxes are
# stored, so the bound does not guard memory; it keeps frame indices in a
# sane range, and the simulator's per-frame loop shares it.
MAX_FRAME_COUNT = 1_000_000


def _check_video(video_id: str, frame_count: int) -> None:
    if not video_id or any(c.isspace() for c in video_id):
        raise ValidationError(f"video_id must be non-empty without whitespace: {video_id!r}")
    if not (0 <= frame_count <= MAX_FRAME_COUNT):
        raise ValidationError(
            f"frame_count must be in [0, {MAX_FRAME_COUNT}], got {frame_count}"
        )


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
        for idx, boxes in self.frames.items():
            if not (0 <= idx < self.frame_count):
                raise ValidationError(
                    f"frame index {idx} outside [0, {self.frame_count})"
                )
            for b in boxes:
                if b.frame_idx != idx:
                    raise ValidationError(
                        f"box frame_idx {b.frame_idx} stored under frame {idx}"
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
        if self.frame_idx < 0 or self.class_id < 0 or self.track_id < 0:
            raise ValidationError(
                f"frame_idx/class_id/track_id must be >= 0: "
                f"({self.frame_idx}, {self.class_id}, {self.track_id})"
            )
        if max(self.class_id, self.track_id) > _MAX_ID:
            raise ValidationError(
                f"class_id/track_id must be at most 2**63 - 1: ({self.class_id}, {self.track_id})"
            )


@dataclass
class GroundTruth(_Stream):
    """Frame-indexed annotated boxes; track_ids are unique within a frame."""

    def __post_init__(self):
        super().__post_init__()
        repeat = _repeated_track(self.frames)
        if repeat is not None:
            raise ValidationError(repeat[2])


def _repeated_track(frames: Frames) -> tuple[int, int, str] | None:
    """The first box whose track_id repeats one before it in its frame, frames
    in frame order, as (frame, position in the frame, message); or None."""
    for idx, boxes in frames.items():
        seen: set[int] = set()
        for k, b in enumerate(boxes):
            if b.track_id in seen:
                return idx, k, f"duplicate track_id {b.track_id} in frame {idx}"
            seen.add(b.track_id)
    return None


def read_text(path: str | Path) -> str:
    """A file's text; bytes that are not UTF-8 raise ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text ({e.reason} at byte {e.start})", str(path)) from None


def _parse(kind: type, token: str, what: str, path: str, line_no: int) -> int | float:
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


def _read_records(
    lines: list[str], first: int, path: str, frame_count: int,
    columns: tuple[str, ...], make: Callable, tail: str | None = None,
) -> defaultdict[int, list]:
    """The records of lines[first:] by frame index, one per non-blank line.

    A line holds the named columns, then, when `tail` names them, any number
    of trailing reals. make(fields) parses them with int() and float() and
    builds the record, which has a frame_idx. Every error names the path and
    line; a field that does not parse is also named.
    """
    records: defaultdict[int, list] = defaultdict(list)
    n = len(columns)
    for line_no, raw in enumerate(lines[first:], start=first + 1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) < n or (len(parts) > n and tail is None):
            raise ParseError(
                f"line needs {'at least ' if tail else ''}{n} fields "
                f"({' '.join(columns)}), got {len(parts)}",
                path, line_no,
            )
        try:
            record = make(parts)
        except ValidationError as e:
            raise ValidationError(f"{path}:{line_no}: {e}") from None
        except ValueError:  # parse again, field by field, to name the first bad one
            for c, t in zip([*columns, *[tail] * (len(parts) - n)], parts):
                _parse(int if c in _INTEGER_COLUMNS else float, t, c, path, line_no)
            raise
        if record.frame_idx >= frame_count:  # the record's own check rejects a negative one
            raise ValidationError(
                f"{path}:{line_no}: frame_idx {record.frame_idx} outside [0, {frame_count})"
            )
        records[record.frame_idx].append(record)
    return records


def _write_stream(s: _Stream, lines: list[str], path: str | Path) -> None:
    header = f"{HEADER_TAG} {s.video_id} {s.frame_shape.width} {s.frame_shape.height} {s.frame_count}"
    Path(path).write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")


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
    path = str(path)
    lines = read_text(path).splitlines()
    video_id, shape, frame_count = _read_header(lines, path)
    has_ids = len(lines) > 1 and lines[1].strip() == TUBELET_TAG
    ids: defaultdict[int, list[int]] = defaultdict(list)

    columns = _DETECTION_COLUMNS + (("tubelet_id",) if has_ids else ())
    n = len(columns)

    def detection(p: list[str]) -> Detection:
        frame_idx, class_id = int(p[0]), int(p[1])
        x, y, w, h, score = map(float, p[2:7])
        tubelet_id = int(p[7]) if has_ids else None
        appearance = tuple(map(float, p[n:])) if len(p) > n else None
        det = Detection(frame_idx, class_id, BBox(x, y, w, h), score, appearance)
        if has_ids:
            ids[frame_idx].append(tubelet_id)
        return det

    frames = _read_records(lines, 2 if has_ids else 1, path, frame_count, columns, detection,
                           tail="appearance component")
    stream = VideoDetections(video_id, shape, frame_count, frames)
    return stream, (Frames(ids) if has_ids else None)


def write_detections(
    v: VideoDetections | BoxColumns,
    path: str | Path,
    tubelet_ids: dict[int, list[int]] | None = None,
) -> None:
    """Write a detection stream; read_detections(write_detections(v)) == v.

    tubelet_ids, when given with a stream, must hold one id per detection,
    keyed and ordered exactly like v.frames (a frame without detections may
    hold an empty list); they are emitted as an extra column announced by a
    ``#tubelets`` marker line. Columns, as postprocess writes them, carry
    their own tubelet_id column and are written row by row.
    """
    if isinstance(v, BoxColumns):
        if tubelet_ids is not None:
            raise ContractError("columns carry their tubelet ids: pass no tubelet_ids")
        rows = zip(v.frame_idx.tolist(), v.class_id.tolist(), *v.box.T.tolist(), v.score.tolist())
        descriptors = ([None if a is None else a.tolist() for a in v.descriptors()]
                       if v.descriptor_len.any() else [])
        ids = None if v.tubelet_id is None else v.tubelet_id.tolist()
    else:
        ids = None
        if tubelet_ids is not None:
            for idx in sorted(v.frames.keys() | tubelet_ids.keys()):
                if len(tubelet_ids.get(idx, ())) != len(v.frames[idx]):
                    raise ValidationError(
                        f"tubelet_ids for frame {idx} do not match detection count"
                    )
            ids = [i for idx in v.frames for i in tubelet_ids[idx]]
        dets = v.all_detections()
        rows = [(d.frame_idx, d.class_id, float((b := d.bbox).x), float(b.y), float(b.w),
                 float(b.h), float(d.score)) for d in dets]
        descriptors = [d.appearance for d in dets]
    # repr gives the shortest string that parses back to the same float
    if ids is None:
        out = [f"{f} {k} {x!r} {y!r} {w!r} {h!r} {s!r}" for f, k, x, y, w, h, s in rows]
    else:
        out = [f"{f} {k} {x!r} {y!r} {w!r} {h!r} {s!r} {i}"
               for (f, k, x, y, w, h, s), i in zip(rows, ids)]
    for i, a in enumerate(descriptors):
        if a is not None:
            out[i] = " ".join([out[i], *map(repr, map(float, a))])
    _write_stream(v, out if ids is None else [TUBELET_TAG, *out], path)


def read_ground_truth(path: str | Path) -> GroundTruth:
    """Read and fully validate a ground-truth annotation file."""
    path = str(path)
    lines = read_text(path).splitlines()
    video_id, shape, frame_count = _read_header(lines, path)
    records = _read_records(lines, 1, path, frame_count, _GROUND_TRUTH_COLUMNS,
                            lambda p: TrackBox(int(p[0]), int(p[1]), int(p[2]),
                                               BBox(*map(float, p[3:7]))))
    try:
        return GroundTruth(video_id, shape, frame_count, records)
    except ValidationError:  # the one check the records have not passed: name the repeat's line
        idx, k, message = _repeated_track(Frames(records))
        line_no = [n for n, raw in enumerate(lines[1:], start=2)
                   if (p := raw.split()) and int(p[0]) == idx][k]
        raise ValidationError(f"{path}:{line_no}: {message}") from None


def write_ground_truth(gt: GroundTruth, path: str | Path) -> None:
    """Write ground truth in the format read_ground_truth expects."""
    out = [
        f"{b.frame_idx} {b.class_id} {b.track_id} "
        f"{float(b.bbox.x)!r} {float(b.bbox.y)!r} {float(b.bbox.w)!r} {float(b.bbox.h)!r}"
        for boxes in gt.frames.values() for b in boxes
    ]
    _write_stream(gt, out, path)


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
    descriptor: np.ndarray  # a box's descriptor is the first descriptor_len values of its row
    descriptor_len: np.ndarray  # int64, 0 for a box without one
    tubelet_id: np.ndarray | None = None  # object, Python ints; None without a #tubelets marker

    def descriptors(self) -> list[np.ndarray | None]:
        """Each box's descriptor as a view of its row, or None."""
        return [a[:k] if k else None for a, k in zip(self.descriptor, self.descriptor_len.tolist())]

    def take(self, rows: np.ndarray) -> BoxColumns:
        """These columns at the given rows, in their order."""
        return BoxColumns(self.video_id, self.frame_shape, self.frame_count,
                          *(None if a is None else a[rows] for a in (
                              self.frame_idx, self.class_id, self.box, self.score,
                              self.descriptor, self.descriptor_len, self.tubelet_id)))


def columns_of(s: VideoDetections | GroundTruth, ids: Mapping | None = None) -> BoxColumns:
    """A stream's boxes, and ids as read_detections_with_ids gives them, as
    columns in stored order: by frame, then as listed."""
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
        None if ids is None else np.array([i for f in s.frames for i in ids[f]], object),
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

    A file that _bulk_columns takes has its rows sorted by frame, stably. Any
    other file is read by read_detections_with_ids or read_ground_truth,
    which raise its error; should one take it, columns_of gives its columns.
    """
    columns = _bulk_columns(path, ground_truth)
    if columns is None:
        return (columns_of(read_ground_truth(path)) if ground_truth
                else columns_of(*read_detections_with_ids(path)))
    return columns.take(np.argsort(columns.frame_idx, kind="stable"))


# A line's fields before its descriptor, as _bulk_columns parses them
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


def _bulk_columns(path: str | Path, ground_truth: bool) -> BoxColumns | None:
    """read_columns of a file that keeps every rule, with no per-box objects;
    None for any other file.

    The header is read, and fails, as the object readers read it. numpy's C
    text reader parses the body: it splits where str.split splits and parses
    reals as float() does. One call reads every line at the first line's
    width; lines of several widths (descriptors on some lines only) take one
    call per width. A token numpy refuses, such as 1_0, which int() takes,
    gives None. A tubelet id may be any integer: int() parses it into the
    column. Each value rule of the object readers is checked in bulk, so a
    file taken here is one they take, with the same values, in file order.
    """
    path = str(path)
    lines = read_text(path).splitlines()
    video_id, shape, frame_count = _read_header(lines, path)
    has_ids = not ground_truth and len(lines) > 1 and lines[1].strip() == TUBELET_TAG
    n = 7 + has_ids  # the columns before any descriptor
    body, fields = lines[1 + has_ids:], [*_FIELDS[ground_truth], *[("id", object)] * has_ids]
    width = n if ground_truth else max(n, next((len(p) for p in map(str.split, body) if p), n))
    try:
        try:
            parts = [(slice(None), _load(body, fields, width - n))]  # (where in the file, rows)
        except ValueError:  # lines of several widths, or a token numpy refuses
            counts = [len(line.split()) for line in body]
            widths = np.array([k for k in counts if k])
            if ground_truth or not n <= widths.min() < widths.max():  # one width: a refusal
                return None
            parts = [(widths == k, _load([s for s, c in zip(body, counts) if c == k],
                                         fields, k - n)) for k in set(counts) - {0}]
        if has_ids:  # any integer, as read_detections_with_ids takes it
            for _, a in parts:
                a["id"] = list(map(int, a["id"]))
    except (ValueError, OverflowError, Warning):
        return None
    count = sum(len(a) for _, a in parts)
    head, descriptor_len = np.zeros(count, fields), np.zeros(count, np.int64)
    descriptor = np.zeros((count, max(a["descriptor"].shape[1] for _, a in parts)))
    ok = []
    with np.errstate(over="ignore", invalid="ignore"):
        for at, a in parts:
            d = a["descriptor"]
            head[at] = a[[*head.dtype.names]]
            descriptor[at, :d.shape[1]], descriptor_len[at] = d, d.shape[1]
            if d.shape[1]:  # Detection's norm, component by component; a NaN or inf fails
                ok.append(abs(np.sqrt(added(d.T * d.T)) - 1.0) <= 1e-6)
        frame, cls, box = head["frame"], head["class"], head["box"]
        x, y, w, h = box.T
        ok += [frame >= 0, frame < frame_count, cls >= 0,
               np.isfinite(x + w), np.isfinite(y + h), w > 0, h > 0]
        if ground_truth:
            track = head["track"]
            order = np.lexsort((track, frame))
            f, t = frame[order], track[order]
            ok += [track >= 0, ~((f[1:] == f[:-1]) & (t[1:] == t[:-1]))]
        else:
            ok.append((head["score"] >= 0) & (head["score"] <= 1))  # NaN and +-inf fail too
    if not all(c.all() for c in ok):
        return None
    return BoxColumns(video_id, shape, frame_count, frame, cls, box,
                      None if ground_truth else head["score"], descriptor, descriptor_len,
                      head["id"] if has_ids else None)
