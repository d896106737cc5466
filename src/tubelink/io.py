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

read_columns, the one parser of stream files, gives a file's boxes as arrays
in stored order, by frame: descriptors as rows of one matrix, the ids of a
``#tubelets`` file as Python ints of any size, track ids as int64. Class and
track ids are at most 2**63 - 1, so every stream fits the arrays. The object
readers build their objects from these columns. columns_of and stream_of map
a stream and its ids to columns and back. write_detections writes either,
each line formatted in one place.
"""

from __future__ import annotations

import warnings
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import NoReturn

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


def _reject_line(raw: str, ground_truth: bool, has_ids: bool, frame_count: int, path: str,
                 line_no: int) -> NoReturn:
    """Raise the error of a line that breaks a rule, worded by its values'
    objects (BBox, then Detection or TrackBox) as geometry.check_boxes does."""
    values = _values(raw.split(), ground_truth, has_ids, path, line_no)
    try:
        if ground_truth:
            frame_idx, class_id, track_id, *box = values
            TrackBox(frame_idx, class_id, track_id, BBox(*box))
        else:
            frame_idx, class_id, *box, score = values[:7]
            Detection(frame_idx, class_id, BBox(*box), score, tuple(values[7 + has_ids:]) or None)
        # the one rule that no object checks
        raise ValidationError(f"frame_idx {frame_idx} outside [0, {frame_count})")
    except ValidationError as e:
        raise ValidationError(f"{path}:{line_no}: {e}") from None


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
    return stream_of(read_columns(path))


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
    c = read_columns(path, ground_truth=True)
    frames = defaultdict(list)
    for f, k, t, b in zip(c.frame_idx.tolist(), c.class_id.tolist(), c.track_id.tolist(),
                          c.box.tolist()):
        frames[f].append(TrackBox(f, k, t, BBox(*b)))
    return GroundTruth(c.video_id, c.frame_shape, c.frame_count, frames)


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
    lines = text.splitlines()
    video_id, shape, frame_count = _read_header(lines, path)
    has_ids = not ground_truth and len(lines) > 1 and lines[1].strip() == TUBELET_TAG
    body = lines[1 + has_ids:]
    # numpy's integer parser passes a character that is not ASCII to C's
    # isdigit(): it took "\U000b79c3" as 752019, and now and then crashed
    ascii_tokens = text.isascii() or all(map(str.isascii, " ".join(body).split()))
    (head, descriptor, descriptor_len), stop = (_body_rows if ascii_tokens else _line_by_line)(
        body, ground_truth, has_ids)
    frame, cls, box = head["frame"], head["class"], head["box"]
    x, y, w, h = box.T
    with np.errstate(over="ignore", invalid="ignore"):
        ok = ((frame >= 0) & (frame < frame_count) & (cls >= 0) & np.isfinite(x + w)
              & np.isfinite(y + h) & (w > 0) & (h > 0))
        # Detection's norm, component by component; a NaN or inf fails
        norm = np.sqrt(added(descriptor.T * descriptor.T))
        ok &= (descriptor_len == 0) | (abs(norm - 1.0) <= 1e-6)
        if ground_truth:
            ok &= head["track"] >= 0
        else:
            ok &= (head["score"] >= 0) & (head["score"] <= 1)  # NaN and +-inf fail too

    def line_of(row: int) -> int:  # rows are the non-blank lines; counted only to raise
        return [k for k, raw in enumerate(body) if raw.split()][row]
    if not ok.all() or stop is not None:
        k = stop if ok.all() else line_of(int(ok.argmin()))
        _reject_line(body[k], ground_truth, has_ids, frame_count, path, 2 + has_ids + k)
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


def _rows(lines: list[str], ground_truth: bool, has_ids: bool) -> tuple[np.ndarray, ...]:
    """The non-blank lines in file order: the fields before the descriptor,
    the descriptors as rows of one matrix, and their lengths. numpy's C text
    reader splits where str.split splits and parses reals as float() does,
    one call per line width; tubelet ids are parsed with int(). A line of a
    wrong width, or a token that numpy or int() refuses (such as 1_0),
    raises ValueError, OverflowError or a Warning."""
    n = 7 + has_ids  # the columns before any descriptor
    fields = [*_FIELDS[ground_truth], *[("id", object)] * has_ids]
    width = n if ground_truth else max(n, next((len(p) for p in map(str.split, lines) if p), n))
    try:
        parts = [(slice(None), _load(lines, fields, width - n))]  # (where in the rows, rows)
    except ValueError:  # lines of several widths, or a token numpy refuses
        counts = [len(line.split()) for line in lines]
        widths = np.array([k for k in counts if k])
        if ground_truth or not n <= widths.min() < widths.max():  # one width: a refusal
            raise
        parts = [(widths == k, _load([s for s, c in zip(lines, counts) if c == k], fields, k - n))
                 for k in set(counts) - {0}]
    if has_ids:
        for _, a in parts:
            a["id"] = list(map(int, a["id"]))
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
    class or track id beyond int64. The lines before the stop, rewritten as
    they read them, go to _rows. Returns the rows and the stop, or None."""
    lines = []
    for k, raw in enumerate(body):
        try:
            values = _values(parts, ground_truth, has_ids) if (parts := raw.split()) else []
        except ParseError:
            break
        if not all(-_MAX_ID - 1 <= v <= _MAX_ID for v in values[:2 + ground_truth]):
            break
        lines.append(" ".join(map(repr, values)))
    else:
        k = None
    return _rows(lines, ground_truth, has_ids), k
