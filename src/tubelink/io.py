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

Validation is total: a malformed file raises ParseError or ValidationError
with the offending path/line, never a partially built stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError, ValidationError
from .geometry import BBox, Detection, FrameShape

HEADER_TAG = "#video"
TUBELET_TAG = "#tubelets"
# Frames per video, about 9 h at 30 fps. Every frame gets a list, so the
# bound is checked before any is made; the simulator's frame_count shares it.
MAX_FRAME_COUNT = 1_000_000


def _check_video(video_id: str, frame_count: int) -> None:
    if not video_id or any(c.isspace() for c in video_id):
        raise ValidationError(f"video_id must be non-empty without whitespace: {video_id!r}")
    if not (0 <= frame_count <= MAX_FRAME_COUNT):
        raise ValidationError(
            f"frame_count must be in [0, {MAX_FRAME_COUNT}], got {frame_count}"
        )


@dataclass
class VideoDetections:
    """Frame-indexed detections for one video; every frame key is materialized.

    Frames with zero detections are present as empty lists so downstream gap
    logic can tell "nothing detected" apart from "frame missing".
    """

    video_id: str
    frame_shape: FrameShape
    frame_count: int
    frames: dict[int, list[Detection]] = field(default_factory=dict)

    def __post_init__(self):
        _check_video(self.video_id, self.frame_count)
        for idx, dets in self.frames.items():
            if not (0 <= idx < self.frame_count):
                raise ValidationError(
                    f"frame index {idx} outside [0, {self.frame_count})"
                )
            for d in dets:
                if d.frame_idx != idx:
                    raise ValidationError(
                        f"detection frame_idx {d.frame_idx} stored under frame {idx}"
                    )
        for idx in range(self.frame_count):
            self.frames.setdefault(idx, [])

    def all_detections(self) -> list[Detection]:
        """Detections flattened in (frame, file) order."""
        return [d for idx in range(self.frame_count) for d in self.frames[idx]]


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


@dataclass
class GroundTruth:
    """Frame-indexed annotated boxes; track_ids are unique within a frame."""

    video_id: str
    frame_shape: FrameShape
    frame_count: int
    frames: dict[int, list[TrackBox]] = field(default_factory=dict)

    def __post_init__(self):
        _check_video(self.video_id, self.frame_count)
        for idx, boxes in self.frames.items():
            if not (0 <= idx < self.frame_count):
                raise ValidationError(
                    f"frame index {idx} outside [0, {self.frame_count})"
                )
            seen: set[int] = set()
            for b in boxes:
                if b.frame_idx != idx:
                    raise ValidationError(
                        f"box frame_idx {b.frame_idx} stored under frame {idx}"
                    )
                if b.track_id in seen:
                    raise ValidationError(
                        f"duplicate track_id {b.track_id} in frame {idx}"
                    )
                seen.add(b.track_id)
        for idx in range(self.frame_count):
            self.frames.setdefault(idx, [])


def read_text(path: str | Path) -> str:
    """A file's text; bytes that are not UTF-8 raise ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text ({e.reason} at byte {e.start})", str(path)) from None


def _fmt(v: float) -> str:
    # repr gives the shortest string that parses back to the same float
    return repr(float(v))


def _parse_int(token: str, what: str, path: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} is not an integer: {token!r}", path, line_no) from None


def _parse_float(token: str, what: str, path: str, line_no: int) -> float:
    try:
        v = float(token)
    except ValueError:
        raise ParseError(f"{what} is not a number: {token!r}", path, line_no) from None
    return v


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
    width = _parse_int(w, "width", path, 1)
    height = _parse_int(h, "height", path, 1)
    frame_count = _parse_int(n, "frame_count", path, 1)
    try:
        _check_video(video_id, frame_count)
        shape = FrameShape(width, height)
    except ValidationError as e:
        raise ValidationError(f"{path}:1: {e}") from None
    return video_id, shape, frame_count


def read_detections(path: str | Path) -> VideoDetections:
    """Read and fully validate a detection stream file."""
    v, _ = read_detections_with_ids(path)
    return v


def read_detections_with_ids(
    path: str | Path,
) -> tuple[VideoDetections, dict[int, list[int]] | None]:
    """Like read_detections, but also recover the tubelet-id column if present.

    Returns (stream, ids) where ids maps frame_idx -> list of tubelet ids
    parallel to that frame's detections, or None when the file carries no
    ``#tubelets`` marker.
    """
    path = str(path)
    lines = read_text(path).splitlines()
    video_id, shape, frame_count = _read_header(lines, path)

    body_start = 1
    has_ids = len(lines) > 1 and lines[1].strip() == TUBELET_TAG
    if has_ids:
        body_start = 2

    frames: dict[int, list[Detection]] = {i: [] for i in range(frame_count)}
    ids: dict[int, list[int]] = {i: [] for i in range(frame_count)}
    base = 8 if has_ids else 7

    for line_no, raw in enumerate(lines[body_start:], start=body_start + 1):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) < base:
            raise ParseError(
                f"detection line needs at least {base} fields, got {len(parts)}",
                path, line_no,
            )
        frame_idx = _parse_int(parts[0], "frame_idx", path, line_no)
        class_id = _parse_int(parts[1], "class_id", path, line_no)
        x = _parse_float(parts[2], "x", path, line_no)
        y = _parse_float(parts[3], "y", path, line_no)
        w = _parse_float(parts[4], "w", path, line_no)
        h = _parse_float(parts[5], "h", path, line_no)
        score = _parse_float(parts[6], "score", path, line_no)
        if has_ids:
            tubelet_id = _parse_int(parts[7], "tubelet_id", path, line_no)
        appearance = None
        if len(parts) > base:
            appearance = tuple(
                _parse_float(t, "appearance component", path, line_no)
                for t in parts[base:]
            )
        if not (0 <= frame_idx < frame_count):
            raise ValidationError(
                f"{path}:{line_no}: frame_idx {frame_idx} outside [0, {frame_count})"
            )
        try:
            det = Detection(frame_idx, class_id, BBox(x, y, w, h), score, appearance)
        except ValidationError as e:
            raise ValidationError(f"{path}:{line_no}: {e}") from None
        frames[frame_idx].append(det)
        if has_ids:
            ids[frame_idx].append(tubelet_id)

    stream = VideoDetections(video_id, shape, frame_count, frames)
    return stream, (ids if has_ids else None)


def write_detections(
    v: VideoDetections,
    path: str | Path,
    tubelet_ids: dict[int, list[int]] | None = None,
) -> None:
    """Write a detection stream; read_detections(write_detections(v)) == v.

    tubelet_ids, when given, must hold one id per detection, keyed and
    ordered exactly like v.frames; they are emitted as an extra column
    announced by a ``#tubelets`` marker line.
    """
    out = [f"{HEADER_TAG} {v.video_id} {v.frame_shape.width} {v.frame_shape.height} {v.frame_count}"]
    if tubelet_ids is not None:
        out.append(TUBELET_TAG)
    for idx in range(v.frame_count):
        dets = v.frames[idx]
        if tubelet_ids is not None and len(tubelet_ids.get(idx, [])) != len(dets):
            raise ValidationError(
                f"tubelet_ids for frame {idx} do not match detection count"
            )
        for j, d in enumerate(dets):
            b = d.bbox
            fields = [
                str(d.frame_idx), str(d.class_id),
                _fmt(b.x), _fmt(b.y), _fmt(b.w), _fmt(b.h), _fmt(d.score),
            ]
            if tubelet_ids is not None:
                fields.append(str(tubelet_ids[idx][j]))
            if d.appearance is not None:
                fields.extend(_fmt(a) for a in d.appearance)
            out.append(" ".join(fields))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def read_ground_truth(path: str | Path) -> GroundTruth:
    """Read and fully validate a ground-truth annotation file."""
    path = str(path)
    lines = read_text(path).splitlines()
    video_id, shape, frame_count = _read_header(lines, path)

    frames: dict[int, list[TrackBox]] = {i: [] for i in range(frame_count)}
    for line_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 7:
            raise ParseError(
                f"ground-truth line needs 7 fields "
                f"(frame_idx class_id track_id x y w h), got {len(parts)}",
                path, line_no,
            )
        frame_idx = _parse_int(parts[0], "frame_idx", path, line_no)
        class_id = _parse_int(parts[1], "class_id", path, line_no)
        track_id = _parse_int(parts[2], "track_id", path, line_no)
        x = _parse_float(parts[3], "x", path, line_no)
        y = _parse_float(parts[4], "y", path, line_no)
        w = _parse_float(parts[5], "w", path, line_no)
        h = _parse_float(parts[6], "h", path, line_no)
        if not (0 <= frame_idx < frame_count):
            raise ValidationError(
                f"{path}:{line_no}: frame_idx {frame_idx} outside [0, {frame_count})"
            )
        try:
            box = TrackBox(frame_idx, class_id, track_id, BBox(x, y, w, h))
        except ValidationError as e:
            raise ValidationError(f"{path}:{line_no}: {e}") from None
        frames[frame_idx].append(box)

    return GroundTruth(video_id, shape, frame_count, frames)


def write_ground_truth(gt: GroundTruth, path: str | Path) -> None:
    """Write ground truth in the format read_ground_truth expects."""
    out = [f"{HEADER_TAG} {gt.video_id} {gt.frame_shape.width} {gt.frame_shape.height} {gt.frame_count}"]
    for idx in range(gt.frame_count):
        for b in gt.frames[idx]:
            bb = b.bbox
            out.append(
                f"{b.frame_idx} {b.class_id} {b.track_id} "
                f"{_fmt(bb.x)} {_fmt(bb.y)} {_fmt(bb.w)} {_fmt(bb.h)}"
            )
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")
