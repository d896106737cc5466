import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from tubelink import (
    BBox,
    ContractError,
    Detection,
    FrameShape,
    GroundTruth,
    ParseError,
    TrackBox,
    ValidationError,
    VideoDetections,
    load_model,
    read_detections,
    read_detections_with_ids,
    read_ground_truth,
    write_detections,
    write_ground_truth,
)

from tubelink import geometry, io
from tubelink.io import (CHUNK_LINES, MAX_FRAME_COUNT, BoxColumns, columns_of, read_columns,
                         stream_of)

from conftest import (SHAPE, det, line_by_line, random_ground_truth, random_stream,
                      read_in_bulk, unit_vector)
from test_simulate import time_limit


# 16-dim vectors of norm about 1 + 1e-6 that adding the squares left to right
# takes (True) or refuses (False), and a compensated sum decides the other way
NORM_WITNESSES = [
    (True, [0.3964540671512442, 0.15358940999732745, 0.3127439999049429, 0.1583860035341212,
            -0.12176506473646868, 0.20011211166038081, 0.02445182871870839,
            -0.03727365017348007, 0.47397709919982267, 0.19036933994391544,
            -0.10030881306963046, -0.005631543497432015, 0.5551959006979683,
            -0.044979795604010914, 0.1834634969105587, 0.15674773285518148]),
    (False, [0.1909988130307513, -0.4664059196425996, 0.17751521927221864,
             -0.10703777083770359, 0.26771948194987516, -0.11105640772014516,
             -0.2210197035034576, -0.38089562068016647, -0.03096945922614779,
             0.22122902277611936, -0.23136301783162025, 0.09835702086578917,
             -0.07346574746302845, -0.5467905395406897, -0.046157897909783994,
             -0.07394460741516921]),
]


def write(tmp_path, text, name="in.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestReadDetections:
    def test_absent_frames_padded(self, tmp_path):
        p = write(tmp_path, "#video v 1280 720 3\n1 0 10 10 5 5 0.5\n")
        v = read_detections(p)
        assert v.frame_count == 3
        assert v.frames[0] == [] and v.frames[2] == []
        assert len(v.frames[1]) == 1
        assert v.frames[1][0].bbox == BBox(10, 10, 5, 5)

    def test_lines_in_any_frame_order(self, tmp_path):
        # frames are stored in frame order whatever the order of the lines,
        # as the tubelet builder walks them
        lines = ["2 0 10 10 5 5 0.5", "0 0 10 10 5 5 0.6", "2 1 20 20 5 5 0.7", "1 0 11 10 5 5 0.8"]
        v = read_detections(write(tmp_path, "#video v 1280 720 4\n" + "\n".join(lines) + "\n"))
        ordered = read_detections(write(tmp_path, "#video v 1280 720 4\n" + "\n".join(
            [lines[1], lines[3], lines[0], lines[2]]) + "\n", name="ordered.txt"))
        assert list(v.frames) == [0, 1, 2]
        assert v == ordered and v.all_detections() == ordered.all_detections()
        write_detections(v, tmp_path / "a.txt")
        write_detections(ordered, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_text() == (tmp_path / "b.txt").read_text()

    def test_score_out_of_range(self, tmp_path):
        p = write(tmp_path, "#video v 1280 720 3\n1 0 10 10 5 5 1.3\n")
        with pytest.raises(ValidationError, match=r":2: score must be in \[0,1\], got 1.3$"):
            read_detections(p)

    def test_frame_idx_out_of_range(self, tmp_path):
        p = write(tmp_path, "#video v 1280 720 5\n7 0 10 10 5 5 0.5\n")
        with pytest.raises(ValidationError, match="frame_idx 7"):
            read_detections(p)

    def test_malformed_number_names_line(self, tmp_path):
        p = write(tmp_path, "#video v 1280 720 3\n1 0 10 oops 5 5 0.5\n")
        with pytest.raises(ParseError, match=":2:"):
            read_detections(p)

    def test_missing_header(self, tmp_path):
        p = write(tmp_path, "1 0 10 10 5 5 0.5\n")
        with pytest.raises(ParseError, match="#video"):
            read_detections(p)

    def test_too_few_fields(self, tmp_path):
        p = write(tmp_path, "#video v 1280 720 3\n1 0 10 10 5\n")
        with pytest.raises(ParseError):
            read_detections(p)

    def test_appearance_parsed(self, tmp_path):
        p = write(tmp_path, "#video v 1280 720 1\n0 0 1 1 5 5 0.5 0.6 0.8\n")
        v = read_detections(p)
        assert v.frames[0][0].appearance == (0.6, 0.8)

    def test_corner_overflow_names_file_and_line(self, tmp_path):
        # x + w is inf, and the IoU of such a box with itself NaN
        p = write(tmp_path, "#video v 1280 720 2\n0 0 1 1 5 5 0.5\n1 0 1e308 0 1e308 5 0.9\n")
        with pytest.raises(ValidationError, match=f"{p}:3: bbox corner is not finite"):
            read_detections(p)

    def test_nan_appearance_names_file_and_line(self, tmp_path):
        p = write(tmp_path, "#video v 1280 720 2\n0 0 1 1 5 5 0.5 1 0\n1 0 1 1 5 5 0.9 nan 0\n")
        with pytest.raises(ValidationError, match=re.escape(
                f"{p}:3: appearance must be None or a tuple of finite numbers, got (nan, 0.0)")):
            read_detections(p)


class TestHeaderBounds:
    """A header is checked before any per-frame storage is made, so a huge
    frame_count fails at once instead of exhausting memory."""

    @pytest.mark.parametrize("reader", [read_detections, read_ground_truth])
    @pytest.mark.parametrize("count", [MAX_FRAME_COUNT + 1, 10 ** 12, 10 ** 4000, -1])
    def test_frame_count_outside_bound(self, tmp_path, reader, count):
        p = write(tmp_path, f"#video v 1280 720 {count}\n")
        with time_limit(2.0):
            message = f"{p}:1: frame_count must be an integer in [0, {MAX_FRAME_COUNT}], got {count}"
            with pytest.raises(ValidationError, match=re.escape(message)):
                reader(p)

    @pytest.mark.parametrize("cls", [VideoDetections, GroundTruth])
    def test_containers_share_the_bound(self, cls):
        with time_limit(2.0):
            with pytest.raises(ValidationError, match="frame_count"):
                cls("v", SHAPE, MAX_FRAME_COUNT + 1, {})

    def test_bound_covers_every_shipped_stream(self):
        # the longest stream the tests, demos and benchmark make has 1000 frames
        assert MAX_FRAME_COUNT >= 1000

    @pytest.mark.parametrize("reader", [read_detections, read_ground_truth])
    def test_width_beyond_float_range(self, tmp_path, reader):
        p = write(tmp_path, f"#video v {10 ** 400} 720 1\n")
        message = f"{p}:1: width must be an integer in [1, 1.8e308], got 1{'0' * 400}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            reader(p)

    @pytest.mark.parametrize("video_id, width, height, count", [
        ("v", 1280, 720, 3), ("sim-0_ü#", np.int64(1280), np.uint16(720), np.int32(0)),
        ("#tubelets", 2 ** 1000, 1, MAX_FRAME_COUNT), ("x" * 300, np.uint64(2 ** 64 - 1),
                                                       np.int8(1), np.int64(5)),
    ])
    @pytest.mark.parametrize("cls", [VideoDetections, GroundTruth])
    def test_every_header_that_constructs_reads_back(self, tmp_path, cls, video_id, width,
                                                      height, count):
        s = cls(video_id, FrameShape(width, height), count, {})
        p = tmp_path / "s.txt"
        (write_detections if cls is VideoDetections else write_ground_truth)(s, p)
        back = (read_detections if cls is VideoDetections else read_ground_truth)(p)
        assert back == s and p.read_text() == f"#video {video_id} {width} {height} {count}\n"

    @pytest.mark.parametrize("name, value", [
        *[(name, value) for name in ("width", "height", "frame_count")
          for value in (1280.5, 3.0, True, np.float64(3))],
        ("video_id", 5), ("video_id", None), ("video_id", b"v"), ("video_id", ""),
        ("video_id", "a b"), ("video_id", "a\tb"), ("video_id", "a\u2028b"),
        ("video_id", "\udcff"), ("frame_shape", (1280, 720)),
    ])
    @pytest.mark.parametrize("cls", [VideoDetections, GroundTruth])
    def test_a_header_that_would_not_read_back_fails_on_construction(self, cls, name, value):
        # FrameShape(1280.0, 720) and VideoDetections("v", shape, 3.0) used to
        # construct and write a header that the readers refuse
        header = dict(video_id="v", width=1280, height=720, frame_count=3, frame_shape=None)
        header[name] = value
        with pytest.raises(ValidationError, match=f"^{name} must be .*, got ") as e:
            shape = header["frame_shape"] or FrameShape(header["width"], header["height"])
            cls(header["video_id"], shape, header["frame_count"])
        assert type(e.value) is ValidationError


class TestNotUtf8:
    """Bytes that are not UTF-8 raise ParseError naming the file; they used to
    end in a UnicodeDecodeError traceback."""

    @pytest.mark.parametrize("reader", [read_detections, read_ground_truth, load_model])
    def test_reader(self, tmp_path, reader):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"#video v 1280 720 1\n0 0 1 1 5 5 0.5 \xff\n")
        with pytest.raises(ParseError, match=f"{p}: not UTF-8 text"):
            reader(p)


class TestRoundTrip:
    def test_empty_video_header_only(self, tmp_path):
        v = VideoDetections("v", SHAPE, 4, {})
        p = tmp_path / "out.txt"
        write_detections(v, p)
        assert p.read_text() == "#video v 1280 720 4\n"
        assert read_detections(p) == v

    def test_randomized_streams_exact(self, rng, tmp_path):
        p = tmp_path / "out.txt"
        for k in range(200):
            v = random_stream(rng, with_appearance=(k % 2 == 0))
            write_detections(v, p)
            assert read_detections(p) == v

    def test_tubelet_id_column(self, rng, tmp_path):
        v = random_stream(rng, frame_count=4)
        ids = {f: list(range(len(v.frames[f]))) for f in range(4)}
        p = tmp_path / "out.txt"
        write_detections(v, p, ids)
        back, back_ids = read_detections_with_ids(p)
        assert back == v
        # frames without detections store no list, and read as an empty one
        assert all(back_ids[f] == ids[f] for f in range(4))
        # plain reader accepts the same file
        assert read_detections(p) == v

    def test_ids_are_stored_like_frames(self, tmp_path):
        # only frames with detections hold ids, in frame order; reading the
        # ids of another frame stores nothing
        p = write(tmp_path, "#video v 1280 720 4\n#tubelets\n2 0 1 1 5 5 0.5 7\n0 0 1 1 5 5 0.5 3\n")
        back, back_ids = read_detections_with_ids(p)
        assert back_ids[1] == [] and back_ids[3] == []
        assert list(back_ids.items()) == [(0, [3]), (2, [7])]
        assert list(back_ids) == list(back.frames)

    def test_tubelet_ids_with_appearance(self, rng, tmp_path):
        v = random_stream(rng, frame_count=4, with_appearance=True)
        ids = {f: [7] * len(v.frames[f]) for f in range(4)}
        p = tmp_path / "out.txt"
        write_detections(v, p, ids)
        back, back_ids = read_detections_with_ids(p)
        assert back == v and back_ids == ids

    def test_numpy_values_print_as_python_floats(self, tmp_path):
        # every real is written as repr(float(v)), whatever its type
        d = Detection(np.int64(1), np.int64(2), BBox(np.float32(0.1), np.float64(2.5), 3, 4.0),
                      np.float32(0.7), (np.float32(0.6), 0.8))
        p = tmp_path / "out.txt"
        write_detections(VideoDetections("v", SHAPE, 2, {1: [d]}), p, {1: [np.int64(5)]})
        assert p.read_text().splitlines()[1:] == [
            "#tubelets", "1 2 0.10000000149011612 2.5 3.0 4.0 0.699999988079071 5 "
                         "0.6000000238418579 0.8"]
        g = TrackBox(np.int64(0), 1, np.int64(2), BBox(np.float32(0.1), 1, 2, np.float64(3)))
        write_ground_truth(GroundTruth("v", SHAPE, 1, {0: [g]}), p)
        assert p.read_text().splitlines()[1:] == ["0 1 2 0.10000000149011612 1.0 2.0 3.0"]

    def test_mismatched_tubelet_ids_rejected(self, tmp_path):
        v = VideoDetections("v", SHAPE, 1, {0: [det()]})
        with pytest.raises(ValidationError):
            write_detections(v, tmp_path / "out.txt", {0: [1, 2]})

    def test_tubelet_ids_for_a_frame_without_detections_rejected(self, tmp_path):
        v = VideoDetections("v", SHAPE, 6, {0: [det()]})
        with pytest.raises(ValidationError, match="tubelet_ids for frame 5 do not match"):
            write_detections(v, tmp_path / "out.txt", {0: [1], 5: [3]})

    @pytest.mark.parametrize("ids, frame", [
        ({0: [7], 1: [8, 9]}, 0), ({0: [7, 8]}, 1), ({0: [7, 8], 1: [9], 2: [4]}, 2),
    ])
    def test_columns_of_checks_the_ids_as_the_writer_does(self, tmp_path, ids, frame):
        # columns_of gave {0: [7], 1: [8, 9]} the id column 7, 8, 9, and
        # {0: [7, 8]} a bare KeyError
        v = VideoDetections("v", SHAPE, 3, {0: [det(0), det(0, x=50.0)], 1: [det(1)]})
        p = tmp_path / "out.txt"
        for write in (lambda: columns_of(v, ids), lambda: write_detections(v, p, ids)):
            with pytest.raises(ValidationError, match=(
                    f"^tubelet_ids for frame {frame} do not match detection count$")):
                write()
        assert not p.exists()

    @pytest.mark.parametrize("bad", ["x", True, 1.0, None, np.float64(2), -1, 2 ** 63, 2 ** 70,
                                     -2 ** 70, np.int64(-3), np.uint64(2 ** 64 - 1)])
    def test_an_id_the_reader_refuses_is_not_written(self, tmp_path, bad):
        # such ids were written as "x", "True", "1.0" and "-1", which
        # read_detections_with_ids then refused
        v = VideoDetections("v", SHAPE, 3, {0: [det(0)], 2: [det(2), det(2, x=50.0)]})
        p = tmp_path / "out.txt"
        for write in (lambda: columns_of(v, {0: [4], 2: [5, bad]}),
                      lambda: write_detections(v, p, {0: [4], 2: [5, bad]})):
            with pytest.raises(ValidationError, match="^" + re.escape(
                    f"tubelet_id in frame 2 must be an integer in [0, 2**63 - 1], got {bad!r}")):
                write()
        assert not p.exists()

    @pytest.mark.parametrize("ids", [[0, 2 ** 63 - 1], [np.int64(3), np.uint64(2 ** 63 - 1)],
                                     [np.int32(7), np.uint8(0)]])
    def test_ids_in_range_round_trip(self, tmp_path, ids):
        v = VideoDetections("v", SHAPE, 3, {1: [det(1), det(1, x=50.0)]})
        p = tmp_path / "out.txt"
        write_detections(v, p, {1: ids})
        assert read_detections_with_ids(p) == (v, {1: ids})
        for c in (columns_of(v, {1: ids}), read_columns(p)):
            assert c.tubelet_id.dtype == np.int64 and c.tubelet_id.tolist() == ids

    @pytest.mark.parametrize("count", [0, 2, 5, 7])
    def test_columns_need_one_tubelet_id_per_row(self, tmp_path, count):
        # columns carry one id per row in their tubelet_id column: an id
        # array passed beside them, of any length, is refused and nothing is written
        v = VideoDetections("v", SHAPE, 3, {f: [det(f), det(f, x=50.0)] for f in range(3)})
        p = tmp_path / "out.txt"
        with pytest.raises(ContractError, match="^columns carry their tubelet ids"):
            write_detections(columns_of(v), p, np.arange(count))
        assert not p.exists()
        write_detections(columns_of(v, {f: [2 * f, 2 * f + 1] for f in range(3)}), p)
        assert len(p.read_text().splitlines()) == 8

    @pytest.mark.parametrize("column, row, value, message", [
        ("tubelet_id", 1, -1, "tubelet_id must be an integer in [0, 2**63 - 1], got -1"),
        ("class_id", 0, -1, "class_id must be an integer in [0, 2**63 - 1], got -1"),
        ("frame_idx", 2, -1, "frame_idx must be an integer in [0, 2**63 - 1], got -1"),
        ("frame_idx", 2, 3, "frame_idx 3 outside [0, 3)"),
        ("score", 1, 2.0, "score must be in [0,1], got 2.0"),
        ("score", 0, math.nan, "score must be in [0,1], got nan"),
        ("w", 2, -1.0, "bbox has non-positive size: w=-1.0, h=10.0"),
        ("h", 0, 0.0, "bbox has non-positive size: w=10.0, h=0.0"),
        ("x", 1, math.inf, "bbox.x must be a finite number, got inf"),
        ("descriptor", 1, 0.5, "appearance vector is not unit-norm (|v| = 0.943398113)"),
    ])
    def test_columns_the_reader_would_refuse_are_not_written(self, tmp_path, column, row, value,
                                                             message):
        # such rows were written as they were, and read_columns then refused the file
        a = (0.6, 0.8)
        v = VideoDetections("v", SHAPE, 3, {0: [det(0, app=a)], 2: [det(2, app=a), det(2, x=50.0)]})
        c = columns_of(v, {0: [4], 2: [5, 6]})
        if column in ("x", "y", "w", "h"):
            c.box[row, "xywh".index(column)] = value
        elif column == "descriptor":
            c.descriptor[row, 0] = value
        else:
            getattr(c, column)[row] = value
        p = tmp_path / "out.txt"
        with pytest.raises(ValidationError) as e:
            write_detections(c, p)
        assert type(e.value) is ValidationError and str(e.value) == f"row {row}: {message}"
        assert not p.exists()

    def test_ground_truth_columns_are_not_written_as_detections(self, rng, tmp_path):
        # they raised a bare AttributeError from the row builder: score is None
        g = tmp_path / "gt.txt"
        write_ground_truth(random_ground_truth(rng), g)
        p = tmp_path / "out.txt"
        with pytest.raises(ContractError, match="^write_detections writes detection columns, "
                                                "with scores; these have none"):
            write_detections(read_columns(g, ground_truth=True), p)
        assert not p.exists()

    @pytest.mark.parametrize("column, values, message", [
        ("class_id", [0.0, 1.5, 0.0], "class_id must be a signed integer column, got float64"),
        ("tubelet_id", np.array([4, 2 ** 63, 6], np.uint64),
         "tubelet_id must be a signed integer column, got uint64"),
        ("frame_idx", np.array([0, 2, 2], np.uint8),
         "frame_idx must be a signed integer column, got uint8"),
    ])
    def test_id_columns_of_another_type_are_not_written(self, tmp_path, column, values, message):
        # a float id was written as 1.5 and a uint64 one as 9223372036854775808,
        # and read_columns then refused the file
        v = VideoDetections("v", SHAPE, 3, {0: [det(0)], 2: [det(2), det(2, x=50.0)]})
        c = columns_of(v, {0: [4], 2: [5, 6]})
        setattr(c, column, np.asarray(values))
        p = tmp_path / "out.txt"
        with pytest.raises(ContractError, match="^" + re.escape(message) + "$"):
            write_detections(c, p)
        assert not p.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("video_id", "a b","video_id must be a non-empty UTF-8 string without whitespace, "
                            "got 'a b'"),
        ("frame_count", -1, "frame_count must be an integer in [0, 1000000], got -1"),
        ("frame_shape", (640, 480), "frame_shape must be a FrameShape, got (640, 480)"),
    ])
    def test_columns_with_a_header_the_reader_would_refuse_are_not_written(
            self, tmp_path, field, value, message):
        c = columns_of(VideoDetections("v", SHAPE, 3, {0: [det(0)]}))
        setattr(c, field, value)
        p = tmp_path / "out.txt"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            write_detections(c, p)
        assert not p.exists()

    def test_values_past_a_descriptor_are_not_checked(self, tmp_path):
        # a row's descriptor is its first descriptor_len values; the rest of
        # its row is padding that is neither checked nor written
        a = unit_vector(np.random.default_rng(1), 2)
        v = VideoDetections("v", SHAPE, 2, {0: [det(0, app=a)], 1: [det(1)]})
        c = columns_of(v)
        c.descriptor = np.hstack([c.descriptor, [[math.nan], [7.0]]])
        p = tmp_path / "out.txt"
        write_detections(c, p)
        assert read_detections(p) == v


class TestGroundTruthIO:
    def test_duplicate_track_id_rejected(self, tmp_path):
        p = write(tmp_path, "#video v 1280 720 2\n0 0 1 10 10 5 5\n0 0 1 50 50 5 5\n")
        with pytest.raises(ValidationError, match="duplicate track_id"):
            read_ground_truth(p)

    def test_duplicate_track_id_names_path_and_line(self, tmp_path):
        # the repeated box's line, counting blank lines; the first frame in
        # frame order that repeats a track is named, as the stream's own check does
        p = write(tmp_path, "#video v 1280 720 3\n2 0 4 1 1 5 5\n2 0 4 9 9 5 5\n"
                            "0 0 1 10 10 5 5\n\n0 0 2 30 30 5 5\n0 0 1 50 50 5 5\n")
        message = f"{p}:7: duplicate track_id 1 in frame 0"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            read_ground_truth(p)

    def test_two_tracks(self, tmp_path):
        p = write(tmp_path, "#video v 1280 720 1\n0 0 1 10 10 5 5\n0 0 2 50 50 5 5\n")
        g = read_ground_truth(p)
        assert {b.track_id for b in g.frames[0]} == {1, 2}

    def test_missing_track_id_column(self, tmp_path):
        p = write(tmp_path, "#video v 1280 720 1\n0 0 10 10 5 5\n")
        with pytest.raises(ParseError, match="7 fields"):
            read_ground_truth(p)

    def test_round_trip(self, rng, tmp_path):
        p = tmp_path / "gt.txt"
        for _ in range(50):
            g = random_ground_truth(rng)
            write_ground_truth(g, p)
            assert read_ground_truth(p) == g


class TestContainerValidation:
    # the rules of ids, frames and scores are tested in test_value_types.py

    def test_video_frames_must_match_keys(self):
        with pytest.raises(ValidationError):
            VideoDetections("v", SHAPE, 2, {0: [det(frame=1)]})

    def test_frame_key_out_of_range(self):
        with pytest.raises(ValidationError):
            VideoDetections("v", SHAPE, 2, {5: []})

    def test_video_id_whitespace_rejected(self):
        with pytest.raises(ValidationError):
            VideoDetections("a b", SHAPE, 1, {})

    def test_numpy_integer_ids_write_and_read_back(self, tmp_path):
        box = BBox(1.0, 2.0, 3.0, 4.0)
        v = VideoDetections("v", SHAPE, 5, {3: [Detection(np.int64(3), np.int32(2), box, 0.5)]})
        g = GroundTruth("v", SHAPE, 5, {4: [TrackBox(np.int64(4), np.uint16(7), np.int8(1), box)]})
        write_detections(v, tmp_path / "d.txt")
        write_ground_truth(g, tmp_path / "g.txt")
        assert (tmp_path / "d.txt").read_text().splitlines()[1] == "3 2 1.0 2.0 3.0 4.0 0.5"
        assert (tmp_path / "g.txt").read_text().splitlines()[1] == "4 7 1 1.0 2.0 3.0 4.0"
        assert read_detections(tmp_path / "d.txt") == v
        assert read_ground_truth(tmp_path / "g.txt") == g

    def test_gt_duplicate_track_in_frame(self):
        boxes = [
            TrackBox(0, 0, 3, BBox(0, 0, 5, 5)),
            TrackBox(0, 0, 3, BBox(50, 50, 5, 5)),
        ]
        with pytest.raises(ValidationError):
            GroundTruth("v", SHAPE, 1, {0: boxes})


def listed_columns(boxes):
    """The arrays read_columns gives for these objects, listed in stored order."""
    return ([b.frame_idx for b in boxes], [b.class_id for b in boxes],
            [[b.bbox.x, b.bbox.y, b.bbox.w, b.bbox.h] for b in boxes],
            [getattr(b, "score", None) for b in boxes])


def assert_columns(c, stream):
    boxes = [b for bs in stream.frames.values() for b in bs]
    frame, cls, box, score = listed_columns(boxes)
    assert (c.video_id, c.frame_shape, c.frame_count) == (
        stream.video_id, stream.frame_shape, stream.frame_count)
    assert c.frame_idx.dtype == np.int64 and c.class_id.dtype == np.int64
    assert c.frame_idx.tolist() == frame and c.class_id.tolist() == cls
    assert c.box.tolist() == box
    assert (c.score is None) == isinstance(stream, GroundTruth)
    if c.score is not None:
        assert c.score.tolist() == score


def assert_same_columns(a, b):
    """Two BoxColumns hold equal header fields and equal arrays of one dtype."""
    assert (a.video_id, a.frame_shape, a.frame_count) == (b.video_id, b.frame_shape, b.frame_count)
    for x, y in [(a.frame_idx, b.frame_idx), (a.class_id, b.class_id), (a.box, b.box),
                 (a.score, b.score), (a.descriptor, b.descriptor),
                 (a.descriptor_len, b.descriptor_len), (a.track_id, b.track_id)]:
        assert (x is None) == (y is None)
        if x is not None:
            assert x.dtype == y.dtype and x.shape == y.shape and (x == y).all()


def assert_raises_as(p, error, reader, ground_truth=False):
    """reader and read_columns, numpy first and line by line, raise for p the
    error (type, message), where {p} in the message stands for the path."""
    kind, message = error
    message = message.replace("{p}", str(p))

    def by_line(path):
        with line_by_line():
            return read_columns(path, ground_truth)

    for read in (reader, lambda path: read_columns(path, ground_truth), by_line):
        with pytest.raises(kind, match=f"^{re.escape(message)}$") as raised:
            read(p)
        assert type(raised.value) is kind


DETECTION_FIELDS = "(frame_idx class_id x y w h score)"
GROUND_TRUTH_FIELDS = "(frame_idx class_id track_id x y w h)"
# The error that each bad body in TestReadColumns raises, as (type, message),
# with {p} standing for the path
BODY_ERRORS = {
    # detections
    "0 0 1 1 5 5 1.3": (ValidationError, "{p}:2: score must be in [0,1], got 1.3"),
    "0 0 1 1 5 5 nan": (ValidationError, "{p}:2: score must be in [0,1], got nan"),
    "0 0 1 1 5 5 -inf": (ValidationError, "{p}:2: score must be in [0,1], got -inf"),
    "4 0 1 1 5 5 0.5": (ValidationError, "{p}:2: frame_idx 4 outside [0, 4)"),
    "-1 0 1 1 5 5 0.5":
        (ValidationError, "{p}:2: frame_idx must be an integer in [0, 2**63 - 1], got -1"),
    "0 -1 1 1 5 5 0.5":
        (ValidationError, "{p}:2: class_id must be an integer in [0, 2**63 - 1], got -1"),
    "0 0 1 1 0 5 0.5": (ValidationError, "{p}:2: bbox has non-positive size: w=0.0, h=5.0"),
    "0 0 1 1 5 -0.0 0.5": (ValidationError, "{p}:2: bbox has non-positive size: w=5.0, h=-0.0"),
    "0 0 1e308 1 1e308 5 0.5":
        (ValidationError, "{p}:2: bbox corner is not finite: x + w = inf, y + h = 6.0"),
    "0 0 1 inf 5 5 0.5": (ValidationError, "{p}:2: bbox.y must be a finite number, got inf"),
    "0 0 x 1 5 5 0.5": (ParseError, "{p}:2: x is not a number: 'x'"),
    "1.5 0 1 1 5 5 0.5": (ParseError, "{p}:2: frame_idx is not an integer: '1.5'"),
    "1.0 0 1 1 5 5 0.5": (ParseError, "{p}:2: frame_idx is not an integer: '1.0'"),
    "0 0 1 1 5 5": (ParseError, f"{{p}}:2: line needs at least 7 fields {DETECTION_FIELDS}, got 6"),
    "0 0 1 1 5 5 0.5 nan": (ValidationError, "{p}:2: appearance must be None or a tuple of "
                                             "finite numbers, got (nan,)"),
    "0 0 1 1 5 5 0.5 inf 0": (ValidationError, "{p}:2: appearance must be None or a tuple of "
                                               "finite numbers, got (inf, 0.0)"),
    "0 0 1 1 5 5 0.5 0.6 0.7":
        (ValidationError, "{p}:2: appearance vector is not unit-norm (|v| = 0.921954446)"),
    "0 0 1 1 5 5 0.5 1e200 1":
        (ValidationError, "{p}:2: appearance vector is not unit-norm (|v| = inf)"),
    "0 0 1 1 5 5 0.5\n0 0 1 1 5":
        (ParseError, f"{{p}}:3: line needs at least 7 fields {DETECTION_FIELDS}, got 5"),
    "0 0 1 1 5 5 0.5\n#tubelets":
        (ParseError, f"{{p}}:3: line needs at least 7 fields {DETECTION_FIELDS}, got 1"),
    "0 0 1 1 5 5 0.5\n1 0 1 1 5 5":
        (ParseError, f"{{p}}:3: line needs at least 7 fields {DETECTION_FIELDS}, got 6"),
    "#tubelets\n0 0 1 1 5 5 0.5 1.5": (ParseError, "{p}:3: tubelet_id is not an integer: '1.5'"),
    "#tubelets\n0 0 1 1 5 5 0.5 -1":
        (ValidationError, "{p}:3: tubelet_id must be an integer in [0, 2**63 - 1], got -1"),
    "#tubelets\n0 0 1 1 5 5 0.5 3\n1 0 1 1 5 5 0.5 9223372036854775808 0.6 0.8":
        (ValidationError, "{p}:4: tubelet_id must be an integer in [0, 2**63 - 1], "
                          "got 9223372036854775808"),
    "#tubelets\n0 0 1 1 5 5 0.5": (ParseError, "{p}:3: line needs at least 8 fields "
                                               "(frame_idx class_id x y w h score tubelet_id), got 7"),
    # ground truth
    "0 0 1 1 1 5 5\n0 0 1 8 8 5 5": (ValidationError, "{p}:3: duplicate track_id 1 in frame 0"),
    # a repeated track raises only when no line fails
    "0 0 1 1 1 5 5\n0 0 1 8 8 5 5\n0 0 -1 1 1 5 5":
        (ValidationError, "{p}:4: track_id must be an integer in [0, 2**63 - 1], got -1"),
    "0 0 -1 1 1 5 5":
        (ValidationError, "{p}:2: track_id must be an integer in [0, 2**63 - 1], got -1"),
    "0 0 1 1 1 5 5 0.5": (ParseError, f"{{p}}:2: line needs 7 fields {GROUND_TRUTH_FIELDS}, got 8"),
    "0 0 0 1 1 5 5 1": (ParseError, f"{{p}}:2: line needs 7 fields {GROUND_TRUTH_FIELDS}, got 8"),
    "0 0 0 1 1 5 5\n1 0 0 1 1 5 5 1":
        (ParseError, f"{{p}}:3: line needs 7 fields {GROUND_TRUTH_FIELDS}, got 8"),
    "0 0 1 1 1 5": (ParseError, f"{{p}}:2: line needs 7 fields {GROUND_TRUTH_FIELDS}, got 6"),
    "0 0 1 1 1 5 x": (ParseError, "{p}:2: h is not a number: 'x'"),
    "1.0 0 0 1 1 5 5": (ParseError, "{p}:2: frame_idx is not an integer: '1.0'"),
}


class TestReadColumns:
    """read_columns gives the object readers' values in stored order, and a
    bad file's error, whether numpy parses the body as it stands or it is
    read line by line."""

    def test_same_values_as_the_object_readers(self, rng, tmp_path):
        p = tmp_path / "in.txt"
        for k in range(60):
            # every third stream carries descriptors on some lines, every other one ids
            v = random_stream(rng, with_appearance=(k % 3 == 0))
            ids = {f: list(range(len(d))) for f, d in v.frames.items()} if k % 2 else None
            write_detections(v, p, ids)
            assert_columns(read_columns(p), v)
            assert_same_columns(columns_of(read_detections(p)), read_columns(p))
            g = random_ground_truth(rng)
            write_ground_truth(g, p)
            assert_columns(read_columns(p, ground_truth=True), g)
            assert_same_columns(columns_of(read_ground_truth(p)), read_columns(p, True))

    def test_lines_come_in_stored_order(self, tmp_path):
        # by frame, then as listed, as read_detections stores them
        lines = ["2 0 10 10 5 5 0.5", "", "0 0 10 10 5 5 0.6", "   ", "2 1 20 20 5 5 0.7"]
        p = write(tmp_path, "#video v 1280 720 4\n" + "\n".join(lines) + "\n")
        c = read_columns(p)
        assert c.frame_idx.tolist() == [0, 2, 2] and c.score.tolist() == [0.6, 0.5, 0.7]
        assert_columns(c, read_detections(p))

    def test_header_only(self, tmp_path):
        c = read_columns(write(tmp_path, "#video v 1280 720 4\n#tubelets\n"))
        assert c.frame_count == 4 and c.box.shape == (0, 4) and len(c.score) == 0

    @pytest.mark.parametrize("ground_truth,body", [
        # the width changes on the last line only
        (False, "0 0 1 1 5 5 0.5\n1 0 1 1 5 5 0.6\n2 0 2 2 5 5 0.7 0.6 0.8"),
        (False, "0 0 1 1 5 5 0.5 0.6 0.8\n1 0 1 1 5 5 0.6 1 0\n2 0 2 2 5 5 0.7"),
        (False, "#tubelets\n0 0 1 1 5 5 0.5 3\n1 0 1 1 5 5 0.6 4 -1"),
        (False, "0 0 1 1 5 5 0.5\n1 0 1 1 5 5"), (True, "0 0 0 1 1 5 5\n1 0 0 1 1 5 5 1"),
        (True, "0 0 0 1 1 5 5 1"),  # one field too many, a unit descriptor were it detections
        # a blank or whitespace-only first body line
        (False, "\n0 0 1 1 5 5 0.5"), (False, " \t\x1f\xa0\u2003\n0 0 1 1 5 5 0.5 0 1"),
        (False, "#tubelets\n  \n0 0 1 1 5 5 0.5 7"), (True, "\t\n0 0 0 1 1 5 5"),
        # no box: a header-only body and an all-blank one
        (False, ""), (False, "\n \n\t"), (False, "#tubelets\n\n"), (True, ""), (True, " \n\n"),
        # a frame index written 1.0, which int() refuses
        (False, "1.0 0 1 1 5 5 0.5"), (True, "1.0 0 0 1 1 5 5"),
    ])
    def test_bulk_edges_give_the_object_readers_columns(self, tmp_path, ground_truth, body):
        # the lines are in frame order, so file order is stored order; numpy
        # must not warn, not even of a body with no line to parse
        p = write(tmp_path, f"#video v 1280 720 4\n{body}\n")
        reader = read_ground_truth if ground_truth else read_detections
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if body in BODY_ERRORS:
                assert_raises_as(p, BODY_ERRORS[body], reader, ground_truth)
            else:
                bulk = read_in_bulk(p, ground_truth)
                assert_same_columns(bulk, columns_of(reader(p)))
                with line_by_line():
                    assert_same_columns(read_columns(p, ground_truth), bulk)

    @pytest.mark.parametrize("body", [
        "0 0 1 1 5 5 1.3", "0 0 1 1 5 5 nan", "0 0 1 1 5 5 -inf", "4 0 1 1 5 5 0.5",
        "-1 0 1 1 5 5 0.5", "0 -1 1 1 5 5 0.5", "0 0 1 1 0 5 0.5", "0 0 1 1 5 -0.0 0.5",
        "0 0 1e308 1 1e308 5 0.5", "0 0 1 inf 5 5 0.5", "0 0 x 1 5 5 0.5", "1.5 0 1 1 5 5 0.5",
        "0 0 1 1 5 5", "0 0 1 1 5 5 0.5 nan", "0 0 1 1 5 5 0.5 inf 0", "0 0 1 1 5 5 0.5 0.6 0.7",
        "0 0 1 1 5 5 0.5 1e200 1", "0 0 1 1 5 5 0.5\n0 0 1 1 5", "0 0 1 1 5 5 0.5\n#tubelets",
        "#tubelets\n0 0 1 1 5 5 0.5 1.5", "#tubelets\n0 0 1 1 5 5 0.5",
        "#tubelets\n0 0 1 1 5 5 0.5 -1",
        "#tubelets\n0 0 1 1 5 5 0.5 3\n1 0 1 1 5 5 0.5 9223372036854775808 0.6 0.8",
    ])
    def test_rejects_what_read_detections_rejects(self, tmp_path, body):
        p = write(tmp_path, f"#video v 1280 720 4\n{body}\n")
        assert_raises_as(p, BODY_ERRORS[body], read_detections)

    @pytest.mark.parametrize("body", [
        "0 0 1 1 1 5 5\n0 0 1 8 8 5 5", "0 0 1 1 1 5 5\n0 0 1 8 8 5 5\n0 0 -1 1 1 5 5",
        "0 0 -1 1 1 5 5", "0 0 1 1 1 5 5 0.5", "0 0 1 1 1 5", "0 0 1 1 1 5 x",
    ])
    def test_rejects_what_read_ground_truth_rejects(self, tmp_path, body):
        p = write(tmp_path, f"#video v 1280 720 4\n{body}\n")
        assert_raises_as(p, BODY_ERRORS[body], read_ground_truth, ground_truth=True)

    def test_a_token_that_is_not_ascii_is_read_line_by_line(self, tmp_path):
        # numpy's integer parser took "\U000b79c3", which int() refuses, as
        # 752019, and now and then crashed on it
        p = tmp_path / "in.txt"
        p.write_text("#video v 1280 720 4\n0 \U000b79c3 1 1 5 5 0.5\n", encoding="utf-8")
        assert_raises_as(p, (ParseError, "{p}:2: class_id is not an integer: '\\U000b79c3'"),
                         read_detections)
        # an Arabic-Indic 3, which int() takes
        p.write_text("#video v 1280 720 4\n\u0663 0 1 1 5 5 0.5\n", encoding="utf-8")
        assert read_columns(p).frame_idx.tolist() == [3]

    def test_descriptor_norms_at_the_bound_agree(self, rng, tmp_path):
        # norms within rounding of 1 +- 1e-6, where a sum in another order
        # would decide some lines the other way
        p = tmp_path / "in.txt"
        accepted = 0
        for k in range(300):
            scale = 1.0 + (1e-6 if k % 2 else -1e-6) * (1.0 + float(rng.integers(-40, 41)) * 1e-11)
            v = np.array(unit_vector(rng, 16)) * scale
            p.write_text("#video v 1280 720 1\n0 0 1 1 5 5 0.5 " + " ".join(map(repr, v.tolist())))
            norm2 = 0.0  # the squares added left to right
            for a in v.tolist():
                norm2 += a * a
            norm = math.sqrt(norm2)
            if abs(norm - 1.0) > 1e-6:
                assert_raises_as(p, (ValidationError, "{p}:2: appearance vector is not unit-norm "
                                                      f"(|v| = {norm:.9f})"), read_detections)
            else:
                assert_same_columns(read_in_bulk(p), columns_of(read_detections(p)))
                accepted += 1
        assert 0 < accepted < 300

    @pytest.mark.parametrize("taken,v", NORM_WITNESSES)
    def test_detection_adds_the_squares_left_to_right(self, tmp_path, monkeypatch, taken, v):
        # a compensated sum of the squares, as sum() is from Python 3.12 on,
        # decides these vectors the other way; with it patched in for sum(),
        # Detection must still decide as read_columns does
        left_to_right = 0.0
        for a in v:
            left_to_right += a * a
        unit = lambda norm2: abs(math.sqrt(norm2) - 1.0) <= 1e-6
        assert unit(left_to_right) == taken != unit(math.fsum(a * a for a in v))
        monkeypatch.setattr(geometry, "sum", math.fsum, raising=False)
        p = write(tmp_path, "#video v 1280 720 1\n0 0 1 1 5 5 0.5 " + " ".join(map(repr, v)))
        if taken:
            read_in_bulk(p)
            det(app=tuple(v))
        else:
            with pytest.raises(ValidationError, match="not unit-norm"):
                read_columns(p)
            with pytest.raises(ValidationError, match="not unit-norm"):
                det(app=tuple(v))

    @pytest.mark.parametrize("line", ["0 99999999999999999999999 1 1 5 5 0.5",
                                      f"0 {2 ** 63} 1 1 5 5 0.5"])
    def test_integers_beyond_int64_are_left_to_the_object_reader(self, tmp_path, line):
        p = write(tmp_path, f"#video v 1280 720 4\n{line}\n")
        assert_raises_as(p, (ValidationError, "{p}:2: class_id must be an integer in "
                                              "[0, 2**63 - 1], got " + line.split()[1]),
                         read_detections)

    @pytest.mark.parametrize("text", ["", "#video v 1280 720\n", "#video v 0 720 4\n",
                                      "#video v 1280 720 x\n0 0 x 1 5 5 0.5\n"])
    def test_header_errors_are_the_object_readers(self, tmp_path, text):
        error = {
            "": (ParseError, "{p}:1: first line must start with '#video'"),
            "#video v 1280 720\n": (ParseError, "{p}:1: header needs "
                                                "'#video <video_id> <width> <height> <frame_count>'"),
            "#video v 0 720 4\n": (ValidationError,
                                   "{p}:1: width must be an integer in [1, 1.8e308], got 0"),
            "#video v 1280 720 x\n0 0 x 1 5 5 0.5\n":
                (ParseError, "{p}:1: frame_count is not an integer: 'x'"),
        }[text]
        p = write(tmp_path, text)
        for ground_truth, reader in ((False, read_detections), (True, read_ground_truth)):
            assert_raises_as(p, error, reader, ground_truth)

    def test_a_file_the_object_reader_takes_gives_its_columns(self, tmp_path):
        # read line by line, a file gives the object reader's columns, in the
        # stored order that numpy's parse of it gives
        p = write(tmp_path, "#video v 1280 720 4\n2 0 10 10 5 5 0.5\n0 1 1 1 5 5 0.6 0.6 0.8\n"
                            "2 1 20 20 5 5 0.7\n")
        bulk = read_in_bulk(p)
        with line_by_line():
            c = read_columns(p)
        assert_same_columns(c, columns_of(read_detections(p)))
        assert_same_columns(c, bulk)
        assert c.frame_idx.tolist() == [0, 2, 2] and c.score.tolist() == [0.6, 0.5, 0.7]


class TestDescriptorColumns:
    """Both column routes give each box's descriptor as a row prefix of one
    matrix, and the writer writes columns as it writes the stream."""

    def test_descriptors_of_several_lengths(self, tmp_path):
        p = write(tmp_path, "#video v 1280 720 4\n2 0 1 1 5 5 0.5 0.6 0.8\n0 1 1 1 5 5 0.6\n"
                            "2 1 2 2 5 5 0.7 0 0 1\n1 0 3 3 5 5 0.2 -1\n")
        c = read_columns(p)  # stored order: frames 0, 1, 2, 2
        assert c.descriptor_len.tolist() == [0, 1, 2, 3]
        assert c.descriptor.tolist() == [[0, 0, 0], [-1, 0, 0], [0.6, 0.8, 0], [0, 0, 1]]
        assert [None if a is None else a.tolist() for a in c.descriptors()] == [
            None, [-1.0], [0.6, 0.8], [0.0, 0.0, 1.0]]
        assert_same_columns(c, columns_of(read_detections(p)))

    @pytest.mark.parametrize("space,groupings", [(" ", 1), ("\t", 2)])
    def test_mixed_widths_are_grouped_once_when_single_spaced(self, tmp_path, monkeypatch,
                                                              space, groupings):
        # single spaces give each line's width in one pass; tabs give widths
        # that numpy refuses, so the lines are grouped again by str.split,
        # and the body is still read in bulk
        counts = []

        def by_width(lines, fields, n, line_counts):
            counts.append(line_counts)
            return grouped(lines, fields, n, line_counts)

        grouped = io._by_width
        monkeypatch.setattr(io, "_by_width", by_width)
        lines = ["0 0 1 1 5 5 0.5 0.6 0.8", "", "1 0 1 1 5 5 0.6", " ", "2 0 2 2 5 5 0.7 -1"]
        p = write(tmp_path, "#video v 1280 720 4\n" + "\n".join(
            line.replace(" ", space) for line in lines) + "\n")
        c = read_in_bulk(p)
        assert len(counts) == groupings and counts[-1] == [9, 0, 7, 0, 8]
        assert c.descriptor_len.tolist() == [2, 0, 1]
        assert_same_columns(c, columns_of(read_detections(p)))

    def test_columns_write_the_bytes_of_their_stream(self, rng, tmp_path):
        for k in range(40):
            v = random_stream(rng, with_appearance=(k % 2 == 0))
            ids = {f: [7 * f + j for j in range(len(d))] for f, d in v.frames.items()}
            for tubelet_ids in (None, ids):
                write_detections(v, tmp_path / "a.txt", tubelet_ids)
                write_detections(columns_of(v, tubelet_ids), tmp_path / "b.txt")
                assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    @pytest.mark.parametrize("tubelet_id", [0, 2 ** 63 - 1])
    def test_an_in_range_tubelet_id_is_read_in_bulk(self, tmp_path, tubelet_id):
        # numpy parses the line, id included, into int64 columns
        p = write(tmp_path, "#video v 1280 720 4\n#tubelets\n"
                            f"0 0 1 1 5 5 0.5 {tubelet_id}\n")
        c = read_in_bulk(p)
        assert c.tubelet_id.dtype == np.int64 and c.tubelet_id.tolist() == [tubelet_id]
        assert read_detections_with_ids(p)[1] == {0: [tubelet_id]}

    @pytest.mark.parametrize("tubelet_id", [2 ** 63, 2 ** 70, -1, -2 ** 70])
    def test_a_tubelet_id_beyond_the_id_rule_is_refused(self, tmp_path, tubelet_id):
        # such ids were read as Python ints of any size; an id beyond int64
        # stops _line_by_line, and -1 fails the bulk check
        p = write(tmp_path, "#video v 1280 720 4\n#tubelets\n0 0 1 1 5 5 0.5 0\n"
                            f"1 0 1 1 5 5 0.5 {tubelet_id}\n")
        assert_raises_as(p, (ValidationError, "{p}:4: tubelet_id must be an integer in "
                                              f"[0, 2**63 - 1], got {tubelet_id}"),
                         read_detections)


MAX_ID = 2 ** 63 - 1


class TestIdBound:
    """Class, track and tubelet ids are at most 2**63 - 1, so every stream
    fits int64 columns."""

    @pytest.mark.parametrize("i", [MAX_ID, np.int64(MAX_ID)])
    def test_largest_id_is_taken(self, i):
        assert Detection(0, i, BBox(0, 0, 1, 1), 0.5).class_id == MAX_ID
        assert TrackBox(0, i, i, BBox(0, 0, 1, 1)).track_id == MAX_ID

    @pytest.mark.parametrize("ground_truth,line", [
        (False, "0 {} 1 1 5 5 0.5"), (True, "0 {} 0 1 1 5 5"), (True, "0 0 {} 1 1 5 5")])
    def test_readers_name_path_and_line(self, tmp_path, ground_truth, line):
        reader = read_ground_truth if ground_truth else read_detections
        first = "0 1 1 1 1 5 5" if ground_truth else "0 1 1 1 5 5 0.5"
        p = write(tmp_path, f"#video v 1280 720 4\n{first}\n\n{line.format(MAX_ID + 1)}\n")
        with pytest.raises(ValidationError, match=rf"^{re.escape(str(p))}:4: .* must be an "
                                                  r"integer in \[0, 2\*\*63 - 1\], got "):
            reader(p)
        beyond = MAX_ID + 1
        field = {"0 {} 1 1 5 5 0.5": "class_id", "0 {} 0 1 1 5 5": "class_id",
                 "0 0 {} 1 1 5 5": "track_id"}[line]
        message = f"{field} must be an integer in [0, 2**63 - 1], got {beyond}"
        assert_raises_as(p, (ValidationError, "{p}:4: " + message), reader, ground_truth)
        p.write_text(f"#video v 1280 720 4\n{first}\n\n{line.format(MAX_ID)}\n")
        assert_same_columns(read_columns(p, ground_truth), columns_of(reader(p)))


def chunk_columns(rng, n, dim, ids):
    """n detection rows in frame order over about n / 3 frames, a descriptor
    of dim components on about half of them (none when dim is 0), and
    tubelet ids when ids is true."""
    frame = np.sort(rng.integers(0, n // 3 + 1, n))
    desc = rng.normal(size=(n, dim))
    desc /= np.linalg.norm(desc, axis=1, keepdims=True) if dim else 1
    descriptor_len = np.where(rng.random(n) < 0.5, dim, 0)
    box = np.column_stack([rng.uniform(0, 1000, (n, 2)), rng.uniform(1, 80, (n, 2))])
    return BoxColumns("v", SHAPE, n // 3 + 1, frame, rng.integers(0, 30, n), box, rng.random(n),
                      np.where(descriptor_len[:, None] > 0, desc, 0.0), descriptor_len,
                      rng.integers(0, 2 ** 40, n) if ids else None)


def listed_lines(c, with_ids, track_id=None):
    """The lines that the writers give for columns c, built field by field:
    detection lines, or ground-truth lines with track_id."""
    lines = []
    for row in range(len(c.frame_idx)):
        ids = [c.frame_idx[row], c.class_id[row]]
        reals = list(c.box[row])
        if track_id is not None:
            ids.append(track_id[row])
        else:
            reals.append(c.score[row])
        tail = [str(c.tubelet_id[row])] if with_ids else []
        a = c.descriptor[row, :c.descriptor_len[row]]
        lines.append(" ".join([*map(str, ids), *(repr(float(v)) for v in reals), *tail,
                               *(repr(float(v)) for v in a)]))
    return lines


class TestChunkedWrites:
    """The writers write CHUNK_LINES lines at a time: every row count around a
    chunk boundary gives the whole file's text, which reads back equal."""

    SIZES = [0, CHUNK_LINES - 1, CHUNK_LINES, CHUNK_LINES + 1, 2 * CHUNK_LINES + 1]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("ids", [False, True])
    def test_columns(self, rng, tmp_path, n, ids):
        c = chunk_columns(rng, n, 3, ids)
        p = tmp_path / "out.txt"
        write_detections(c, p)
        header = f"#video v 1280 720 {c.frame_count}"
        assert p.read_text() == "\n".join(
            [header, *["#tubelets"] * ids, *listed_lines(c, ids)]) + "\n"
        back = read_columns(p)
        for a, b in [(back.frame_idx, c.frame_idx), (back.class_id, c.class_id), (back.box, c.box),
                     (back.score, c.score), (back.descriptor_len, c.descriptor_len)]:
            assert a.tolist() == b.tolist()
        if ids:
            assert back.tubelet_id.tolist() == c.tubelet_id.tolist()
        else:
            assert back.tubelet_id is None
        assert [None if a is None else a.tolist() for a in back.descriptors()] == [
            None if a is None else a.tolist() for a in c.descriptors()]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("dim, ids", [(0, False), (0, True), (4, False), (4, True)])
    def test_objects(self, rng, tmp_path, n, dim, ids):
        c = chunk_columns(rng, n, dim, ids)
        v, by_frame = stream_of(c)
        p = tmp_path / "out.txt"
        write_detections(v, p, by_frame)
        header = f"#video v 1280 720 {c.frame_count}"
        assert p.read_text() == "\n".join(
            [header, *["#tubelets"] * ids, *listed_lines(c, ids)]) + "\n"
        assert read_detections_with_ids(p) == (v, by_frame)

    @pytest.mark.parametrize("n", SIZES)
    def test_ground_truth(self, rng, tmp_path, n):
        c = chunk_columns(rng, n, 0, False)
        track = np.arange(n)
        frames = {}
        for f, k, t, b in zip(c.frame_idx.tolist(), c.class_id.tolist(), track.tolist(),
                              c.box.tolist()):
            frames.setdefault(f, []).append(TrackBox(f, k, t, BBox(*b)))
        g = GroundTruth("v", SHAPE, c.frame_count, frames)
        p = tmp_path / "gt.txt"
        write_ground_truth(g, p)
        header = f"#video v 1280 720 {c.frame_count}"
        assert p.read_text() == "\n".join([header, *listed_lines(c, False, track)]) + "\n"
        assert read_ground_truth(p) == g

    @pytest.mark.parametrize("row", [CHUNK_LINES - 1, CHUNK_LINES, 2 * CHUNK_LINES])
    def test_a_refused_row_past_the_first_chunk_is_named(self, rng, tmp_path, row):
        # the rows are checked a chunk at a time: the first refused row of
        # the columns is named, whichever chunk holds it
        c = chunk_columns(rng, 2 * CHUNK_LINES + 1, 3, True)
        c.score[[row, -1]] = 2.0
        p = tmp_path / "out.txt"
        message = f"row {row}: score must be in [0,1], got 2.0"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            write_detections(c, p)
        assert not p.exists()

    @pytest.mark.parametrize("objects", [False, True])
    def test_memory_follows_a_chunk_not_the_file(self, rng, tmp_path, objects):
        # the whole text was built, joined and encoded: the peak grew by
        # about 25 MiB from 4,096 to 16,384 rows with descriptors
        p, peaks = tmp_path / "out.txt", []
        for n in (CHUNK_LINES + 1, 4 * (CHUNK_LINES + 1)):
            c = chunk_columns(rng, n, 8, True)
            v, ids = stream_of(c) if objects else (c, None)
            tracemalloc.start()
            try:
                write_detections(v, p, ids)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        chunk = p.stat().st_size / n * CHUNK_LINES  # the bytes of one chunk of lines
        assert peaks[1] - peaks[0] < chunk
