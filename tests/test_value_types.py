"""The field rules of the value types, in one table.

Each row builds one object with one bad field and gives the literal
ValidationError message, worded as a setting's is: ``<field> must be
<expect>, got <value>``. An id or frame is checked by geometry.ID, a score by
settings.UNIT_CLOSED, a box field by settings.FINITE and a box by
geometry.BOX. numpy values enter a message through their repr, which differs
between numpy releases.
"""

import math

import numpy as np
import pytest

from tubelink import BBox, Detection, TrackBox, Tubelet, TubeletEntry, ValidationError

BOX = BBox(0, 0, 5, 5)
ENTRY = TubeletEntry(0, BOX, 0.5)
# the fields of a good object of each type; a row replaces one
GOOD = {
    BBox: dict(x=0, y=0, w=1, h=1),
    Detection: dict(frame_idx=0, class_id=0, bbox=BOX, score=0.5),
    TrackBox: dict(frame_idx=0, class_id=0, track_id=0, bbox=BOX),
    TubeletEntry: dict(frame_idx=0, bbox=BOX, score=0.5),
    Tubelet: dict(tubelet_id=0, class_id=0, entries=(ENTRY,)),
}

ROWS = [
    # ids and frames: geometry.ID
    (Detection, "frame_idx", -1, "frame_idx must be an integer in [0, 2**63 - 1], got -1"),
    (Detection, "frame_idx", 2 ** 63,
     "frame_idx must be an integer in [0, 2**63 - 1], got 9223372036854775808"),
    (Detection, "frame_idx", 1.0, "frame_idx must be an integer in [0, 2**63 - 1], got 1.0"),
    (Detection, "frame_idx", True, "frame_idx must be an integer in [0, 2**63 - 1], got True"),
    (Detection, "frame_idx", np.float64(2.0),
     f"frame_idx must be an integer in [0, 2**63 - 1], got {np.float64(2.0)!r}"),
    (Detection, "frame_idx", "0", "frame_idx must be an integer in [0, 2**63 - 1], got '0'"),
    (Detection, "class_id", -1, "class_id must be an integer in [0, 2**63 - 1], got -1"),
    (Detection, "class_id", 2 ** 63,
     "class_id must be an integer in [0, 2**63 - 1], got 9223372036854775808"),
    (Detection, "class_id", 2 ** 64,
     "class_id must be an integer in [0, 2**63 - 1], got 18446744073709551616"),
    (Detection, "class_id", 0.0, "class_id must be an integer in [0, 2**63 - 1], got 0.0"),
    (Detection, "class_id", False, "class_id must be an integer in [0, 2**63 - 1], got False"),
    (Detection, "class_id", np.bool_(True),
     f"class_id must be an integer in [0, 2**63 - 1], got {np.bool_(True)!r}"),
    (Detection, "class_id", None, "class_id must be an integer in [0, 2**63 - 1], got None"),
    (TrackBox, "frame_idx", -1, "frame_idx must be an integer in [0, 2**63 - 1], got -1"),
    (TrackBox, "frame_idx", 2 ** 63,
     "frame_idx must be an integer in [0, 2**63 - 1], got 9223372036854775808"),
    (TrackBox, "frame_idx", 1.0, "frame_idx must be an integer in [0, 2**63 - 1], got 1.0"),
    (TrackBox, "frame_idx", True, "frame_idx must be an integer in [0, 2**63 - 1], got True"),
    (TrackBox, "frame_idx", np.float64(1),
     f"frame_idx must be an integer in [0, 2**63 - 1], got {np.float64(1)!r}"),
    (TrackBox, "frame_idx", np.bool_(False),
     f"frame_idx must be an integer in [0, 2**63 - 1], got {np.bool_(False)!r}"),
    (TrackBox, "class_id", -1, "class_id must be an integer in [0, 2**63 - 1], got -1"),
    (TrackBox, "class_id", 2 ** 63,
     "class_id must be an integer in [0, 2**63 - 1], got 9223372036854775808"),
    (TrackBox, "class_id", 1.0, "class_id must be an integer in [0, 2**63 - 1], got 1.0"),
    (TrackBox, "class_id", True, "class_id must be an integer in [0, 2**63 - 1], got True"),
    (TrackBox, "class_id", np.float64(1),
     f"class_id must be an integer in [0, 2**63 - 1], got {np.float64(1)!r}"),
    (TrackBox, "class_id", np.bool_(False),
     f"class_id must be an integer in [0, 2**63 - 1], got {np.bool_(False)!r}"),
    (TrackBox, "track_id", -1, "track_id must be an integer in [0, 2**63 - 1], got -1"),
    (TrackBox, "track_id", 2 ** 63,
     "track_id must be an integer in [0, 2**63 - 1], got 9223372036854775808"),
    (TrackBox, "track_id", 1.0, "track_id must be an integer in [0, 2**63 - 1], got 1.0"),
    (TrackBox, "track_id", True, "track_id must be an integer in [0, 2**63 - 1], got True"),
    (TrackBox, "track_id", np.float64(1),
     f"track_id must be an integer in [0, 2**63 - 1], got {np.float64(1)!r}"),
    (TrackBox, "track_id", np.bool_(False),
     f"track_id must be an integer in [0, 2**63 - 1], got {np.bool_(False)!r}"),
    (TubeletEntry, "frame_idx", -1, "frame_idx must be an integer in [0, 2**63 - 1], got -1"),
    (TubeletEntry, "frame_idx", 2 ** 63,
     "frame_idx must be an integer in [0, 2**63 - 1], got 9223372036854775808"),
    (TubeletEntry, "frame_idx", 1.0, "frame_idx must be an integer in [0, 2**63 - 1], got 1.0"),
    (TubeletEntry, "frame_idx", True, "frame_idx must be an integer in [0, 2**63 - 1], got True"),
    (TubeletEntry, "frame_idx", np.float64(0),
     f"frame_idx must be an integer in [0, 2**63 - 1], got {np.float64(0)!r}"),
    (Tubelet, "class_id", -1, "class_id must be an integer in [0, 2**63 - 1], got -1"),
    (Tubelet, "class_id", 2 ** 63,
     "class_id must be an integer in [0, 2**63 - 1], got 9223372036854775808"),
    (Tubelet, "class_id", 0.0, "class_id must be an integer in [0, 2**63 - 1], got 0.0"),
    (Tubelet, "class_id", True, "class_id must be an integer in [0, 2**63 - 1], got True"),
    (Tubelet, "class_id", np.float32(1),
     f"class_id must be an integer in [0, 2**63 - 1], got {np.float32(1)!r}"),
    # a tubelet id is an id too: #tubelets files hold it in an int64 column
    (Tubelet, "tubelet_id", -1, "tubelet_id must be an integer in [0, 2**63 - 1], got -1"),
    (Tubelet, "tubelet_id", 2 ** 63,
     "tubelet_id must be an integer in [0, 2**63 - 1], got 9223372036854775808"),
    (Tubelet, "tubelet_id", 2 ** 70,
     "tubelet_id must be an integer in [0, 2**63 - 1], got 1180591620717411303424"),
    (Tubelet, "tubelet_id", -2 ** 70,
     "tubelet_id must be an integer in [0, 2**63 - 1], got -1180591620717411303424"),
    (Tubelet, "tubelet_id", 1.0, "tubelet_id must be an integer in [0, 2**63 - 1], got 1.0"),
    (Tubelet, "tubelet_id", "0", "tubelet_id must be an integer in [0, 2**63 - 1], got '0'"),
    (Tubelet, "tubelet_id", "x", "tubelet_id must be an integer in [0, 2**63 - 1], got 'x'"),
    (Tubelet, "tubelet_id", True, "tubelet_id must be an integer in [0, 2**63 - 1], got True"),
    (Tubelet, "tubelet_id", 1.5, "tubelet_id must be an integer in [0, 2**63 - 1], got 1.5"),
    (Tubelet, "tubelet_id", 2.0, "tubelet_id must be an integer in [0, 2**63 - 1], got 2.0"),
    (Tubelet, "tubelet_id", None, "tubelet_id must be an integer in [0, 2**63 - 1], got None"),
    # scores: settings.UNIT_CLOSED
    (Detection, "score", 1.3, "score must be in [0,1], got 1.3"),
    (Detection, "score", -0.1, "score must be in [0,1], got -0.1"),
    (Detection, "score", math.nan, "score must be in [0,1], got nan"),
    (Detection, "score", 10 ** 400, "score must be in [0,1], got 1" + "0" * 400),
    (Detection, "score", True, "score must be in [0,1], got True"),
    (Detection, "score", False, "score must be in [0,1], got False"),
    (Detection, "score", np.bool_(True), f"score must be in [0,1], got {np.bool_(True)!r}"),
    (Detection, "score", "0.5", "score must be in [0,1], got '0.5'"),
    (TubeletEntry, "score", 1.5, "score must be in [0,1], got 1.5"),
    (TubeletEntry, "score", math.nan, "score must be in [0,1], got nan"),
    (TubeletEntry, "score", 10 ** 400, "score must be in [0,1], got 1" + "0" * 400),
    (TubeletEntry, "score", True, "score must be in [0,1], got True"),
    (TubeletEntry, "score", "0.5", "score must be in [0,1], got '0.5'"),
    # box fields: settings.FINITE
    (BBox, "x", math.nan, "bbox.x must be a finite number, got nan"),
    (BBox, "x", None, "bbox.x must be a finite number, got None"),
    (BBox, "y", "1", "bbox.y must be a finite number, got '1'"),
    (BBox, "w", math.inf, "bbox.w must be a finite number, got inf"),
    (BBox, "h", -10 ** 400, "bbox.h must be a finite number, got -1" + "0" * 400),
    (BBox, "h", None, "bbox.h must be a finite number, got None"),
    (BBox, "x", True, "bbox.x must be a finite number, got True"),
    (BBox, "w", False, "bbox.w must be a finite number, got False"),
    (BBox, "y", np.bool_(True), f"bbox.y must be a finite number, got {np.bool_(True)!r}"),
    (BBox, "x", np.array(1.0), f"bbox.x must be a finite number, got {np.array(1.0)!r}"),
    (BBox, "h", np.float32(math.inf),
     f"bbox.h must be a finite number, got {np.float32(math.inf)!r}"),
    # boxes: geometry.BOX
    (Detection, "bbox", "box", "bbox must be a BBox, got 'box'"),
    (Detection, "bbox", (0, 0, 5, 5), "bbox must be a BBox, got (0, 0, 5, 5)"),
    (TrackBox, "bbox", None, "bbox must be a BBox, got None"),
    (TubeletEntry, "bbox", None, "bbox must be a BBox, got None"),
    # the other fields
    (Detection, "appearance", np.array([1.0]),
     "appearance must be None or a tuple of finite numbers, got array([1.])"),
    (Detection, "appearance", [1.0],
     "appearance must be None or a tuple of finite numbers, got [1.0]"),
    (Detection, "appearance", (1.0, "0"),
     "appearance must be None or a tuple of finite numbers, got (1.0, '0')"),
    (TubeletEntry, "interpolated", "yes", "interpolated must be True or False, got 'yes'"),
    (TubeletEntry, "interpolated", 1, "interpolated must be True or False, got 1"),
    (TubeletEntry, "interpolated", None, "interpolated must be True or False, got None"),
    (Tubelet, "entries", [ENTRY],
     f"entries must be a non-empty tuple of TubeletEntry, got [{ENTRY!r}]"),
    (Tubelet, "entries", (), "entries must be a non-empty tuple of TubeletEntry, got ()"),
    (Tubelet, "entries", (ENTRY, "x"),
     f"entries must be a non-empty tuple of TubeletEntry, got ({ENTRY!r}, 'x')"),
]


@pytest.mark.parametrize("cls, field, value, message", ROWS,
                         ids=[f"{c.__name__}-{f}-{k}" for k, (c, f, _, _) in enumerate(ROWS)])
def test_a_bad_field_is_named_by_its_rule(cls, field, value, message):
    with pytest.raises(ValidationError) as raised:
        cls(**{**GOOD[cls], field: value})
    assert str(raised.value) == message


@pytest.mark.parametrize("cls, field, value", [
    (Detection, "frame_idx", 2 ** 63 - 1), (Detection, "class_id", np.int64(2 ** 63 - 1)),
    (TrackBox, "frame_idx", np.uint64(2 ** 63 - 1)), (TrackBox, "track_id", 2 ** 63 - 1),
    (TubeletEntry, "frame_idx", 2 ** 63 - 1), (Tubelet, "class_id", np.uint8(0)),
    (Tubelet, "tubelet_id", 0), (Tubelet, "tubelet_id", 2 ** 63 - 1),
    (Tubelet, "tubelet_id", np.uint64(2 ** 63 - 1)), (Detection, "score", 1),
    (Detection, "score", 0),
    (Detection, "score", np.float32(1.0)), (TubeletEntry, "score", np.float64(0.0)),
    (TubeletEntry, "interpolated", np.bool_(True)), (BBox, "x", np.float32(1.5)),
    (BBox, "w", np.float16(2.0)), (BBox, "h", 10 ** 300),
])
def test_a_value_that_its_rule_takes_constructs(cls, field, value):
    # the bounds, and values that fail a constructor's inline test for a
    # Python int or float but that the rule's Check takes
    assert getattr(cls(**{**GOOD[cls], field: value}), field) == value
