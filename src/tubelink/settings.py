"""One declaration per setting: a dataclass field made with ``setting()``
carries its default, an optional one-field ``Check`` and its flag's help
text; its type is the annotation (``int``, ``float``, ``str``, ``bool``, or
one of these ``| None``). ``validate`` runs the checks on construction,
``add_flags`` derives argparse flags and ``read_settings`` reads ``key =
value`` files. A function that takes a setting checks it with the field's
own ``Check`` through ``Check.require``, so a range is written once. The
checks of integer settings are made with ``integer``: they refuse bools and
floats, which the flags and files, parsed with ``int()``, never give. A bool
setting that defaults to True is switched off by ``--no-<name>`` and the
file key ``no_<name>``; file booleans are strict.
"""

from __future__ import annotations

import argparse
import math
import numbers
import sys
from dataclasses import Field, field, fields
from typing import Any, Callable, NamedTuple

from .errors import ConfigError, ValidationError


class Check(NamedTuple):
    """A one-field check and how an accepted value reads, e.g. "in [0,1)"."""

    ok: Callable[[Any], bool]
    expect: str

    def require(self, name: str, value: Any, error: type[Exception] = ValidationError) -> None:
        """Raise error, naming `name` and what it must be, unless value passes."""
        if not self.ok(value):
            raise error(f"{name} must be {self.expect}, got {value!r}")


def integer(ok: Callable[[int], bool], expect: str) -> Check:
    """A Check that takes a Python or numpy integer for which ok holds, and
    refuses bools and floats, even integral ones."""
    return Check(lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and ok(v),
                 expect)


def int_at_least(lo: int) -> Check:
    return integer(lambda v: v >= lo, f"an integer >= {lo}")


def one_of(*choices: str) -> Check:
    return Check(lambda v: v in choices, "one of " + ", ".join(choices))


NON_NEGATIVE = Check(lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
UNIT_OPEN = Check(lambda v: 0.0 < v < 1.0, "in (0,1)")
UNIT_CLOSED = Check(lambda v: 0.0 <= v <= 1.0, "in [0,1]")
UNIT_HALF_OPEN = Check(lambda v: 0.0 <= v < 1.0, "in [0,1)")
ODD_WINDOW = integer(lambda v: v >= 1 and v % 2 == 1, "an odd integer >= 1")
# a frame side is used as a float, so it must convert to one
FRAME_SIDE = integer(lambda v: 1 <= v <= sys.float_info.max, "an integer in [1, 1.8e308]")


def setting(default: Any, check: Check | None = None, help: str | None = None) -> Any:
    return field(default=default, metadata={"check": check, "help": help})


def settings_of(cls) -> list[Field]:
    return [f for f in fields(cls) if "check" in f.metadata]


def validate(obj) -> None:
    """Raise ValidationError for the first setting of `obj` that fails its
    check. None passes where None is the default."""
    for f in settings_of(obj):
        check, value = f.metadata["check"], getattr(obj, f.name)
        if check and not (value is None and f.default is None):
            check.require(f.name, value)


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_TYPES = {  # annotation -> (conversion, what a value of that type must be)
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "str": (str, "a string"),
    "bool": (lambda text: _BOOLS[text.lower()], "one of 1/true/yes/0/false/no"),
}


def _key(f: Field) -> str:
    """The setting's file key; its flag is the key with '-' for '_'."""
    return f"no_{f.name}" if f.default is True else f.name


def _parse(f: Field, text: str, name: str) -> Any:
    """Convert a flag or file value to f's type and run f's check."""
    convert, kind = _TYPES[f.type.removesuffix(" | None")]
    check = f.metadata["check"]
    try:
        value = convert(text)
    except (ValueError, KeyError):
        ok = False
    else:
        ok = check is None or check.ok(value)
    if not ok:
        raise ValidationError(f"{name} must be {check.expect if check else kind}, got {text!r}")
    return value


def add_flags(parser: argparse.ArgumentParser, cls) -> None:
    """Add one flag per setting of `cls`; an unset flag sets no attribute."""
    for f in settings_of(cls):
        flag, check = "--" + _key(f).replace("_", "-"), f.metadata["check"]
        common = dict(dest=f.name, default=argparse.SUPPRESS,
                      help=f.metadata["help"] or (check and check.expect))
        if f.type == "bool":
            parser.add_argument(flag, action="store_const", const=not f.default, **common)
            continue

        def parse(text: str, f=f, name=flag[2:]) -> Any:
            try:
                return _parse(f, text, name)
            except ValidationError as e:
                raise argparse.ArgumentTypeError(str(e)) from None
        parser.add_argument(flag, type=parse, **common)


def read_settings(text: str, classes, what: str, where: str = "") -> dict[str, Any]:
    """Parse ``key = value`` lines into {field name: value} for the settings
    of `classes`, checking every value. Blank and '#' lines are skipped, and
    a repeated key keeps its last value. `where` prefixes each message."""
    by_key = {_key(f): f for cls in classes for f in settings_of(cls)}
    values: dict[str, Any] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, val = (s.strip() for s in line.partition("="))
        if not eq:
            raise ConfigError(f"{where}line {line_no}: expected 'key = value', got {line!r}")
        if key not in by_key:
            raise ConfigError(f"{where}line {line_no}: unknown {what} key {key!r}")
        f = by_key[key]
        try:
            value = _parse(f, val, key)
        except ValidationError as e:
            raise ConfigError(f"{where}line {line_no}: bad value: {e}") from None
        values[f.name] = value if key == f.name else not value
    return values

