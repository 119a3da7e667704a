"""One JSON codec for the config dataclasses: their fields are the schema.

`decode` builds a value from JSON by its type annotation. Absent keys take
the dataclass defaults. An unknown key, a value of the wrong JSON type or
length, and a ConfigurationError from `__post_init__` raise a
ConfigurationError naming the dotted key path; the top level's path is "".
Only `init=True` fields are keys: a field that `__post_init__` derives, or
that the caller sets afterwards, is neither read nor written. A datetime
is an ISO-8601 string and an enum its value.

A number's valid range is part of its field: `x: float = within(0, 1, default=0.5)`.
A config dataclass with bounds derives from `Bounded`, so a value out of range is an
error however the object is built, keyed by its leaf. Checks that span
fields run once, in the same `__post_init__`, and name the field at fault.
`population.Building` declares its columns' ranges the same way but is not
`Bounded`: its rows are built only on request, and the population loader
checks each cell against the bound instead.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import types
import typing
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import lru_cache

from .errors import ConfigurationError, IngestionError

_SCALARS = {bool: "true or false", int: "an integer", float: "a finite number",
            str: "a string"}


def encode(obj):
    """JSON form of a config value: dataclasses become objects keyed by field."""
    if dataclasses.is_dataclass(obj):
        return {name: encode(getattr(obj, name)) for name in _keys(type(obj))}
    if isinstance(obj, datetime):
        return obj.isoformat()
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {k.value if isinstance(k, Enum) else str(k): encode(v) for k, v in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [encode(v) for v in obj]
    return obj


def decode(tp, data, path: str):
    """A value of type `tp` built from the JSON `data` found at key `path`."""
    if dataclasses.is_dataclass(tp):
        _expect(isinstance(data, dict), path, "an object", data)
        fields = _keys(tp)
        for key in data:
            if key not in fields:
                raise ConfigurationError(f"config key {_join(path, key)!r} is not a known setting")
        for name, f in fields.items():
            if name not in data and f.default is f.default_factory is dataclasses.MISSING:
                raise ConfigurationError(f"config key {_join(path, name)!r} is required")
        hints = _hints(tp)
        return checked(path, tp, **{name: decode(hints[name], value, _join(path, name))
                                   for name, value in data.items()})
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # X | None
        return None if data is None else decode(args[0], data, path)
    if tp is dict or origin is dict:
        _expect(isinstance(data, dict), path, "an object", data)
        if not args:
            return data
        return {_key(args[0], k, path): decode(args[1], v, f"{path}.{k}")
                for k, v in data.items()}
    if origin is tuple:
        _expect(isinstance(data, list), path, "a list", data)
        if args[-1] is Ellipsis:
            args = args[:1] * len(data)
        _expect(len(data) == len(args), path, f"a list of {len(args)} items", data)
        return tuple(decode(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(args, data)))
    if isinstance(tp, type) and issubclass(tp, Enum):
        values = [m.value for m in tp]
        _expect(isinstance(data, str) and data in values, path,
                "one of " + ", ".join(map(repr, values)), data)
        return tp(data)
    if tp is datetime:
        return checked(path, parse_timestamp, decode(str, data, path))
    if tp in _SCALARS:
        # Another JSON type is rejected, never converted: true is not a
        # number, 3.0 is not an integer. The float range excludes NaN and
        # the infinities, which Python's JSON parser accepts.
        if tp is float and type(data) in (int, float):
            _expect(abs(data) <= sys.float_info.max, path, _SCALARS[tp], data)
            return float(data)
        _expect(type(data) is tp, path, _SCALARS[tp], data)
        return data
    return data  # unannotated: free-form


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC."""
    try:
        stamp = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    except ValueError as exc:
        raise IngestionError(f"unparsable timestamp {text!r}: {exc}") from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.astimezone(timezone.utc)


@lru_cache(maxsize=None)
def _hints(obj) -> dict:
    return typing.get_type_hints(obj)


def _keys(tp) -> dict:
    """The dataclass's fields that are config keys: those `__init__` takes."""
    return {f.name: f for f in dataclasses.fields(tp) if f.init}


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _key(tp, key: str, path: str):
    """Dict keys are JSON strings; enum- and int-keyed dicts convert them."""
    if tp is int:
        _expect(key.strip().lstrip("-").isdecimal(), path, "keyed by integers", key)
        return int(key)
    return key if tp is str else decode(tp, key, f"{path}.{key}")


def checked(path: str, make, /, *args, **kwargs):
    """`make(*args, **kwargs)`, its ConfigurationError naming key `path`."""
    try:
        return make(*args, **kwargs)
    except ConfigurationError as exc:
        if not path:  # the top level's own message names its keys
            raise
        if exc.key is not None:
            raise ConfigurationError(exc.message, _join(path, exc.key)) from exc
        raise ConfigurationError(f"config key {path!r}: {exc}") from exc


@dataclass(frozen=True)
class Bound:
    """A number's valid range, lo <= x <= hi and above < x < below; a limit
    left unset is infinite. A tuple or dict value is bounded item by item,
    and an `ordered` pair also needs its first item <= its second."""

    lo: float = -math.inf
    hi: float = math.inf
    above: float = -math.inf
    below: float = math.inf
    ordered: bool = False

    def check(self, value, key: str) -> None:
        """Raise a ConfigurationError keyed by the first leaf of `value` out of range."""
        if isinstance(value, dict):
            for k, v in value.items():
                self.check(v, f"{key}.{k.value if isinstance(k, Enum) else k}")
        elif isinstance(value, (tuple, list)):
            for i, v in enumerate(value):
                self.check(v, f"{key}[{i}]")
            if self.ordered and value[0] > value[1]:
                raise ConfigurationError(f"must have lo <= hi, got {list(value)}", key)
        elif value is not None and not (self.lo <= value <= self.hi
                                        and self.above < value < self.below):
            low = f"[{self.lo:,}" if self.lo > -math.inf else f"({self.above:,}"
            high = f"{self.hi:,}]" if self.hi < math.inf else f"{self.below:,})"
            raise ConfigurationError(f"must lie in {low}, {high}, got {value!r}", key)


def within(lo: float = -math.inf, hi: float = math.inf, *, above: float = -math.inf,
           below: float = math.inf, ordered: bool = False, **field_args) -> dataclasses.Field:
    """A dataclass field, `dataclasses.field(**field_args)`, whose value keeps these bounds."""
    return dataclasses.field(metadata={Bound: Bound(lo, hi, above, below, ordered)}, **field_args)


class Bounded:
    """A dataclass whose construction checks the `within` bounds of its
    fields, raising a ConfigurationError keyed by the first leaf out of
    range; a subclass's own `__post_init__` calls this one first."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if Bound in f.metadata:
                f.metadata[Bound].check(getattr(self, f.name), f.name)


def _expect(ok: bool, path: str, kind: str, data) -> None:
    if not ok:
        raise ConfigurationError(f"config key {path!r} must be {kind}, got {data!r}")
