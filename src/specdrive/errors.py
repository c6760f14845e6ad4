"""Exception types shared across the package, the one reader every JSON
input goes through, and naming, the one way an error is made to name its
sources: construct, the one constructor of the objects JSON describes,
names the source of an error from a class's own checks, and the CLI names
the files a check across its inputs compared.

The CLI maps these onto exit codes: usage problems exit 1, data/input
problems exit 2, anything unexpected exits 3.
"""

import dataclasses
import json
import math
import reprlib
import sys
from contextlib import contextmanager
from numbers import Integral
from pathlib import Path
from typing import NamedTuple


class SpecdriveError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SpecdriveError):
    """Array dimensions do not satisfy an operation's requirements."""


class InvalidGeometry(SpecdriveError):
    """Patch/grid geometry cannot be realized on the given image."""


class ShapeMismatch(SpecdriveError):
    """Tensor shapes disagree with the graph or with each other."""


class InvalidConfig(SpecdriveError):
    """Model configuration violates a structural constraint."""


class StructureError(SpecdriveError):
    """Graph structure does not allow the requested transformation."""


class MissingWeights(SpecdriveError):
    """A layer's weight tensors were not supplied."""


class EmptyCalibration(SpecdriveError):
    """Calibration requires at least one representative sample."""


class RangeMissing(SpecdriveError):
    """No recorded activation range for a tensor that needs one."""


class NonFinite(SpecdriveError):
    """A NaN or infinity where only finite values have a meaning."""


class EmptyMatrix(SpecdriveError):
    """Confusion matrix holds no scored pixels."""


class LabelOutOfRange(SpecdriveError):
    """A label value is neither a valid class nor the ignore label."""


class InsufficientData(SpecdriveError):
    """Not enough samples for the requested statistic."""


class SingularCovariance(SpecdriveError):
    """Covariance matrix not invertible even after regularization."""


class RankDeficient(SpecdriveError):
    """Data does not span enough dimensions for the requested selection."""


class InvalidSpec(SpecdriveError):
    """Synthetic scene description is inconsistent."""


class CorruptContainer(SpecdriveError):
    """Weight container file is truncated or malformed."""


class NonDeterministicOutput(SpecdriveError):
    """Benchmark configurations disagreed on outputs; timing aborted."""


class InvalidOption(SpecdriveError, ValueError):
    """A command-line flag, manifest entry or config value is out of range."""


class _Required:
    """The type of REQUIRED. Its repr is a bare object()'s with the name in
    place of the address, so a Field's repr (a test id, say) is the same
    in every run."""

    def __repr__(self):
        return "<object object at REQUIRED>"


REQUIRED = _Required()  # the default of a key that must be present


class Field(NamedTuple):
    """A JSON value's type, the range [lo, hi] of every number in it, and
    its default as an object's key (REQUIRED: none; None: null is allowed
    too). The type is int (never a bool), float (finite), bool, str (no
    NUL, which no file path may hold), dict (any object), a frozenset of
    the strings allowed, [t] (a list of t), [t] * n with n > 1 (n of them)
    or a dict of Fields (an object of those keys)."""

    type: object
    lo: float = -math.inf
    hi: float = math.inf
    default: object = REQUIRED


def json_field(default, type, lo=-math.inf, hi=math.inf):
    """A dataclass field that JSON fills: its default, and its values are
    checked as Field(type, lo, hi, default)."""
    return dataclasses.field(default=default,
                             metadata={"json": Field(type, lo, hi, default)})


def json_spec(cls) -> dict[str, Field]:
    """The Field of each json_field of the dataclass cls, by name."""
    return {f.name: f.metadata["json"] for f in dataclasses.fields(cls)}


def _describe(f: Field) -> str:
    t = f.type
    if isinstance(t, list):
        return f"a list of {len(t)}" if len(t) > 1 else "a list"
    if isinstance(t, frozenset):
        return f"one of {sorted(t)}"
    if t is dict or isinstance(t, dict):
        return "a JSON object"
    bounded = t in (int, float) and (f.lo, f.hi) != (-math.inf, math.inf)
    return t.__name__ + (f" in [{f.lo}, {f.hi}]" if bounded else "")


def value(v, f: Field, name: str, error=InvalidOption):
    """v read as f says, lists as tuples and objects as dicts of every key
    of theirs, a missing one taking its default. Anything else (an unknown
    or missing key too) raises error, naming name, the option or file and
    key v came from, and the key or list item at fault."""
    t = f.type
    if v is None and f.default is None:
        return None
    if isinstance(t, dict) and isinstance(v, dict):
        for key in v:
            if key not in t:
                raise error(f"{name}: unknown key {key!r}")
        out = {}
        for key, kf in t.items():
            if key not in v and kf.default is REQUIRED:
                raise error(f"{name}: missing key {key!r}")
            out[key] = (value(v[key], kf, f"{name}: {key!r}", error) if key in v
                        else kf.default)
        return out
    if isinstance(t, list) and isinstance(v, (list, tuple)) and len(t) in (1, len(v)):
        item = Field(t[0], f.lo, f.hi)
        return tuple(value(x, item, f"{name}[{i}]", error) for i, x in enumerate(v))
    if t in (int, float):  # NaN fails the range, infinities the bound on |v|
        ok = (not isinstance(v, bool)
              and isinstance(v, Integral if t is int else (Integral, float))
              and f.lo <= v <= f.hi and (t is int or abs(v) <= sys.float_info.max))
    elif isinstance(t, frozenset):
        ok = isinstance(v, str) and v in t
    else:
        ok = isinstance(t, type) and isinstance(v, t)
        if ok and t is str and "\0" in v:
            raise error(f"{name} must be str without NUL, got {reprlib.repr(v)}")
    if not ok:
        raise error(f"{name} must be {_describe(f)}, got {reprlib.repr(v)}")
    return t(v) if t in (int, float) else v


def fields(obj, spec: dict[str, Field], name: str, error=InvalidOption) -> dict:
    """spec's keys read from the JSON object obj (see value)."""
    return value(obj, Field(spec), name, error)


@contextmanager
def naming(*names):
    """A SpecdriveError from the block is raised again as its type, its
    message prefixed with names (those that are not None)."""
    try:
        yield
    except SpecdriveError as e:
        raise type(e)(f"{', '.join(str(n) for n in names if n is not None)}: {e}") from None


def construct(cls, kwargs: dict, name: str):
    """cls(**kwargs) on fields already read; a SpecdriveError from cls's
    own checks (across keys) is raised again as its type, naming name."""
    with naming(name):
        return cls(**kwargs)


def decode(text, name: str, error=InvalidOption):
    """The JSON value in text (str or UTF-8 bytes), the package's one JSON
    decoder; text that is not JSON raises error, naming name."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # UnicodeDecodeError is a ValueError
        raise error(f"{name}: not JSON ({type(e).__name__}: {e})") from None


def read_json(path, spec: dict[str, Field], error=InvalidOption) -> dict:
    """fields of the JSON object in the file at path."""
    return fields(decode(Path(path).read_bytes(), str(path), error), spec, str(path), error)
