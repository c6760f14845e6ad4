"""Exception types shared across the package, and the check that integer
options share.

The CLI maps these onto exit codes: usage problems exit 1, data/input
problems exit 2, anything unexpected exits 3.
"""

import operator


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


def int_option(name: str, value, least: int = 1) -> int:
    """value as an integer >= least; anything else raises InvalidOption."""
    try:
        n = operator.index(value)
    except TypeError:
        raise InvalidOption(f"{name} must be an integer, got {value!r}") from None
    if n < least:
        raise InvalidOption(f"{name} must be >= {least}, got {n}")
    return n
