"""Exception types shared across the package, and the one contract by which
every entry point checks its scalar arguments: a size is an int and not a
bool (`is_int`); a real is a finite int, float or numpy integer or floating
scalar, not a bool or numpy bool (`is_real`), and enters arithmetic as
float(value); a support index is an int or numpy integer, not a bool, below
the size it indexes (`require_indices`); a config field is refused as
"field: must ..., got ..." (`require_field`). A refusal is a typed error
from here, never a bare TypeError."""
import math
import sys

import numpy as np


class RankDeficientError(ValueError):
    """A column to be added is (numerically) in the span of the current basis."""


class DimensionMismatchError(ValueError):
    """Vector/matrix dimensions are incompatible."""


class EmptyBasisError(ValueError):
    """Operation requires at least one selected column."""


class DomainError(ValueError):
    """Scalar argument outside its mathematical domain."""


class EmptyPathError(ValueError):
    """Operation requires a solution path with at least one step."""


class TooManySubsetsError(ValueError):
    """Exhaustive subset enumeration would exceed the configured guard."""


class ParseError(ValueError):
    """Malformed input text (JSON/CSV)."""


class ValidationError(ValueError):
    """Structurally valid input with inadmissible field values."""


def is_int(value) -> bool:
    """A Python int, not a bool: a numpy int wraps the exact products a size
    enters (k_max * (p - k + 1) at 2**63), a float rounds or overflows them,
    and True would pass as 1."""
    return isinstance(value, int) and not isinstance(value, bool)


_MAX = sys.float_info.max
_NUMPY_MAX = np.float64(_MAX)  # a float32 compared with _MAX would cast it to float32: inf, and a warning


def is_real(value) -> bool:
    """A real of finite value: within the doubles, compared exactly for an int
    of any size, which nan and both infinities fail. np.bool_ is no np.integer."""
    if isinstance(value, (int, float)):  # np.float64 is a float
        return not isinstance(value, bool) and -_MAX <= value <= _MAX
    return isinstance(value, (np.integer, np.floating)) and bool(-_NUMPY_MAX <= value <= _NUMPY_MAX)


def require_int(name: str, value, error: type[ValueError] = DomainError) -> None:
    """Raise `error` unless is_int(value)."""
    if not is_int(value):
        raise error(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value, low=-math.inf, high=math.inf) -> float:
    """float(value); raise DomainError unless is_real(value) and low < value < high."""
    if not (is_real(value) and low < value < high):
        spans = {(-math.inf, math.inf): "be finite", (0.0, math.inf): "be finite and positive"}
        raise DomainError(f"{name} must {spans.get((low, high), f'lie in ({low:g},{high:g})')}, got {value!r}")
    return float(value)


def require_field(ok: bool, field: str, what: str, value) -> None:
    """Raise ValidationError "field: must what, got value!r" unless ok: the
    one form of every config refusal, which names the field it refuses."""
    if not ok:
        raise ValidationError(f"{field}: must {what}, got {value!r}")


def require_indices(name: str, indices, size: int, error: type[ValueError] = DomainError) -> tuple[int, ...]:
    """The entries of `indices` as a sorted tuple of ints; raise `error` unless
    each is an int or numpy integer, not a bool, in [0, size). A float would
    be truncated to a wrong index. Repeats are kept, for the caller to judge."""
    indices = tuple(indices)  # it may be an iterator, read twice here
    for i in indices:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < size:
            raise error(f"{name} indices must be integers in [0, {size}), got {i!r}")
    return tuple(sorted(map(int, indices)))
