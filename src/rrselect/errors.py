"""The package's one refusal family, ValidationError and its subclasses, and
the one contract by which every entry point checks its scalar arguments: a
size is an int, not a bool, within its bounds (`is_int`, `require_int`; an
array's length at most MAX_LENGTH); a real is a finite int, float or numpy
integer or floating scalar, not a bool or numpy bool (`is_real`), and enters
arithmetic as float(value); a support is an iterable of ints or numpy
integers, not bools, below the size it indexes (`require_indices`); a config
field is refused as "field: must ..., got ..." (`require_field`). Each of
these refusals is a ValidationError (DomainError is one), never a bare
TypeError."""
import math
import sys

import numpy as np


class ValidationError(ValueError):
    """An argument the package refuses: the one family every entry point
    raises, caught by one `except ValidationError`. A subclass names a
    condition a caller may want to tell apart."""


class DomainError(ValidationError):
    """Scalar argument outside its mathematical domain."""


class ParseError(ValidationError):
    """Malformed input text (JSON/CSV)."""


class RankDeficientError(ValidationError):
    """A column to be added is (numerically) in the span of the current basis."""


class TooManySubsetsError(ValidationError):
    """Exhaustive subset enumeration would exceed the configured guard."""


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


# The most doubles one numpy array holds, as its byte count is an intp: the
# ceiling of a size that is an array's length, such as a design's n.
MAX_LENGTH = sys.maxsize // 8


def shown(value) -> str:
    """repr(value), but an int past the doubles by its length: str() refuses
    an int of more than 4,300 digits."""
    return f"an integer of {value.bit_length()} bits" if is_int(value) and not is_real(value) else repr(value)


def require_int(name: str, value, low: int | None = None, high: int | None = None) -> None:
    """Raise DomainError unless is_int(value) and low <= value <= high, each where given."""
    if not is_int(value):
        raise DomainError(f"{name} must be an integer, got {shown(value)}")
    if low is not None and value < low:
        raise DomainError(f"{name} must be >= {low}, got {shown(value)}")
    if high is not None and value > high:
        raise DomainError(f"{name} must be <= {high}, got {shown(value)}")


def require_real(name: str, value, low=-math.inf, high=math.inf) -> float:
    """float(value); raise DomainError unless is_real(value) and low < value < high."""
    if not (is_real(value) and low < value < high):
        spans = {(-math.inf, math.inf): "be finite", (0.0, math.inf): "be finite and positive"}
        raise DomainError(f"{name} must {spans.get((low, high), f'lie in ({low:g},{high:g})')}, got {shown(value)}")
    return float(value)


def require_field(ok: bool, field: str, what: str, value) -> None:
    """Raise ValidationError "field: must what, got value!r" unless ok: the
    one form of every config refusal, which names the field it refuses."""
    if not ok:
        raise ValidationError(f"{field}: must {what}, got {shown(value)}")


def require_indices(name: str, indices, size: int) -> tuple[int, ...]:
    """The entries of `indices` as a sorted tuple of ints; raise DomainError
    unless `indices` is iterable and each entry is an int or numpy integer,
    not a bool, in [0, size). A float would be truncated to a wrong index.
    Repeats are kept, for the caller to judge."""
    what = f"{name} indices must be integers in [0, {size}), got"
    try:
        indices = tuple(indices)  # it may be an iterator, read twice here
    except TypeError:
        raise DomainError(f"{what} {shown(indices)}") from None
    for i in indices:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < size:
            raise DomainError(f"{what} {shown(i)}")
    return tuple(sorted(map(int, indices)))
