"""The scalar-argument contract: what a size is, what a real is, and the
typed error each refusal raises."""
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from rrselect.errors import DomainError, ValidationError, is_int, is_real, require_int, require_real

BOOLS = (True, False, np.True_, np.False_)


def test_a_size_is_a_python_int_and_not_a_bool():
    assert all(is_int(v) for v in (0, -3, 10**400))
    assert not any(is_int(v) for v in (*BOOLS, np.int64(3), 3.0, "3", None))


def test_a_real_is_a_finite_int_float_or_numpy_number_and_not_a_bool():
    big = sys.float_info.max
    reals = (0, -7, 2.5, big, -big, int(big), np.float64(0.1), np.float32(0.1), np.float16(2), np.int64(-(2**63)))
    assert all(is_real(v) for v in (*reals, np.uint64(2**64 - 1), np.longdouble(1e300)))
    not_reals = (
        *BOOLS,
        math.nan,
        math.inf,
        -math.inf,
        int(big) * 2,  # past the doubles, compared exactly
        -(10**400),
        np.float32(math.inf),
        np.float64(math.nan),
        *([np.longdouble(big) * 2] if np.finfo(np.longdouble).max > big else []),  # past the doubles where it can be
        "0.1",
        None,
        1j,
        np.complex128(1),
        Fraction(1, 10),
        Decimal("0.1"),
    )
    assert not any(is_real(v) for v in not_reals)


def test_require_real_returns_the_double_or_names_the_interval():
    assert require_real("x", np.float32(0.1)) == float(np.float32(0.1))
    assert type(require_real("x", np.int64(3), 0.0, math.inf)) is float
    for low, high, text in (
        (-math.inf, math.inf, "x must be finite, got"),
        (0.0, math.inf, "x must be finite and positive, got"),
        (1.0, math.inf, r"x must lie in \(1,inf\), got"),
        (0.0, 1.0, r"x must lie in \(0,1\), got"),
    ):
        for bad in (*BOOLS, "0.1", math.nan, low, high):
            with pytest.raises(DomainError, match=f"^{text}"):
                require_real("x", bad, low, high)


def test_require_int_raises_the_given_error():
    require_int("n", 3)
    for bad in (*BOOLS, np.int64(3), 3.0):
        with pytest.raises(DomainError, match="^n must be an integer, got"):
            require_int("n", bad)
        with pytest.raises(ValidationError):
            require_int("n", bad, ValidationError)
