"""The argument contracts: what a size is, what a real is, what a support
index is, and the typed error each refusal raises."""
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from rrselect.analysis import erc_constant
from rrselect.designs import SignalSpec, make_identity_hadamard, make_signal, synthesize
from rrselect.errors import DomainError, ValidationError, is_int, is_real, require_indices, require_int, require_real
from rrselect.omp import solution_path
from rrselect.selectors import minimal_superset_index

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


def test_require_indices_sorts_int_entries_below_the_size():
    assert require_indices("s", [5, np.int64(0), np.uint8(3), 3], 6) == (0, 3, 3, 5)  # repeats are the caller's
    assert all(type(i) is int for i in require_indices("s", np.array([4, 1]), 6))
    assert require_indices("s", iter([2, 1]), 3) == (1, 2)
    assert require_indices("s", set(), 0) == ()
    for bad in (*BOOLS, 0.0, 0.7, np.float64(1.0), "1", None, -1, 6, np.int64(6)):
        with pytest.raises(DomainError, match=r"^s indices must be integers in \[0, 6\), got"):
            require_indices("s", [1, bad], 6)
    with pytest.raises(ValidationError, match="^s indices"):
        require_indices("s", [0.5], 6, ValidationError)


_HADAMARD_4 = make_identity_hadamard(4)
_BETA_0_3 = make_signal(8, [0, 3], SignalSpec(k0=2), 1)
_PATH = solution_path(_HADAMARD_4, _HADAMARD_4.matrix @ _BETA_0_3, 2)


@pytest.mark.parametrize(
    "call, support, error",
    [
        (lambda s: erc_constant(_HADAMARD_4, s), [0.7, 5], DomainError),
        (lambda s: erc_constant(_HADAMARD_4, s), [True, 5], DomainError),
        (lambda s: make_signal(8, s, SignalSpec(k0=2), 1), [0.5, 3.9], ValidationError),
        (lambda s: synthesize(_HADAMARD_4, _BETA_0_3, s, 1.0, 0), [0.2, 3.1], ValidationError),
        (lambda s: minimal_superset_index(_PATH, s), [0.4, 3.3], DomainError),
    ],
    ids=["erc_constant-float", "erc_constant-bool", "make_signal", "synthesize", "minimal_superset_index"],
)
def test_a_support_entry_that_is_no_index_is_refused_and_a_numpy_array_is_not(call, support, error):
    # Each call once truncated the floats (or read True as 1) to the indices 0 and 3 or 1 and 5.
    with pytest.raises(error, match=r"^support indices|^true_support indices"):
        call(support)
    ints = [int(v) for v in support]
    expected, got = call(ints), call(np.array(ints, dtype=np.int64))
    assert np.array_equal(getattr(expected, "observation", expected), getattr(got, "observation", got))
