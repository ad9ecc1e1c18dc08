"""The argument contracts: what a size is, what a real is, what a support
index is, and the typed error each refusal raises."""
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from rrselect import errors
from rrselect.analysis import epsilon_bounds, erc_constant, ric_bruteforce, rrt_error_lower_bound
from rrselect.designs import (
    SignalSpec,
    load_design_csv,
    make_gaussian,
    make_identity_hadamard,
    make_signal,
    sample_support,
    sylvester_hadamard,
)
from rrselect.errors import (
    MAX_LENGTH,
    DomainError,
    ParseError,
    RankDeficientError,
    TooManySubsetsError,
    ValidationError,
    is_int,
    is_real,
    require_indices,
    require_int,
    require_real,
)
from rrselect.linalg import OrthoBasisState
from rrselect.omp import default_kmax, rcsc_threshold, rpsc_threshold, solution_path
from rrselect.selectors import ResidualRatios, minimal_superset_index
from rrselect.simulate import parse_config
from rrselect.special import build_threshold_table, half_beta_log_cdf_bounds, log_cdf_of_square, rrt_threshold

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


def test_require_int_checks_the_type_then_the_floor():
    require_int("n", 3)
    require_int("n", -3)
    require_int("n", 2, 2)
    for bad in (*BOOLS, np.int64(3), 3.0):
        with pytest.raises(DomainError, match="^n must be an integer, got"):
            require_int("n", bad, 2)
    with pytest.raises(DomainError, match="^n must be >= 2, got 1$"):
        require_int("n", 1, 2)


def test_require_int_checks_a_ceiling_and_names_an_int_past_the_doubles_by_its_length():
    require_int("n", 3, 1, 3)
    with pytest.raises(DomainError, match="^n must be <= 3, got 4$"):
        require_int("n", 4, 1, 3)
    # str() of an int past 4,300 digits raises ValueError: no message prints one.
    with pytest.raises(DomainError, match="^n must be <= 3, got an integer of 16610 bits$"):
        require_int("n", 10**5000, high=3)
    with pytest.raises(DomainError, match="^x must be finite, got an integer of 16610 bits$"):
        require_real("x", -(10**5000))


def test_require_indices_sorts_int_entries_below_the_size():
    assert require_indices("s", [5, np.int64(0), np.uint8(3), 3], 6) == (0, 3, 3, 5)  # repeats are the caller's
    assert all(type(i) is int for i in require_indices("s", np.array([4, 1]), 6))
    assert require_indices("s", iter([2, 1]), 3) == (1, 2)
    assert require_indices("s", set(), 0) == ()
    for bad in (*BOOLS, 0.0, 0.7, np.float64(1.0), "1", None, -1, 6, np.int64(6)):
        with pytest.raises(DomainError, match=r"^s indices must be integers in \[0, 6\), got"):
            require_indices("s", [1, bad], 6)


_HADAMARD_4 = make_identity_hadamard(4)
_BETA_0_3 = make_signal(8, [0, 3], SignalSpec(k0=2), 1)
_PATH = solution_path(_HADAMARD_4, _HADAMARD_4.matrix @ _BETA_0_3, 2)


@pytest.mark.parametrize(
    "call, support, error",
    [
        (lambda s: erc_constant(_HADAMARD_4, s), [0.7, 5], DomainError),
        (lambda s: erc_constant(_HADAMARD_4, s), [True, 5], DomainError),
        (lambda s: make_signal(8, s, SignalSpec(k0=2), 1), [0.5, 3.9], DomainError),
        (lambda s: minimal_superset_index(_PATH, s), [0.4, 3.3], DomainError),
    ],
    ids=["erc_constant-float", "erc_constant-bool", "make_signal", "minimal_superset_index"],
)
def test_a_support_entry_that_is_no_index_is_refused_and_a_numpy_array_is_not(call, support, error):
    # Each call once truncated the floats (or read True as 1) to the indices 0 and 3 or 1 and 5.
    with pytest.raises(error, match=r"^support indices|^true_support indices"):
        call(support)
    ints = [int(v) for v in support]
    expected, got = call(ints), call(np.array(ints, dtype=np.int64))
    assert np.array_equal(getattr(expected, "observation", expected), getattr(got, "observation", got))


def test_a_domain_error_is_a_validation_error():
    assert issubclass(DomainError, ValidationError)


def _refusals(name, call, *bad_values):
    return [pytest.param(call, bad, id=f"{name}-{bad!r}") for bad in bad_values]


_NOT_SIZES = (True, np.True_, 2.5, np.float64(2.0), math.nan, math.inf)
_NOT_N = (2.5, None, "3", math.nan, math.inf, 1j)


@pytest.mark.parametrize(
    "call, bad",
    [
        *_refusals("sylvester_hadamard", sylvester_hadamard, 2.5, True, 0),
        *_refusals("make_gaussian-n", lambda v: make_gaussian(v, 4, 0), 2.5, True, 0),
        *_refusals("make_gaussian-p", lambda v: make_gaussian(4, v, 0), 4.0, 0),
        *_refusals("sample_support-p", lambda v: sample_support(v, 2, 0), 8.0),
        *_refusals("sample_support-k0", lambda v: sample_support(8, v, 0), True),
        *_refusals("make_signal-p", lambda v: make_signal(v, [0, 3], SignalSpec(k0=2), 1), 8.0),
        *_refusals("make_signal-support", lambda v: make_signal(8, v, SignalSpec(k0=2), 1), None, 3),
        *_refusals("solution_path-k_max", lambda v: solution_path(_HADAMARD_4, np.ones(4), v), 2.0, True),
        *_refusals("default_kmax", default_kmax, 1, 2.0),
        *_refusals("rpsc_threshold-n", lambda v: rpsc_threshold(1.0, v), 0, 1.5),
        *_refusals("rcsc_threshold-p", lambda v: rcsc_threshold(1.0, v), 0, True),
        *_refusals("build_threshold_table-k_max", lambda v: build_threshold_table(8, 16, v, 0.1), 0, 2.0),
        *_refusals("rrt_error_lower_bound-k_max", lambda v: rrt_error_lower_bound(0.1, v, 16, 2), 0, 2.0),
        *_refusals("erc_constant-support", lambda v: erc_constant(_HADAMARD_4, v), 2, None),
        *_refusals("minimal_superset_index-support", lambda v: minimal_superset_index(_PATH, v), 2.5, None),
        *_refusals("half_beta_log_cdf_bounds-n", lambda v: half_beta_log_cdf_bounds(v, [0.5]), *_NOT_N),
        *_refusals("OrthoBasisState-ambient_dim", OrthoBasisState, *_NOT_SIZES, 0),
        *_refusals("append-column", lambda v: OrthoBasisState(2).append(np.eye(2), v), True, 2.5, 2, -1),
        # Sizes past the doubles or past the length of an array, and a real past the doubles.
        pytest.param(lambda v: make_gaussian(v, 4, 0), 10**400, id="make_gaussian-n-10**400"),
        pytest.param(lambda v: make_gaussian(4, v, 0), 2**70, id="make_gaussian-p-2**70"),
        pytest.param(lambda v: make_gaussian(v, v, 0), 2**40, id="make_gaussian-n-and-p-2**40"),
        pytest.param(lambda v: sample_support(v, 2, 0), 10**400, id="sample_support-p-10**400"),
        pytest.param(lambda v: sample_support(v, v // 2, 0), 2**70, id="sample_support-p-2**70-k0-2**69"),
        pytest.param(lambda v: make_signal(v, [0, 1], SignalSpec(k0=2), 0), 10**400, id="make_signal-p-10**400"),
        pytest.param(lambda v: rrt_threshold(v, 8, 2, 0.1, 1), 10**400, id="rrt_threshold-n-10**400"),
        pytest.param(lambda v: half_beta_log_cdf_bounds(v, [0.5]), 10**400, id="half_beta_log_cdf_bounds-n-10**400"),
        pytest.param(lambda v: rpsc_threshold(1.0, v), 10**400, id="rpsc_threshold-n-10**400"),
        pytest.param(
            lambda v: epsilon_bounds(0.1, 0.1, 1.0, 1.0, v, 8, 2, 0.1, 1.0, 1), 10**400, id="epsilon_bounds-n-10**400"
        ),
        pytest.param(OrthoBasisState, 2**70, id="OrthoBasisState-ambient_dim-2**70"),
        pytest.param(lambda v: log_cdf_of_square(v, 0.5, 0.5), 10**5000, id="log_cdf_of_square-a-10**5000"),
    ],
)
def test_every_refused_argument_is_a_validation_error_from_errors(call, bad):
    # Never a bare TypeError, IndexError, OverflowError or numpy ValueError.
    with pytest.raises(ValidationError) as refused:
        call(bad)
    assert type(refused.value).__module__ == "rrselect.errors"


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda v: make_gaussian(v, 4, 0), 10**400),
        (lambda v: sample_support(v, 2, 0), 10**400),
        (lambda v: make_signal(v, [0, 1], SignalSpec(k0=2), 0), 10**400),
        (lambda v: rrt_threshold(v, 8, 2, 0.1, 1), 10**400),
        (lambda v: rpsc_threshold(1.0, v), MAX_LENGTH + 1),
    ],
    ids=["make_gaussian", "sample_support", "make_signal", "rrt_threshold", "rpsc_threshold"],
)
def test_a_size_past_an_array_names_itself_and_the_ceiling(call, bad):
    with pytest.raises(ValidationError, match=rf"^(n|p)\b.* {MAX_LENGTH}\b"):
        call(bad)


def test_the_largest_sizes_are_accepted_where_no_array_is_made():
    # A p of any size stays exact where it enters only a log or a compare.
    assert len(sample_support(MAX_LENGTH, 2, 0)) == 2
    assert rpsc_threshold(1.0, MAX_LENGTH) > 0.0
    assert rcsc_threshold(1.0, 10**400) > 0.0
    assert build_threshold_table(8, 10**400, 2, 0.1).shape == (2,)


def test_errors_defines_one_refusal_family():
    classes = {v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, BaseException)}
    assert classes == {ValidationError, DomainError, ParseError, RankDeficientError, TooManySubsetsError}
    assert all(issubclass(c, ValidationError) for c in classes)


def _malformed_csv(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1,x\n")
    return load_design_csv(path)


@pytest.mark.parametrize(
    "refuse, error",
    [
        pytest.param(lambda _: solution_path(_HADAMARD_4, np.ones(3), 2), ValidationError, id="shape"),
        pytest.param(lambda _: ResidualRatios(np.array([]), 32, 64, 3), DomainError, id="empty-ratios"),
        pytest.param(lambda _: OrthoBasisState(2).least_squares_coeffs(np.zeros(2)), ValidationError, id="empty-basis"),
        pytest.param(lambda _: erc_constant(_HADAMARD_4, (0, 1, 2, 3, 4)), RankDeficientError, id="dependent-support"),
        pytest.param(lambda _: ric_bruteforce(make_gaussian(8, 64, 0), 6), TooManySubsetsError, id="subset-guard"),
        pytest.param(lambda _: parse_config("{not json"), ParseError, id="malformed-json"),
        pytest.param(_malformed_csv, ParseError, id="malformed-csv"),
    ],
)
def test_one_except_validation_error_catches_every_kind_of_refusal(tmp_path, refuse, error):
    try:
        refuse(tmp_path)
    except ValidationError as exc:
        assert type(exc) is error
    else:
        pytest.fail("nothing was refused")
