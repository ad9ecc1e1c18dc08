import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrselect import special
from rrselect.errors import MAX_LENGTH, DomainError
from rrselect.selectors import ResidualRatios
from rrselect.special import (
    build_threshold_table,
    half_beta_log_cdf_bounds,
    half_beta_log_terms,
    log_beta_fn,
    log_cdf_of_square,
    rrt_log_level,
    rrt_threshold,
)

# Frozen oracle values, computed by 60-digit mpmath quadrature of the beta
# density t^(a-1) (1-t)^(b-1) (bisection against that quadrature for the
# inverse). See test_oracle_recompute for a live spot check.
LN_BETA_15P5_0P5 = -0.78999194980057785506
CDF_15P5_0P5_AT_0P9 = 0.072993418122915743
CDF_2P5_0P5_AT_0P7 = 0.20311066372005490785
CDF_8_0P5_AT_0P4 = 0.00016053418045954798313
CDF_4_5_AT_0P35 = 0.29360056386718745242
INV_15P5_0P5_AT_Z = 0.60814005453089009849  # z = 9.765625e-5 = 0.1/(16*64)


def test_log_beta_trivial_values():
    assert log_beta_fn(1.0, 1.0) == 0.0
    assert log_beta_fn(0.5, 0.5) == pytest.approx(math.log(math.pi), rel=1e-15)
    assert log_beta_fn(15.5, 0.5) == pytest.approx(LN_BETA_15P5_0P5, rel=1e-12)


def test_log_beta_symmetry_and_domain():
    assert log_beta_fn(3.0, 7.0) == log_beta_fn(7.0, 3.0)
    with pytest.raises(DomainError):
        log_beta_fn(0.0, 1.0)
    with pytest.raises(DomainError):
        log_beta_fn(1.0, -2.0)


def _mp_log_beta(mp, a: float, b: float) -> float:
    """ln B(a, b) by mpmath at 60 + log10(max(a, b)) digits: ln Gamma of a
    large argument carries that many digits before the difference cancels
    (at 40 digits loggamma(1e300) cancels to nothing)."""
    with mp.workdps(60 + int(math.log10(max(a, b)))):
        a, b = mp.mpf(a), mp.mpf(b)
        return float(mp.loggamma(a) + mp.loggamma(b) - mp.loggamma(a + b))


@pytest.mark.parametrize("b", [0.5, 1.0, 2.5, 7.0, 100.0, 1000.0])
def test_log_beta_of_a_large_argument_against_mpmath(b):
    # The sum lgamma(a) + lgamma(b) - lgamma(a + b) is 2.7e-13 off at a = 1e3
    # and b = 1/2, 4% off at 1e15, and reads lgamma(1/2) = 0.57 at 1e17,
    # where the value is about -19.
    mp = pytest.importorskip("mpmath")
    for e in (2, 3, 6, 9, 15, 17, 30, 100, 300):
        a = 10.0**e
        expected = _mp_log_beta(mp, a, b)
        assert log_beta_fn(a, b) == pytest.approx(expected, rel=4e-16, abs=0), (a, b)
        assert log_beta_fn(b, a) == log_beta_fn(a, b)


def test_log_beta_on_both_sides_of_the_stirling_cutoff():
    mp = pytest.importorskip("mpmath")
    # Up to max(a, b) = 64 the value is the lgamma sum, bit for bit, so every
    # a = (n - k)/2 of an n <= 129 problem keeps its bits; the sum is good to
    # 1e-13 there. Just past 64 the series takes over, to a few units in the
    # last place, twice as many where both arguments are large and its terms
    # cancel to a third.
    for a in np.arange(0.5, 64.5, 0.5).tolist():
        for b in (0.5, 64.0):
            assert log_beta_fn(a, b) == math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    above = float(np.nextafter(64.0, 65.0))
    for b, rel_above in ((1e-3, 4e-16), (0.5, 4e-16), (1.0, 4e-16), (7.0, 4e-16), (63.5, 1e-15), (64.0, 1e-15)):
        for a, rel in ((63.0, 1e-13), (64.0, 1e-13), (above, rel_above), (65.0, rel_above), (100.0, rel_above)):
            expected = _mp_log_beta(mp, a, b)
            assert log_beta_fn(a, b) == pytest.approx(expected, rel=rel, abs=0), (a, b)
            assert log_beta_fn(b, a) == log_beta_fn(a, b)


def _cdf(a: float, b: float, x: float) -> float:
    """I_x(a, b), read from the log CDF of the square at r = sqrt(x)."""
    return math.exp(log_cdf_of_square(a, b, math.sqrt(x)))


def test_cdf_trivial_and_frozen_values():
    assert _cdf(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-14)
    assert _cdf(0.5, 0.5, 0.5) == pytest.approx(0.5, abs=1e-13)
    assert _cdf(15.5, 0.5, 0.9) == pytest.approx(CDF_15P5_0P5_AT_0P9, abs=1e-12)
    assert _cdf(2.5, 0.5, 0.7) == pytest.approx(CDF_2P5_0P5_AT_0P7, abs=1e-12)
    assert _cdf(8.0, 0.5, 0.4) == pytest.approx(CDF_8_0P5_AT_0P4, abs=1e-12)
    assert _cdf(4.0, 5.0, 0.35) == pytest.approx(CDF_4_5_AT_0P35, abs=1e-12)


def test_log_cdf_of_square_boundaries_monotone_domain():
    for a in (0.5, 8.0, 15.5):
        assert log_cdf_of_square(a, 0.5, 0.0) == -math.inf
        assert log_cdf_of_square(a, 0.5, 1.0) == 0.0
    vals = [log_cdf_of_square(2.5, 0.5, float(r)) for r in np.linspace(0.0, 1.0, 101)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        log_cdf_of_square(2.0, 0.5, -1e-200)
    with pytest.raises(DomainError):
        log_cdf_of_square(2.0, 0.5, 1.5)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.5])
def test_log_cdf_of_square_against_mpmath_where_the_square_underflows(a):
    # r^2 is subnormal or rounds to 0 for r < 1.5e-154, where ln(r * r) loses
    # digits or reads -inf; the CDF itself lies below the doubles from about
    # r = 1e-162 on. Checked down to r = 1e-300, to 1e-15 relative in ln.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for e in range(155, 301, 5):
        r = 10.0**-e
        expected = mp.log(mp.betainc(a, 0.5, 0, mp.mpf(r) ** 2, regularized=True))
        assert log_cdf_of_square(a, 0.5, r) == pytest.approx(float(expected), rel=1e-15, abs=0.0), (a, r)


@pytest.mark.parametrize(
    "a, x",
    [
        (20.375, 2.220446049250313e-16),
        (26.576118519616486, 7.240466228700206e-13),
        (1.392046909008365, 1.980240320268648e-231),
        (2.1619172167985186, 6.980967218164191e-150),
        (2.882735594636041, 2.990902435724475e-112),
    ],
)
def test_log_cdf_where_the_cdf_is_subnormal_matches_mpmath(a, x):
    # A CDF below the normal doubles at a normal square: the first factor
    # x^a (1-x)^b / B(a,b) is subnormal, and the log CDF keeps every digit
    # of it.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        r = math.sqrt(x)
        expected = mp.betainc(a, 0.5, 0, mp.mpf(r) ** 2, regularized=True)
        assert 0 < expected < sys.float_info.min
        assert log_cdf_of_square(a, 0.5, r) == pytest.approx(float(mp.log(expected)), rel=1e-15, abs=0.0)


def test_rrt_threshold_value_and_limits():
    gamma = rrt_threshold(32, 64, 16, 0.1, 1)
    assert gamma == pytest.approx(math.sqrt(INV_15P5_0P5_AT_Z), rel=1e-10)
    assert 0.0 < gamma < 1.0
    # z -> 1 limit: with k_max = 1 and p = k the inner level equals alpha
    near_one = rrt_threshold(3, 1, 1, 1.0 - 1e-9, 1)
    assert near_one > 0.999


def test_rrt_threshold_monotone_in_alpha():
    hi = rrt_threshold(32, 64, 16, 0.1, 1)
    lo = rrt_threshold(32, 64, 16, 0.01, 1)
    assert lo < hi


def test_rrt_threshold_domain_errors():
    with pytest.raises(DomainError):
        rrt_threshold(8, 16, 7, 0.1, 8)  # k >= n would make a <= 0 only at k>=n
    with pytest.raises(DomainError):
        rrt_threshold(8, 16, 9, 0.1, 9)  # k beyond n
    with pytest.raises(DomainError):
        rrt_threshold(32, 64, 16, 0.0, 1)
    with pytest.raises(DomainError):
        rrt_threshold(32, 64, 16, 1.0, 1)
    with pytest.raises(DomainError):
        rrt_threshold(32, 64, 16, 0.1, 0)
    with pytest.raises(DomainError):
        rrt_threshold(32, 2, 16, 0.1, 3)  # p < k


@pytest.mark.parametrize("p", [1e308, 2.5, True])
def test_p_must_be_an_int_not_a_bool(p):
    # A float p rounds the level's denominator k_max (p-k+1), or overflows it:
    # p = 1e308 would give the level 0 and the threshold 5e-324.
    for call in (
        lambda: rrt_log_level(4, p, 2, 0.1, 1),
        lambda: rrt_threshold(4, p, 2, 0.1, 1),
        lambda: build_threshold_table(4, p, 2, 0.1),
    ):
        with pytest.raises(DomainError, match="p must be an integer"):
            call()


@pytest.mark.parametrize(
    "args, name",
    [
        ((4, 10**308, 2.0, 0.1, 1), "k_max"),  # 2.0 * 10**308 is inf: threshold 5e-324, not 1.06e-103
        ((4.5, 64, 2, 0.1, 1), "n"),
        ((True, 64, 2, 0.1, 1), "n"),
        ((32, 64, 16, 0.1, 1.5), "k"),
        ((32, 64, 16, 0.1, True), "k"),
        ((32, 64, True, 0.1, 1), "k_max"),
    ],
)
def test_sizes_must_be_ints_not_bools(args, name):
    # A float size rounds or overflows the level's denominator, and a bool
    # passes as 0 or 1: each read as a quiet wrong level.
    for call in (rrt_log_level, rrt_threshold):
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            call(*args)


@pytest.mark.parametrize(
    "k_max, match",
    [(2.0, "k_max must be an integer"), (True, "k_max must be an integer"), (0, "k_max must be >= 1")],
)
def test_threshold_table_needs_an_int_k_max_of_at_least_1(k_max, match):
    with pytest.raises(DomainError, match=match):
        build_threshold_table(32, 64, k_max, 0.1)


def test_threshold_at_the_int_p_10_to_the_308_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    args = (4, 10**308, 2, 0.1, 1)
    a, z = 1.5, _mp_level(mp, *args)
    ln_z = rrt_log_level(*args)
    assert ln_z == pytest.approx(float(mp.log(z)), rel=4e-16, abs=0.0)
    gamma = rrt_threshold(*args)
    assert log_cdf_of_square(a, 0.5, math.nextafter(gamma, 0.0)) < ln_z <= log_cdf_of_square(a, 0.5, gamma)
    # ln z ~ -712 carries an absolute error of ~1e-13, which reaches Gamma
    # divided by 2a = 3 (2.3e-14 here).
    ln_g = mp.findroot(lambda t: mp.log(mp.betainc(a, 0.5, 0, mp.exp(2 * t), regularized=True)) - mp.log(z), -237)
    assert gamma == pytest.approx(float(mp.exp(ln_g)), rel=1e-13, abs=0.0)
    assert gamma == pytest.approx(1.06e-103, rel=0.01)


def test_rrt_threshold_tiny_alpha_stays_positive():
    gamma = rrt_threshold(32, 64, 16, 1e-300, 3)
    assert 0.0 < gamma < 1.0


def test_threshold_table_properties():
    single = build_threshold_table(8, 16, 1, 0.1)
    assert len(single) == 1

    table = build_threshold_table(32, 64, 16, 0.1)
    assert len(table) == 16
    assert np.all(table > 0.0) and np.all(table < 1.0)
    assert table[15] == rrt_threshold(32, 64, 16, 0.1, 16)
    with pytest.raises(ValueError):
        table[0] = 0.5  # read-only

    smaller = build_threshold_table(32, 64, 16, 0.01)
    assert np.all(smaller <= table)


# Gamma(k) = sqrt(F^-1(z)) from 40-digit mpmath Newton iterations on betainc,
# keyed by (n, p, k_max, alpha, k).
GAMMA_MPMATH = {
    (32, 64, 16, 0.01, 1): 0.72594558240441573,
    (32, 64, 16, 1e-12, 1): 0.34856035023075759,
    (32, 64, 16, 1e-12, 5): 0.29832707658193538,
    (32, 64, 16, 1e-12, 16): 0.12974240639103303,
    (64, 128, 32, 1e-100, 1): 0.023508334461938532,
    (100, 1000, 50, 0.05, 37): 0.82629303762207297,
}


@pytest.mark.parametrize("args", sorted(GAMMA_MPMATH))
def test_rrt_threshold_matches_mpmath(args):
    assert rrt_threshold(*args) == pytest.approx(GAMMA_MPMATH[args], rel=1e-14, abs=0.0)


def test_half_beta_log_terms_are_the_constants_of_the_floor():
    for n in (2, 3, 32):
        halves = [(n - k) / 2.0 for k in range(1, n)]
        assert half_beta_log_terms(n, n - 1) == tuple((a, math.log(a), log_beta_fn(a, 0.5)) for a in halves)


def test_half_beta_log_cdf_bounds_builds_constants_for_the_path_steps_only(monkeypatch):
    # One ln B(a, 1/2) per step, not one per k = 1..n-1: 2 calls here, not 10**4.
    calls = []
    monkeypatch.setattr(special, "log_beta_fn", lambda a, b: calls.append(a) or log_beta_fn(a, b))
    half_beta_log_terms.cache_clear()
    lows, highs = half_beta_log_cdf_bounds(10**4 + 1, [0.5, 0.4])
    assert calls == [5000.0, 4999.5]
    half_beta_log_terms.cache_clear()
    longer = half_beta_log_cdf_bounds(10**4 + 1, [0.5, 0.4, 0.3])
    assert (longer[0][:2], longer[1][:2]) == (lows, highs)
    assert half_beta_log_cdf_bounds(MAX_LENGTH, [0.5])[0][0] < 0.0  # the largest n, in one step


def test_paths_of_one_configuration_share_one_entry_of_constants(monkeypatch):
    # Paths that stop at different lengths pass the configured k_max, so the
    # constants are keyed by (n, k_max) and built once, not once per length.
    calls = []
    monkeypatch.setattr(special, "log_beta_fn", lambda a, b: calls.append(a) or log_beta_fn(a, b))
    half_beta_log_terms.cache_clear()
    bounds = [ResidualRatios(np.full(k, 0.5), n=32, p=64, k_max=16).log_cdf_bounds for k in (3, 16, 5)]
    assert len(calls) == 16 and half_beta_log_terms.cache_info().currsize == 1
    assert bounds == [half_beta_log_cdf_bounds(32, [0.5] * k) for k in (3, 16, 5)]
    with pytest.raises(DomainError, match="k_max must be <= 31, got 32"):
        half_beta_log_cdf_bounds(32, [0.5], 32)


@settings(max_examples=500, deadline=None)
@given(
    a=st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    b=st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    r=st.floats(0.0, 1.0),
)
@example(a=1.4e154, b=0.5, r=0.5)  # (a + m)(a + b + m) overflows the continued fraction's coefficients
@example(a=0.5, b=1e300, r=0.5)
@example(a=2.0, b=1.4e154, r=0.01)
@example(a=4.512402310128062e-45, b=4.72039685613429e-267, r=0.8700101551766398)  # complement rounds past 1
@example(a=1.0000000002302585, b=1e23, r=1e-10)  # 1 - r^2 rounds to 1
@example(a=1e4, b=1e-6, r=1.0 - 2.0**-26)  # the fraction at x does not converge in 500 steps
def test_log_cdf_of_square_is_never_nan(a, b, r):
    # Nor a bare error: where no form holds the digits, which takes a b past
    # 1e15 at an x whose 1 - x rounds to 1, or a b below 1e-3 so near x = 1
    # that I_x(a,b) < 1e-3, it refuses by name.
    try:
        value = log_cdf_of_square(a, b, r)
    except DomainError as refused:
        assert str(refused).startswith("I_x(a,b) is out of reach") and not 1e-3 <= b <= 1e15, (a, b, r)
        return
    assert not math.isnan(value), (a, b, r)


@pytest.mark.parametrize("a", [1.3e154, 1.4e154, 1e200, 1e300])
def test_log_cdf_of_square_past_the_square_of_a_matches_mpmath(a):
    # a (a + b) passes the doubles from a = 1.34e154 on; the coefficients are
    # then taken as products of quotients.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for r in (1e-300, 0.5, 1.0 - 2.0**-53):
            expected = float(mp.log(mp.betainc(a, 0.5, 0, mp.mpf(r) ** 2, regularized=True)))
            assert log_cdf_of_square(a, 0.5, r) == pytest.approx(expected, rel=1e-15, abs=0.0), (a, r)


def _ln_cdf_by_quadrature(mp, a, b, r):
    """ln I_{r^2}(a, b) = ln of int_{w0}^inf e^(-a w) (1 - e^-w)^(b-1) dw / B(a, b),
    w0 = -2 ln r (t = e^-w), by quadrature split at w0 + k/a: an oracle for the
    a where mpmath's hypergeometric series fails to converge."""
    a, b, w0 = mp.mpf(a), mp.mpf(b), -2 * mp.log(mp.mpf(r))
    nodes = [w0 + mp.mpf(k) / a for k in (0, 1, 4, 16, 64, 256)] + [mp.inf]
    integral = mp.quad(lambda w: mp.exp(-a * (w - w0)) * (-mp.expm1(-w)) ** (b - 1), nodes)
    return float(-a * w0 + mp.log(integral) - mp.log(mp.beta(a, b)))


_LARGE_A = "past a = 1e4 the continued fraction loses digits near the mean (a FOUND line of CHANGES.md)"


@pytest.mark.parametrize(
    "a",
    [1e3, 1e4] + [pytest.param(a, marks=pytest.mark.xfail(reason=_LARGE_A, strict=True)) for a in (1e5, 5e7, 5e9)],
)
def test_log_cdf_of_square_at_large_a_matches_the_quadrature_of_its_integral(a):
    # r = 1 - 2^-k squares exactly for k <= 26, so only the continued
    # fraction's convergence is measured, not the rounding of r^2.
    mp = pytest.importorskip("mpmath")
    steps = [k for k in range(2, 27) if 1e-3 <= a * 2.0 ** (1 - k) <= 1e4]  # a (1 - r^2), tail to mean
    assert len(steps) >= 6
    with mp.workdps(30):
        for k in steps:
            r = 1.0 - 2.0**-k
            expected = _ln_cdf_by_quadrature(mp, a, 0.5, r)
            assert log_cdf_of_square(a, 0.5, r) == pytest.approx(expected, rel=1e-13, abs=0.0), (a, k)


def test_log_cdf_of_square_where_b_is_tiny_matches_mpmath():
    # I_x(a, b) ~ 1e-222: 1 - I_x rounds to 1, so the fraction at x is read.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for a, b, r in ((4.512402310128062e-45, 4.72039685613429e-267, 0.8700101551766398), (2.0, 1e-20, 0.99)):
            expected = float(mp.log(mp.betainc(a, b, 0, mp.mpf(r) ** 2, regularized=True)))
            assert log_cdf_of_square(a, b, r) == pytest.approx(expected, rel=1e-14, abs=0.0), (a, b, r)
        # Near x = 1 the fraction at x needs more steps as a (1 - x) shrinks
        # (4,000 at a = 100, a (1 - x) = 1e-3). Where it converges, or I_x(a,b) >= 1e-3 keeps the complement's
        # digits, the value matches; else it is refused, never a value off by
        # 1e-3 as the unconverged fraction gave.
        for b, k in ((1e-3, 20), (1e-3, 26)):
            r = 1.0 - 2.0**-k
            expected = _ln_cdf_by_quadrature(mp, 1e4, b, r)
            assert log_cdf_of_square(1e4, b, r) == pytest.approx(expected, rel=1e-13, abs=0.0), (b, k)
        for a, b, k in ((1e4, 1e-6, 20), (1e4, 1e-6, 26), (1e8, 1e-6, 32), (1e8, 1e-6, 38), (1e10, 1e-5, 40)):
            with pytest.raises(DomainError, match="I_x\\(a,b\\) is out of reach"):
                log_cdf_of_square(a, b, 1.0 - 2.0**-k)


@settings(max_examples=100, deadline=None)
@given(two_a=st.integers(1, 2 * 10**4), r=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_log_cdf_of_square_lies_between_the_bounds(two_a, r):
    # Up to a = 1e4, where the continued fraction converges.
    lows, highs = half_beta_log_cdf_bounds(two_a + 1, [r])
    value = log_cdf_of_square(two_a / 2.0, 0.5, r)
    slack = 1e-12 * max(1.0, abs(value))
    assert lows[0] - slack <= value <= highs[0] + slack


@pytest.mark.xfail(reason=_LARGE_A, strict=True)
def test_log_cdf_of_square_at_a_2e16_lies_between_the_bounds():
    # The continued fraction reads -10.534 where ln U is -10.822 and the
    # quadrature of the integral gives -10.870.
    lows, highs = half_beta_log_cdf_bounds(41175768021673110, [0.9999999999999998])
    assert lows[0] <= log_cdf_of_square(41175768021673109 / 2.0, 0.5, 0.9999999999999998) <= highs[0]


def _mp_level(mp, n, p, k_max, alpha, k):
    """z(k) = alpha / (k_max (p-k+1)) in mpmath, from the exact integer
    denominator: no rounding to a double, no raise."""
    return mp.mpf(alpha) / (k_max * (p - k + 1))


def test_rrt_log_level_is_the_level_of_the_threshold():
    assert rrt_log_level(32, 64, 16, 0.1, 1) == math.log(0.1) - math.log(16 * 64)
    assert rrt_log_level(32, 64, 16, 1e-320, 3) == math.log(1e-320) - math.log(16 * 62)  # alpha as given
    for k in (1, 8, 16):
        gamma = rrt_threshold(32, 64, 16, 0.1, k)
        level = math.exp(rrt_log_level(32, 64, 16, 0.1, k))
        assert math.exp(log_cdf_of_square((32 - k) / 2.0, 0.5, gamma)) == pytest.approx(level, rel=1e-12, abs=0.0)
    with pytest.raises(DomainError):
        rrt_log_level(32, 64, 16, 0.1, 17)


# The smallest int float() cannot take: it lies halfway between the largest
# double, 2^1024 - 2^971, and 2^1024, and rounds to even, past the doubles.
FIRST_INT_PAST_DOUBLES = 2**1024 - 2**970


def test_a_level_denominator_past_the_doubles_gives_the_exact_level():
    # k_max p, the denominator of step 1, may lie past the doubles, and the
    # level z(k) far below them: ln z(k) is taken from the integer itself, to
    # the rounding of a double of its size, and every threshold is the
    # selectors' flip.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    cases = [
        (10, 10**400, 5, 0.1, 1),
        (10, 10**400, 5, 0.1, 5),
        (3, FIRST_INT_PAST_DOUBLES, 1, 0.5, 1),
        (3, FIRST_INT_PAST_DOUBLES - 1, 1, 0.5, 1),
        (32, 10**30, 16, 1e-300, 1),
        (10, 10**300, 5, 0.1, 3),
        (10**9, 10**300, 10**9 - 1, 1e-300, 1),
    ]
    for n, p, k_max, alpha, k in cases:
        ln_z = rrt_log_level(n, p, k_max, alpha, k)
        assert ln_z == pytest.approx(float(mp.log(_mp_level(mp, n, p, k_max, alpha, k))), rel=4e-16, abs=0.0)
        gamma, a = rrt_threshold(n, p, k_max, alpha, k), (n - k) / 2.0
        assert log_cdf_of_square(a, 0.5, math.nextafter(gamma, 0.0)) < ln_z <= log_cdf_of_square(a, 0.5, gamma)
    assert list(build_threshold_table(10, 10**400, 5, 0.1)) == [rrt_threshold(10, 10**400, 5, 0.1, k) for k in range(1, 6)]


def test_oracle_recompute_spot_check():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    quad_b = mp.quad(lambda t: t ** mp.mpf("14.5") * (1 - t) ** mp.mpf("-0.5"), [0, 1])
    assert float(mp.log(quad_b)) == pytest.approx(LN_BETA_15P5_0P5, rel=1e-12)
    num = mp.quad(lambda t: t ** mp.mpf("14.5") * (1 - t) ** mp.mpf("-0.5"), [0, mp.mpf("0.9")])
    assert float(num / quad_b) == pytest.approx(CDF_15P5_0P5_AT_0P9, rel=1e-11)


def _half_beta_bounds_at(two_a, k, r):
    """(ln L(k), ln U(k)) of half_beta_log_cdf_bounds at n = 2a + k, for RR(k) = r."""
    lows, highs = half_beta_log_cdf_bounds(two_a + k, [0.5] * (k - 1) + [r])
    return lows[k - 1], highs[k - 1]


@settings(max_examples=200, deadline=None)
@given(two_a=st.integers(1, 200), k=st.integers(1, 8), x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(two_a=41, k=1, x=2.220446049250313e-16)  # I ~ 1.6e-322, subnormal
@example(two_a=53, k=1, x=7.240466228700206e-13)  # I ~ 2.1e-323, 4 subnormal steps
def test_cdf_floor_is_a_lower_bound_of_the_cdf(two_a, k, x):
    # ln L(k) <= ln I_x(a, 1/2) at a = (n-k)/2 and x = RR(k)^2, against
    # 40-digit mpmath; the slack covers double rounding where L and I agree
    # (x -> 0).
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    r = math.sqrt(x)
    if not 0.0 < r < 1.0:
        return
    a = two_a / 2.0
    exact = mp.betainc(a, 0.5, 0, mp.mpf(r) ** 2, regularized=True)
    floor, _ = _half_beta_bounds_at(two_a, k, r)
    slack = 1e-12 * max(1.0, abs(floor))
    assert floor <= float(mp.log(exact)) + slack
    # And so for the double log CDF, to its rounding.
    assert log_cdf_of_square(a, 0.5, r) >= floor - slack


@settings(max_examples=200, deadline=None)
@given(two_a=st.integers(1, 200), k=st.integers(1, 8), x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(two_a=41, k=1, x=2.220446049250313e-16)  # I ~ 1.6e-322, subnormal
@example(two_a=1, k=1, x=0.999999)
def test_cdf_ceiling_is_an_upper_bound_of_the_cdf(two_a, k, x):
    # ln I_x(a, 1/2) <= ln U(k) at a = (n-k)/2 and x = RR(k)^2, against
    # 40-digit mpmath; the slack covers double rounding where U and I agree
    # (x -> 0).
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    r = math.sqrt(x)
    if not 0.0 < r < 1.0:
        return
    a = two_a / 2.0
    exact = mp.betainc(a, 0.5, 0, mp.mpf(r) ** 2, regularized=True)
    floor, ceiling = _half_beta_bounds_at(two_a, k, r)
    slack = 1e-12 * max(1.0, abs(ceiling))
    assert floor <= ceiling
    assert ceiling >= float(mp.log(exact)) - slack
    # And so for the double log CDF, to its rounding, as for the floor.
    assert log_cdf_of_square(a, 0.5, r) <= ceiling + slack


# (n, p, k_max, alpha, k) whose Gamma(k)^2 lies below the normal doubles or
# below every double; Gamma(k) is checked against mpmath below.
UNDERFLOW_CASES = [
    (2, 1, 1, 1e-300, 1),  # a = 1/2: Gamma = sin(pi z / 2) ~ 1.57e-300
    (32, 64, 31, 1e-152, 31),  # Gamma^2 ~ 2e-310, subnormal
    (32, 64, 31, 1e-200, 31),  # Gamma^2 below every double
    (3, 10**9, 1, 1e-300, 1),  # a = 1: Gamma^2 = 2 z ~ 2e-309
    (4, 10**20, 2, 1e-300, 2),  # the level 5e-321 is subnormal
    (4, 10**30, 2, 1e-300, 2),  # the level 5e-331 lies below the doubles
]


@pytest.mark.parametrize("args", UNDERFLOW_CASES)
def test_rrt_threshold_where_its_square_underflows_matches_mpmath(args):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    n, p, k_max, alpha, k = args
    a, z = mp.mpf(n - k) / 2, _mp_level(mp, *args)
    # Solve I_{g^2}(a, 1/2) = z for ln g.
    ln_g = mp.findroot(lambda t: mp.log(mp.betainc(a, 0.5, 0, mp.exp(2 * t), regularized=True)) - mp.log(z), -300)
    gamma = rrt_threshold(*args)
    assert gamma * gamma < sys.float_info.min
    assert gamma == pytest.approx(float(mp.exp(ln_g)), rel=1e-13, abs=0.0)
    assert build_threshold_table(n, p, k_max, alpha)[k - 1] == gamma


def test_rrt_threshold_is_exact_on_both_sides_of_the_underflow_switch():
    # At n = 32, k = 31 (a = 1/2), I_q(1/2, 1/2) = (2/pi) asin(sqrt q), so
    # Gamma = sin(pi z / 2); Gamma^2 leaves the normal doubles near alpha =
    # 1e-151, and one log CDF serves both sides.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for e in range(148, 158):
        alpha = 10.0**-e
        z = _mp_level(mp, 32, 64, 31, alpha, 31)
        gamma = rrt_threshold(32, 64, 31, alpha, 31)
        assert gamma == pytest.approx(float(mp.sin(mp.pi * z / 2)), rel=1e-13, abs=0.0), e


def _threshold_output(capsys, n, p, k_max, alpha):
    from rrselect.cli import main

    assert main(["threshold", "--n", str(n), "--p", str(p), "--k-max", str(k_max), "--alpha", repr(alpha)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,gamma"
    return [float(line.split(",")[1]) for line in lines[1:]]


@pytest.mark.parametrize(
    "n, p, k_max, alpha", [(4000, 8000, 16, 0.1), (3000, 3000, 8, 0.5), (10**6, 2 * 10**6, 4, 0.1)]
)
def test_threshold_output_at_large_n_matches_mpmath(capsys, n, p, k_max, alpha):
    # At a = (n-k)/2 from the thousands to 5e5 log_beta_fn takes Stirling's
    # series and the Beta(a, 1/2) density at x = 1/2 underflows. The output
    # must still be Gamma(k) to the 1e-14 of the other 40-digit mpmath checks.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    gammas = _threshold_output(capsys, n, p, k_max, alpha)
    assert len(gammas) == k_max
    for k, gamma in enumerate(gammas, start=1):
        a, z = mp.mpf(n - k) / 2, _mp_level(mp, n, p, k_max, alpha, k)
        # Solve ln I_{g^2}(a, 1/2) = ln z for g in a bracket around the output.
        root = mp.findroot(
            lambda g: mp.log(mp.betainc(a, 0.5, 0, g * g, regularized=True)) - mp.log(z),
            (mp.mpf(gamma) * (1 - mp.mpf("1e-6")), mp.mpf(gamma) * (1 + mp.mpf("1e-6"))),
            solver="anderson",
        )
        assert gamma == pytest.approx(float(root), rel=1e-14, abs=0.0), k


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 200),
    data=st.data(),
    log_alpha=st.floats(math.log(1e-300), math.log(0.5)),
    log_p=st.floats(0.0, math.log(1e30)),
)
def test_threshold_is_where_the_selectors_test_flips(n, data, log_alpha, log_p):
    # ln c(r) = ln I_{r^2}((n-k)/2, 1/2) reads below ln z(k) at the double
    # before Gamma(k) and not at Gamma(k): the table's Gamma(k) is where the
    # selectors' test ln c(k) < ln z(k) flips, with no margin, wherever
    # Gamma(k)^2 and z(k) lie.
    k_max = data.draw(st.integers(1, n - 1), label="k_max")
    k = data.draw(st.integers(1, k_max), label="k")
    p = max(k_max, int(math.exp(log_p)))
    alpha = math.exp(log_alpha)
    gamma = rrt_threshold(n, p, k_max, alpha, k)
    a, ln_z = (n - k) / 2.0, rrt_log_level(n, p, k_max, alpha, k)
    assert log_cdf_of_square(a, 0.5, math.nextafter(gamma, 0.0)) < ln_z <= log_cdf_of_square(a, 0.5, gamma)


def test_threshold_at_a_level_below_the_doubles_matches_mpmath():
    # At n = 68, k = 1 (a = 33.5) the level 1e-300 / 1e30 lies below the
    # doubles, while Gamma(1)^2 ~ 1e-10 is normal. Gamma(1) is the quantile
    # of that level itself, where the selectors' test flips; a level rounded
    # or raised to 5e-324 would move it by up to 1%. So too for a subnormal
    # alpha, taken as given and not raised to 1e-300: at alpha = 1e-310,
    # Gamma(1) ~ 9.1066e-11, not the 1.914e-10 of alpha = 1e-300.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    cases = [(68, 10**30, 1, 1e-300, 1)]
    cases += [(32, 64, 2, alpha, k) for alpha in (1e-310, 1e-320, 5e-324) for k in (1, 2)]
    for args in cases:
        a, z = (args[0] - args[4]) / 2.0, _mp_level(mp, *args)
        ln_z = rrt_log_level(*args)
        assert ln_z == pytest.approx(float(mp.log(z)), rel=4e-16, abs=0.0), args
        gamma = rrt_threshold(*args)
        assert gamma * gamma >= sys.float_info.min
        assert log_cdf_of_square(a, 0.5, math.nextafter(gamma, 0.0)) < ln_z <= log_cdf_of_square(a, 0.5, gamma)
        ln_g = mp.findroot(
            lambda t: mp.log(mp.betainc(a, 0.5, 0, mp.exp(2 * t), regularized=True)) - mp.log(z), math.log(gamma)
        )
        assert gamma == pytest.approx(float(mp.exp(ln_g)), rel=1e-14, abs=0.0), args
    assert rrt_threshold(32, 64, 2, 1e-310, 1) == pytest.approx(9.106592217312887e-11, rel=1e-14, abs=0.0)
    assert rrt_threshold(32, 64, 2, 1e-310, 2) == pytest.approx(4.21368709783359e-11, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_beta_parameters_must_be_finite(bad):
    for a, b in ((bad, 0.5), (0.5, bad)):
        for call in (
            lambda: log_beta_fn(a, b),
            lambda: log_cdf_of_square(a, b, 0.5),
            lambda: log_cdf_of_square(a, b, 1e-160),
        ):
            with pytest.raises(DomainError, match="finite and positive"):
                call()
