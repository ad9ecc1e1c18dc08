import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrselect.errors import DomainError
from rrselect.special import (
    ALPHA_FLOOR,
    beta_cdf,
    beta_cdf_inv,
    beta_cdf_of_square,
    build_threshold_table,
    half_beta_log_terms,
    log_beta_fn,
    log_cdf_of_square_ceiling,
    log_cdf_of_square_floor,
    rrt_level,
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


def test_beta_cdf_trivial_and_frozen_values():
    assert beta_cdf(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-14)
    assert beta_cdf(0.5, 0.5, 0.5) == pytest.approx(0.5, abs=1e-13)
    assert beta_cdf(15.5, 0.5, 0.9) == pytest.approx(CDF_15P5_0P5_AT_0P9, abs=1e-12)
    assert beta_cdf(2.5, 0.5, 0.7) == pytest.approx(CDF_2P5_0P5_AT_0P7, abs=1e-12)
    assert beta_cdf(8.0, 0.5, 0.4) == pytest.approx(CDF_8_0P5_AT_0P4, abs=1e-12)
    assert beta_cdf(4.0, 5.0, 0.35) == pytest.approx(CDF_4_5_AT_0P35, abs=1e-12)


def test_beta_cdf_boundaries_monotone_domain():
    assert beta_cdf(2.0, 3.0, 0.0) == 0.0
    assert beta_cdf(2.0, 3.0, 1.0) == 1.0
    xs = np.linspace(0.0, 1.0, 101)
    vals = [beta_cdf(2.5, 0.5, float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        beta_cdf(1.0, 1.0, -0.1)
    with pytest.raises(DomainError):
        beta_cdf(1.0, 1.0, 1.1)


def test_beta_cdf_of_square_matches_beta_cdf_where_the_square_is_normal():
    for a in (0.5, 8.0, 15.5):
        for r in (0.0, 1.5e-154, 1e-100, 0.3, 0.9, 1.0):
            assert beta_cdf_of_square(a, 0.5, r) == beta_cdf(a, 0.5, r * r)
    with pytest.raises(DomainError):
        beta_cdf_of_square(2.0, 0.5, -1e-200)
    with pytest.raises(DomainError):
        beta_cdf_of_square(2.0, 0.5, 1.5)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.5])
def test_beta_cdf_of_square_against_mpmath_where_the_square_underflows(a):
    # r^2 is subnormal or rounds to 0 for r < 1.5e-154, where beta_cdf(a, b,
    # r * r) loses digits or reads 0. Checked wherever the CDF is at least
    # 1e-300, to 1e-12 relative: exp() of a log near -700 carries ~1e-13.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for e in range(155, 301, 5):
        r = 10.0**-e
        expected = mp.betainc(a, 0.5, 0, mp.mpf(r) ** 2, regularized=True)
        if expected < 1e-300:
            continue
        assert beta_cdf_of_square(a, 0.5, r) == pytest.approx(float(expected), rel=1e-12, abs=0.0), (a, r)


def _nearest_double(mp, v) -> float:
    """v rounded once to the nearest double. float() of an mpf below the
    normal doubles rounds twice (to 53 bits, then to the subnormal grid), so
    there it is rounded on the grid of multiples of 2^-1074 directly."""
    if v >= sys.float_info.min:
        return float(v)
    return float(mp.nint(v * mp.mpf(2) ** 1074)) * 5e-324


def test_cdf_below_exp_minus_745_rounds_to_the_nearest_subnormal():
    # Where the CDF's first factor falls below exp(-745), math.exp returns
    # the nearest subnormal (or 0), not a cut-off 0. 400 digits resolve the
    # second case: I_x(1, 1/2) = 1 - sqrt(1 - x) at x = 2^-1074 exceeds
    # 2^-1075, half the smallest double, by a relative x/4.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(400):
        r = 2.317197903108824e-162
        expected = mp.betainc(1, 0.5, 0, mp.mpf(r) ** 2, regularized=True)
        assert beta_cdf_of_square(1.0, 0.5, r) == _nearest_double(mp, expected) == 5e-324
        x = 5e-324
        expected = mp.betainc(1, 0.5, 0, mp.mpf(x), regularized=True)
        assert beta_cdf(1.0, 0.5, x) == _nearest_double(mp, expected) == 5e-324


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
def test_subnormal_cdf_is_the_nearest_double(a, x):
    # A CDF below the normal doubles whose square r^2 is normal: the first
    # factor is subnormal, and rounding it before the continued fraction and
    # the division by a would round twice.
    mp = pytest.importorskip("mpmath")
    r = math.sqrt(x)
    with mp.workdps(60):
        expected = mp.betainc(a, 0.5, 0, mp.mpf(r) ** 2, regularized=True)
        assert 0 < expected < sys.float_info.min
        assert beta_cdf_of_square(a, 0.5, r) == _nearest_double(mp, expected)


def test_beta_cdf_inv_trivial_and_frozen_values():
    assert beta_cdf_inv(1.0, 1.0, 0.42) == pytest.approx(0.42, abs=1e-12)
    assert beta_cdf_inv(3.0, 2.0, 0.0) == 0.0
    assert beta_cdf_inv(3.0, 2.0, 1.0) == 1.0
    assert beta_cdf_inv(15.5, 0.5, 9.765625e-5) == pytest.approx(
        INV_15P5_0P5_AT_Z, rel=1e-10
    )
    with pytest.raises(DomainError):
        beta_cdf_inv(1.0, 1.0, -0.2)
    with pytest.raises(DomainError):
        beta_cdf_inv(1.0, 1.0, 2.0)


def test_round_trip_200_random_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(200):
        a = float(rng.uniform(0.5, 50.0))
        b = float(rng.choice([0.5, 1.0, 5.0]))
        z = float(10.0 ** rng.uniform(-290.0, math.log10(0.999)))
        cases.append((a, b, z))
    cases.append((15.5, 0.5, 1e-290))
    worst = 0.0
    for a, b, z in cases:
        x = beta_cdf_inv(a, b, z)
        worst = max(worst, abs(beta_cdf(a, b, x) - z))
    assert worst <= 1e-9


def test_leading_order_branch_small_z():
    # For z -> 0 the quantile approaches (a z B(a,b))^(1/a); with b in
    # {1/2, 1} the first correction term is small enough for 1% agreement at
    # z <= 1e-12 across a in [0.5, 50].
    for b in (0.5, 1.0):
        for a in (0.5, 2.0, 8.0, 15.5, 50.0):
            for z in (1e-12, 1e-20, 1e-30):
                lead = math.exp((math.log(a) + math.log(z) + log_beta_fn(a, b)) / a)
                x = beta_cdf_inv(a, b, z)
                assert x == pytest.approx(lead, rel=0.01)


def test_inverse_handles_extreme_small_z():
    x = beta_cdf_inv(8.0, 0.5, 1e-300)
    assert x > 0.0
    assert abs(beta_cdf(8.0, 0.5, x) - 1e-300) <= 1e-9


def test_rrt_threshold_value_and_limits():
    gamma = rrt_threshold(32, 64, 16, 0.1, 1)
    assert gamma == pytest.approx(math.sqrt(INV_15P5_0P5_AT_Z), rel=1e-10)
    assert 0.0 < gamma < 1.0
    # z -> 1 limit: with k_max = 1 and p = k the inner level equals alpha
    near_one = rrt_threshold(3, 1, 1, 1.0 - 1e-9, 1)
    assert near_one > 0.999
    assert beta_cdf_inv(1.0, 0.5, 1.0) == 1.0


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


def test_rrt_threshold_tiny_alpha_stays_positive():
    gamma = rrt_threshold(32, 64, 16, ALPHA_FLOOR, 3)
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
        assert half_beta_log_terms(n) == tuple((a, math.log(a), log_beta_fn(a, 0.5)) for a in halves)


def test_rrt_level_is_the_level_of_the_threshold():
    assert rrt_level(32, 64, 16, 0.1, 1) == 0.1 / (16 * 64)
    assert rrt_level(32, 64, 16, 1e-320, 3) == ALPHA_FLOOR / (16 * 62)  # alpha floored
    assert rrt_level(32, 10**30, 16, ALPHA_FLOOR, 1) == 5e-324  # underflow raised
    for k in (1, 8, 16):
        gamma = rrt_threshold(32, 64, 16, 0.1, k)
        level = rrt_level(32, 64, 16, 0.1, k)
        assert beta_cdf((32 - k) / 2.0, 0.5, gamma**2) == pytest.approx(level, rel=1e-12, abs=0.0)
    with pytest.raises(DomainError):
        rrt_level(32, 64, 16, 0.1, 17)


@pytest.mark.parametrize("a", [0.5, 8.0, 15.5])
def test_inverse_level_relative_error_against_mpmath(a):
    # The level reached by the returned quantile, I_x(a, 1/2) evaluated in
    # 50-digit arithmetic, must match z to 1e-12 relative for every z from
    # 1e-8 down to 1e-300. Where the quantile lies among the subnormal
    # doubles, or below them (a = 0.5, z < 1e-161), their spacing puts that
    # out of reach; there x must be within one double of the true quantile.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50

    def level(x):
        return mp.betainc(a, 0.5, 0, x, regularized=True)

    for e in range(8, 301):
        z = 10.0**-e
        x = beta_cdf_inv(a, 0.5, z)
        rel = float(abs(level(x) - z) / z)
        if x < sys.float_info.min and rel > 1e-12:
            assert level(math.nextafter(x, 0.0)) <= z <= level(math.nextafter(x, 1.0)), (z, x)
        else:
            assert rel <= 1e-12, (z, x, rel)


def test_oracle_recompute_spot_check():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    quad_b = mp.quad(lambda t: t ** mp.mpf("14.5") * (1 - t) ** mp.mpf("-0.5"), [0, 1])
    assert float(mp.log(quad_b)) == pytest.approx(LN_BETA_15P5_0P5, rel=1e-12)
    num = mp.quad(lambda t: t ** mp.mpf("14.5") * (1 - t) ** mp.mpf("-0.5"), [0, mp.mpf("0.9")])
    assert float(num / quad_b) == pytest.approx(CDF_15P5_0P5_AT_0P9, rel=1e-11)


@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.5, 100.0), x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(a=20.375, x=2.220446049250313e-16)  # I ~ 2878.37 subnormal steps
@example(a=26.576118519616486, x=7.240466228700206e-13)  # I ~ 0.7 of 5e-324
def test_cdf_floor_is_a_lower_bound_of_the_cdf(a, x):
    # ln L <= ln I_x(a, 1/2) for x = r^2, against 40-digit mpmath; the slack
    # covers double rounding where L and I agree (x -> 0).
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    r = math.sqrt(x)
    if not 0.0 < r < 1.0:
        return
    exact = mp.betainc(a, 0.5, 0, mp.mpf(r) ** 2, regularized=True)
    floor = log_cdf_of_square_floor(a, 0.5, r)
    slack = 1e-12 * max(1.0, abs(floor))
    assert floor <= float(mp.log(exact)) + slack
    # Rounding to doubles is monotone, so L <= I carries over to the double
    # CDF. It is taken on the double grid, not in ln: below the normal
    # doubles a value keeps few digits, and the nearest double to I can lie
    # under L by up to half a step of 5e-324.
    c = beta_cdf_of_square(a, 0.5, r)
    assert c >= math.exp(floor - slack)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(0.5, 100.0),
    b=st.sampled_from([0.5, 0.05, 1.0]),
    x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
@example(a=20.375, b=0.5, x=2.220446049250313e-16)  # I ~ 2878.37 subnormal steps
@example(a=0.5, b=0.5, x=0.999999)
def test_cdf_ceiling_is_an_upper_bound_of_the_cdf(a, b, x):
    # ln I_x(a, b) <= ln U for x = r^2 and b <= 1, against 40-digit mpmath;
    # the slack covers double rounding where U and I agree (x -> 0).
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    r = math.sqrt(x)
    if not 0.0 < r < 1.0:
        return
    exact = mp.betainc(a, b, 0, mp.mpf(r) ** 2, regularized=True)
    floor = log_cdf_of_square_floor(a, b, r)
    ceiling = log_cdf_of_square_ceiling(a, b, r)
    slack = 1e-12 * max(1.0, abs(ceiling))
    assert floor <= ceiling
    assert ceiling >= float(mp.log(exact)) - slack
    # On the double grid, as for the floor: rounding is monotone.
    assert beta_cdf_of_square(a, b, r) <= math.exp(ceiling + slack)


# (n, p, k_max, alpha, k) whose Gamma(k)^2 lies below the normal doubles or
# below every double; Gamma(k) is checked against mpmath below.
UNDERFLOW_CASES = [
    (2, 1, 1, 1e-300, 1),  # a = 1/2: Gamma = sin(pi z / 2) ~ 1.57e-300
    (32, 64, 31, 1e-152, 31),  # Gamma^2 ~ 2e-310, subnormal
    (32, 64, 31, 1e-200, 31),  # Gamma^2 below every double
    (3, 10**9, 1, 1e-300, 1),  # a = 1: Gamma^2 = 2 z ~ 2e-309
    (4, 10**20, 2, 1e-300, 2),
    (4, 10**30, 2, ALPHA_FLOOR, 2),  # the level itself underflows to 5e-324
]


@pytest.mark.parametrize("args", UNDERFLOW_CASES)
def test_rrt_threshold_where_its_square_underflows_matches_mpmath(args):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    n, p, k_max, alpha, k = args
    a, z = mp.mpf(n - k) / 2, mp.mpf(rrt_level(*args))
    # Solve I_{g^2}(a, 1/2) = z for ln g.
    ln_g = mp.findroot(lambda t: mp.log(mp.betainc(a, 0.5, 0, mp.exp(2 * t), regularized=True)) - mp.log(z), -300)
    gamma = rrt_threshold(*args)
    assert gamma * gamma < sys.float_info.min
    assert gamma == pytest.approx(float(mp.exp(ln_g)), rel=1e-13, abs=0.0)
    assert build_threshold_table(n, p, k_max, alpha)[k - 1] == gamma


def test_rrt_threshold_is_exact_on_both_sides_of_the_underflow_switch():
    # At n = 32, k = 31 (a = 1/2), I_q(1/2, 1/2) = (2/pi) asin(sqrt q), so
    # Gamma = sin(pi z / 2); Gamma^2 leaves the normal doubles near alpha = 1e-151.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for e in range(148, 158):
        alpha = 10.0**-e
        z = rrt_level(32, 64, 31, alpha, 31)
        gamma = rrt_threshold(32, 64, 31, alpha, 31)
        assert gamma == pytest.approx(float(mp.sin(mp.pi * mp.mpf(z) / 2)), rel=1e-13, abs=0.0), e
