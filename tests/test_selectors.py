import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rrselect.analysis import epsilon_bounds, mic_sparsity_limit, ric_bruteforce, rrt_error_lower_bound
from rrselect.designs import (
    DesignMatrix,
    SignalSpec,
    make_gaussian,
    make_identity_hadamard,
    make_signal,
    sample_support,
    synthesize,
)
from rrselect.errors import DomainError, ValidationError
from rrselect.omp import RULES, SolutionPath, solution_path, stop_rcsc, stop_rpsc
from rrselect.selectors import (
    ALPHA_FLOOR,
    ResidualRatios,
    minimal_superset_index,
    prefix_hits,
    residual_ratios,
    rrm_select,
    rrt_select,
    rrta_alpha,
    rrta_select,
)
from rrselect.special import (
    build_threshold_table,
    half_beta_log_cdf_bounds,
    log_cdf_of_square,
    rrt_log_level,
    rrt_threshold,
)


def _path(norms, selected=None):
    """A complete path of len(norms) - 1 steps on a 32 x 64 problem."""
    norms = np.asarray(norms, dtype=float)
    k = len(norms) - 1
    selected = tuple(range(k)) if selected is None else tuple(selected)
    return SolutionPath(
        selected=selected,
        residual_norms=norms,
        residual_corr_inf=np.zeros(k + 1),
        status="complete",
        n=32,
        p=64,
        k_max=k,
    )


def _ratios(values, n=32, p=64, k_max=3):
    """Residual ratios of a path on an n x p problem run for up to k_max steps."""
    return ResidualRatios(np.array(values, dtype=float), n, p, k_max)


def _thresholds(n, p, k_max, alpha, length):
    """Gamma(1..length): the first entries of build_threshold_table(n, p, k_max, alpha)."""
    return [rrt_threshold(n, p, k_max, alpha, k) for k in range(1, length + 1)]


def _table_rule(rr, table):
    """The reference rule: largest k with RR(k) < Gamma(k) from the thresholds
    of the first len(rr) steps."""
    return max((k for k, (x, gamma) in enumerate(zip(rr, table), 1) if x < gamma), default=None)


def test_residual_ratios_examples():
    assert np.allclose(residual_ratios(_path([2.0, 0.0])).values, [0.0])
    assert np.allclose(residual_ratios(_path([4.0, 2.0, 2.0])).values, [0.5, 1.0])
    # zero over zero counts as zero: earliest perfect model wins
    assert np.allclose(residual_ratios(_path([1.0, 0.0, 0.0])).values, [0.0, 0.0])
    # A path stopped before its first step has no ratios.
    empty = SolutionPath((), np.array([3.0]), np.zeros(1), "rank_deficient", 32, 64, 3)
    with pytest.raises(DomainError, match="^no residual ratios: the path has no steps$"):
        residual_ratios(empty)


def test_residual_ratios_bounded():
    rng = np.random.default_rng(1)
    design = make_identity_hadamard(16)
    for seed in range(5):
        y = rng.normal(size=16)
        rr = residual_ratios(solution_path(design, y, 8)).values
        assert np.all(rr >= 0.0) and np.all(rr <= 1.0)


def test_rrt_select_examples():
    # Gamma(1..3) at n=32, p=64, k_max=3, alpha=0.1 lie between 0.81 and 0.83
    assert rrt_select(_ratios([0.9, 0.02, 0.95]), 0.1) == 2
    assert rrt_select(_ratios([0.99, 0.99]), 0.1) is None
    # max semantics, not min
    assert rrt_select(_ratios([0.2, 0.2]), 0.1) == 2
    # more steps than k_max, or a level outside (0,1), is a domain error
    with pytest.raises(DomainError):
        rrt_select(_ratios([0.5, 0.5, 0.5, 0.5]), 0.1)
    with pytest.raises(DomainError):
        rrt_select(_ratios([0.5]), 1.0)


def test_settled_steps_hold_a_lower_bound_above_every_level(monkeypatch):
    from rrselect import special

    # RR = 0.99 at n = 32, p = 64, k_max = 16: c(k) lies far above
    # z_sup(k) = 1/(k_max (p-k+1)), and so does its lower bound; RR = 0.3
    # puts an upper bound of c(2) far below the levels of alpha >= 1e-6.
    # Neither reads the exact CDF.
    n, p, k_max = 32, 64, 16
    ratios = _ratios([0.99, 0.3, 0.99], n, p, k_max)
    lows, highs = ratios.log_cdf_bounds
    exact = [log_cdf_of_square((n - k) / 2.0, 0.5, rr) for k, rr in enumerate(ratios.values, 1)]
    assert all(low <= c <= high for low, c, high in zip(lows, exact, highs))
    for i in (0, 2):
        assert lows[i] > math.log(1.0 / (k_max * (p - i))) + 1e-9
    assert highs[1] < rrt_log_level(n, p, k_max, 1e-6, 2) - 1e-9
    calls = []
    original = special.log_cdf_of_square
    monkeypatch.setattr(special, "log_cdf_of_square", lambda a, b, r: calls.append(a) or original(a, b, r))
    for alpha in (1.0 - 1e-12, 0.1, 1e-6):
        assert rrt_select(ratios, alpha) == 2
    assert calls == []


def test_rrt_select_rejects_more_ratios_than_steps():
    # k_max = 3 steps on a 32 x 64 problem, or n - 1 = 2 steps at n = 3: the
    # ratios themselves are rejected
    for values, n, p, k_max in (([0.5] * 4, 32, 64, 3), ([0.5] * 3, 3, 8, 3)):
        with pytest.raises(DomainError):
            rrt_select(_ratios(values, n, p, k_max), 0.1)
    with pytest.raises(DomainError):
        half_beta_log_cdf_bounds(3, [0.5] * 3)


def test_rrt_select_checks_its_arguments_without_ratios():
    # Ratios without a step are refused when built, as residual_ratios refuses
    # a path with no steps; sizes that fit no path are refused before that.
    # A level outside (0,1) is refused by rrt_select itself.
    with pytest.raises(DomainError, match="^no residual ratios: the path has no steps$"):
        ResidualRatios(np.array([]), 32, 64, 3)
    with pytest.raises(DomainError, match=r"^residual ratios must be a numpy array, got \[0\.5\]$"):
        ResidualRatios([0.5], 8, 16, 3)  # a list has no ndim
    for values, n, p, k_max, alpha in (
        ([0.5], 32, 64, 3, 5.0),
        ([0.5], 32, 64, 3, 0.0),
        ([], 32, 64, 32, 0.1),
        ([], 32, 0, 3, 0.1),
    ):
        with pytest.raises(DomainError):
            rrt_select(_ratios(values, n, p, k_max), alpha)


def test_ratios_fit_a_path_of_at_most_min_n_minus_1_p_steps():
    # solution_path runs at most min(n-1, p) steps, and the rrt levels need
    # k_max (p - k + 1) >= 1 at every step: both are checked once, here.
    assert len(_ratios([0.5, 0.5], 32, 2, 2)) == 2
    for n, p, k_max in ((32, 2, 3), (32, 0, 1), (4, 64, 4), (1, 64, 1), (32, 64, 0)):
        with pytest.raises(DomainError, match="do not fit"):
            _ratios([], n, p, k_max)


def test_rrt_select_applies_the_exact_level_past_the_double_range():
    # k_max p = 3 * 10^400 is no double, and z(k) ~ 3e-402 lies far below the
    # doubles; ln z(k) is taken from the integer, so the levels exist. At
    # RR = 0.5, ln c(1) ~ -22 is far above ln z(1) ~ -924; at RR = 1e-300,
    # ln c(3) ~ -2e4 is far below ln z(3).
    for p in (10**400, 10**300):
        with pytest.raises(DomainError, match="^no residual ratios: the path has no steps$"):
            _ratios([], 32, p, 3)
        assert rrt_select(_ratios([0.5], 32, p, 3), 0.1) is None
        assert rrt_select(_ratios([0.5, 0.5, 1e-300], 32, p, 3), 0.1) == 3


@pytest.mark.parametrize("values", [[math.nan, 0.5], [0.5, math.nan], [1.5, -0.2], [0.5] * 5])
def test_every_selector_rejects_ratios_outside_zero_one_or_past_k_max(values):
    # k_max = 3; built by hand, since residual_ratios(path) never gives these
    selectors = (rrm_select, lambda rr: rrta_alpha(rr, 0.1, 2.0), lambda rr: rrt_select(rr, 0.1))
    for select in selectors:
        with pytest.raises(DomainError):
            select(_ratios(values))


def test_ratios_need_a_vector_and_a_path_size():
    for values, n, k_max in (([[0.5]], 32, 3), ([], 1, 1), ([], 32, 0)):
        with pytest.raises(DomainError):
            _ratios(values, n, 64, k_max)
    # A float size would enter the level as a float, and True would pass as 1.
    for n, p, k_max in ((32.0, 64, 3), (32, 64.0, 3), (32, 64, 3.0), (32, 64, True)):
        with pytest.raises(DomainError, match="must be an integer"):
            _ratios([0.5], n, p, k_max)


def test_bounds_of_each_ratio_and_outside_zero_one():
    lows, highs = half_beta_log_cdf_bounds(32, [0.0, 0.25, 1.0])
    assert (lows[0], highs[0], lows[2], highs[2]) == (-math.inf, -math.inf, math.inf, math.inf)
    assert lows[1] <= log_cdf_of_square(15.0, 0.5, 0.25) <= highs[1]
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(DomainError):
            half_beta_log_cdf_bounds(32, [0.5, bad])
        with pytest.raises(DomainError):
            rrt_select(_ratios([0.5, bad]), 0.1)


def test_ratio_whose_square_underflows_keeps_its_cdf():
    # At n = 2 the level-1e-300 threshold is Gamma(1) = pi z / 2 ~ 1.6e-300.
    # RR(1) = 1e-200 lies far above it, although RR(1)^2 rounds to 0, and
    # RR(1) = 1e-301 lies below it although Gamma(1)^2 rounds to 0.
    for rr, selected in ((1e-200, None), (1e-301, 1)):
        ratios = _ratios([rr], 2, 1, 1)
        assert log_cdf_of_square(0.5, 0.5, rr) == pytest.approx(math.log(2.0 * rr / math.pi), rel=1e-15, abs=0.0)
        assert rrt_select(ratios, 1e-300) == selected


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 200),
    data=st.data(),
    log_alpha=st.floats(math.log(1e-300), math.log(0.5)),
)
def test_cdf_rule_matches_threshold_table_rule(n, data, log_alpha):
    # No margin and no exclusion: Gamma(k) is the double where c(k) < z(k)
    # flips, so the two rules agree without one.
    k_max = data.draw(st.integers(1, n - 1), label="k_max")
    p = data.draw(st.integers(k_max, 1000), label="p")
    length = data.draw(st.integers(1, k_max), label="K")
    alpha = min(math.exp(log_alpha), 0.5)
    table = _thresholds(n, p, k_max, alpha, length)
    # Each ratio anywhere in [0,1], or within 0.1% of its threshold.
    rr = [
        data.draw(st.one_of(st.floats(0.0, 1.0), st.floats(0.999, 1.001).map(lambda f: min(f * g, 1.0))))
        for g in table
    ]
    assert rrt_select(_ratios(rr, n, p, k_max), alpha) == _table_rule(rr, table)


def _unscreened_rule(rr, n, p, k_max, alpha):
    """Largest k with ln c(k) < ln z(k), the exact log CDF taken at every step."""
    hits = [
        k
        for k, x in enumerate(rr, 1)
        if log_cdf_of_square((n - k) / 2.0, 0.5, x) < rrt_log_level(n, p, k_max, alpha, k)
    ]
    return max(hits, default=None)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 200),
    data=st.data(),
    # Levels near 1 put z(k) next to z_sup(k) = 1/(k_max (p-k+1)), the largest level of step k.
    alpha=st.one_of(
        st.floats(math.log(1e-300), math.log(0.5)).map(math.exp),
        st.floats(0.5, 1.0, exclude_max=True),
    ),
)
def test_screened_rule_matches_the_unscreened_rule(n, data, alpha):
    # No margin and no exclusion: the bounds decide a step only where the
    # exact CDF decides it the same way, so the two rules agree exactly, also
    # on ratios drawn within 1e-6 of their thresholds or of the ratio where
    # c(k) reaches z_sup(k).
    k_max = data.draw(st.integers(1, n - 1), label="k_max")
    p = data.draw(st.integers(k_max, 1000), label="p")
    length = data.draw(st.integers(1, k_max), label="K")
    table = _thresholds(n, p, k_max, alpha, length)
    # The ratio at which c(k) reaches z_sup(k).
    cut = _thresholds(n, p, k_max, 1.0 - 1e-15, length)
    rr = [
        data.draw(
            st.one_of(
                st.floats(0.0, 1.0),
                st.floats(1.0 - 1e-6, 1.0 + 1e-6).map(lambda f: min(f * g, 1.0)),
                st.floats(1.0 - 1e-6, 1.0 + 1e-6).map(lambda f: min(f * h, 1.0)),
            )
        )
        for g, h in zip(table, cut)
    ]
    assert rrt_select(_ratios(rr, n, p, k_max), alpha) == _unscreened_rule(rr, n, p, k_max, alpha)


def _doubles_away(x, steps):
    """The double `steps` doubles above x (below it for steps < 0)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else 0.0)
    return x


def test_a_level_below_the_doubles_is_not_raised_to_them():
    # At n = 2, p = 1e30 the level z(1) = 1e-300 / 1e30 lies below the
    # doubles. RR(1) = 5e-324 gives c(1) = 2 RR / pi ~ 3.1e-324, far above
    # z(1) (raised to 5e-324, the level would lie above it). Only RR(1) = 0
    # is selected, and Gamma(1) = pi z / 2 ~ 1.6e-330 reads as the smallest
    # positive double.
    ln_z = rrt_log_level(2, 10**30, 1, 1e-300, 1)
    assert ln_z == pytest.approx(math.log(1e-300) - math.log(1e30), rel=1e-15)
    ratios = _ratios([5e-324], 2, 10**30, 1)
    ln_c = log_cdf_of_square(0.5, 0.5, 5e-324)
    assert ln_c == pytest.approx(math.log(2.0 / math.pi) + math.log(5e-324), rel=1e-15) and ln_c > ln_z
    assert rrt_select(ratios, 1e-300) is None
    assert rrt_select(_ratios([0.0], 2, 10**30, 1), 1e-300) == 1
    assert rrt_threshold(2, 10**30, 1, 1e-300, 1) == 5e-324
    # Nor is a subnormal alpha raised to 1e-300: at alpha = 1e-310, n = 32,
    # p = 64, k_max = 2, Gamma(1) ~ 9.1e-11 (1.9e-10 at alpha = 1e-300), so
    # RR(1) = 1.2e-10 is not selected, and RR(2) = 0.9 is far above Gamma(2).
    assert rrt_select(ResidualRatios(np.array([1.2e-10, 0.9]), 32, 64, 2), 1e-310) is None
    assert rrt_select(ResidualRatios(np.array([1.2e-10, 0.9]), 32, 64, 2), 1e-300) == 1


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 200),
    data=st.data(),
    log_alpha=st.floats(math.log(1e-300), math.log(0.5)),
    log_p=st.floats(0.0, math.log(1e30)),
)
def test_two_sided_decision_matches_the_unscreened_rule_at_extreme_sizes(n, data, log_alpha, log_p):
    # Levels down to alpha = 1e-300 over up to 1e30 columns reach levels
    # below the doubles. Ratios drawn within 1e-6, 1e-9 and 1e-12 of
    # Gamma(k), or a few doubles from it, put ln c(k) next to ln z(k), inside
    # the bounds' margin, where only the exact log CDF can decide.
    k_max = data.draw(st.integers(1, n - 1), label="k_max")
    p = max(k_max, int(math.exp(log_p)))
    length = data.draw(st.integers(1, k_max), label="K")
    alpha = math.exp(log_alpha)
    table = _thresholds(n, p, k_max, alpha, length)
    near = [st.floats(1.0 - d, 1.0 + d) for d in (1e-6, 1e-9, 1e-12)]
    rr = [
        data.draw(
            st.one_of(
                st.floats(0.0, 1.0),
                *(f.map(lambda f: min(f * g, 1.0)) for f in near),
                st.integers(-6, 6).map(lambda i: min(_doubles_away(float(g), i), 1.0)),
            )
        )
        for g in table
    ]
    assert rrt_select(_ratios(rr, n, p, k_max), alpha) == _unscreened_rule(rr, n, p, k_max, alpha)


def _mp_log_gaps(mp, rr, n, p, k_max, alpha):
    """ln c(k) - ln z(k) for each step k of rr in 50-digit mpmath: c(k) from
    the exact square of the ratio, z(k) from the exact integer denominator."""
    gaps = []
    with mp.workdps(50):
        for k, x in enumerate(rr, 1):
            ln_z = mp.log(mp.mpf(alpha)) - mp.log(k_max * (p - k + 1))
            c = mp.betainc(mp.mpf(n - k) / 2, 0.5, 0, mp.mpf(x) ** 2, regularized=True)
            gaps.append(mp.log(c) - ln_z if c > 0 else -mp.inf)
    return gaps


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 200),
    data=st.data(),
    log_alpha=st.floats(math.log(5e-324), math.log(0.5)),
    p_digits=st.integers(0, 400),
)
def test_rrt_select_decides_as_the_papers_level_in_mpmath(n, data, log_alpha, p_digits):
    # The rule is the paper's: the largest k with c(k) < z(k) = alpha /
    # (k_max (p-k+1)), the level neither rounded nor raised, for p up to
    # 10^400 and alpha down to the smallest subnormal, 5e-324. Wherever every step's ln c(k) lies
    # more than 1e-12 from ln z(k) in 50-digit mpmath, rrt_select decides as
    # that comparison does. Ratios are drawn anywhere in [0,1], or within
    # 1e-6 to 1e-12 of Gamma(k).
    mp = pytest.importorskip("mpmath")
    k_max = data.draw(st.integers(1, n - 1), label="k_max")
    p = max(k_max, data.draw(st.integers(1, 9), label="lead") * 10**p_digits)
    length = data.draw(st.integers(1, min(k_max, 6)), label="K")
    alpha = math.exp(log_alpha)
    table = _thresholds(n, p, k_max, alpha, length)
    near = [st.floats(1.0 - d, 1.0 + d) for d in (1e-6, 1e-9, 1e-12)]
    rr = [
        data.draw(st.one_of(st.floats(0.0, 1.0), *(f.map(lambda f: min(f * g, 1.0)) for f in near)))
        for g in table
    ]
    gaps = _mp_log_gaps(mp, rr, n, p, k_max, alpha)
    assume(all(abs(gap) > 1e-12 for gap in gaps))
    expected = max((k for k, gap in enumerate(gaps, 1) if gap < 0), default=None)
    assert rrt_select(_ratios(rr, n, p, k_max), alpha) == expected


def test_rrt_select_and_the_reported_threshold_differ_only_where_the_log_cdf_is_not_monotone():
    # The double log CDF is not monotone to the last ulp, so no reported
    # Gamma(k) matches the selectors' test on every double next to it. At
    # n = 5, p = k_max = 1, alpha = e^-1.5, of the 401 doubles within 200 of
    # Gamma(1), rrt_select and RR < Gamma(1) disagree only at Gamma(1) - 2 ulp.
    alpha = math.exp(-1.5)
    gamma = rrt_threshold(5, 1, 1, alpha, 1)
    assert gamma == 0.8114198186647038
    below, above = [gamma], [gamma]
    for _ in range(200):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], 1.0))
    doubles = below[:0:-1] + above  # Gamma(1) - 200 ulp .. Gamma(1) + 200 ulp
    disagree = [
        i - 200 for i, r in enumerate(doubles) if (rrt_select(_ratios([r], 5, 1, 1), alpha) == 1) != (r < gamma)
    ]
    assert len(doubles) == 401 and disagree == [-2]


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_rrt_select_at_a_million_rows_a_hair_from_the_threshold(side):
    # At n = 10^6, a ratio 1e-12 (relative) from Gamma(k) moves ln c(k) by
    # about 2a 1e-12 ~ 1e-6 from ln z(k), far past the rounding of either:
    # every step decides as 50-digit mpmath does.
    mp = pytest.importorskip("mpmath")
    n, p, k_max, alpha = 10**6, 2 * 10**6, 4, 0.1
    for k in range(1, k_max + 1):
        rr = [1.0] * (k - 1) + [rrt_threshold(n, p, k_max, alpha, k) * (1.0 + side * 1e-12)]
        gap = _mp_log_gaps(mp, rr, n, p, k_max, alpha)[-1]
        assert abs(gap) > 1e-7 and (gap < 0) == (side < 0)
        assert rrt_select(_ratios(rr, n, p, k_max), alpha) == (k if side < 0 else None)


def _check_decision_a_few_doubles_from_the_threshold(n, p, k_max, k, alpha, steps):
    """rrt_select on ratios of 1 up to step k, whose ratio lies `steps` doubles from Gamma(k)."""
    gamma = rrt_threshold(n, p, k_max, alpha, k)
    rr = [1.0] * (k - 1) + [min(_doubles_away(gamma, steps), 1.0)]
    selected = rrt_select(_ratios(rr, n, p, k_max), alpha)
    assert selected == _unscreened_rule(rr, n, p, k_max, alpha)
    # Gamma(k) is where that test flips: step k is selected exactly when its
    # ratio is below Gamma(k). The double log CDF wobbles by a few ulps, so
    # this holds where it does not fall on the doubles from the ratio to
    # Gamma(k) (it can near Gamma(1) at n = 5, p = 1, alpha = e^-1.5).
    low, high = sorted((rr[-1], gamma))
    log_cdfs = []
    while low <= high:
        log_cdfs.append(log_cdf_of_square((n - k) / 2.0, 0.5, low))
        low = math.nextafter(low, math.inf)
    if log_cdfs == sorted(log_cdfs):
        assert selected == (k if rr[-1] < gamma else None)


@settings(max_examples=1000, deadline=None)
@given(
    n=st.integers(2, 200),
    data=st.data(),
    log_alpha=st.floats(math.log(1e-300), math.log(0.5)),
    log_p=st.floats(0.0, math.log(1e30)),
    steps=st.integers(-6, 6),
)
def test_decision_a_few_doubles_from_the_threshold(n, data, log_alpha, log_p, steps):
    # One step k whose ratio lies a few doubles from Gamma(k), below steps
    # that never qualify (RR = 1). Where the bounds are tight (small RR(k)^2)
    # the rounding of the exact CDF exceeds their gap to it, and only the
    # margin keeps them from deciding a step that the exact CDF decides
    # the other way.
    k_max = data.draw(st.integers(1, n - 1), label="k_max")
    k = data.draw(st.integers(1, k_max), label="k")
    p = max(k_max, int(math.exp(log_p)))
    _check_decision_a_few_doubles_from_the_threshold(n, p, k_max, k, math.exp(log_alpha), steps)


@pytest.mark.parametrize("steps", range(-6, 7))
@pytest.mark.parametrize(
    "n, p, alpha",
    [
        (68, 10**30, 1e-300),  # a = 33.5: the level lies below the doubles, Gamma(1)^2 ~ 1e-10 is normal
        (5, 1, math.exp(-1.5)),  # a = 2: the double log CDF wobbles near Gamma(1)
    ],
)
def test_decision_a_few_doubles_from_the_threshold_at_fixed_sizes(n, p, alpha, steps):
    # The first case's threshold is checked in
    # tests/test_special.py::test_threshold_at_a_level_below_the_doubles_matches_mpmath.
    _check_decision_a_few_doubles_from_the_threshold(n, p, 1, 1, alpha, steps)


# (n, p, k_max, k, alpha) where, at Gamma(k), the double CDF read 1.1e-13
# relative above 40-digit mpmath, and the log CDF reads above ln U(k).
CDF_ROUNDING_CASES = [
    (51, 45269932611295747127413571584, 22, 15, 1.4955331689308145e-215),
    (78, 522, 73, 35, 1.4238134816150255e-283),
]


@pytest.mark.parametrize("n, p, k_max, k, alpha", CDF_ROUNDING_CASES)
def test_bounds_within_the_cdf_rounding_of_the_level_leave_the_step_to_the_cdf(n, p, k_max, k, alpha):
    # The rule compares the double log CDF with ln z(k); a bound no farther
    # from ln z(k) than that double's rounding must not decide the step.
    gamma = rrt_threshold(n, p, k_max, alpha, k)
    a = (n - k) / 2.0
    _, highs = half_beta_log_cdf_bounds(n, [1.0] * (k - 1) + [gamma])
    assert highs[k - 1] < log_cdf_of_square(a, 0.5, gamma)
    for steps in range(-6, 7):
        rr = [1.0] * (k - 1) + [_doubles_away(gamma, steps)]
        assert rrt_select(_ratios(rr, n, p, k_max), alpha) == _unscreened_rule(rr, n, p, k_max, alpha)


@pytest.mark.parametrize("rule", RULES)
def test_ratios_carry_the_problem_size_of_their_path(rule):
    # A 4 x 5 design whose column 1 duplicates column 0: y = e_0 is fitted by
    # column 0, and OMP's next pick is the duplicate, which stops the path
    # after one step. OLS masks the duplicate and runs to k_max.
    x = np.hstack([np.eye(4)[:, :1], np.eye(4)])
    design = DesignMatrix(x)
    path = solution_path(design, np.eye(4)[:, 0] * 2.0, 3, rule)
    assert path.K == len(path.selected) == (1 if rule == "omp" else 3)
    assert path.status == ("rank_deficient" if rule == "omp" else "complete")
    ratios = residual_ratios(path)
    assert (path.n, path.p, path.k_max) == (ratios.n, ratios.p, ratios.k_max) == (4, 5, 3)
    assert len(ratios) == path.K
    # The levels keep the configured k_max: the one step of the OMP path is
    # tested at z(1) = alpha / (3 * 5), not alpha / (1 * 5).
    assert rrt_select(ratios, 0.1) == _unscreened_rule(ratios.values, 4, 5, 3, 0.1)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 40),
    extra=st.integers(0, 40),
    snr_db=st.floats(-10.0, 40.0),
    rule=st.sampled_from(RULES),
    alpha=st.floats(1e-6, 0.5),
    data=st.data(),
)
def test_rrt_select_applies_the_rule_at_its_path_size(seed, n, extra, snr_db, rule, alpha, data):
    # On a Gaussian n x p design, rrt_select(residual_ratios(path), alpha) is
    # the largest k with ln c(k), c(k) = I_{RR(k)^2}((n-k)/2, 1/2), below
    # rrt_log_level(n, p, k_max, alpha, k), with n, p and k_max those of the
    # path.
    p = n + extra
    k_max = data.draw(st.integers(1, n - 1), label="k_max")
    k0 = data.draw(st.integers(1, k_max), label="k0")
    design = make_gaussian(n, p, seed)
    support = sample_support(p, k0, seed + 1)
    beta = make_signal(p, support, SignalSpec(k0=k0), seed + 2)
    y = synthesize(design, beta, 10.0 ** (snr_db / 10.0), seed + 3).observation
    path = solution_path(design, y, k_max, rule)
    ratios = residual_ratios(path)
    assert (ratios.n, ratios.p, ratios.k_max) == (path.n, path.p, path.k_max) == (n, p, k_max)
    assert path.K == len(path.selected) == len(ratios)
    assert rrt_select(ratios, alpha) == _unscreened_rule(ratios.values, n, p, k_max, alpha)


def test_zero_observation_selects_nothing():
    # y = 0 holds nothing to explain: rrm, rrt and rrta select the empty
    # support, as the sigma rules do at k = 0.
    design = make_identity_hadamard(32)
    path = solution_path(design, np.zeros(32), 16)
    rr = residual_ratios(path)
    assert rr.zero_observation and np.all(rr.values == 0.0)
    assert rrm_select(rr) is None
    assert rrt_select(rr, 0.1) is None
    assert rrta_select(rr, 0.1, 2.0) is None
    assert path.estimate(rrm_select(rr)).status == "empty_selection"
    # A perfect fit after one step is not a zero observation.
    fitted = residual_ratios(solution_path(design, design.matrix[:, 7].copy(), 16))
    assert not fitted.zero_observation
    assert rrm_select(fitted) == 1


def test_rrm_select_examples():
    assert rrm_select(_ratios([0.9, 0.05, 0.8])) == 2
    assert rrm_select(_ratios([0.5, 0.5])) == 1  # tie -> smallest
    with pytest.raises(DomainError, match="^no residual ratios: the path has no steps$"):
        rrm_select(_ratios([]))


def test_rrm_finds_exact_recovery_step():
    design = make_identity_hadamard(32)
    beta = np.zeros(64)
    beta[[3, 40]] = 1.0
    y = design.matrix @ beta
    path = solution_path(design, y, 16)
    rr = residual_ratios(path)
    assert rrm_select(rr) == 2  # RR(k0) = 0 at the exact-recovery step


def test_rrta_alpha_examples():
    assert rrta_alpha(_ratios([0.3, 0.9]), 0.1, 2.0) == pytest.approx(0.09)
    assert rrta_alpha(_ratios([0.5, 0.9]), 0.1, 2.0) == pytest.approx(0.1)
    assert rrta_alpha(_ratios([0.0, 0.9]), 0.1, 2.0) == ALPHA_FLOOR
    # deep underflow also clamps
    tiny = rrta_alpha(_ratios([1e-200]), 0.1, 2.0)
    assert tiny == ALPHA_FLOOR


def test_rrta_refuses_pfd_and_q_outside_their_domains():
    rr = _ratios([0.3, 0.9])
    for pfd in (0.0, 1.0, -0.1, math.nan):
        for select in (rrta_alpha, rrta_select):
            with pytest.raises(DomainError, match=r"^pfd must lie in \(0,1\)"):
                select(rr, pfd, 2.0)
    # min(0.1, nan) is 0.1 and 0.1 ** inf is 0: a q that is not finite would
    # quietly run rrta as rrt at a fixed level.
    for q in (0.0, -1.0, math.nan, math.inf, -math.inf):
        for select in (rrta_alpha, rrta_select):
            with pytest.raises(DomainError, match=r"^q must be finite and positive"):
                select(rr, 0.1, q)


def test_rrta_select_recovery_dip():
    # A single vanishing ratio at k0 with the rest near one: the adaptive
    # level clamps to the floor, the thresholds stay positive, and only the
    # k0 step qualifies.
    rr = _ratios([0.8, 0.9, 0.0, 0.95, 0.97, 0.9, 0.92, 0.99], k_max=8)
    k = rrta_select(rr, 0.1, 2.0)
    assert k == 3
    assert rrta_alpha(rr, 0.1, 2.0) == ALPHA_FLOOR


def test_rrta_select_noiseless_path():
    # Noiseless observation: the residual collapses to rounding level at k0,
    # later ratios are noise-to-noise and sit near one, so both selectors
    # land on k0.
    design = make_identity_hadamard(32)
    beta = np.zeros(64)
    beta[[5, 17, 50]] = [1.0, -1.0, 1.0]
    y = design.matrix @ beta
    path = solution_path(design, y, 16)
    rr = residual_ratios(path)
    assert rrm_select(rr) == 3
    assert rrta_select(rr, 0.1, 2.0) == 3
    assert path.support_at(3) == {5, 17, 50}


def test_selectors_on_exact_zero_tail():
    # When the design is exactly representable the residual hits exact zero
    # and the 0/0 convention zeroes every later ratio: argmin ties keep RRM at
    # the earliest perfect model while max-semantics push RRT/RRTA to the
    # path end. Unreachable at any finite SNR.
    rr = _ratios([0.5, 0.0, 0.0, 0.0], k_max=4)
    assert rrm_select(rr) == 2
    assert rrta_select(rr, 0.1, 2.0) == 4
    assert rrt_select(rr, 0.1) == 4
    for alpha in (0.1, rrta_alpha(rr, 0.1, 2.0)):
        assert _table_rule(rr.values, _thresholds(32, 64, 4, alpha, 4)) == 4


def test_rrta_matches_rrt_when_pfd_binds():
    # when (min RR)^q >= pfd the adaptive level equals pfd exactly
    rr = _ratios([0.8, 0.7, 0.9, 0.95], k_max=4)
    assert rrta_alpha(rr, 0.1, 2.0) == pytest.approx(0.1)
    assert rrta_select(rr, 0.1, 2.0) == rrt_select(rr, 0.1)


def test_rrta_agrees_with_rrt_on_seeded_trials():
    # whenever (min RR)^q >= pfd the adaptive level equals pfd and the two
    # selectors coincide; the premise fires at low SNR (large ratios)
    design = make_identity_hadamard(32)
    spec = SignalSpec(k0=3, kind="pm_one")
    agree_checked = 0
    for snr, tag in ((100.0, 0), (1.0, 10_000)):  # 20 dB and 0 dB
        for seed in range(30):
            support = sample_support(64, 3, seed=seed + tag)
            beta = make_signal(64, support, spec, seed=seed + tag + 1000)
            problem = synthesize(design, beta, snr=snr, seed=seed + tag + 2000)
            path = solution_path(design, problem.observation, 16)
            rr = residual_ratios(path)
            if float(np.min(rr.values)) ** 2 >= 0.1:
                assert rrta_select(rr, 0.1, 2.0) == rrt_select(rr, 0.1)
                agree_checked += 1
    assert agree_checked > 0


def test_rrta_handles_truncated_paths():
    rr = _ratios([0.2, 0.9], k_max=4)
    # path shorter than k_max: the levels of steps 1..2 still use k_max=4,
    # so the decision matches the first two entries of the k_max=4 table
    alpha = rrta_alpha(rr, 0.1, 2.0)
    k = rrta_select(rr, 0.1, 2.0)
    assert k == rrt_select(rr, alpha) == _table_rule(rr.values, _thresholds(32, 64, 4, alpha, 2)) == 1
    # with k_max=2 the level of step 1 is twice as large: a ratio between the
    # two thresholds tells the configured k_max apart from the path length
    between = float(np.mean([build_threshold_table(32, 64, 4, 0.1)[0], build_threshold_table(32, 64, 2, 0.1)[0]]))
    assert rrt_select(_ratios([between, 0.99], k_max=4), 0.1) is None
    assert rrt_select(_ratios([between, 0.99], k_max=2), 0.1) == 1


def test_minimal_superset_examples():
    path = _path([4.0, 3.0, 2.0, 1.0], selected=(2, 5, 7))
    assert minimal_superset_index(path, {5, 7}) == 3
    assert minimal_superset_index(path, {9}) == math.inf
    assert minimal_superset_index(path, set()) == 0
    assert minimal_superset_index(path, {2}) == 1


@settings(max_examples=300, deadline=None)
@given(
    selected=st.lists(st.integers(0, 11), unique=True, max_size=8),
    support=st.frozensets(st.integers(0, 11), max_size=5),
)
def test_prefix_hits_and_minimal_superset_match_brute_force(selected, support):
    path = _path(np.ones(len(selected) + 1), selected)
    prefixes = [set(selected[:k]) for k in range(len(selected) + 1)]
    assert prefix_hits(path, support) == [len(prefix & support) for prefix in prefixes]
    brute = next((k for k, prefix in enumerate(prefixes) if support <= prefix), math.inf)
    assert minimal_superset_index(path, support) == brute


def test_selector_scale_invariance_quick():
    design = make_identity_hadamard(32)
    spec = SignalSpec(k0=3, kind="pm_one")
    for seed in range(10):
        support = sample_support(64, 3, seed=seed)
        beta = make_signal(64, support, spec, seed=seed + 50)
        problem = synthesize(design, beta, snr=100.0, seed=seed + 99)
        baseline = None
        for c in (1e-6, 1.0, 1e6):
            path = solution_path(design, c * problem.observation, 16)
            rr = residual_ratios(path)
            keys = (path.selected, rrt_select(rr, 0.1), rrm_select(rr), rrta_select(rr, 0.1, 2.0))
            if baseline is None:
                baseline = keys
            else:
                assert keys[0] == baseline[0]
                assert keys[1:] == baseline[1:]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    kind=st.sampled_from(["pm_one", "geometric"]),
    snr_db=st.floats(-10.0, 60.0),
    rule=st.sampled_from(["omp", "ols"]),
    m=st.integers(-1000, 1000),
)
def test_path_ratios_and_selections_are_invariant_under_binary_scaling(seed, kind, snr_db, rule, m):
    # y -> 2**m y is exact while every entry stays a normal double, so the
    # path, scaled norms, ratios and selections must all be bit-identical,
    # including scales where the squared norms of y under- or overflow.
    design = make_identity_hadamard(32)
    support = sample_support(64, 3, seed)
    beta = make_signal(64, support, SignalSpec(k0=3, kind=kind), seed + 1)
    y = synthesize(design, beta, 10.0 ** (snr_db / 10.0), seed + 2).observation
    scaled = np.ldexp(y, m)
    assume(np.all(np.abs(scaled) >= np.finfo(float).tiny))
    base, path = (solution_path(design, v, 16, rule) for v in (y, scaled))
    norms = np.ldexp(base.residual_norms, m)
    assume(np.all(norms >= np.finfo(float).tiny))
    assert path.selected == base.selected
    assert np.array_equal(path.residual_norms, norms)
    assert np.array_equal(path.residual_corr_inf, np.ldexp(base.residual_corr_inf, m))
    base_rr, rr = residual_ratios(base), residual_ratios(path)
    assert np.array_equal(rr.values, base_rr.values)
    for select in (
        rrm_select,
        lambda r: rrt_select(r, 0.1),
        lambda r: rrta_select(r, 0.1, 2.0),
    ):
        assert select(rr) == select(base_rr)


def test_threshold_coverage_statistics():
    # Over k > k_min, ratios should exceed the level-0.1 thresholds except on
    # a set of probability <= 0.1 (+ binomial slack at 500 trials).
    design = make_identity_hadamard(32)
    spec = SignalSpec(k0=3, kind="pm_one")
    table = build_threshold_table(32, 64, 16, 0.1)
    trials = 500
    hits = 0
    for seed in range(trials):
        support = sample_support(64, 3, seed=seed)
        beta = make_signal(64, support, spec, seed=seed + 10_000)
        problem = synthesize(design, beta, snr=10.0, seed=seed + 20_000)  # 10 dB
        path = solution_path(design, problem.observation, 16)
        rr = residual_ratios(path).values
        k_min = minimal_superset_index(path, support)
        if math.isinf(k_min):
            continue
        tail = np.arange(int(k_min), len(rr))
        if tail.size and np.any(rr[tail] <= table[tail]):
            hits += 1
    bound = 0.1 + 3.0 * math.sqrt(0.1 * 0.9 / trials)
    assert hits / trials <= bound


def test_ratio_floor_before_recovery_at_high_snr():
    # On a tiny instance with exactly known RIC, ratios before the recovery
    # step stay above sqrt(1-d) bmin / (sqrt(1+d) (bmax+bmin)) at 60 dB.
    design = make_identity_hadamard(16)
    delta2 = ric_bruteforce(design, 2)
    bound = math.sqrt(1 - delta2) / (math.sqrt(1 + delta2) * 2.0)
    spec = SignalSpec(k0=2, kind="pm_one")
    trials, ok = 400, 0
    for seed in range(trials):
        support = sample_support(32, 2, seed=seed)
        beta = make_signal(32, support, spec, seed=seed + 1)
        problem = synthesize(design, beta, snr=1e6, seed=seed + 2)  # 60 dB
        path = solution_path(design, problem.observation, 8)
        rr = residual_ratios(path).values
        if rr[0] > bound:  # k < k0 means k = 1 here
            ok += 1
    assert ok / trials >= 0.99

    # At n=32 the exact RIC is out of brute-force reach; report with the
    # incoherence proxy instead of asserting.
    design32 = make_identity_hadamard(32)
    mu = 1.0 / math.sqrt(32.0)
    delta_proxy = 2 * mu  # delta_3 <= (k0-1) mu for k0 = 3
    proxy_bound = math.sqrt(1 - delta_proxy) / (math.sqrt(1 + delta_proxy) * 2.0)
    spec3 = SignalSpec(k0=3, kind="pm_one")
    above = 0
    for seed in range(100):
        support = sample_support(64, 3, seed=seed)
        beta = make_signal(64, support, spec3, seed=seed + 1)
        problem = synthesize(design32, beta, snr=1e6, seed=seed + 2)
        path = solution_path(design32, problem.observation, 16)
        rr = residual_ratios(path).values
        if np.all(rr[:2] > proxy_bound):
            above += 1
    print(f"[report] n=32 proxy ratio floor {proxy_bound:.4f}: {above}/100 trials above")


_EPSILON_ARGS = dict(
    delta_k0=0.1, delta_k0p1=0.1, beta_min=1.0, beta_max=2.0, n=32, p=64, k_max=16, alpha=0.1, sigma=0.1, k0=3
)
_HADAMARD4 = make_identity_hadamard(4)


@pytest.mark.parametrize(
    "call, good, error",
    [
        (lambda v: rrta_alpha(_ratios([0.5]), 0.1, v), 2.0, DomainError),
        (lambda v: rrta_alpha(_ratios([0.5]), v, 2.0), 0.1, DomainError),
        (lambda v: stop_rpsc(_path([1.0, 0.5, 0.25]), v), 0.1, DomainError),
        (lambda v: stop_rcsc(_path([1.0, 0.5, 0.25]), v), 0.1, DomainError),
        (lambda v: stop_rpsc(_path([1.0, 0.5, 0.25]), 0.1, eta=v), 0.5, DomainError),
        (lambda v: stop_rcsc(_path([1.0, 0.5, 0.25]), 0.1, eta=v), 0.5, DomainError),
        (lambda v: synthesize(_HADAMARD4, np.eye(8)[1], v, 0), 10.0, ValidationError),
        *(
            (lambda v, name=name: epsilon_bounds(**{**_EPSILON_ARGS, name: v}), _EPSILON_ARGS[name], DomainError)
            for name in ("delta_k0", "delta_k0p1", "beta_min", "beta_max", "sigma", "alpha")
        ),
        (lambda v: rrt_select(_ratios([0.5]), v), 0.1, DomainError),
        (lambda v: rrt_log_level(32, 64, 16, v, 1), 0.1, DomainError),
        (lambda v: rrt_threshold(32, 64, 16, v, 1), 0.1, DomainError),
        (lambda v: rrt_error_lower_bound(v, 16, 64, 3), 0.1, DomainError),
        (lambda v: log_cdf_of_square(1.5, 0.5, v), 0.5, DomainError),
        (lambda v: log_cdf_of_square(v, 0.5, 0.5), 2.0, DomainError),
        (lambda v: SignalSpec(3, "geometric", v), 0.3, ValidationError),
        (lambda v: mic_sparsity_limit(v), 0.25, DomainError),
    ],
    ids=[
        "rrta_q",
        "rrta_pfd",
        "rpsc_sigma",
        "rcsc_sigma",
        "rpsc_eta",
        "rcsc_eta",
        "synthesize_snr",
        "epsilon_delta_k0",
        "epsilon_delta_k0p1",
        "epsilon_beta_min",
        "epsilon_beta_max",
        "epsilon_sigma",
        "epsilon_alpha",
        "rrt_select_alpha",
        "rrt_log_level_alpha",
        "rrt_threshold_alpha",
        "rrt_error_lower_bound_alpha",
        "log_cdf_of_square_r",
        "log_cdf_of_square_a",
        "signal_spec_ratio",
        "mic_sparsity_limit_mu",
    ],
)
def test_a_bool_where_a_real_is_expected_raises(call, good, error):
    # True and False would pass as 1.0 and 0.0 and give a quiet value, and so
    # would numpy's bools; a string is no real either, and nan no finite one.
    # Each raises the entry point's typed error, never a bare TypeError. A
    # numpy float is a real and passes, and so does a numpy int.
    call(np.float64(good))
    if good == int(good):
        call(np.int64(good))
    for bad in (True, False, np.True_, np.False_, "0.1", math.nan):
        with pytest.raises(error):
            call(bad)


def test_a_numpy_real_is_read_as_its_double():
    # numpy's float32 arithmetic rounds to float32, and Decimal and Fraction
    # take no numpy scalar: every entry point reads a real as float(value).
    def double(*values):
        return [float(np.float32(v)) for v in values]

    path = _path([1.0, 0.5, 0.25])
    for f, args in (
        (lambda s, e: stop_rpsc(path, s, eta=e), (0.1, 0.5)),
        (lambda s, e: stop_rcsc(path, s, eta=e), (1e-30, 12.0)),  # the level past the doubles: Decimal
        (lambda pfd, q: rrta_alpha(_ratios([0.3, 0.9]), pfd, q), (0.5, 1.3)),
        (lambda a, r: log_cdf_of_square(a, 0.5, r), (2.5, 0.3)),
        (lambda a, r: log_cdf_of_square(a, 0.5, r), (100.5, 0.9)),  # Stirling's series in log_beta_fn
        (lambda alpha, mu: (rrt_error_lower_bound(alpha, 16, 64, 3), mic_sparsity_limit(mu)), (0.1, 0.3)),
        (lambda snr, ratio: synthesize(_HADAMARD4, np.eye(8)[1] * ratio, snr, 0).sigma, (3.3, 0.7)),
        (lambda sigma, beta: epsilon_bounds(**{**_EPSILON_ARGS, "sigma": sigma, "beta_min": beta}), (0.3, 0.7)),
    ):
        assert f(*map(np.float32, args)) == f(*double(*args))
    assert SignalSpec(3, "geometric", np.float32(0.3)).ratio == float(np.float32(0.3))
    assert type(rrta_alpha(_ratios([0.3, 0.9]), np.float32(0.5), np.int64(2))) is float
