import dataclasses
import functools
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrselect import analysis
from rrselect.analysis import (
    epsilon_bounds,
    erc_constant,
    mic_sparsity_limit,
    mutual_incoherence,
    ric_bruteforce,
    rrt_error_lower_bound,
)
from rrselect.designs import DesignMatrix, make_gaussian, make_identity_hadamard
from rrselect.errors import DomainError, RankDeficientError, TooManySubsetsError
from rrselect.linalg import OrthoBasisState
from rrselect.omp import default_kmax, rpsc_threshold, solution_path
from rrselect.selectors import residual_ratios, rrm_select, rrt_select
from rrselect.special import build_threshold_table

RRT_LB_01_16_64_3 = 1.0245901639344262e-4  # 0.1 / (16 * 61)
RRT_LB_09_8_32_3 = 3.8793103448275862e-3  # 0.9 / (8 * 29)


def test_mutual_incoherence_values():
    assert mutual_incoherence(DesignMatrix(np.eye(4))) == 0.0
    d2 = make_identity_hadamard(2)
    assert mutual_incoherence(d2) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    d32 = make_identity_hadamard(32)
    assert mutual_incoherence(d32) == pytest.approx(1.0 / math.sqrt(32.0), abs=1e-12)


def test_mutual_incoherence_normalizes_internally():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(8, 6))
    scaled = x * np.array([1.0, 2.0, 0.5, 3.0, 1.0, 4.0])
    a = mutual_incoherence(DesignMatrix(x))
    b = mutual_incoherence(DesignMatrix(scaled))
    assert a == pytest.approx(b, rel=1e-12)
    with pytest.raises(DomainError):
        mutual_incoherence(DesignMatrix(np.ones((4, 1))))
    with pytest.raises(DomainError):  # a zero column has no direction
        mutual_incoherence(DesignMatrix(np.array([[1.0, 0.0], [0.0, 0.0]])))


def test_mutual_incoherence_normalizes_columns_the_caller_built():
    # Column norms 2, 1 and 5: the largest normalized inner product is
    # <x_2, x_3> / (1 * 5) = 4 / 5.
    x = np.array([[2.0, 0.0, 3.0], [0.0, 1.0, 4.0]])
    assert mutual_incoherence(DesignMatrix(x)) == pytest.approx(0.8, rel=1e-15)


def test_mic_sparsity_limit():
    mu32 = 1.0 / math.sqrt(32.0)
    assert mic_sparsity_limit(mu32) == 3
    assert mic_sparsity_limit(0.3) == 2
    assert mic_sparsity_limit(0.0) > 10**9
    # Where 1/mu passes the int64 range or the doubles, mu sets no limit, as at mu = 0.
    for tiny in (1e-20, 1e-300, 1e-320, 5e-324):
        assert mic_sparsity_limit(tiny) == mic_sparsity_limit(0.0) == 2**63 - 1
    assert mic_sparsity_limit(1e-17) == 50_000_000_000_000_000


def test_ric_orthonormal_is_zero():
    d = DesignMatrix(np.eye(5))
    for order in (1, 2, 3):
        assert ric_bruteforce(d, order) == 0.0


def test_ric_identical_columns():
    x = np.zeros((4, 3))
    x[0, 0] = x[0, 1] = 1.0
    x[1, 2] = 1.0
    assert ric_bruteforce(DesignMatrix(x), 2) == pytest.approx(1.0, abs=1e-12)


def test_ric_order2_closed_form_identity_hadamard():
    # order-2 Gram eigenvalues are 1 +- |<x_i, x_j>|, so delta_2 equals the
    # largest pairwise inner product; exact equality expected on [I_4, H_4/2].
    d = make_identity_hadamard(4)
    delta = ric_bruteforce(d, 2)
    gram = d.matrix.T @ d.matrix
    np.fill_diagonal(gram, 0.0)
    assert delta == np.max(np.abs(gram))
    assert delta == 0.5


def test_ric_order1_closed_form():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 5))
    d = DesignMatrix(x)
    expected = float(np.max(np.abs(np.sum(x * x, axis=0) - 1.0)))
    assert ric_bruteforce(d, 1) == pytest.approx(expected, rel=1e-12)


def test_ric_monotone_in_order():
    d = make_identity_hadamard(8)
    mu = mutual_incoherence(d)
    d2 = ric_bruteforce(d, 2)
    d3 = ric_bruteforce(d, 3)
    assert mu <= d2 + 1e-12
    assert d2 <= d3 + 1e-12


def _ric_loop(design, order):
    """The RIC by one eigvalsh per column subset: the loop ric_bruteforce stacks."""
    x = design.matrix
    gram = x.T @ x
    delta = 0.0
    for subset in itertools.combinations(range(design.p), order):
        ev = np.linalg.eigvalsh(gram[np.ix_(subset, subset)])
        delta = max(delta, 1.0 - float(ev[0]), float(ev[-1]) - 1.0)
    return delta


_RIC_8X16 = {
    "hadamard": lambda: make_identity_hadamard(8),
    "gaussian normalized": lambda: make_gaussian(8, 16, 0, normalize=True),
    "gaussian": lambda: make_gaussian(8, 16, 1),
}


@pytest.mark.parametrize("name", _RIC_8X16)
def test_ric_bruteforce_is_the_per_subset_loop_bit_for_bit_at_every_order(name):
    design = _RIC_8X16[name]()
    for order in range(1, design.p + 1):
        assert ric_bruteforce(design, order) == _ric_loop(design, order)


@pytest.mark.parametrize("per_stack", [1, 9, 559, 561])
def test_ric_bruteforce_stacks_need_not_divide_the_subset_count(monkeypatch, per_stack):
    design = make_gaussian(8, 16, 1)
    order = 3  # C(16, 3) = 560 subsets: 9 and 559 leave a short last stack
    monkeypatch.setattr(analysis, "RIC_CHUNK_BYTES", per_stack * 8 * order * order)
    assert ric_bruteforce(design, order) == _ric_loop(design, order)


def test_ric_guard_and_domain():
    d = make_gaussian(8, 64, seed=0)
    with pytest.raises(TooManySubsetsError):
        ric_bruteforce(d, 6)  # C(64,6) > 1e6
    with pytest.raises(DomainError):
        ric_bruteforce(d, 0)
    for order in (True, 2.0):
        with pytest.raises(DomainError, match="^order must be an integer"):
            ric_bruteforce(make_identity_hadamard(4), order)


def test_erc_orthonormal_zero():
    d = DesignMatrix(np.eye(6))
    assert erc_constant(d, (0, 3)) == 0.0


def test_erc_projection_coefficient():
    # X_1 = 0.3 X_0 + orthogonal part: ||X_S^+ X_1||_1 = 0.3 for S = {0}
    x = np.zeros((4, 2))
    x[0, 0] = 1.0
    x[:, 1] = 0.3 * x[:, 0]
    x[1, 1] = 1.0
    assert erc_constant(DesignMatrix(x), (0,)) == pytest.approx(0.3, rel=1e-12)


def test_erc_matches_lstsq_oracle():
    rng = np.random.default_rng(8)
    for trial in range(5):
        x = rng.normal(size=(8, 16))
        d = DesignMatrix(x)
        support = sorted(rng.choice(16, size=2, replace=False).tolist())
        xs = x[:, support]
        expected = 0.0
        for j in range(16):
            if j in support:
                continue
            coef = np.linalg.lstsq(xs, x[:, j], rcond=None)[0]
            expected = max(expected, float(np.sum(np.abs(coef))))
        assert erc_constant(d, support) == pytest.approx(expected, rel=1e-9)


def test_erc_rank_deficient_support():
    x = np.zeros((4, 3))
    x[0, 0] = 1.0
    x[:, 1] = 2.0 * x[:, 0]
    x[1, 2] = 1.0
    with pytest.raises(RankDeficientError):
        erc_constant(DesignMatrix(x), (0, 1))


def test_erc_raises_where_the_basis_append_raises():
    # Column 3 is in the span of columns 0 and 1, column 4 is zero, and a
    # repeated index repeats a column: each support fails the rank test of
    # OrthoBasisState.append as it fails erc_constant's.
    rng = np.random.default_rng(13)
    x = rng.normal(size=(6, 5))
    x[:, 3] = x[:, 0] + 2.0 * x[:, 1]
    x[:, 4] = 0.0
    for support in ((0, 0), (0, 1, 3), (4,), (2, 4)):
        with pytest.raises(RankDeficientError):
            erc_constant(DesignMatrix(x), support)
        state = OrthoBasisState(6)
        with pytest.raises(RankDeficientError):
            for j in sorted(support):
                state.append(x, j)
    for support in ((-1,), (5,), (0, 5)):
        with pytest.raises(DomainError, match=r"support indices must be integers in \[0, 5\)"):
            erc_constant(DesignMatrix(x), support)

def test_erc_support_larger_than_n_is_rank_deficient():
    # Five columns in dimension 4 are dependent, however well conditioned
    # each four of them are.
    d = make_identity_hadamard(4)
    assert erc_constant(d, (0, 1, 2, 3)) > 0.0
    with pytest.raises(RankDeficientError):
        erc_constant(d, (0, 1, 2, 3, 4))


def test_epsilon_bounds_closed_forms():
    b = epsilon_bounds(
        delta_k0=0.0,
        delta_k0p1=0.0,
        beta_min=1.0,
        beta_max=1.0,
        n=32,
        p=64,
        k_max=16,
        alpha=0.1,
        sigma=1.0,
        k0=1,
    )
    assert b.eps_omp == pytest.approx(0.5, rel=1e-12)
    assert b.eps_sigma == pytest.approx(7.2843771718571296622, rel=1e-12)
    gammas = build_threshold_table(32, 64, 16, 0.1)
    g1, gmin = float(gammas[0]), float(np.min(gammas))
    assert b.eps_rrt == pytest.approx(g1 / (1.0 + g1), rel=1e-12)
    assert b.eps_rrt_tilde == pytest.approx(gmin / (1.0 + gmin), rel=1e-12)
    assert b.eps_rrt_tilde <= b.eps_rrt


def test_epsilon_rrm_dynamic_range_dependence():
    common = dict(delta_k0=0.0, delta_k0p1=0.0, n=32, p=64, k_max=16, alpha=0.1, sigma=0.1, k0=3)
    flat = epsilon_bounds(beta_min=1.0, beta_max=1.0, **common)
    spread = epsilon_bounds(beta_min=1.0, beta_max=9.0, **common)
    assert flat.eps_rrm == pytest.approx(0.25, rel=1e-12)  # 1 / (1 + (2 + 1))
    assert spread.eps_rrm == pytest.approx(1.0 / 12.0, rel=1e-12)  # 1 / (1 + (2 + 9))
    assert spread.eps_rrm < flat.eps_rrm


def test_epsilon_omp_no_guarantee_region():
    b = epsilon_bounds(
        delta_k0=0.4,
        delta_k0p1=0.6,  # >= 1/sqrt(k0+1) = 0.5 for k0 = 3
        beta_min=1.0,
        beta_max=1.0,
        n=32,
        p=64,
        k_max=16,
        alpha=0.1,
        sigma=0.1,
        k0=3,
    )
    assert b.eps_omp == 0.0
    assert b.eps_rrt > 0.0


def test_epsilon_bounds_domain_errors():
    good = dict(
        delta_k0=0.1, delta_k0p1=0.1, beta_min=1.0, beta_max=2.0,
        n=32, p=64, k_max=16, alpha=0.1, sigma=0.1, k0=3,
    )
    for name in ("delta_k0", "delta_k0p1"):
        for bad in (-0.1, math.nan, -math.inf, True):
            with pytest.raises(DomainError, match=f"{name} must be nonnegative"):
                epsilon_bounds(**{**good, name: bad})
    # A RIC value past its condition is no domain error: the margins that
    # read it are 0, and so they are for inf, a RIC with no known bound.
    base = epsilon_bounds(**good)
    for delta in (1.2, math.inf):
        assert epsilon_bounds(**{**good, "delta_k0p1": delta}) == dataclasses.replace(base, eps_omp=0.0)
        void = dataclasses.replace(base, eps_rrt=0.0, eps_rrt_tilde=0.0, eps_rrm=0.0)
        assert epsilon_bounds(**{**good, "delta_k0": delta}) == void
    with pytest.raises(DomainError):
        epsilon_bounds(**{**good, "beta_max": 0.5})
    for k0 in (0, 20):  # checked first: diagnose's proxy for delta_0 is negative
        with pytest.raises(DomainError, match=f"k0={k0} must lie in"):
            epsilon_bounds(**{**good, "k0": k0, "delta_k0": -1.0})
    for name, bad in (("k0", 3.0), ("k0", True), ("k_max", 16.0), ("n", 32.0), ("p", 64.0)):
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            epsilon_bounds(**{**good, name: bad})
    for name in ("sigma", "beta_min", "beta_max"):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match=f"{name} must be finite"):
                epsilon_bounds(**{**good, name: bad})


_RIC = st.one_of(st.floats(0.0, 3.0), st.just(math.inf))


@settings(max_examples=300, deadline=None)
@given(k0=st.integers(1, 16), deltas_k0=st.lists(_RIC, min_size=2, max_size=2), deltas_k0p1=st.lists(_RIC, min_size=2, max_size=2))
def test_each_margin_is_nonincreasing_in_its_ric_value_and_0_where_its_condition_fails(k0, deltas_k0, deltas_k0p1):
    # A larger RIC value never gives a larger margin, so an upper bound on the
    # RIC gives a margin no larger than the exact RIC's.
    (low_k0, high_k0), (low_k0p1, high_k0p1) = sorted(deltas_k0), sorted(deltas_k0p1)
    low = dataclasses.asdict(epsilon_bounds(low_k0, low_k0p1, 1.0, 2.0, 32, 64, 16, 0.1, 0.1, k0))
    high = dataclasses.asdict(epsilon_bounds(high_k0, high_k0p1, 1.0, 2.0, 32, 64, 16, 0.1, 0.1, k0))
    for key in ("eps_omp", "eps_rrt", "eps_rrt_tilde", "eps_rrm"):
        assert high[key] <= low[key] * (1.0 + 1e-12), key  # eps_omp's quotient may round up an ulp
    for delta_k0, delta_k0p1, bounds in ((low_k0, low_k0p1, low), (high_k0, high_k0p1, high)):
        assert (bounds["eps_omp"] > 0.0) == (math.sqrt(k0 + 1.0) * delta_k0p1 < 1.0)
        for key in ("eps_rrt", "eps_rrt_tilde", "eps_rrm"):
            assert (bounds[key] > 0.0) == (delta_k0 < 1.0), key


# Recovery certificates checked on real paths. On [I, H/4] (16 x 32, mu = 1/4)
# the OMP, RRT and RRM margins are all positive at k0 = 1 and 2. The two
# normalized Gaussian designs have delta_3 >= 1, so eps_omp is 0 at k0 = 2,
# which makes every implication vacuous there; at k0 = 1 it is 0 on seed 0
# (delta_2 = 0.75 > 1/sqrt 2) and positive on seed 2 (delta_2 = 0.67).
_CERTIFIED = {"hadamard": (1, 2), "gaussian seed 0": (1, 2), "gaussian seed 2": (1, 2)}


@functools.cache
def _certified_design(name: str):
    return make_identity_hadamard(16) if name == "hadamard" else make_gaussian(16, 32, int(name[-1]), normalize=True)


@functools.cache
def _certificate(name: str, k0: int, alpha: float):
    """The design's margins at k0 for +-1 signals (beta_min = beta_max = 1),
    from its brute-force RIC values of order k0 and k0 + 1."""
    design = _certified_design(name)
    delta_k0, delta_k0p1 = (ric_bruteforce(design, order) for order in (k0, k0 + 1))
    return epsilon_bounds(delta_k0, delta_k0p1, 1.0, 1.0, design.n, design.p, default_kmax(design.n), alpha, 1.0, k0)


def test_the_certified_designs_ric_is_the_per_subset_loop_bit_for_bit():
    for name in _CERTIFIED:
        design = _certified_design(name)
        for order in (1, 2, 3):
            assert ric_bruteforce(design, order) == _ric_loop(design, order)


def test_the_certified_designs_have_the_margins_the_certificate_test_reads():
    for k0 in (1, 2):
        bounds = _certificate("hadamard", k0, 0.1)
        assert min(bounds.eps_omp, bounds.eps_rrm, bounds.eps_rrt) > 0.0
    assert _certificate("gaussian seed 0", 1, 0.1).eps_omp == 0.0
    assert _certificate("gaussian seed 2", 1, 0.1).eps_omp > 0.0
    for name in ("gaussian seed 0", "gaussian seed 2"):
        assert ric_bruteforce(_certified_design(name), 3) >= 1.0
        bounds = _certificate(name, 2, 0.1)  # delta_3 voids OMP's margin alone
        assert bounds.eps_omp == 0.0 and min(bounds.eps_rrm, bounds.eps_rrt) > 0.0


def _noisy_signal(design, k0: int, direction: str, seed: int):
    """(support, X beta, noise direction w) for a random k0-support with +-1
    values: w random; s_j x_j - s_i x_i, towards the wrong column j most
    correlated with X beta and away from the true column i least correlated
    with it; or random and orthogonal to span(X_S)."""
    x = design.matrix
    rng = np.random.default_rng(seed)
    support = sorted(rng.choice(design.p, k0, replace=False).tolist())
    beta = np.zeros(design.p)
    beta[support] = rng.choice([-1.0, 1.0], k0)
    signal = x @ beta
    if direction == "towards a wrong column":
        corr = x.T @ signal
        wrong = max(set(range(design.p)) - set(support), key=lambda j: abs(corr[j]))
        true = min(support, key=lambda i: abs(corr[i]))
        towards, away = (math.copysign(1.0, v) for v in (corr[wrong], beta[true]))
        return support, signal, towards * x[:, wrong] - away * x[:, true]
    w = rng.normal(size=design.n)
    if direction == "orthogonal to the support":
        q, _ = np.linalg.qr(x[:, support])
        w -= q @ (q.T @ w)
    return support, signal, w


@settings(max_examples=400, deadline=None)
@given(
    name_k0=st.sampled_from([(name, k0) for name, orders in _CERTIFIED.items() for k0 in orders]),
    alpha=st.sampled_from([0.1, 1e-4, 1e-8]),  # eps_rrt < eps_omp on [I, H/4] at 1e-8, and at 1e-4 for k0 = 1
    target=st.sampled_from(["omp", "rrm", "rrt"]),
    direction=st.sampled_from(["random", "towards a wrong column", "orthogonal to the support"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_noise_below_a_certified_margin_gives_the_certified_recovery(name_k0, alpha, target, direction, seed):
    # Noise at 0.999 of a margin, in each direction of _noisy_signal: towards
    # a wrong column is the worst case of OMP's certificate, orthogonal to
    # the support makes RR(k0) largest for RRM's and RRT's. A margin of 0
    # (gaussian seed 0) makes its implications vacuous.
    name, k0 = name_k0
    design, bounds = _certified_design(name), _certificate(name, k0, alpha)
    eps = {
        "omp": bounds.eps_omp,
        "rrm": min(bounds.eps_omp, bounds.eps_rrm),
        "rrt": min(bounds.eps_omp, bounds.eps_rrt),
    }
    support, signal, w = _noisy_signal(design, k0, direction, seed)
    w *= 0.999 * eps[target] / np.linalg.norm(w)
    path = solution_path(design, signal + w, default_kmax(design.n))
    ratios = residual_ratios(path)
    noise = float(np.linalg.norm(w))
    if noise < eps["omp"]:
        assert path.support_at(k0) == set(support)
    if noise < eps["rrt"]:
        k = rrt_select(ratios, alpha)
        assert k is not None and k >= k0
    if noise < eps["rrm"]:
        # RRM stops no earlier than k0 in every direction, and at k0 except
        # towards a wrong column, where the margin certifies no exact stop
        # (test_rrm_margin_is_no_certificate_of_an_exact_stop).
        assert rrm_select(ratios) >= k0
        if direction != "towards a wrong column":
            assert rrm_select(ratios) == k0


@pytest.mark.parametrize("name, k0", [("hadamard", 1), ("hadamard", 2), ("gaussian seed 2", 1)])
def test_rrm_margin_is_no_certificate_of_an_exact_stop(name, k0):
    # Noise in span(X_S, x_j) is fit exactly at step k0 + 1 once OMP takes x_j
    # there, so RR(k0 + 1) is 0 and RRM stops at k0 + 1, at any noise norm
    # below min(eps_omp, eps_rrm), however small. Recorded, formula unchanged.
    design, bounds = _certified_design(name), _certificate(name, k0, 0.1)
    eps = min(bounds.eps_omp, bounds.eps_rrm)
    support, signal, w = _noisy_signal(design, k0, "towards a wrong column", 0)
    for scale in (0.999, 1e-6):
        path = solution_path(design, signal + w * (scale * eps / np.linalg.norm(w)), default_kmax(design.n))
        assert path.support_at(k0) == set(support)
        ratios = residual_ratios(path)
        assert ratios.values[k0] < 1e-6 and rrm_select(ratios) == k0 + 1  # 0 up to rounding


def test_eps_sigma_bounds_the_gaussian_noise_norm_with_probability_one_less_1_over_n():
    # ||w||^2 / sigma^2 is chi^2_n, whose CDF at x is P(n/2, x/2): at
    # (eps_sigma / sigma)^2 it must reach 1 - 1/n, read exactly in mpmath.
    short = []
    with mpmath.workdps(40):
        for n in (*range(2, 201), 500, 1000, 2000, 5000, 10**4):
            eps = epsilon_bounds(0.0, 0.0, 1.0, 1.0, n, 1, 1, 0.1, 1.0, 1).eps_sigma
            cdf = mpmath.gammainc(mpmath.mpf(n) / 2, 0, mpmath.mpf(eps) ** 2 / 2, regularized=True)
            if cdf < 1 - mpmath.mpf(1) / n:
                short.append((n, cdf))
    assert short == []


def test_eps_sigma_is_the_rpsc_level_and_0_at_sigma_0():
    for n in (2, 3, 5, 16, 32, 100, 1000, 10**6):
        assert epsilon_bounds(0.0, 0.0, 1.0, 1.0, n, 1, 1, 0.1, 0.0, 1).eps_sigma == 0.0
        for sigma in (1e-300, 0.05, 0.3, 1.0, 7.5, 1e200):
            eps = epsilon_bounds(0.0, 0.0, 1.0, 1.0, n, 1, 1, 0.1, sigma, 1).eps_sigma
            assert eps == rpsc_threshold(sigma, n)


def test_rrt_error_lower_bound_values():
    assert rrt_error_lower_bound(0.1, 16, 64, 3) == pytest.approx(RRT_LB_01_16_64_3, rel=1e-12)
    assert rrt_error_lower_bound(0.9, 8, 32, 3) == pytest.approx(RRT_LB_09_8_32_3, rel=1e-12)
    assert rrt_error_lower_bound(1e-12, 16, 64, 3) < 2e-15  # vanishes with alpha
    with pytest.raises(DomainError):
        rrt_error_lower_bound(0.1, 16, 3, 3)
    with pytest.raises(DomainError):
        rrt_error_lower_bound(0.0, 16, 64, 3)


@pytest.mark.parametrize(
    "args, name",
    [
        ((0.1, 16.5, 64, 3), "k_max"),  # read 9.9e-05
        ((0.1, True, 64, 3), "k_max"),
        ((0.1, 16, 64.0, 3), "p"),
        ((0.1, 16, True, 0), "p"),
        ((0.1, 16, 64, 3.0), "k0"),
        ((0.1, 16, 64, False), "k0"),
    ],
)
def test_rrt_error_lower_bound_sizes_must_be_ints_not_bools(args, name):
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        rrt_error_lower_bound(*args)


def test_rrt_error_lower_bound_past_the_double_range():
    # The denominator k_max (p - k0) may be no double: the bound is the exact
    # quotient, rounded once, and 0 only where that lies below the doubles.
    assert rrt_error_lower_bound(0.1, 2, 10**300, 1) == 5e-302
    assert rrt_error_lower_bound(0.5, 1, 2**1024 + 1, 1) == 2.0**-1025
    assert rrt_error_lower_bound(0.1, 2, 10**400, 1) == 0.0

