import math

import numpy as np
import pytest

from rrselect.analysis import (
    build_regularity_report,
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


def test_ric_guard_and_domain():
    d = make_gaussian(8, 64, seed=0)
    with pytest.raises(TooManySubsetsError):
        ric_bruteforce(d, 6)  # C(64,6) > 1e6
    with pytest.raises(DomainError):
        ric_bruteforce(d, 0)


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
        with pytest.raises(IndexError):
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
    with pytest.raises(DomainError):
        epsilon_bounds(**{**good, "delta_k0": -0.1})
    with pytest.raises(DomainError):
        epsilon_bounds(**{**good, "delta_k0p1": 1.2})
    with pytest.raises(DomainError):
        epsilon_bounds(**{**good, "beta_max": 0.5})
    with pytest.raises(DomainError):
        epsilon_bounds(**{**good, "k0": 20})
    for name, bad in (("k0", 3.0), ("k0", True), ("k_max", 16.0), ("n", 32.0), ("p", 64.0)):
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            epsilon_bounds(**{**good, name: bad})
    for name in ("sigma", "beta_min", "beta_max"):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match=f"{name} must be finite"):
                epsilon_bounds(**{**good, name: bad})


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


def test_regularity_report_assembly():
    d = make_identity_hadamard(4)
    report = build_regularity_report(d, support=(0, 5), ric_orders=(1, 2))
    assert report.mu == pytest.approx(0.5)
    assert report.mic_max_k0 == mic_sparsity_limit(report.mu)
    assert report.ric == {1: pytest.approx(0.0, abs=1e-12), 2: pytest.approx(0.5)}
    assert report.erc_constant is not None

    big = make_gaussian(8, 64, seed=1)
    capped = build_regularity_report(big, ric_orders=(1, 6))
    assert 6 not in (capped.ric or {})
    assert "guard" in capped.notes
