import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrselect.designs import DesignMatrix, make_gaussian, make_identity_hadamard, sylvester_hadamard
from rrselect.errors import DimensionMismatchError, ValidationError
from rrselect.linalg import DenseMatrix
from rrselect.omp import (
    SupportEstimate,
    default_kmax,
    rcsc_threshold,
    rpsc_threshold,
    solution_path,
    stop_fixed,
    stop_rcsc,
    stop_rpsc,
)

TAU_RPSC_N32_SIGMA1 = 7.2843771718571296622  # sqrt(32 + 2 sqrt(32 ln 32))
TAU_RCSC_P64_SIGMA1 = 2.8840537732017660341  # sqrt(2 ln 64)
ETA_SCALE_001_01 = 1.5848931924611134852  # 0.01 ** -0.1


def _wrap(array, unit=False):
    return DesignMatrix(DenseMatrix(array), "external", unit)


def naive_greedy_path(x, y, k_max, rule="omp"):
    """Reference implementation recomputing least squares from scratch."""
    n, p = x.shape
    selected = []
    norms = [float(np.linalg.norm(y))]
    r = y.copy()
    for _ in range(k_max):
        if rule == "omp":
            scores = np.abs(x.T @ r)
            scores[selected] = -1.0
        else:
            scores = np.full(p, -1.0)
            for j in range(p):
                if j in selected:
                    continue
                cols = x[:, selected + [j]]
                rj = y - cols @ np.linalg.lstsq(cols, y, rcond=None)[0]
                scores[j] = norms[-1] ** 2 - float(rj @ rj)
        t = int(np.argmax(scores))
        selected.append(t)
        cols = x[:, selected]
        r = y - cols @ np.linalg.lstsq(cols, y, rcond=None)[0]
        norms.append(float(np.linalg.norm(r)))
    return selected, norms


def test_default_kmax():
    assert default_kmax(32) == 16
    assert default_kmax(2) == 1
    assert default_kmax(33) == 17
    with pytest.raises(ValueError):
        default_kmax(1)


def test_identity_design_trivial_path():
    design = _wrap(np.eye(4), unit=True)
    y = np.zeros(4)
    y[1] = 2.0
    path = solution_path(design, y, 2, "omp")
    assert path.selected[0] == 1
    assert np.allclose(path.residual_norms, [2.0, 0.0, 0.0])
    assert path.K == 2 and path.status == "complete"
    assert path.selected[1] != 1


def test_orthonormal_design_selects_by_coefficient_magnitude():
    design = _wrap(np.eye(4), unit=True)
    y = 3.0 * np.eye(4)[:, 2] + 1.0 * np.eye(4)[:, 0]
    path = solution_path(design, y, 2, "omp")
    assert path.selected == (2, 0)
    assert path.residual_norms[2] == pytest.approx(0.0, abs=1e-12)


def test_path_matches_naive_reference():
    rng = np.random.default_rng(17)
    for trial in range(10):
        x = rng.normal(size=(8, 16)) / math.sqrt(8)
        y = rng.normal(size=8)
        design = _wrap(x)
        for rule in ("omp", "ols"):
            path = solution_path(design, y, 6, rule)
            sel, norms = naive_greedy_path(x, y, 6, rule)
            assert list(path.selected) == sel
            assert np.allclose(path.residual_norms, norms, rtol=1e-9, atol=1e-12)


def test_residual_orthogonal_to_selected_columns():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(16, 32))
    design = _wrap(x)
    y = rng.normal(size=16)
    path = solution_path(design, y, 8, "omp")
    # reconstruct residual at each k and check orthogonality
    for k in range(1, path.K + 1):
        cols = x[:, list(path.selected[:k])]
        r = y - cols @ np.linalg.lstsq(cols, y, rcond=None)[0]
        corr = np.abs(cols.T @ r)
        bound = 1e-9 * np.linalg.norm(cols, axis=0) * np.linalg.norm(y)
        assert np.all(corr <= bound)


def test_omp_equals_ols_on_orthonormal_designs():
    rng = np.random.default_rng(31)
    y = rng.normal(size=8)
    eye = _wrap(np.eye(8), unit=True)
    h = sylvester_hadamard(8) / math.sqrt(8)
    had = _wrap(h, unit=True)
    for design in (eye, had):
        a = solution_path(design, y, 4, "omp")
        b = solution_path(design, y, 4, "ols")
        assert a.selected == b.selected
        assert np.allclose(a.residual_norms, b.residual_norms, rtol=1e-12)


def test_ols_prefers_energy_reduction_on_unnormalized_columns():
    # column 1 has bigger correlation, column 0 bigger normalized decrease
    x = np.array([[1.0, 3.0], [0.0, 3.0]])
    y = np.array([1.0, 0.1])
    design = _wrap(x)
    omp_path = solution_path(design, y, 1, "omp")
    ols_path = solution_path(design, y, 1, "ols")
    assert omp_path.selected == (1,)
    assert ols_path.selected == (0,)


def test_rank_deficient_path_terminates_early():
    x = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    design = _wrap(x)
    y = np.array([1.0, 0.0, 0.0])
    path = solution_path(design, y, 2, "omp")
    # after column 0 the residual is zero; the smallest-index tie goes to the
    # duplicate column 1, which is rank deficient -> early stop
    assert path.selected == (0,)
    assert path.K == 1
    assert path.status == "rank_deficient"

    ols_path = solution_path(design, y, 2, "ols")
    # ols masks dependent candidates and can still append column 2
    assert ols_path.selected == (0, 2)
    assert ols_path.status == "complete"


def test_solution_path_validation():
    design = _wrap(np.eye(4), unit=True)
    with pytest.raises(DimensionMismatchError):
        solution_path(design, np.ones(5), 2)
    with pytest.raises(ValueError):
        solution_path(design, np.ones(4), 0)
    with pytest.raises(ValueError):
        solution_path(design, np.ones(4), 4)  # k_max must stay below n
    with pytest.raises(ValueError):
        solution_path(design, np.ones(4), 2, rule="lars")


def test_residual_norms_nonincreasing_and_corr_recorded():
    rng = np.random.default_rng(41)
    design = _wrap(rng.normal(size=(16, 32)))
    y = rng.normal(size=16)
    path = solution_path(design, y, 8)
    assert np.all(np.diff(path.residual_norms) <= 0.0)
    assert len(path.residual_corr_inf) == path.K + 1
    x = design.matrix.values
    assert path.residual_corr_inf[0] == pytest.approx(np.max(np.abs(x.T @ y)), rel=1e-12)


def test_stop_fixed():
    design = _wrap(np.eye(12), unit=True)
    y = np.arange(12.0) + 1.0
    path = solution_path(design, y, 4)
    assert stop_fixed(path, 0) == SupportEstimate(0, "ok")
    assert stop_fixed(path, 2) == SupportEstimate(2, "ok")
    assert path.support_at(2) == frozenset(path.selected[:2])
    # past the path's end: the whole path, marked exhausted
    assert stop_fixed(path, 5) == SupportEstimate(4, "exhausted")
    with pytest.raises(ValueError):
        stop_fixed(path, -1)


def test_stop_fixed_recovers_first_selections():
    path = solution_path(_wrap(np.eye(12), unit=True), np.eye(12)[:, 5] * 3.0, 3)
    assert path.support_at(stop_fixed(path, 1).k_selected) == {5}


def test_rpsc_threshold_values():
    assert rpsc_threshold(1.0, 32) == pytest.approx(TAU_RPSC_N32_SIGMA1, rel=1e-12)
    assert rpsc_threshold(2.0, 32) == pytest.approx(2.0 * TAU_RPSC_N32_SIGMA1, rel=1e-12)
    assert rpsc_threshold(0.01, 32, eta=0.1) == pytest.approx(
        0.01 * ETA_SCALE_001_01 * TAU_RPSC_N32_SIGMA1, rel=1e-12
    )
    with pytest.raises(ValueError):
        rpsc_threshold(0.0, 32)


def test_rcsc_threshold_values():
    assert rcsc_threshold(1.0, 64) == pytest.approx(TAU_RCSC_P64_SIGMA1, rel=1e-12)
    assert rcsc_threshold(0.01, 64, eta=0.1) == pytest.approx(
        0.01 * ETA_SCALE_001_01 * TAU_RCSC_P64_SIGMA1, rel=1e-12
    )


def test_stop_rules_scan_semantics():
    design = make_identity_hadamard(32)
    rng = np.random.default_rng(5)
    y = design.matrix.values @ (np.eye(64)[:, 7] * 4.0) + rng.normal(0, 1e-9, 32)
    path = solution_path(design, y, 16)

    huge = stop_rpsc(path, sigma=1e6, n=32)
    assert huge == SupportEstimate(0, "ok")

    tiny = stop_rpsc(path, sigma=1e-30, n=32)
    assert tiny == SupportEstimate(path.K, "exhausted")

    # noiseless-style path: first k with zero residual is k0 = 1
    exact = solution_path(design, design.matrix.values @ (np.eye(64)[:, 7] * 4.0), 16)
    small_sigma = stop_rpsc(exact, sigma=1e-200, n=32)
    assert small_sigma.k_selected == 1 and exact.support_at(1) == {7}

    huge_c = stop_rcsc(path, sigma=1e6, p=64)
    assert huge_c.k_selected == 0


def test_stop_scan_returns_minimal_k():
    rng = np.random.default_rng(53)
    design = make_identity_hadamard(16)
    y = rng.normal(size=16)
    path = solution_path(design, y, 8)
    for sigma in (0.05, 0.2, 1.0):
        est = stop_rpsc(path, sigma, 16)
        tau = rpsc_threshold(sigma, 16)
        qualifying = [k for k in range(path.K + 1) if path.residual_norms[k] <= tau]
        if est.status == "ok":
            assert est.k_selected == qualifying[0]
        else:
            assert not qualifying

        est_c = stop_rcsc(path, sigma, 32)
        tau_c = rcsc_threshold(sigma, 32)
        qual_c = [k for k in range(path.K + 1) if path.residual_corr_inf[k] <= tau_c]
        if est_c.status == "ok":
            assert est_c.k_selected == qual_c[0]
        else:
            assert not qual_c


def test_estimate_accessors():
    design = _wrap(np.eye(6), unit=True)
    path = solution_path(design, np.arange(6.0), 3)
    assert path.estimate(None) == SupportEstimate(0, "empty_selection")
    assert path.estimate(3) == SupportEstimate(3, "ok")
    for k in (-1, 4):
        with pytest.raises(ValueError):
            path.estimate(k)
    with pytest.raises(ValueError):
        path.support_at(-1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("rule", ["omp", "ols"])
def test_solution_path_rejects_non_finite_y(bad, rule):
    design = make_identity_hadamard(8)
    y = np.ones(8)
    y[3] = bad
    with pytest.raises(ValidationError):
        solution_path(design, y, 4, rule)


@pytest.mark.parametrize("rule", ["omp", "ols"])
def test_solution_path_of_zero_y_has_zero_norms(rule):
    path = solution_path(make_identity_hadamard(8), np.zeros(8), 4, rule)
    assert path.K == 4
    assert not path.residual_norms.any() and not path.residual_corr_inf.any()


def test_solution_path_rejects_y_whose_norm_overflows():
    design = make_identity_hadamard(8)
    with pytest.raises(ValidationError, match="overflows"):
        solution_path(design, np.full(8, 1e308), 4)
    # ||y|| = 5e307 sqrt(8) ~ 1.4e308 is still a double
    path = solution_path(design, np.full(8, 5e307), 4)
    assert path.residual_norms[0] == pytest.approx(5e307 * math.sqrt(8), rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(4, 40),
    extra=st.integers(0, 40),
    rule=st.sampled_from(["omp", "ols"]),
    normalize=st.booleans(),
)
def test_path_is_equivariant_under_column_permutation(seed, n, extra, rule, normalize):
    # On a Gaussian design ties have probability 0, so permuting the columns
    # of X maps each selection through the permutation; the selected columns
    # are the same vectors in the same order, so every residual is the same.
    design = make_gaussian(n, n + extra, seed, normalize)
    x = design.matrix.values
    rng = np.random.default_rng(seed + 1)
    perm = rng.permutation(x.shape[1])
    y = rng.normal(size=n)
    k_max = min(n - 1, x.shape[1])
    base = solution_path(design, y, k_max, rule)
    permuted = solution_path(_wrap(x[:, perm]), y, k_max, rule)
    inverse = np.argsort(perm)
    assert permuted.selected == tuple(int(inverse[t]) for t in base.selected)
    assert np.array_equal(permuted.residual_norms, base.residual_norms)
    assert np.allclose(permuted.residual_corr_inf, base.residual_corr_inf, rtol=1e-12, atol=0.0)
    assert permuted.status == base.status
