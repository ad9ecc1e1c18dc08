import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrselect.designs import DesignMatrix, make_gaussian, make_identity_hadamard, sylvester_hadamard
from rrselect.errors import DomainError, ValidationError
from rrselect.omp import (
    RULES,
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
    with pytest.raises(DomainError):
        default_kmax(1)


@pytest.mark.parametrize("n", [32.0, True])
def test_default_kmax_needs_an_int_n(n):
    # 32.0 read the float 16.0.
    with pytest.raises(DomainError, match="n must be an integer"):
        default_kmax(n)


@pytest.mark.parametrize("k_max", [2.0, True])
def test_solution_path_needs_an_int_k_max(k_max):
    # numpy raised a bare TypeError for both.
    design = DesignMatrix(np.eye(4))
    with pytest.raises(ValidationError, match="k_max must be an integer"):
        solution_path(design, np.ones(4), k_max)


def test_identity_design_trivial_path():
    design = DesignMatrix(np.eye(4))
    y = np.zeros(4)
    y[1] = 2.0
    path = solution_path(design, y, 2, "omp")
    assert path.selected[0] == 1
    assert np.allclose(path.residual_norms, [2.0, 0.0, 0.0])
    assert path.K == 2 and path.status == "complete"
    assert path.selected[1] != 1


def test_orthonormal_design_selects_by_coefficient_magnitude():
    design = DesignMatrix(np.eye(4))
    y = 3.0 * np.eye(4)[:, 2] + 1.0 * np.eye(4)[:, 0]
    path = solution_path(design, y, 2, "omp")
    assert path.selected == (2, 0)
    assert path.residual_norms[2] == pytest.approx(0.0, abs=1e-12)


def test_path_matches_naive_reference():
    rng = np.random.default_rng(17)
    for trial in range(10):
        x = rng.normal(size=(8, 16)) / math.sqrt(8)
        y = rng.normal(size=8)
        design = DesignMatrix(x)
        for rule in ("omp", "ols"):
            path = solution_path(design, y, 6, rule)
            sel, norms = naive_greedy_path(x, y, 6, rule)
            assert list(path.selected) == sel
            assert np.allclose(path.residual_norms, norms, rtol=1e-9, atol=1e-12)


def test_residual_orthogonal_to_selected_columns():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(16, 32))
    design = DesignMatrix(x)
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
    eye = DesignMatrix(np.eye(8))
    h = sylvester_hadamard(8) / math.sqrt(8)
    had = DesignMatrix(h)
    for design in (eye, had):
        a = solution_path(design, y, 4, "omp")
        b = solution_path(design, y, 4, "ols")
        assert a.selected == b.selected
        assert np.allclose(a.residual_norms, b.residual_norms, rtol=1e-12)


def test_ols_prefers_energy_reduction_on_unnormalized_columns():
    # column 1 has bigger correlation, column 0 bigger normalized decrease
    x = np.array([[1.0, 3.0], [0.0, 3.0]])
    y = np.array([1.0, 0.1])
    design = DesignMatrix(x)
    omp_path = solution_path(design, y, 1, "omp")
    ols_path = solution_path(design, y, 1, "ols")
    assert omp_path.selected == (1,)
    assert ols_path.selected == (0,)


def test_rank_deficient_path_terminates_early():
    x = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    design = DesignMatrix(x)
    y = np.array([1.0, 0.0, 0.0])
    path = solution_path(design, y, 2, "omp")
    # after column 0 the residual is zero; the smallest-index tie goes to the
    # duplicate column 1, which is rank deficient -> early stop
    assert path.selected == (0,)
    assert path.K == 1
    assert path.status == "rank_deficient"
    # The path keeps the configured k_max, not the steps it took.
    assert (path.n, path.p, path.k_max) == (3, 3, 2)

    ols_path = solution_path(design, y, 2, "ols")
    # ols masks dependent candidates and can still append column 2
    assert ols_path.selected == (0, 2)
    assert ols_path.status == "complete"


def test_solution_path_validation():
    design = DesignMatrix(np.eye(4))
    with pytest.raises(ValidationError, match=r"^y has shape \(5,\), expected \(4,\)$"):
        solution_path(design, np.ones(5), 2)
    with pytest.raises(ValidationError):
        solution_path(design, np.ones(4), 0)
    with pytest.raises(ValidationError):
        solution_path(design, np.ones(4), 4)  # k_max must stay below n
    with pytest.raises(ValidationError):
        solution_path(design, np.ones(4), 2, rule="lars")


def test_residual_norms_nonincreasing_and_corr_recorded():
    rng = np.random.default_rng(41)
    design = DesignMatrix(rng.normal(size=(16, 32)))
    y = rng.normal(size=16)
    path = solution_path(design, y, 8)
    assert np.all(np.diff(path.residual_norms) <= 0.0)
    assert len(path.residual_corr_inf) == path.K + 1
    x = design.matrix
    assert path.residual_corr_inf[0] == pytest.approx(np.max(np.abs(x.T @ y)), rel=1e-12)


def test_stop_fixed():
    design = DesignMatrix(np.eye(12))
    y = np.arange(12.0) + 1.0
    path = solution_path(design, y, 4)
    assert stop_fixed(path, 0) == SupportEstimate(0, "ok")
    assert stop_fixed(path, 2) == SupportEstimate(2, "ok")
    assert path.support_at(2) == frozenset(path.selected[:2])
    # past the path's end: the whole path, marked exhausted
    assert stop_fixed(path, 5) == SupportEstimate(4, "exhausted")
    with pytest.raises(DomainError):
        stop_fixed(path, -1)


@pytest.mark.parametrize(
    "call",
    [
        lambda path: stop_fixed(path, 3.0),
        lambda path: stop_fixed(path, True),
        lambda path: stop_fixed(path, 20.0),  # past the path's end
        lambda path: path.estimate(2.0),
        lambda path: path.support_at(True),
        lambda path: path.support_at(2.0),
    ],
    ids=["stop_fixed-float", "stop_fixed-bool", "stop_fixed-past-end", "estimate-float", "support_at-bool",
         "support_at-float"],
)
def test_model_order_must_be_an_int(call):
    design = make_identity_hadamard(32)
    path = solution_path(design, design.matrix[:, [2, 20, 39]] @ [1.0, -1.0, 1.0], 16)
    with pytest.raises(DomainError, match="must be an integer"):
        call(path)


def test_stop_fixed_recovers_first_selections():
    path = solution_path(DesignMatrix(np.eye(12)), np.eye(12)[:, 5] * 3.0, 3)
    assert path.support_at(stop_fixed(path, 1).k_selected) == {5}


def test_rpsc_threshold_values():
    assert rpsc_threshold(1.0, 32) == pytest.approx(TAU_RPSC_N32_SIGMA1, rel=1e-12)
    assert rpsc_threshold(2.0, 32) == pytest.approx(2.0 * TAU_RPSC_N32_SIGMA1, rel=1e-12)
    assert rpsc_threshold(0.01, 32, eta=0.1) == pytest.approx(
        0.01 * ETA_SCALE_001_01 * TAU_RPSC_N32_SIGMA1, rel=1e-12
    )


@pytest.mark.parametrize(
    "sigma, eta",
    [(0.0, None), (-1.0, None), (math.nan, None), (math.inf, None), (1.0, math.nan), (1.0, math.inf), (0.5, -math.inf)],
)
def test_sigma_rules_need_a_finite_positive_sigma_and_a_finite_eta(sigma, eta):
    path = solution_path(make_identity_hadamard(8), np.arange(8.0), 4)
    for threshold, stop, size in ((rpsc_threshold, stop_rpsc, 8), (rcsc_threshold, stop_rcsc, 16)):
        with pytest.raises(DomainError):
            threshold(sigma, size, eta)
        with pytest.raises(DomainError):
            stop(path, sigma, eta)


def test_rcsc_threshold_values():
    assert rcsc_threshold(1.0, 64) == pytest.approx(TAU_RCSC_P64_SIGMA1, rel=1e-12)
    assert rcsc_threshold(0.01, 64, eta=0.1) == pytest.approx(
        0.01 * ETA_SCALE_001_01 * TAU_RCSC_P64_SIGMA1, rel=1e-12
    )


def _nearest_double(sigma, c, eta):
    """The double nearest exp((1-eta) ln sigma + ln c), from 60-digit arithmetic."""
    mpmath.mp.dps = 60
    level = mpmath.exp((1 - mpmath.mpf(eta)) * mpmath.log(mpmath.mpf(sigma)) + mpmath.log(mpmath.mpf(c)))
    return float(mpmath.nstr(level, 40))  # str -> float rounds once, subnormals included


@pytest.mark.parametrize("threshold, size", [(rpsc_threshold, 32), (rcsc_threshold, 64)])
@pytest.mark.parametrize(
    "sigma, eta",
    [
        (1e-300, 2.0),  # sigma^-eta overflows, the level is about 1e300
        (1e300, 2.0),  # sigma^-eta underflows to 0, the level is about 1e-300
        (1e-300, -2.0),  # level far below the doubles: 0
        (1e300, -2.0),  # level far above the doubles: inf
        (1e308, 0.5),  # sigma * c overflows, the level is about 1e154
        (1e300, 2.075),  # level subnormal
        (5e-324, 1.5),  # smallest sigma
        (1e-200, 2.5),
        (1e200, 2.5),
    ],
)
def test_hsc_levels_outside_the_double_range_of_sigma_to_the_eta(threshold, size, sigma, eta):
    c = threshold(1.0, size)
    assert threshold(sigma, size, eta) == _nearest_double(sigma, c, eta)


@pytest.mark.parametrize("sigma", [1e-150, 1e-8, 0.01, 1.0, 3.7, 1e8, 1e150])
@pytest.mark.parametrize("eta", [-1.5, 0.1, 2.0])
def test_hsc_levels_inside_the_double_range_keep_the_plain_product(sigma, eta):
    for threshold, size in ((rpsc_threshold, 32), (rcsc_threshold, 64)):
        tau = sigma * threshold(1.0, size)
        assert threshold(sigma, size, eta) == tau * sigma ** (-eta)
        exact = _nearest_double(sigma, threshold(1.0, size), eta)
        assert threshold(sigma, size, eta) == pytest.approx(exact, rel=1e-13)


def test_hsc_level_of_a_zero_constant_is_zero():
    # rcsc at p = 1: sqrt(2 ln 1) = 0, at any scale of sigma
    assert rcsc_threshold(1e-300, 1, eta=2.0) == 0.0
    assert rcsc_threshold(1e300, 1, eta=2.0) == 0.0


@pytest.mark.parametrize("threshold, name", [(rpsc_threshold, "n"), (rcsc_threshold, "p")])
@pytest.mark.parametrize(
    "size, message",
    [(0, "must be >= 1"), (-3, "must be >= 1"), (1.5, "must be an integer"), (True, "must be an integer")],
)
def test_sigma_rule_levels_require_a_size_of_at_least_one(threshold, name, size, message):
    with pytest.raises(DomainError, match=f"^{name} {message}"):
        threshold(0.1, size)


def test_stop_rules_scan_semantics():
    design = make_identity_hadamard(32)
    rng = np.random.default_rng(5)
    y = design.matrix @ (np.eye(64)[:, 7] * 4.0) + rng.normal(0, 1e-9, 32)
    path = solution_path(design, y, 16)

    huge = stop_rpsc(path, sigma=1e6)
    assert huge == SupportEstimate(0, "ok")

    tiny = stop_rpsc(path, sigma=1e-30)
    assert tiny == SupportEstimate(path.K, "exhausted")

    # noiseless-style path: first k with zero residual is k0 = 1
    exact = solution_path(design, design.matrix @ (np.eye(64)[:, 7] * 4.0), 16)
    small_sigma = stop_rpsc(exact, sigma=1e-200)
    assert small_sigma.k_selected == 1 and exact.support_at(1) == {7}

    huge_c = stop_rcsc(path, sigma=1e6)
    assert huge_c.k_selected == 0


def test_stop_scan_returns_minimal_k():
    rng = np.random.default_rng(53)
    design = make_identity_hadamard(16)
    y = rng.normal(size=16)
    path = solution_path(design, y, 8)
    for sigma in (0.05, 0.2, 1.0):
        est = stop_rpsc(path, sigma)
        tau = rpsc_threshold(sigma, 16)
        qualifying = [k for k in range(path.K + 1) if path.residual_norms[k] <= tau]
        if est.status == "ok":
            assert est.k_selected == qualifying[0]
        else:
            assert not qualifying

        est_c = stop_rcsc(path, sigma)
        tau_c = rcsc_threshold(sigma, 32)
        qual_c = [k for k in range(path.K + 1) if path.residual_corr_inf[k] <= tau_c]
        if est_c.status == "ok":
            assert est_c.k_selected == qual_c[0]
        else:
            assert not qual_c


def test_estimate_accessors():
    design = DesignMatrix(np.eye(6))
    path = solution_path(design, np.arange(6.0), 3)
    assert path.estimate(None) == SupportEstimate(0, "empty_selection")
    assert path.estimate(3) == SupportEstimate(3, "ok")
    for k in (-1, 4):
        with pytest.raises(DomainError):
            path.estimate(k)
    with pytest.raises(DomainError):
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
    x = design.matrix
    rng = np.random.default_rng(seed + 1)
    perm = rng.permutation(x.shape[1])
    y = rng.normal(size=n)
    k_max = min(n - 1, x.shape[1])
    base = solution_path(design, y, k_max, rule)
    permuted = solution_path(DesignMatrix(x[:, perm]), y, k_max, rule)
    inverse = np.argsort(perm)
    assert permuted.selected == tuple(int(inverse[t]) for t in base.selected)
    assert np.array_equal(permuted.residual_norms, base.residual_norms)
    assert np.allclose(permuted.residual_corr_inf, base.residual_corr_inf, rtol=1e-12, atol=0.0)
    assert permuted.status == base.status


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 12),
    bases=st.integers(1, 6),
    copies=st.lists(st.tuples(st.integers(0, 5), st.sampled_from([1.0, -1.0, 2.0, -0.5, 3.0])), max_size=6),
    dense=st.integers(0, 6),
    in_span=st.integers(0, 3),
    rule=st.sampled_from(RULES),
)
def test_greedy_step_matches_the_naive_path_on_repeated_columns(seed, n, bases, copies, dense, in_span, rule):
    # Columns are copies, scaled or exact, of `bases` independent base
    # columns, in a random order: `dense` of them Gaussian on the first
    # coordinates, the others unit vectors on the rest, so that projections
    # onto unit vectors are exact and a residual in the dense block has no
    # correlation with them at all. y is Gaussian or, for in_span > 0, a
    # combination of that many columns. While a step still explains part of
    # y, the pick is from the naive path's class of parallel columns and the
    # norms agree. After that the residual is rounding noise or orthogonal
    # to every column: OMP then meets taken columns at the top and masks
    # them, OLS runs out of admissible columns, and neither may take a
    # second column of a class, nor stop while an independent one is left.
    rng = np.random.default_rng(seed)
    bases = min(bases, n)
    dense = min(dense, bases)
    base = np.zeros((n, bases))
    base[:dense, :dense] = rng.normal(size=(dense, dense))
    base[dense:, dense:] = np.eye(n - dense)[:, : bases - dense]
    cls = list(range(bases)) + [b % bases for b, _ in copies]
    x = np.hstack([base] + [scale * base[:, b % bases : b % bases + 1] for b, scale in copies])
    order = rng.permutation(len(cls))
    x, cls = x[:, order], [cls[j] for j in order]
    p = len(cls)
    if in_span:
        picks = rng.permutation(p)[: min(in_span, p)]
        y = x[:, picks] @ rng.normal(size=len(picks))
    else:
        y = rng.normal(size=n)
    k_max = min(n - 1, p)
    path = solution_path(DesignMatrix(x), y, k_max, rule)
    selected, norms = naive_greedy_path(x, y, k_max, rule)
    explaining = 0
    while explaining < k_max and norms[explaining] - norms[explaining + 1] > 1e-6 * norms[0]:
        explaining += 1
    assert path.K >= explaining
    for k in range(explaining):
        assert cls[path.selected[k]] == cls[selected[k]], k
        assert path.residual_norms[k + 1] == pytest.approx(norms[k + 1], rel=1e-9, abs=1e-12 * norms[0])
    assert len({cls[t] for t in path.selected}) == path.K
    assert (path.status == "rank_deficient") == (path.K < k_max)
    if bases < k_max:
        assert path.status == "rank_deficient"
    if not copies:  # independent columns: there is always one more to take
        assert path.status == "complete"
