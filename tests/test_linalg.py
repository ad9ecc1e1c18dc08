import math

import numpy as np
import pytest

from rrselect.errors import (
    DimensionMismatchError,
    DomainError,
    EmptyBasisError,
    RankDeficientError,
    ValidationError,
)
from rrselect.linalg import OrthoBasisState


def test_basis_needs_an_ambient_dimension():
    with pytest.raises(DomainError):
        OrthoBasisState(0)


def test_append_unit_vector():
    m = np.eye(3)
    state = OrthoBasisState(3)
    state.append(m, 0)
    assert np.array_equal(state.orthonormal_basis[:, 0], [1.0, 0.0, 0.0])
    assert np.array_equal(state.triangular_factor, [[1.0]])


def test_append_orthogonal_columns_gives_identity_r():
    m = np.eye(3)
    state = OrthoBasisState(3)
    state.append(m, 0)
    state.append(m, 1)
    assert np.allclose(state.orthonormal_basis, np.eye(3)[:, :2])
    assert np.allclose(state.triangular_factor, np.eye(2))


def test_append_hand_gram_schmidt_case():
    # Q = [(1,0)], new column (1,1)/sqrt(2): second basis vector is (0,1) and
    # R = [[1, 1/sqrt(2)], [0, 1/sqrt(2)]].
    s = 1.0 / math.sqrt(2.0)
    m = np.array([[1.0, s], [0.0, s]])
    state = OrthoBasisState(2)
    state.append(m, 0)
    state.append(m, 1)
    assert np.allclose(state.orthonormal_basis[:, 1], [0.0, 1.0], atol=1e-14)
    assert np.allclose(state.triangular_factor, [[1.0, s], [0.0, s]], atol=1e-14)


def test_append_rejects_dependent_and_duplicate_columns():
    m = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    state = OrthoBasisState(2)
    state.append(m, 0)
    with pytest.raises(RankDeficientError):
        state.append(m, 1)  # scalar multiple of column 0
    state2 = OrthoBasisState(2)
    state2.append(m, 0)
    with pytest.raises(RankDeficientError):
        state2.append(m, 0)  # same column twice
    with pytest.raises(DomainError):
        state2.append(m, 7)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_append_rejects_a_non_finite_column(bad):
    # The array is taken as given, so the column is checked where it is read.
    m = np.array([[1.0, 0.0], [0.0, bad]])
    state = OrthoBasisState(2)
    state.append(m, 0)
    with pytest.raises(ValidationError, match="column 1 has a non-finite entry"):
        state.append(m, 1)
    assert state.size == 1


def test_project_out_examples():
    state = OrthoBasisState(3)
    y = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(state.project_out(y), y)  # empty basis: projector is 0

    m = np.eye(2)
    state = OrthoBasisState(2)
    state.append(m, 0)
    assert np.allclose(state.project_out(np.array([5.0, 7.0])), [0.0, 7.0])

    s = 1.0 / math.sqrt(2.0)
    diag = np.array([[s], [s]])
    state = OrthoBasisState(2)
    state.append(diag, 0)
    assert np.allclose(state.project_out(np.array([2.0, 0.0])), [1.0, -1.0])


def test_project_out_dimension_check():
    state = OrthoBasisState(3)
    with pytest.raises(DimensionMismatchError):
        state.project_out(np.ones(4))


def test_least_squares_examples():
    m = np.eye(3)
    state = OrthoBasisState(3)
    state.append(m, 1)
    assert np.allclose(state.least_squares_coeffs(np.array([0.0, 4.0, 0.0])), [4.0])

    # orthonormal two-column basis, y in their span with coefficients (3, -1)
    state = OrthoBasisState(3)
    state.append(m, 0)
    state.append(m, 2)
    y = 3.0 * m[:, 0] - 1.0 * m[:, 2]
    assert np.allclose(state.least_squares_coeffs(y), [3.0, -1.0])

    # columns (1,0), (1,1), y = (3,2): solve the 2x2 system by hand -> (1, 2)
    m2 = np.array([[1.0, 1.0], [0.0, 1.0]])
    state = OrthoBasisState(2)
    state.append(m2, 0)
    state.append(m2, 1)
    assert np.allclose(state.least_squares_coeffs(np.array([3.0, 2.0])), [1.0, 2.0])


def test_least_squares_errors():
    state = OrthoBasisState(2)
    with pytest.raises(EmptyBasisError):
        state.least_squares_coeffs(np.zeros(2))
    state.append(np.eye(2), 0)
    with pytest.raises(DimensionMismatchError):
        state.least_squares_coeffs(np.zeros(3))


def test_reconstruction_and_orthonormality_invariants():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(4, 17))
        k = int(rng.integers(1, min(n, 8) + 1))
        m = rng.normal(size=(n, k + 2))
        state = OrthoBasisState(n)
        for j in range(k):
            state.append(m, j)
        q = state.orthonormal_basis
        assert np.max(np.abs(q.T @ q - np.eye(k))) < 1e-10
        recon = q @ state.triangular_factor
        cols = m[:, :k]
        assert np.max(np.abs(recon - cols)) < 1e-10 * max(1.0, np.max(np.abs(cols)))
        assert np.all(np.diag(state.triangular_factor) > 0)


def test_monotone_residual_and_idempotence():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(12, 6))
    y = rng.normal(size=12)
    state = OrthoBasisState(12)
    prev = np.linalg.norm(y)
    for j in range(6):
        state.append(m, j)
        r = state.project_out(y)
        cur = np.linalg.norm(r)
        assert cur <= prev + 1e-12
        prev = cur
        assert np.allclose(state.project_out(r), r, atol=1e-10)
        # residual orthogonal to every basis vector
        assert np.max(np.abs(state.orthonormal_basis.T @ r)) < 1e-10 * max(1.0, np.linalg.norm(y))


def test_incremental_matches_normal_equations_oracle():
    # residuals along the incremental path vs explicit pseudo-inverse
    rng = np.random.default_rng(3)
    for trial in range(30):
        n = int(rng.integers(3, 17))
        k_tot = int(rng.integers(1, min(n, 8) + 1))
        m = rng.normal(size=(n, k_tot))
        y = rng.normal(size=n)
        state = OrthoBasisState(n)
        for k in range(1, k_tot + 1):
            state.append(m, k - 1)
            xs = m[:, :k]
            coef = np.linalg.solve(xs.T @ xs, xs.T @ y)
            r_oracle = y - xs @ coef
            r = state.project_out(y)
            assert np.linalg.norm(r - r_oracle) <= 1e-9 * max(1.0, np.linalg.norm(y))


def test_least_squares_reconstructs_observation():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(10, 4))
    y = rng.normal(size=10)
    state = OrthoBasisState(10)
    for j in range(4):
        state.append(m, j)
    c = state.least_squares_coeffs(y)
    recon = m[:, :4] @ c + state.project_out(y)
    assert np.linalg.norm(recon - y) <= 1e-9 * np.linalg.norm(y)
