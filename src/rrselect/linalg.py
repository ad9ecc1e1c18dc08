"""An incrementally updatable thin QR factorization.

Appending one column to the QR state costs O(n*k), and the residual of a
least-squares fit on the selected columns is obtained by projecting against
the orthonormal basis. It serves library callers: the greedy path grows its
own basis by the same two Gram-Schmidt passes.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, DomainError, EmptyBasisError, RankDeficientError, ValidationError
from .omp import RANK_TOL


class OrthoBasisState:
    """Thin QR factorization of a growing set of matrix columns.

    Maintains Q (orthonormal columns) and R (upper triangular, positive
    diagonal) such that Q @ R reconstructs the selected columns in selection
    order. Columns are orthogonalized by modified Gram-Schmidt with one
    reorthogonalization pass, adequate for the ambient dimensions used here.
    """

    def __init__(self, ambient_dim: int, capacity: int = 8) -> None:
        if ambient_dim < 1:
            raise DomainError(f"ambient_dim must be >= 1, got {ambient_dim}")
        capacity = max(1, min(capacity, ambient_dim))
        self.ambient_dim = int(ambient_dim)
        self.selected_cols: list[int] = []
        self._q = np.zeros((ambient_dim, capacity), order="F")
        self._r = np.zeros((capacity, capacity))

    @property
    def size(self) -> int:
        return len(self.selected_cols)

    @property
    def orthonormal_basis(self) -> np.ndarray:
        """Q factor, shape (ambient_dim, size)."""
        return self._q[:, : self.size]

    @property
    def triangular_factor(self) -> np.ndarray:
        """R factor, shape (size, size), strictly positive diagonal."""
        return self._r[: self.size, : self.size]

    def _grow(self) -> None:
        cap = self._q.shape[1]
        new_cap = min(2 * cap, self.ambient_dim)
        q = np.zeros((self.ambient_dim, new_cap), order="F")
        q[:, :cap] = self._q
        r = np.zeros((new_cap, new_cap))
        r[:cap, :cap] = self._r
        self._q, self._r = q, r

    def append(self, matrix: np.ndarray, col_index: int) -> "OrthoBasisState":
        """Add column col_index of the 2-d array `matrix` to the basis.

        Raises RankDeficientError when the orthogonalized remainder of the
        column falls below RANK_TOL relative to its norm, IndexError for an
        out-of-range column index and ValidationError for a non-finite column.
        """
        if matrix.shape[0] != self.ambient_dim:
            raise DimensionMismatchError(
                f"matrix has {matrix.shape[0]} rows, basis lives in dim {self.ambient_dim}"
            )
        if not 0 <= col_index < matrix.shape[1]:
            raise IndexError(f"column index {col_index} out of range for {matrix.shape[1]} columns")
        col = matrix[:, col_index]
        if not np.isfinite(col).all():  # a nan norm would pass the rank test
            raise ValidationError(f"column {col_index} has a non-finite entry")
        k = self.size
        if k >= self._q.shape[1]:
            self._grow()
        if k >= self.ambient_dim:
            raise RankDeficientError("basis already spans the ambient space")

        q = self._q[:, :k]
        qt = q.T
        v = col.copy()
        coeffs = np.zeros(k)
        # Two MGS passes: the second pass mops up cancellation in the first.
        for _ in range(2):
            h = qt.dot(v)
            v -= q.dot(h)
            coeffs += h
        norm = math.sqrt(v.dot(v))
        col_norm = math.sqrt(col.dot(col))
        if norm <= RANK_TOL * col_norm or norm == 0.0:
            raise RankDeficientError(
                f"column {col_index} is in the span of the current basis "
                f"(remainder {norm:.3e} vs column norm {col_norm:.3e})"
            )
        np.divide(v, norm, out=self._q[:, k])
        self._r[:k, k] = coeffs
        self._r[k, k] = norm
        self.selected_cols.append(int(col_index))
        return self

    def project_out(self, y: np.ndarray) -> np.ndarray:
        """Residual of y after removing its component in the basis span."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.ambient_dim,):
            raise DimensionMismatchError(
                f"vector has shape {y.shape}, expected ({self.ambient_dim},)"
            )
        k = self.size
        if k == 0:
            return y.copy()
        q = self._q[:, :k]
        return y - q @ (q.T @ y)

    def least_squares_coeffs(self, y: np.ndarray) -> np.ndarray:
        """Coefficients c solving R c = Q^T y by back-substitution.

        These are the least-squares coefficients of y on the selected columns,
        ordered by selection.
        """
        k = self.size
        if k == 0:
            raise EmptyBasisError("no columns selected")
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.ambient_dim,):
            raise DimensionMismatchError(
                f"vector has shape {y.shape}, expected ({self.ambient_dim},)"
            )
        c = self._q[:, :k].T @ y
        r = self._r
        for i in range(k - 1, -1, -1):
            c[i] = (c[i] - r[i, i + 1 : k] @ c[i + 1 : k]) / r[i, i]
        return c

