"""Greedy solution paths (OMP / OLS) and the classical stopping rules.

The full path to k_max steps is computed once per observation; every stopping
rule and selector then reads the stored residual statistics, so all rules see
identical randomness at zero extra cost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .designs import DesignMatrix
from .errors import DimensionMismatchError, RankDeficientError, ValidationError
from .linalg import RANK_TOL, OrthoBasisState

RULES = ("omp", "ols")

STATUS_OK = "ok"
STATUS_EMPTY = "empty_selection"
STATUS_EXHAUSTED = "exhausted"


class SupportEstimate(NamedTuple):
    """A selected model order with how it was terminated; the estimated
    support is path.support_at(k_selected), the first k_selected picks."""

    k_selected: int
    status: str  # "ok" | "empty_selection" | "exhausted"


@dataclass(frozen=True, eq=False)
class SolutionPath:
    """Greedy selections t^1..t^K with per-step residual statistics.

    residual_norms[k] = ||r^k||_2 and residual_corr_inf[k] = ||X^T r^k||_inf
    for k = 0..K (index 0 is the raw observation).
    """

    rule: str
    selected: tuple[int, ...]
    residual_norms: np.ndarray
    residual_corr_inf: np.ndarray
    K: int
    status: str  # "complete" | "rank_deficient"

    def _order(self, k: int) -> int:
        if not 0 <= k <= self.K:
            raise ValueError(f"k={k} outside [0, K={self.K}]")
        return k

    def support_at(self, k: int) -> frozenset[int]:
        """The first k selected indices."""
        return frozenset(self.selected[: self._order(k)])

    def estimate(self, k: int | None) -> SupportEstimate:
        """SupportEstimate for model order k; None marks an empty selection."""
        if k is None:
            return SupportEstimate(0, STATUS_EMPTY)
        return SupportEstimate(self._order(k), STATUS_OK)


def default_kmax(n: int) -> int:
    """Largest sparsity any recovery scheme can hope to identify: floor((n+1)/2)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return (n + 1) // 2


def solution_path(design: DesignMatrix, y: np.ndarray, k_max: int, rule: str = "omp") -> SolutionPath:
    """Run k_max greedy steps and record the residual statistics of each.

    OMP picks the column with the largest absolute residual correlation; OLS
    picks the column whose inclusion maximally decreases the residual energy.
    Ties go to the smallest column index. A rank-deficient candidate stops the
    path early with status "rank_deficient" (K < k_max), never with an error.
    """
    if rule not in RULES:
        raise ValueError(f"rule must be one of {RULES}, got {rule!r}")
    matrix = design.matrix
    x = matrix.values
    n, p = x.shape
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise DimensionMismatchError(f"y has shape {y.shape}, expected ({n},)")
    if not np.isfinite(y).all():
        raise ValidationError("y must be finite")
    if not 1 <= k_max <= min(n - 1, p):
        raise ValueError(f"k_max={k_max} must lie in [1, min(n-1, p)={min(n - 1, p)}]")

    # Run on y scaled by an exact power of two to max|y| in [0.5, 1) and scale
    # the norms back: binary scaling is exact in every step, and no squared
    # norm under- or overflows at any scale of y.
    e = math.frexp(float(np.abs(y).max()))[1]
    state = OrthoBasisState(n, capacity=k_max)
    r = np.ldexp(y, -e)
    xt = x.T
    # ndarray.dot runs the BLAS call of @ without the matmul dispatch, and
    # sqrt(v.dot(v)) is how numpy takes the 2-norm of a vector: same bits.
    corr = xt.dot(r)
    norms = [math.sqrt(r.dot(r))]
    if math.frexp(norms[0])[1] + e > 1024:  # ||y|| = norms[0] * 2**e is past the float64 range
        raise ValidationError("||y|| overflows float64")
    score = np.abs(corr)
    top = int(score.argmax())  # score[top] is the max, without the reduction set-up
    corr_inf = [float(score[top])]
    selected: list[int] = []
    taken = np.zeros(p, dtype=bool)
    status = "complete"
    if rule == "ols":
        col_sq = np.einsum("ij,ij->j", x, x)
        res_col_sq = col_sq.copy()
        dependent_sq = (RANK_TOL * RANK_TOL) * col_sq  # at or below: in the span of the basis

    for k in range(k_max):
        if rule == "omp":
            # The first column of largest |correlation| is the pick unless it
            # is taken; then mask every taken column and look again.
            t = top
            if taken[t]:
                score[taken] = -1.0
                t = int(score.argmax())
                if score[t] < 0.0:  # every column already selected (p exhausted)
                    status = "rank_deficient"
                    break
        else:
            admissible = ~taken & (res_col_sq > dependent_sq)
            if not admissible.any():
                status = "rank_deficient"
                break
            score = np.where(admissible, corr * corr / np.where(admissible, res_col_sq, 1.0), -1.0)
            t = int(score.argmax())
        try:
            # Called through the class, so a wrapper installed on
            # OrthoBasisState.append (a tracer) sees every update.
            q = state.append(matrix, t).orthonormal_basis[:, k]
        except RankDeficientError:
            status = "rank_deficient"
            break
        selected.append(t)
        taken[t] = True
        r -= q * q.dot(r)
        # The exact residual norm is nonincreasing; clamp out rounding jitter
        # at machine-noise level so downstream ratios stay in [0,1].
        norms.append(min(math.sqrt(r.dot(r)), norms[-1]))
        corr = xt.dot(r)
        score = np.abs(corr)
        top = int(score.argmax())
        corr_inf.append(float(score[top]))
        if rule == "ols":
            qx = q.dot(x)
            np.maximum(res_col_sq - qx * qx, 0.0, out=res_col_sq)

    return SolutionPath(
        rule=rule,
        selected=tuple(selected),
        residual_norms=np.ldexp(norms, e),
        residual_corr_inf=np.ldexp(corr_inf, e),
        K=len(selected),
        status=status,
    )


def _first_below(path: SolutionPath, values: np.ndarray, tau: float) -> SupportEstimate:
    hits = np.nonzero(values <= tau)[0]
    if len(hits):
        return path.estimate(int(hits[0]))
    return SupportEstimate(path.K, STATUS_EXHAUSTED)


def rpsc_threshold(sigma: float, n: int, eta: float | None = None) -> float:
    """Residual-power stopping level sigma*sqrt(n + 2 sqrt(n ln n)), with the
    optional high-SNR-consistent scaling by sigma^-eta."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    tau = sigma * math.sqrt(n + 2.0 * math.sqrt(n * math.log(n)))
    if eta is not None:
        tau *= sigma ** (-eta)
    return tau


def rcsc_threshold(sigma: float, p: int, eta: float | None = None) -> float:
    """Residual-correlation stopping level sigma*sqrt(2 ln p) (optional sigma^-eta)."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    tau = sigma * math.sqrt(2.0 * math.log(p))
    if eta is not None:
        tau *= sigma ** (-eta)
    return tau


def stop_fixed(path: SolutionPath, k0: int) -> SupportEstimate:
    """Keep exactly the first k0 selections. A path that ended first (k0 >
    k_max, or a rank-deficient early stop) is kept whole and marked
    exhausted, as the sigma rules do when no step qualifies."""
    if k0 > path.K:
        return SupportEstimate(path.K, STATUS_EXHAUSTED)
    return path.estimate(k0)


def stop_rpsc(path: SolutionPath, sigma: float, n: int, eta: float | None = None) -> SupportEstimate:
    """Smallest k with ||r^k||_2 <= rpsc_threshold; exhausted if none qualifies."""
    return _first_below(path, path.residual_norms, rpsc_threshold(sigma, n, eta))


def stop_rcsc(path: SolutionPath, sigma: float, p: int, eta: float | None = None) -> SupportEstimate:
    """Smallest k with ||X^T r^k||_inf <= rcsc_threshold; exhausted if none qualifies."""
    return _first_below(path, path.residual_corr_inf, rcsc_threshold(sigma, p, eta))
