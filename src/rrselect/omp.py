"""Greedy solution paths (OMP / OLS) and the classical stopping rules.

The full path to k_max steps is computed once per observation; every stopping
rule and selector then reads the stored residual statistics, so all rules see
identical randomness at zero extra cost.
"""
from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .designs import DesignMatrix
from .errors import DimensionMismatchError, DomainError, ValidationError, require_int, require_real

RULES = ("omp", "ols")

# Relative tolerance below which an orthogonalized column counts as dependent:
# the rank test of both greedy rules, erc_constant and OrthoBasisState.append.
RANK_TOL = 1e-12

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
    """Greedy selections t^1..t^K on an n x p problem, run for up to k_max
    steps, with per-step residual statistics.

    residual_norms[k] = ||r^k||_2 and residual_corr_inf[k] = ||X^T r^k||_inf
    for k = 0..K (index 0 is the raw observation).
    """

    selected: tuple[int, ...]
    residual_norms: np.ndarray
    residual_corr_inf: np.ndarray
    status: str  # "complete" | "rank_deficient"
    n: int
    p: int
    k_max: int

    @property
    def K(self) -> int:
        """Steps taken: k_max, or fewer after a rank-deficient early stop."""
        return len(self.selected)

    def _order(self, k: int) -> int:
        require_int("k", k)
        if not 0 <= k <= self.K:
            raise DomainError(f"k={k} outside [0, K={self.K}]")
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
    require_int("n", n, 2)
    return (n + 1) // 2


def solution_path(design: DesignMatrix, y: np.ndarray, k_max: int, rule: str = "omp") -> SolutionPath:
    """Run k_max greedy steps and record the residual statistics of each.

    OMP picks the column with the largest absolute residual correlation; OLS
    picks the column whose inclusion maximally decreases the residual energy.
    Ties go to the smallest column index. A rank-deficient candidate stops the
    path early with status "rank_deficient" (K < k_max), never with an error.
    """
    if rule not in RULES:
        raise ValidationError(f"rule must be one of {RULES}, got {rule!r}")
    x = design.matrix
    n, p = x.shape
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise DimensionMismatchError(f"y has shape {y.shape}, expected ({n},)")
    if not np.isfinite(y).all():
        raise ValidationError("y must be finite")
    require_int("k_max", k_max)
    if not 1 <= k_max <= min(n - 1, p):
        raise ValidationError(f"k_max={k_max} must lie in [1, min(n-1, p)={min(n - 1, p)}]")

    # Run on y scaled by an exact power of two to max|y| in [0.5, 1) and scale
    # the norms back: binary scaling is exact in every step, and no squared
    # norm under- or overflows at any scale of y.
    e = math.frexp(float(np.abs(y).max()))[1]
    # Orthonormal basis of the selected columns, one row per step, grown by
    # two Gram-Schmidt passes, as linalg.OrthoBasisState does (same bits): the
    # rows basis[:k] are the memory of its Fortran-order (n, k) Q factor.
    basis = np.zeros((k_max, n))
    r = np.ldexp(y, -e)
    xt = x.T
    # ndarray.dot runs the BLAS call of @ without the matmul dispatch, and
    # sqrt(v.dot(v)) is how numpy takes the 2-norm of a vector: same bits.
    corr = xt.dot(r)
    norms = [math.sqrt(r.dot(r))]
    if math.frexp(norms[0])[1] + e > 1024:  # ||y|| = norms[0] * 2**e is past the float64 range
        raise ValidationError("||y|| overflows float64")
    magnitude = np.abs(corr)
    top = int(magnitude.argmax())  # magnitude[top] is the max, without the reduction set-up
    corr_inf = [float(magnitude[top])]
    selected: list[int] = []
    taken = [False] * p
    col_sq = design.column_sq
    status = "complete"
    if rule == "ols":
        res_col_sq = col_sq.copy()  # a taken column's entry is set to 0: never admissible again
        dependent_sq = (RANK_TOL * RANK_TOL) * col_sq  # at or below: in the span of the basis
        admissible = np.empty(p, dtype=bool)
        score = np.empty(p)

    for k in range(k_max):
        if rule == "omp":
            # The first column of largest |correlation| is the pick unless it
            # is taken; then mask every taken column with -1 and look again.
            # Only k < p are taken, and an untaken magnitude is >= 0 or nan,
            # which argmax takes first: the pick is never a taken column.
            t = top
            if taken[t]:
                magnitude[selected] = -1.0
                t = int(magnitude.argmax())
        else:
            np.greater(res_col_sq, dependent_sq, out=admissible)
            score.fill(-1.0)
            np.divide(corr * corr, res_col_sq, out=score, where=admissible)
            t = int(score.argmax())
            if score[t] < 0.0:  # no admissible column: every score is nonnegative
                status = "rank_deficient"
                break
        col = x[:, t]
        v = col
        if k:  # the passes v -= Q (Q^T v) are exact no-ops while Q is empty
            qt = basis[:k]
            q = qt.T
            v = col - q.dot(qt.dot(col))
            v -= q.dot(qt.dot(v))  # second pass: mops up cancellation in the first
        norm = math.sqrt(v.dot(v))
        if norm <= RANK_TOL * math.sqrt(col_sq[t]):  # in the span of the basis
            status = "rank_deficient"
            break
        q = basis[k]
        np.divide(v, norm, out=q)
        selected.append(t)
        taken[t] = True
        r -= q * q.dot(r)
        # The exact residual norm is nonincreasing; clamp out rounding jitter
        # at machine-noise level so downstream ratios stay in [0,1].
        norms.append(min(math.sqrt(r.dot(r)), norms[-1]))
        corr = xt.dot(r)
        np.abs(corr, out=magnitude)
        top = int(magnitude.argmax())
        corr_inf.append(float(magnitude[top]))
        if rule == "ols":
            res_col_sq[t] = 0.0
            qx = q.dot(x)
            np.maximum(res_col_sq - qx * qx, 0.0, out=res_col_sq)

    return SolutionPath(
        selected=tuple(selected),
        residual_norms=np.ldexp(norms, e),
        residual_corr_inf=np.ldexp(corr_inf, e),
        status=status,
        n=n,
        p=p,
        k_max=k_max,
    )


def _first_below(path: SolutionPath, values: np.ndarray, tau: float) -> SupportEstimate:
    below = values <= tau
    k = int(below.argmax())  # the first True, or 0 when there is none
    if below[k]:
        return SupportEstimate(k, STATUS_OK)
    return SupportEstimate(path.K, STATUS_EXHAUSTED)


# Enough digits that rounding the level to a double happens once, in effect.
_WIDE = decimal.Context(prec=40)


def _noise_level(sigma: float, c: float, eta: float | None) -> float:
    """sigma * c, scaled by sigma^-eta when eta is given; DomainError unless
    sigma is a positive real and eta None or a real.

    Where sigma^-eta or the scaled product leaves the doubles (overflow, or
    underflow to 0) the level itself may not: it is then the double nearest
    exp((1-eta) ln sigma + ln c), taken in 40-digit decimal arithmetic and
    rounded once, and inf above the largest double.
    """
    sigma = require_real("sigma", sigma, 0.0, math.inf)
    eta = eta if eta is None else require_real("eta", eta)
    tau = sigma * c
    if eta is None or c == 0.0:
        return tau
    try:
        scaled = tau * sigma ** (-eta)
    except OverflowError:
        scaled = math.inf
    if 0.0 < scaled < math.inf:
        return scaled
    sigma_, c_, eta_ = map(decimal.Decimal, (sigma, c, eta))  # exact: every float is a decimal
    ln_level = _WIDE.add(_WIDE.multiply(_WIDE.subtract(1, eta_), _WIDE.ln(sigma_)), _WIDE.ln(c_))
    if ln_level > 710:  # past the largest double, e^709.78
        return math.inf
    if ln_level < -746:  # below half the smallest double, e^-744.44
        return 0.0
    return float(_WIDE.exp(ln_level))


def rpsc_threshold(sigma: float, n: int, eta: float | None = None) -> float:
    """Residual-power stopping level sigma*sqrt(n + 2 sqrt(n ln n)), with the
    optional high-SNR-consistent scaling by sigma^-eta."""
    require_int("n", n, 1)
    return _noise_level(sigma, math.sqrt(n + 2.0 * math.sqrt(n * math.log(n))), eta)


def rcsc_threshold(sigma: float, p: int, eta: float | None = None) -> float:
    """Residual-correlation stopping level sigma*sqrt(2 ln p) (optional sigma^-eta)."""
    require_int("p", p, 1)
    return _noise_level(sigma, math.sqrt(2.0 * math.log(p)), eta)


def stop_fixed(path: SolutionPath, k0: int) -> SupportEstimate:
    """Keep exactly the first k0 selections. A path that ended first (k0 >
    k_max, or a rank-deficient early stop) is kept whole and marked
    exhausted, as the sigma rules do when no step qualifies."""
    require_int("k0", k0)
    if k0 > path.K:
        return SupportEstimate(path.K, STATUS_EXHAUSTED)
    return path.estimate(k0)


def stop_rpsc(path: SolutionPath, sigma: float, eta: float | None = None) -> SupportEstimate:
    """Smallest k with ||r^k||_2 <= rpsc_threshold(sigma, path.n, eta); exhausted if none qualifies."""
    return _first_below(path, path.residual_norms, rpsc_threshold(sigma, path.n, eta))


def stop_rcsc(path: SolutionPath, sigma: float, eta: float | None = None) -> SupportEstimate:
    """Smallest k with ||X^T r^k||_inf <= rcsc_threshold(sigma, path.p, eta); exhausted if none qualifies."""
    return _first_below(path, path.residual_corr_inf, rcsc_threshold(sigma, path.p, eta))
