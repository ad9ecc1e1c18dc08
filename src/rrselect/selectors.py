"""Residual-ratio statistic and the noise-statistics-oblivious selectors.

RRT keeps the last step whose residual ratio falls below a fixed Beta-quantile
threshold; RRM keeps the step with the smallest ratio (hyperparameter free);
RRTA is RRT with a data-adaptive level that shrinks as the smallest observed
ratio shrinks, which restores consistency as the noise vanishes.

None of these read the noise level or the sparsity: they consume only the
solution path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyPathError, LengthMismatchError
from .omp import SolutionPath
from .special import ALPHA_FLOOR, ThresholdTable, build_threshold_table


@dataclass(frozen=True, eq=False)
class ResidualRatios:
    """RR(k) = ||r^k|| / ||r^(k-1)|| for k = 1..K; always within [0,1]."""

    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class RrtaParams:
    """Adaptive-level parameters: level = min(pfd_finite, (min_k RR(k))^q)."""

    pfd_finite: float = 0.1
    q: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.pfd_finite < 1.0:
            raise ValueError(f"pfd_finite must lie in (0,1), got {self.pfd_finite}")
        if self.q <= 0.0:
            raise ValueError(f"q must be positive, got {self.q}")


def residual_ratios(path: SolutionPath) -> ResidualRatios:
    """Per-step relative residual decay along the path.

    A zero previous residual means the fit was already perfect, so further
    ratios are taken as 0 (keeps the selectors at the earliest perfect model).
    """
    if path.K < 1:
        raise EmptyPathError("path has no steps")
    prev = path.residual_norms[:-1]
    cur = path.residual_norms[1:]
    safe_prev = np.where(prev > 0.0, prev, 1.0)
    rr = np.where(prev > 0.0, cur / safe_prev, 0.0)
    return ResidualRatios(np.clip(rr, 0.0, 1.0))


def trim_table(table: ThresholdTable, ratios: ResidualRatios) -> ThresholdTable:
    """The table cut to the steps an early-terminated path realized; the
    thresholds keep the configured k_max in their level."""
    return table.truncated(len(ratios)) if len(ratios) < len(table) else table


def rrt_select(ratios: ResidualRatios, thresholds: ThresholdTable) -> int | None:
    """Largest k with RR(k) < Gamma(k); None when no step qualifies."""
    rr = ratios.values
    if len(rr) != len(thresholds):
        raise LengthMismatchError(
            f"{len(rr)} ratios vs {len(thresholds)} thresholds"
        )
    hits = np.nonzero(rr < thresholds.values)[0]
    if len(hits) == 0:
        return None
    return int(hits[-1]) + 1


def rrm_select(ratios: ResidualRatios) -> int:
    """The k minimizing RR(k); ties resolve to the smallest k."""
    if len(ratios) == 0:
        raise EmptyPathError("no residual ratios")
    return int(np.argmin(ratios.values)) + 1


def rrta_alpha(ratios: ResidualRatios, params: RrtaParams) -> float:
    """Adaptive level min(pfd_finite, (min RR)^q), floored at ALPHA_FLOOR."""
    if len(ratios) == 0:
        raise EmptyPathError("no residual ratios")
    min_rr = float(np.min(ratios.values))
    level = min(params.pfd_finite, min_rr**params.q)
    return max(level, ALPHA_FLOOR)


def rrta_select(
    ratios: ResidualRatios, n: int, p: int, k_max: int, params: RrtaParams
) -> int | None:
    """RRT at the data-adaptive level rrta_alpha(ratios, params)."""
    alpha_star = rrta_alpha(ratios, params)
    return rrt_select(ratios, trim_table(build_threshold_table(n, p, k_max, alpha_star), ratios))


def minimal_superset_index(path: SolutionPath, true_support) -> int | float:
    """Smallest k whose support contains the true support; inf when none does.

    The empty support is contained in every prefix, so it yields 0.
    """
    target = frozenset(int(i) for i in true_support)
    if not target:
        return 0
    seen: set[int] = set()
    for j, t in enumerate(path.selected):
        seen.add(t)
        if target <= seen:
            return j + 1
    return math.inf
