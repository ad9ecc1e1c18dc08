"""Residual-ratio statistic and the noise-statistics-oblivious selectors.

RRT keeps the last step whose residual ratio falls below a fixed Beta-quantile
threshold, tested as "ln of the Beta CDF at RR(k)^2 below ln of the step's
level" so that no quantile is inverted (both logs are taken from RR(k) and
from the level's parts, so neither underflows, and the CDF is skipped wherever
a lower or an upper bound of it already decides the comparison); RRM keeps the
step with the smallest ratio (hyperparameter free); RRTA is RRT with a
data-adaptive level that shrinks as the smallest observed ratio shrinks, which
restores consistency as the noise vanishes.

None of these read the noise level or the sparsity: they consume only the
solution path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import special
from .errors import DomainError, EmptyPathError
from .omp import SolutionPath
from .special import ALPHA_FLOOR

# Margin, in ln, by which a bound of c(k) must clear ln z(k) to decide step k
# without the exact log CDF: orders above the rounding of the bounds and of
# the log CDF where they lie near ln z(k) (about 1e-13 at |ln z| ~ 1e3).
_DECIDE_MARGIN = 1e-9


@dataclass(frozen=True, eq=False)
class ResidualRatios:
    """RR(k) = ||r^k|| / ||r^(k-1)|| for k = 1..K of a path on an n x p
    problem run for up to k_max steps; within [0,1] on every path from
    solution_path, whose residual norms are nonincreasing. Ratios built by
    hand are checked on construction: a DomainError unless the values are a
    vector of K <= k_max <= n - 1 ratios, each in [0,1].

    zero_observation marks a path of y = 0, where no step explains anything.
    """

    values: np.ndarray
    n: int
    p: int
    k_max: int
    zero_observation: bool = False

    def __post_init__(self) -> None:
        values = self.values
        if not (values.ndim == 1 and 2 <= self.n and 1 <= self.k_max < self.n and len(values) <= self.k_max):
            raise DomainError(
                f"ratios of shape {values.shape} do not fit a path of up to k_max={self.k_max} steps at n={self.n}"
            )
        # ndarray.min/max propagate nan, which fails both comparisons.
        if len(values) and not (values.min() >= 0.0 and values.max() <= 1.0):
            raise DomainError(f"residual ratios must lie in [0,1], got {values.tolist()}")

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def log_cdf_bounds(self) -> tuple[list[float], list[float]]:
        """([ln L(k)], [ln U(k)]) with L(k) <= c(k) = I_{RR(k)^2}((n-k)/2, 1/2)
        <= U(k) for k = 1..K (special.half_beta_log_cdf_bounds), computed
        once per path."""
        return special.half_beta_log_cdf_bounds(self.n, self.values.tolist())

    def log_cdf(self, k: int) -> float:
        """ln c(k) = ln I_{RR(k)^2}((n-k)/2, 1/2)."""
        if not 1 <= k <= len(self.values):
            raise DomainError(f"k={k} outside [1, K={len(self.values)}]")
        return special.log_cdf_of_square((self.n - k) / 2.0, 0.5, float(self.values[k - 1]))


@dataclass(frozen=True)
class RrtaParams:
    """Adaptive-level parameters: level = min(pfd_finite, (min_k RR(k))^q)."""

    pfd_finite: float = 0.1
    q: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.pfd_finite < 1.0:
            raise DomainError(f"pfd_finite must lie in (0,1), got {self.pfd_finite}")
        if not 0.0 < self.q < math.inf:
            raise DomainError(f"q must be positive and finite, got {self.q}")


def residual_ratios(path: SolutionPath) -> ResidualRatios:
    """Per-step relative residual decay along the path, with the path's
    problem size (n, p, k_max).

    A zero previous residual means the fit was already perfect, so further
    ratios are taken as 0 (keeps the selectors at the earliest perfect model).
    A zero observation is flagged instead: its earliest perfect model is the
    empty one.
    """
    if path.K < 1:
        raise EmptyPathError("path has no steps")
    norms = path.residual_norms.tolist()
    rr = [cur / prev if prev > 0.0 else 0.0 for prev, cur in zip(norms, norms[1:])]
    return ResidualRatios(np.array(rr), path.n, path.p, path.k_max, zero_observation=norms[0] == 0.0)


def rrt_select(ratios: ResidualRatios, alpha: float) -> int | None:
    """Largest k with RR(k) < Gamma(k), i.e. ln c(k) < rrt_log_level(n, p, k_max, alpha, k)
    at the ratios' n, p and k_max; None when no step qualifies or the observation
    is zero. A path that ended early has fewer steps; the levels keep k_max.

    Steps are scanned from the last: a step whose lower bound of c(k) lies
    above z(k) is a miss, one whose upper bound lies below it is the answer,
    and only a step between the two reads the exact ln c(k) (ratios.log_cdf).
    """
    steps = len(ratios)
    p, k_max = ratios.p, ratios.k_max
    # rrt_log_level's checks at every step up to the last, made once: ratios
    # already hold steps <= k_max < n, and p >= k holds below k = steps (a
    # path has a step 1).
    special.check_level_args(p, alpha, max(steps, 1))
    if not steps or ratios.zero_observation:
        return None
    lows, highs = ratios.log_cdf_bounds
    ln_alpha = math.log(max(alpha, ALPHA_FLOOR))
    for k in range(steps, 0, -1):
        ln_z = ln_alpha - math.log(k_max * (p - k + 1))  # rrt_log_level(n, p, k_max, alpha, k)
        if lows[k - 1] > ln_z + _DECIDE_MARGIN:
            continue
        if highs[k - 1] < ln_z - _DECIDE_MARGIN:
            return k
        if ratios.log_cdf(k) < ln_z:
            return k
    return None


def rrm_select(ratios: ResidualRatios) -> int | None:
    """The k minimizing RR(k); ties resolve to the smallest k. None for a
    zero observation."""
    if len(ratios) == 0:
        raise EmptyPathError("no residual ratios")
    if ratios.zero_observation:
        return None
    return int(np.argmin(ratios.values)) + 1


def rrta_alpha(ratios: ResidualRatios, params: RrtaParams) -> float:
    """Adaptive level min(pfd_finite, (min RR)^q), floored at ALPHA_FLOOR."""
    if len(ratios) == 0:
        raise EmptyPathError("no residual ratios")
    min_rr = float(np.min(ratios.values))
    level = min(params.pfd_finite, min_rr**params.q)
    return max(level, ALPHA_FLOOR)


def rrta_select(ratios: ResidualRatios, params: RrtaParams) -> int | None:
    """RRT at the data-adaptive level rrta_alpha(ratios, params)."""
    return rrt_select(ratios, rrta_alpha(ratios, params))


def prefix_hits(path: SolutionPath, support) -> list[int]:
    """[h(0), ..., h(K)]: h(k) counts the indices of `support` among the
    first k selections. With k0 = |support|, the first k picks are the
    support exactly when h(k) = k = k0, and hold a false index when h(k) < k."""
    return list(accumulate((t in support for t in path.selected), initial=0))


def minimal_superset_index(path: SolutionPath, true_support) -> int | float:
    """Smallest k whose support contains the true support; inf when none does.

    The empty support is contained in every prefix, so it yields 0.
    """
    target = frozenset(int(i) for i in true_support)
    hits = prefix_hits(path, target)
    return hits.index(len(target)) if hits[-1] == len(target) else math.inf
