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
from .errors import DomainError, require_indices, require_int, require_real
from .omp import SolutionPath

# Margin, in ln, by which a bound of c(k) must clear ln z(k) to decide step k
# without the exact log CDF: orders above the rounding of the bounds and of
# the log CDF where they lie near ln z(k) (about 1e-13 at |ln z| ~ 1e3).
_DECIDE_MARGIN = 1e-9


@dataclass(frozen=True, eq=False)
class ResidualRatios:
    """RR(k) = ||r^k|| / ||r^(k-1)|| for k = 1..K of a path on an n x p
    problem run for up to k_max steps; within [0,1] on every path from
    solution_path, whose residual norms are nonincreasing. Ratios built by
    hand are checked on construction: a DomainError unless n, p and k_max are
    ints and the values are a numpy vector of K <= k_max <= min(n - 1, p)
    ratios, each in [0,1], and K >= 1, as no selector has a step to choose
    from.

    zero_observation marks a path of y = 0, where no step explains anything.
    """

    values: np.ndarray
    n: int
    p: int
    k_max: int
    zero_observation: bool = False

    def __post_init__(self) -> None:
        values, n, p, k_max = self.values, self.n, self.p, self.k_max
        for name, value in (("n", n), ("p", p), ("k_max", k_max)):
            require_int(name, value)
        if not isinstance(values, np.ndarray):
            raise DomainError(f"residual ratios must be a numpy array, got {values!r}")
        if not (values.ndim == 1 and len(values) <= k_max and 1 <= k_max <= min(n - 1, p)):
            raise DomainError(
                f"ratios of shape {values.shape} do not fit a path of up to k_max={k_max} steps at n={n}, p={p}"
            )
        if not len(values):
            raise DomainError("no residual ratios: the path has no steps")
        # ndarray.min/max propagate nan, which fails both comparisons.
        if not (values.min() >= 0.0 and values.max() <= 1.0):
            raise DomainError(f"residual ratios must lie in [0,1], got {values.tolist()}")

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def log_cdf_bounds(self) -> tuple[list[float], list[float]]:
        """([ln L(k)], [ln U(k)]) with L(k) <= c(k) = I_{RR(k)^2}((n-k)/2, 1/2)
        <= U(k) for k = 1..K (special.half_beta_log_cdf_bounds), computed
        once per path."""
        return special.half_beta_log_cdf_bounds(self.n, self.values.tolist(), self.k_max)


def residual_ratios(path: SolutionPath) -> ResidualRatios:
    """Per-step relative residual decay along the path, with the path's
    problem size (n, p, k_max).

    A zero previous residual means the fit was already perfect, so further
    ratios are taken as 0 (keeps the selectors at the earliest perfect model).
    A zero observation is flagged instead: its earliest perfect model is the
    empty one. A path with no steps has no ratios: DomainError.
    """
    norms = path.residual_norms.tolist()
    rr = [cur / prev if prev > 0.0 else 0.0 for prev, cur in zip(norms, norms[1:])]
    return ResidualRatios(np.array(rr), path.n, path.p, path.k_max, zero_observation=norms[0] == 0.0)


def rrt_select(ratios: ResidualRatios, alpha: float) -> int | None:
    """Largest k with RR(k) < Gamma(k), i.e. ln c(k) < rrt_log_level(n, p, k_max, alpha, k)
    at the ratios' n, p and k_max; None when no step qualifies or the observation
    is zero. A path that ended early has fewer steps; the levels keep k_max.

    Steps are scanned from the last: a step whose lower bound of c(k) lies
    above z(k) is a miss, one whose upper bound lies below it is the answer,
    and only a step between the two reads the exact ln c(k)
    (special.log_cdf_of_square).
    """
    steps = len(ratios)
    n, p, k_max = ratios.n, ratios.p, ratios.k_max
    alpha = require_real("alpha", alpha, 0.0, 1.0)
    if ratios.zero_observation:
        return None
    lows, highs = ratios.log_cdf_bounds
    ln_alpha = math.log(alpha)
    for k in range(steps, 0, -1):
        ln_z = ln_alpha - math.log(k_max * (p - k + 1))  # rrt_log_level(n, p, k_max, alpha, k)
        if lows[k - 1] > ln_z + _DECIDE_MARGIN:
            continue
        if highs[k - 1] < ln_z - _DECIDE_MARGIN:
            return k
        if special.log_cdf_of_square((n - k) / 2.0, 0.5, float(ratios.values[k - 1])) < ln_z:
            return k
    return None


def rrm_select(ratios: ResidualRatios) -> int | None:
    """The k minimizing RR(k); ties resolve to the smallest k. None for a
    zero observation."""
    if ratios.zero_observation:
        return None
    return int(np.argmin(ratios.values)) + 1


# The least level rrta_alpha returns. (min RR)^q underflows to 0 for a small
# ratio or a large q, and at min RR = 0 (an exact fit) it is 0 itself: the
# floor keeps the level positive, so RRT's test still selects the exact-fit
# step, whose c(k) = 0 lies below every positive level.
ALPHA_FLOOR = 1e-300


def rrta_alpha(ratios: ResidualRatios, pfd: float, q: float) -> float:
    """Adaptive level min(pfd, (min RR)^q), floored at ALPHA_FLOOR; DomainError
    unless pfd is a real in (0, 1) and q a positive real."""
    pfd = require_real("pfd", pfd, 0.0, 1.0)
    q = require_real("q", q, 0.0, math.inf)
    min_rr = float(np.min(ratios.values))
    return max(min(pfd, min_rr**q), ALPHA_FLOOR)


def rrta_select(ratios: ResidualRatios, pfd: float, q: float) -> int | None:
    """RRT at the data-adaptive level rrta_alpha(ratios, pfd, q)."""
    return rrt_select(ratios, rrta_alpha(ratios, pfd, q))


def prefix_hits(path: SolutionPath, support) -> list[int]:
    """[h(0), ..., h(K)]: h(k) counts the indices of `support` among the
    first k selections. With k0 = |support|, the first k picks are the
    support exactly when h(k) = k = k0, and hold a false index when h(k) < k."""
    return list(accumulate((t in support for t in path.selected), initial=0))


def minimal_superset_index(path: SolutionPath, true_support) -> int | float:
    """Smallest k whose support contains the true support; inf when none does.

    The empty support is contained in every prefix, so it yields 0.
    """
    target = frozenset(require_indices("true_support", true_support, path.p))
    hits = prefix_hits(path, target)
    return hits.index(len(target)) if hits[-1] == len(target) else math.inf
