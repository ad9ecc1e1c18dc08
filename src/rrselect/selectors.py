"""Residual-ratio statistic and the noise-statistics-oblivious selectors.

RRT keeps the last step whose residual ratio falls below a fixed Beta-quantile
threshold, tested as "Beta CDF at RR(k)^2 below the step's level" so that no
quantile is inverted (the CDF is taken from RR(k), so a square that underflows
does not read as 0, and skipped where an exact lower bound of it already
exceeds every level the step can have); RRM keeps the step with the smallest ratio
(hyperparameter free); RRTA is RRT with a data-adaptive level that shrinks as
the smallest observed ratio shrinks, which restores consistency as the noise
vanishes.

None of these read the noise level or the sparsity: they consume only the
solution path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from . import special
from .errors import DomainError, EmptyPathError
from .omp import SolutionPath
from .special import ALPHA_FLOOR, rrt_levels


# Margin, in ln, by which the CDF's lower bound must exceed ln(1/(k_max (p-k+1)))
# to settle a step: orders above the ~1e-13 relative rounding of the CDF.
_SCREEN_MARGIN = 1e-9


@lru_cache(maxsize=64)
def _screen_bounds(p: int, k_max: int) -> tuple[float, ...]:
    """_SCREEN_MARGIN + ln z_sup(k), z_sup(k) = 1/(k_max (p-k+1)), for k = 1..k_max."""
    return tuple(_SCREEN_MARGIN - math.log(d) for d in special.level_denominators(p, k_max).tolist())


@dataclass(frozen=True, eq=False)
class ResidualRatios:
    """RR(k) = ||r^k|| / ||r^(k-1)|| for k = 1..K of a path on an n x p
    problem run for up to k_max steps; within [0,1] on every path from
    solution_path, whose residual norms are nonincreasing.

    zero_observation marks a path of y = 0, where no step explains anything.
    """

    values: np.ndarray
    n: int
    p: int
    k_max: int
    zero_observation: bool = False

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def screened_cdf(self) -> np.ndarray:
        """c(k) = I_{RR(k)^2}((n-k)/2, 1/2) for k = 1..K wherever c(k) can lie
        below z_sup(k) = 1/(k_max (p-k+1)), the bound of every level that
        rrt_level gives step k; elsewhere a lower bound of c(k) above
        z_sup(k), so that no level passes there. Computed once per path.

        The lower bound is special.log_cdf_of_square_floor; only the steps it
        leaves open run the continued fraction.
        """
        values = self.values.tolist()
        if len(values) > min(self.k_max, self.n - 1):
            raise DomainError(f"{len(values)} ratios exceed k_max={self.k_max} or n-1={self.n - 1} steps")
        c = []
        terms = special.half_beta_log_terms(self.n)
        for (a, ln_a, ln_beta), bound, rr in zip(terms, _screen_bounds(self.p, self.k_max), values):
            if 0.0 < rr < 1.0:
                # log_cdf_of_square_floor(a, 0.5, rr), operation for operation,
                # with its per-size constants looked up.
                ln_floor = 2.0 * a * math.log(rr) + 0.5 * math.log1p(-rr * rr) - ln_a - ln_beta
                if ln_floor > bound:
                    c.append(math.exp(ln_floor))
                    continue
            # special.beta_cdf is looked up at call time, so a wrapper
            # installed on it (a call counter) sees every evaluation whose
            # square is a normal double.
            c.append(special.beta_cdf_of_square(a, 0.5, rr))
        return np.array(c)


@dataclass(frozen=True)
class RrtaParams:
    """Adaptive-level parameters: level = min(pfd_finite, (min_k RR(k))^q)."""

    pfd_finite: float = 0.1
    q: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.pfd_finite < 1.0:
            raise DomainError(f"pfd_finite must lie in (0,1), got {self.pfd_finite}")
        if self.q <= 0.0:
            raise DomainError(f"q must be positive, got {self.q}")


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
    """Largest k with RR(k) < Gamma(k), i.e. c(k) < rrt_level(n, p, k_max, alpha, k)
    at the ratios' n, p and k_max; None when no step qualifies or the observation
    is zero. A path that ended early has fewer steps; the levels keep k_max."""
    levels = rrt_levels(ratios.n, ratios.p, ratios.k_max, alpha, len(ratios))
    if not len(levels) or ratios.zero_observation:
        return None
    hits = np.nonzero(ratios.screened_cdf < levels)[0]
    if len(hits) == 0:
        return None
    return int(hits[-1]) + 1


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
