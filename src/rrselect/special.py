"""Regularized incomplete Beta CDF, its inverse, and the residual-ratio
threshold sequence Gamma(k) used by the RRT/RRTA selectors.

The selectors compare c(k) = I_{RR(k)^2}((n-k)/2, 1/2) with the step's level
z(k) = rrt_level(...). Most steps are decided without the continued fraction:
the leading term of the CDF's series (log_cdf_of_square_floor) is a lower
bound of c(k), the series' geometric tail gives an upper bound
(log_cdf_of_square_ceiling), and a step is exact only where z(k) falls
between the two. The inverse serves only the reported threshold table.

Everything here is scalar and dependency-free (math module only): the
selectors compare CDF values with levels as small as 1e-300, a regime where
library wrappers that do not work in the log domain underflow; a threshold
whose square underflows is taken from the leading term of the series.
"""
from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

from .errors import DomainError

# Probabilities below this floor are clamped up before threshold evaluation so
# log-domain arithmetic stays finite while "threshold -> 0" behavior survives.
ALPHA_FLOOR = 1e-300

# Smallest normal double: a square below it has lost digits or rounded to 0.
_NORMAL_MIN = sys.float_info.min
_LN_NORMAL_MIN = math.log(_NORMAL_MIN)

_CF_EPS = 1e-15
_CF_TINY = 1e-300
_CF_MAX_ITER = 500


def _check_ab(a: float, b: float) -> None:
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"beta parameters must be positive, got a={a}, b={b}")


def log_beta_fn(a: float, b: float) -> float:
    """ln B(a,b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b)."""
    _check_ab(a, b)
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the standard continued fraction for the
    # incomplete beta; converges quickly for x < (a+1)/(a+b+2).
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a,b), i.e. the Beta(a,b) CDF at x."""
    _check_ab(a, b)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0,1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - log_beta_fn(a, b)
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        cf = _beta_continued_fraction(a, b, x)
        if ln_front < _LN_NORMAL_MIN:
            # A subnormal front has already been rounded to the coarse
            # subnormal grid; taking the product in the log domain rounds once.
            return math.exp(ln_front + math.log(cf / a))
        val = front * cf / a
    else:
        val = 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b
    return min(max(val, 0.0), 1.0)


def beta_cdf_of_square(a: float, b: float, r: float) -> float:
    """I_{r^2}(a,b) for r in [0,1]: the Beta(a,b) CDF at r^2.

    Where r^2 falls below the normal doubles (0 < r < 1.5e-154) the square
    loses digits or rounds to 0, so the leading term r^(2a) / (a B(a,b)) is
    taken in the log domain; the continued fraction and (1-r^2)^b equal 1 to
    double precision there.
    """
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"r must lie in [0,1], got {r}")
    x = r * r
    if r == 0.0 or x >= _NORMAL_MIN:
        return beta_cdf(a, b, x)
    ln_val = 2.0 * a * math.log(r) - math.log(a) - log_beta_fn(a, b)
    return math.exp(ln_val)


def log_cdf_of_square_floor(a: float, b: float, r: float) -> float:
    """ln L for r in (0,1), where L = x^a (1-x)^b / (a B(a,b)) at x = r^2.

    I_x(a,b) = L * 2F1(a+b, 1; a+1; x), a series of positive terms that
    starts at 1, so L <= I_x(a,b): the first factor of beta_cdf, without the
    continued fraction.
    """
    return 2.0 * a * math.log(r) + b * math.log1p(-r * r) - math.log(a) - log_beta_fn(a, b)


def log_cdf_of_square_ceiling(a: float, b: float, r: float) -> float:
    """ln U for r in (0,1) and 0 < b <= 1, where U = L (1 + x (a+b) / ((a+1) (1-x)))
    at x = r^2 and L is the floor above.

    The terms of 2F1(a+b, 1; a+1; x) are positive and, for b <= 1, each is at
    most x times the one before, so the series is at most 1 + t1 / (1-x) with
    t1 = x (a+b) / (a+1): I_x(a,b) <= U.
    """
    x = r * r
    return log_cdf_of_square_floor(a, b, r) + math.log1p(x * (a + b) / ((a + 1.0) * (1.0 - x)))


@lru_cache(maxsize=64)
def half_beta_log_terms(n: int) -> tuple[tuple[float, float, float], ...]:
    """(a, ln a, ln B(a, 1/2)) for a = (n-k)/2 at k = 1..n-1: the per-step
    constants of log_cdf_of_square_floor(a, 0.5, r), computed once per n."""
    return tuple((a, math.log(a), log_beta_fn(a, 0.5)) for a in ((n - k) / 2.0 for k in range(1, n)))


def half_beta_log_cdf_bounds(n: int, ratios: list[float]) -> tuple[list[float], list[float]]:
    """([ln L(k)], [ln U(k)]) with L(k) <= c(k) = I_{RR(k)^2}((n-k)/2, 1/2) <= U(k)
    for RR(k) = ratios[k-1], k = 1..len(ratios).

    In (0,1) these are log_cdf_of_square_floor and _ceiling at b = 1/2,
    operation for operation, with the per-n constants of half_beta_log_terms;
    both are -inf at RR = 0 (c = 0) and +inf at RR = 1 (c = 1).
    """
    if len(ratios) > n - 1:
        raise DomainError(f"{len(ratios)} ratios exceed the n-1={n - 1} steps of an n={n} problem")
    lows, highs = [], []
    for (a, ln_a, ln_beta), r in zip(half_beta_log_terms(n), ratios):
        if 0.0 < r < 1.0:
            x = r * r
            low = 2.0 * a * math.log(r) + 0.5 * math.log1p(-x) - ln_a - ln_beta
            high = low + math.log1p(x * (a + 0.5) / ((a + 1.0) * (1.0 - x)))
        elif r == 0.0:
            low = high = -math.inf
        elif r == 1.0:
            low = high = math.inf
        else:
            raise DomainError(f"r must lie in [0,1], got {r}")
        lows.append(low)
        highs.append(high)
    return lows, highs


def _beta_pdf(a: float, b: float, x: float, ln_beta: float) -> float:
    if not 0.0 < x < 1.0:
        return 0.0
    ln_pdf = (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - ln_beta
    return math.exp(ln_pdf) if ln_pdf > -745.0 else 0.0


def _beta_inv_core(a: float, b: float, z: float) -> float:
    # Bracketed Newton with bisection safeguard. For tiny z the leading-order
    # quantile x ~ (a z B(a,b))^(1/a), evaluated in the log domain, seeds the
    # iteration; otherwise start from the middle of the bracket.
    ln_beta = log_beta_fn(a, b)
    if z < 1e-8:
        ln_seed = (math.log(a) + math.log(z) + ln_beta) / a
        x = math.exp(ln_seed) if ln_seed > -745.0 else 0.0
        if x == 0.0:
            # True quantile is below the smallest positive double; 0 is the
            # closest representable point and satisfies |F(0) - z| = z.
            return 0.0
        x = min(x, 1.0 - 1e-16)
    else:
        x = 0.5
    lo, hi = 0.0, 1.0
    for _ in range(200):
        f = beta_cdf(a, b, x) - z
        if f > 0.0:
            hi = x
        elif f < 0.0:
            lo = x
        else:
            return x
        if abs(f) <= 1e-13 * z:
            return x
        pdf = _beta_pdf(a, b, x, ln_beta)
        x_new = x - f / pdf if pdf > 0.0 else -1.0
        if x_new != x and not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if x_new == x:  # no double is closer to the root
            return x
        x = x_new
    return x


def beta_cdf_inv(a: float, b: float, z: float) -> float:
    """Inverse of beta_cdf in its first argument: x with I_x(a,b) = z.

    Stops once |beta_cdf(a, b, x) - z| <= 1e-13 z, relative to z so that
    tiny levels keep their digits; otherwise the spacing of doubles at x
    limits the accuracy (near x = 1, and for quantiles below the smallest
    normal double).
    """
    _check_ab(a, b)
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"z must lie in [0,1], got {z}")
    if z == 0.0:
        return 0.0
    if z == 1.0:
        return 1.0
    if z > 0.75:
        # Work on the reflected tail for accuracy near 1 (1 - z is exact here).
        return 1.0 - _beta_inv_core(b, a, 1.0 - z)
    return _beta_inv_core(a, b, z)


def rrt_level(n: int, p: int, k_max: int, alpha: float, k: int) -> float:
    """Per-step level z(k) = alpha / (k_max (p-k+1)), with alpha floored at
    ALPHA_FLOOR and an underflowing quotient raised to the smallest double.

    The Beta CDF is increasing, so RR(k) < Gamma(k) is the same test as
    beta_cdf_of_square((n-k)/2, 1/2, RR(k)) < z(k). Since alpha < 1, z(k)
    never exceeds 1/(k_max (p-k+1)).
    """
    if k >= n:
        raise DomainError(f"k={k} must be < n={n} (beta parameter would be <= 0)")
    if not 1 <= k <= k_max:
        raise DomainError(f"k={k} must lie in [1, k_max={k_max}]")
    if k_max >= n:
        raise DomainError(f"k_max={k_max} must be < n={n}")
    if p < k:
        raise DomainError(f"p={p} must be >= k={k}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    # A denominator huge enough to underflow the quotient gives the smallest double.
    return max(alpha, ALPHA_FLOOR) / (k_max * (p - k + 1)) or 5e-324


def rrt_threshold(n: int, p: int, k_max: int, alpha: float, k: int) -> float:
    """Threshold Gamma(k) = sqrt(F^-1_{(n-k)/2, 1/2}(rrt_level(...))).

    The residual ratio at step k of a greedy path, conditioned on the true
    support being covered, is stochastically bounded by a Beta((n-k)/2, 1/2)
    variable; Gamma(k) is the quantile that puts total level alpha across all
    steps and candidate columns.

    Where Gamma(k)^2 lies below the normal doubles (possible for a = (n-k)/2
    <= 1 only), the inverse would lose digits or round it to 0. There
    I_q(a, 1/2) = q^a / (a B(a, 1/2)) to double precision, so Gamma(k) is
    taken as (a z B(a, 1/2))^(1/(2a)), the square root first.
    """
    z = rrt_level(n, p, k_max, alpha, k)
    a = (n - k) / 2.0
    lead = z * (a * math.exp(log_beta_fn(a, 0.5)))  # a z B(a, 1/2) > z
    if math.log(lead) < a * _LN_NORMAL_MIN:
        return lead ** (0.5 / a)
    return math.sqrt(beta_cdf_inv(a, 0.5, z))


def build_threshold_table(n: int, p: int, k_max: int, alpha: float) -> np.ndarray:
    """Gamma(1..k_max) as a read-only array."""
    values = np.array([rrt_threshold(n, p, k_max, alpha, k) for k in range(1, k_max + 1)])
    values.flags.writeable = False
    return values
