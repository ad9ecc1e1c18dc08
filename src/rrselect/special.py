"""Regularized incomplete Beta CDF and the residual-ratio threshold sequence
Gamma(k) used by the RRT/RRTA selectors.

The selectors compare ln c(k), c(k) = I_{RR(k)^2}((n-k)/2, 1/2), with the
step's log level ln z(k) = rrt_log_level(...). Most steps are decided without
the continued fraction: the leading term of the CDF's series is a lower bound
of c(k), the series' geometric tail gives an upper bound (both per path in
half_beta_log_cdf_bounds), and a step reads the exact log_cdf_of_square only
where ln z(k) falls between the two. The reported threshold Gamma(k) is the
double where that test flips, found by bisecting the doubles on the same log
CDF.

Everything here is scalar (math and struct; numpy only for the table's
array). The rule is applied in logs, so a level below the doubles (a
subnormal alpha, or any alpha over a huge p) and a ratio whose square
underflows both keep their digits.
"""
from __future__ import annotations

import math
import struct
from functools import lru_cache

import numpy as np

from .errors import DomainError, is_real, require_int, require_real

# log_beta_fn sums three lgamma values up to this max(a, b), and takes
# Stirling's series past it.
_STIRLING_CUTOFF = 64.0

# The bits of 1.0 as an integer: those of the doubles in [0, 1] are 0 to this.
_ONE_BITS = struct.unpack("<q", struct.pack("<d", 1.0))[0]

_CF_EPS = 1e-15
_CF_TINY = 1e-300
_CF_MAX_ITER = 500


def _double_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _stirling_series(x: float) -> float:
    """S(x) = 1/(12x) - 1/(360x^3) + 1/(1260x^5) - 1/(1680x^7): Stirling's
    ln Gamma(x) less (x - 1/2) ln x - x + ln(2 pi)/2, to 5e-20 for x >= 64."""
    inv = 1.0 / x
    inv2 = inv * inv
    return inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 / 1680.0)))


def log_beta_fn(a: float, b: float) -> float:
    """ln B(a,b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b).

    Past _STIRLING_CUTOFF that sum cancels (2.7e-13 relative at a = 1e3, b = 1/2;
    every digit from a = 2**53), so with small <= big there ln Gamma(big) -
    ln Gamma(big + small) is taken from Stirling's series in difference form.
    """
    a, b = require_real("a", a, 0.0, math.inf), require_real("b", b, 0.0, math.inf)
    small, big = min(a, b), max(a, b)
    if big <= _STIRLING_CUTOFF:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (
        math.lgamma(small)
        - (big + small - 0.5) * math.log1p(small / big)
        - small * math.log(big)
        + small
        + (_stirling_series(big) - _stirling_series(big + small))
    )


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


def _log_cdf(a: float, b: float, x: float, ln_x: float) -> float:
    """ln I_x(a,b) for 0 <= x < 1, given ln x: the first factor
    x^a (1-x)^b / B(a,b) and the continued fraction that converges at x,
    combined in logs, so the value is rounded once however small it is."""
    ln_front = a * ln_x + b * math.log1p(-x) - log_beta_fn(a, b)
    if x < (a + 1.0) / (a + b + 2.0):
        return ln_front + math.log(_beta_continued_fraction(a, b, x) / a)
    return math.log1p(-math.exp(ln_front) * _beta_continued_fraction(b, a, 1.0 - x) / b)


def log_cdf_of_square(a: float, b: float, r: float) -> float:
    """ln I_{r^2}(a,b) for r in [0,1]: -inf at r = 0 and 0 at r = 1.

    ln r^2 is taken as 2 ln r, so a square below the doubles keeps its digits
    (the continued fraction and (1-r^2)^b are 1 to double precision there).
    """
    a, b = require_real("a", a, 0.0, math.inf), require_real("b", b, 0.0, math.inf)
    if not (is_real(r) and 0.0 <= r <= 1.0):
        raise DomainError(f"r must lie in [0,1], got {r!r}")
    r = float(r)
    if r == 0.0:
        return -math.inf
    if r == 1.0:
        return 0.0
    return _log_cdf(a, b, r * r, 2.0 * math.log(r))


@lru_cache(maxsize=64)
def half_beta_log_terms(n: int) -> tuple[tuple[float, float, float], ...]:
    """(a, ln a, ln B(a, 1/2)) for a = (n-k)/2 at k = 1..n-1: the per-step
    constants of half_beta_log_cdf_bounds, computed once per n."""
    return tuple((a, math.log(a), log_beta_fn(a, 0.5)) for a in ((n - k) / 2.0 for k in range(1, n)))


def half_beta_log_cdf_bounds(n: int, ratios: list[float]) -> tuple[list[float], list[float]]:
    """([ln L(k)], [ln U(k)]) with L(k) <= c(k) = I_{RR(k)^2}((n-k)/2, 1/2) <= U(k)
    for RR(k) = ratios[k-1], k = 1..len(ratios).

    At x = RR(k)^2 in (0,1), with a = (n-k)/2 and b = 1/2, I_x(a,b) =
    L 2F1(a+b, 1; a+1; x) with L = x^a (1-x)^b / (a B(a,b)). The series' terms
    are positive and start at 1, so L <= c(k); for b <= 1 each is at most x
    times the one before, so the series is at most 1 + t1 / (1-x) with
    t1 = x (a+b) / (a+1), and U = L (1 + t1 / (1-x)). The per-n constants are
    those of half_beta_log_terms; both bounds are -inf at RR = 0 (c = 0) and
    +inf at RR = 1 (c = 1).
    """
    require_int("n", n)
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


def rrt_log_level(n: int, p: int, k_max: int, alpha: float, k: int) -> float:
    """ln z(k) of the per-step level z(k) = alpha / (k_max (p-k+1)), for any
    double alpha in (0, 1): ln alpha is finite down to the smallest subnormal.

    The Beta CDF is increasing, so RR(k) < Gamma(k) is the same test as
    log_cdf_of_square((n-k)/2, 1/2, RR(k)) < ln z(k). math.log takes an int of
    any size, so z(k) is neither rounded to a double nor raised to one: it may
    lie far below the doubles. Since alpha < 1, ln z(k) < 0. The sizes are
    ints (errors.is_int): a float p = 1e308 would overflow k_max (p-k+1) and
    give the level 0.
    """
    for name, value in (("n", n), ("k_max", k_max), ("k", k), ("p", p)):
        require_int(name, value)
    if not 1 <= k <= k_max < n:
        raise DomainError(f"k={k} and k_max={k_max} must satisfy 1 <= k <= k_max < n={n}")
    if p < k:
        raise DomainError(f"p={p} must be >= k={k}")
    alpha = require_real("alpha", alpha, 0.0, 1.0)
    return math.log(alpha) - math.log(k_max * (p - k + 1))


def rrt_threshold(n: int, p: int, k_max: int, alpha: float, k: int) -> float:
    """Threshold Gamma(k) = sqrt(F^-1_{(n-k)/2, 1/2}(z(k))).

    The residual ratio at step k of a greedy path, conditioned on the true
    support being covered, is stochastically bounded by a Beta((n-k)/2, 1/2)
    variable; Gamma(k) is the quantile that puts total level alpha across all
    steps and candidate columns.

    Gamma(k) is the double r where log_cdf_of_square((n-k)/2, 1/2, r) reaches
    ln z(k) = rrt_log_level(...) and the double before it does not, so
    RR(k) < Gamma(k) is the selectors' test, up to a rare double next to
    Gamma(k) where the double ln c(r) is not monotone (none of 243,000 within
    40 doubles over 3,000 random problems with p <= 1000). A quantile below
    the doubles reads as the smallest positive double.
    """
    ln_z = rrt_log_level(n, p, k_max, alpha, k)
    a = (n - k) / 2.0
    # The bit patterns of the nonnegative doubles order as their values do, so
    # this bisects the integers between those of 0 and 1 (62 steps), keeping
    # ln c(below) < ln z <= ln c(above): Gamma(k) is where the test flips, not
    # a root to some tolerance.
    below, above = 0, _ONE_BITS
    while above - below > 1:
        middle = (below + above) // 2
        if log_cdf_of_square(a, 0.5, _double_of_bits(middle)) >= ln_z:
            above = middle
        else:
            below = middle
    return _double_of_bits(above)


def build_threshold_table(n: int, p: int, k_max: int, alpha: float) -> np.ndarray:
    """Gamma(1..k_max) as a read-only array."""
    require_int("k_max", k_max, 1)
    values = np.array([rrt_threshold(n, p, k_max, alpha, k) for k in range(1, k_max + 1)])
    values.flags.writeable = False
    return values
