"""Regularity diagnostics (mutual incoherence, RIC, ERC) and the closed-form
noise-level bounds under which each recovery scheme is guaranteed to succeed.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .designs import DesignMatrix
from .errors import DomainError, RankDeficientError, TooManySubsetsError, require_int
from .linalg import RANK_TOL
from .special import build_threshold_table

SUBSET_GUARD = 1_000_000


@dataclass
class RegularityReport:
    """Design-matrix diagnostics relevant to greedy support recovery."""

    mu: float
    mic_max_k0: int
    erc_constant: float | None = None
    ric: dict[int, float] | None = None
    notes: str = ""


@dataclass(frozen=True)
class EpsilonBounds:
    """Noise-norm levels below which each scheme provably recovers the support."""

    eps_omp: float
    eps_rrt: float
    eps_rrt_tilde: float
    eps_rrm: float
    eps_sigma: float


def mutual_incoherence(design: DesignMatrix) -> float:
    """Largest |<X_i, X_j>| over distinct normalized columns."""
    if design.p < 2:
        raise DomainError("mutual incoherence needs at least two columns")
    xn = design.matrix
    if not design.unit_norm_columns:
        norms = np.linalg.norm(xn, axis=0)
        if np.any(norms == 0.0):
            raise DomainError("design has a zero column; incoherence is undefined")
        xn = xn / norms
    gram = np.abs(xn.T @ xn)
    np.fill_diagonal(gram, -np.inf)
    return float(np.max(gram))


def mic_sparsity_limit(mu: float) -> int:
    """Largest k0 with mu < 1/(2 k0 - 1), i.e. floor((1 + 1/mu)/2)."""
    if mu < 0.0:
        raise DomainError(f"mu must be nonnegative, got {mu}")
    if mu == 0.0:
        return np.iinfo(np.int64).max  # orthonormal columns: no incoherence limit
    return int(math.floor((1.0 + 1.0 / mu) / 2.0))


def ric_bruteforce(design: DesignMatrix, order: int) -> float:
    """Restricted isometry constant of the given order by exhaustive enumeration.

    delta = max over all column subsets T of that size of
    max(1 - lambda_min(G_T), lambda_max(G_T) - 1) with G_T the subset Gram
    matrix. Exact but exponential; guarded at SUBSET_GUARD subsets.
    """
    p = design.p
    if not 1 <= order <= p:
        raise DomainError(f"order must lie in [1, p={p}], got {order}")
    count = math.comb(p, order)
    if count > SUBSET_GUARD:
        raise TooManySubsetsError(f"C({p},{order}) = {count} exceeds guard {SUBSET_GUARD}")
    x = design.matrix
    gram = x.T @ x
    delta = 0.0
    for subset in itertools.combinations(range(p), order):
        g = gram[np.ix_(subset, subset)]
        ev = np.linalg.eigvalsh(g)
        delta = max(delta, 1.0 - float(ev[0]), float(ev[-1]) - 1.0)
    return delta


def erc_constant(design: DesignMatrix, support) -> float:
    """Exact recovery constant max_{j not in S} ||X_S^+ X_j||_1.

    Values below 1 certify that greedy selection started on S never leaves it
    in the noiseless case.

    X_S^+ X_j solves R c = Q^T X_j for X_S = Q R. RankDeficientError for
    |S| > n or any |R_jj| <= RANK_TOL ||x_j||, the greedy paths' rank test,
    with ||x_j||^2 read from design.column_sq.
    """
    support = sorted(int(i) for i in support)
    if not support:
        raise DomainError("support must be nonempty")
    if not 0 <= support[0] <= support[-1] < design.p:
        raise IndexError(f"support indices must lie in [0, {design.p})")
    if len(support) > design.n:
        raise RankDeficientError(f"{len(support)} support columns in dimension {design.n} are dependent")
    x = design.matrix
    xs = x[:, support]
    q, r = np.linalg.qr(xs)
    dependent = np.abs(np.diagonal(r)) <= RANK_TOL * np.sqrt(design.column_sq[support])
    if dependent.any():
        j = support[int(dependent.argmax())]
        raise RankDeficientError(f"column {j} is in the span of the support columns before it")
    coeffs = np.linalg.solve(r, q.T @ np.delete(x, support, axis=1))
    return float(np.abs(coeffs).sum(axis=0).max(initial=0.0))


def rrt_error_lower_bound(alpha: float, k_max: int, p: int, k0: int) -> float:
    """High-SNR floor on the RRT support-error probability: alpha/(k_max (p-k0)),
    the exact quotient rounded once, for a p of any size (0 below the doubles)."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    for name, value in (("k_max", k_max), ("p", p), ("k0", k0)):
        require_int(name, value)
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    if p <= k0:
        raise DomainError(f"p={p} must exceed k0={k0}")
    return float(Fraction(alpha) / (k_max * (p - k0)))


def epsilon_bounds(
    delta_k0: float,
    delta_k0p1: float,
    beta_min: float,
    beta_max: float,
    n: int,
    p: int,
    k_max: int,
    alpha: float,
    sigma: float,
    k0: int,
) -> EpsilonBounds:
    """Closed-form recovery margins from the RIC values of order k0 and k0+1.

    eps_omp: noise norm under which greedy selection with k0 steps is exact
    (0 when delta_{k0+1} >= 1/sqrt(k0+1), i.e. no guarantee).
    eps_rrt / eps_rrt_tilde: margins for threshold selection at the step-k0
    threshold and at the worst-case (minimum) threshold respectively.
    eps_rrm: margin for ratio minimization; shrinks as beta_max/beta_min grows.
    eps_sigma: the (1 - 1/n)-probability bound on the Gaussian noise norm.
    """
    for name, value in (
        ("delta_k0", delta_k0),
        ("delta_k0p1", delta_k0p1),
        ("beta_min", beta_min),
        ("beta_max", beta_max),
        ("sigma", sigma),
    ):
        if not 0.0 <= value < math.inf:
            raise DomainError(f"{name} must be finite and nonnegative, got {value}")
    if not (delta_k0 < 1.0 and delta_k0p1 < 1.0):
        raise DomainError("RIC values must be < 1")
    if beta_min == 0.0 or beta_max < beta_min:
        raise DomainError("need 0 < beta_min <= beta_max")
    require_int("k0", k0)  # a bool would pass as 0 or 1, and a float cannot index the table
    if not 1 <= k0 <= k_max:
        raise DomainError(f"k0={k0} must lie in [1, k_max={k_max}]")

    root = math.sqrt(k0 + 1.0)
    if delta_k0p1 < 1.0 / root:
        eps_omp = (
            beta_min
            * math.sqrt(1.0 - delta_k0p1)
            * (1.0 - root * delta_k0p1)
            / (1.0 + math.sqrt(1.0 - delta_k0p1**2) - root * delta_k0p1)
        )
    else:
        eps_omp = 0.0

    gammas = build_threshold_table(n, p, k_max, alpha)
    g_k0 = float(gammas[k0 - 1])
    g_min = float(np.min(gammas))
    scale = math.sqrt(1.0 - delta_k0) * beta_min
    eps_rrt = g_k0 * scale / (1.0 + g_k0)
    eps_rrt_tilde = g_min * scale / (1.0 + g_min)
    ratio = math.sqrt((1.0 + delta_k0) / (1.0 - delta_k0))
    eps_rrm = scale / (1.0 + ratio * (2.0 + beta_max / beta_min))
    eps_sigma = sigma * math.sqrt(n + 2.0 * math.sqrt(n * math.log(n)))
    return EpsilonBounds(eps_omp, eps_rrt, eps_rrt_tilde, eps_rrm, eps_sigma)


def build_regularity_report(
    design: DesignMatrix,
    support=None,
    ric_orders=(),
    notes: str = "",
) -> RegularityReport:
    """Assemble the diagnostics; RIC orders beyond the subset guard are skipped
    with a note, and the ERC is computed only when a support is given."""
    mu = mutual_incoherence(design)
    report = RegularityReport(mu=mu, mic_max_k0=mic_sparsity_limit(mu), notes=notes)
    ric: dict[int, float] = {}
    skipped = []
    for order in ric_orders:
        if math.comb(design.p, order) > SUBSET_GUARD:
            skipped.append(order)
            continue
        ric[order] = ric_bruteforce(design, order)
    if ric:
        report.ric = ric
    if skipped:
        extra = f"RIC orders {skipped} skipped (subset guard)"
        report.notes = f"{report.notes}; {extra}" if report.notes else extra
    if support is not None:
        report.erc_constant = erc_constant(design, support)
    return report
