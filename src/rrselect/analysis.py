"""Regularity diagnostics (mutual incoherence, RIC, ERC) and the closed-form
noise-norm margins of each recovery scheme.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .designs import DesignMatrix
from .errors import (
    DomainError,
    RankDeficientError,
    TooManySubsetsError,
    is_real,
    require_indices,
    require_int,
    require_real,
)
from .omp import RANK_TOL, rpsc_threshold
from .special import build_threshold_table

SUBSET_GUARD = 1_000_000
# Bytes of stacked subset Gram matrices that ric_bruteforce passes to one eigvalsh call.
RIC_CHUNK_BYTES = 8 << 20


@dataclass(frozen=True)
class EpsilonBounds:
    """Noise-norm margins of each scheme, 0 where its RIC condition fails.

    Below eps_omp, k0 greedy steps select the support. Below
    min(eps_omp, eps_rrm), RRM stops no earlier than k0, but not necessarily
    at k0 (tests/test_analysis.py::test_rrm_margin_is_no_certificate_of_an_exact_stop).
    """

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
    if not (is_real(mu) and mu >= 0.0):
        raise DomainError(f"mu must be finite and nonnegative, got {mu!r}")
    if mu == 0.0:
        return np.iinfo(np.int64).max  # orthonormal columns: no incoherence limit
    return int(math.floor((1.0 + 1.0 / float(mu)) / 2.0))


def ric_bruteforce(design: DesignMatrix, order: int) -> float:
    """Restricted isometry constant of the given order by exhaustive enumeration.

    delta = max over all column subsets T of that size of
    max(1 - lambda_min(G_T), lambda_max(G_T) - 1) with G_T the subset Gram
    matrix. Exact but exponential; guarded at SUBSET_GUARD subsets. The
    subsets go to np.linalg.eigvalsh in stacks of RIC_CHUNK_BYTES, each
    matrix by the LAPACK call a lone one gets; rounding is monotone, so
    max fl(1 - lambda_min) = fl(1 - min lambda_min): the same bits as a
    per-subset loop.
    """
    p = design.p
    require_int("order", order)
    if not 1 <= order <= p:
        raise DomainError(f"order must lie in [1, p={p}], got {order}")
    count = math.comb(p, order)
    if count > SUBSET_GUARD:
        raise TooManySubsetsError(f"C({p},{order}) = {count} exceeds guard {SUBSET_GUARD}")
    x = design.matrix
    gram = x.T @ x
    subsets = itertools.combinations(range(p), order)
    per_stack = max(1, RIC_CHUNK_BYTES // (8 * order * order))
    lowest, highest = math.inf, -math.inf
    for _ in range(0, count, per_stack):
        flat = itertools.chain.from_iterable(itertools.islice(subsets, per_stack))
        idx = np.fromiter(flat, dtype=np.intp).reshape(-1, order)
        ev = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])
        lowest, highest = min(lowest, float(ev[:, 0].min())), max(highest, float(ev[:, -1].max()))
    return max(0.0, 1.0 - lowest, highest - 1.0)


def erc_constant(design: DesignMatrix, support) -> float:
    """Exact recovery constant max_{j not in S} ||X_S^+ X_j||_1.

    Values below 1 certify that greedy selection started on S never leaves it
    in the noiseless case.

    DomainError unless S is a nonempty list of column indices
    (errors.require_indices). X_S^+ X_j solves R c = Q^T X_j for X_S = Q R.
    RankDeficientError for |S| > n or any |R_jj| <= RANK_TOL ||x_j||, the
    greedy paths' rank test, with ||x_j||^2 read from design.column_sq; a
    repeated index fails it.
    """
    support = list(require_indices("support", support, design.p))
    if not support:
        raise DomainError("support must be nonempty")
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
    alpha = require_real("alpha", alpha, 0.0, 1.0)
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

    Each RIC value is the design's constant or any upper bound on it, math.inf
    when none is known. A margin whose RIC condition fails is 0, no guarantee:
    eps_omp: noise norm under which greedy selection with k0 steps is exact;
    needs delta_{k0+1} < 1/sqrt(k0+1).
    eps_rrt / eps_rrt_tilde: margins for threshold selection at the step-k0
    threshold and at the worst-case (minimum) threshold respectively.
    eps_rrm: margin for ratio minimization; shrinks as beta_max/beta_min grows,
    and certifies no exact stop at k0 (see EpsilonBounds).
    These three need delta_k0 < 1, and each goes to 0 as delta_k0 -> 1.
    eps_sigma: the (1 - 1/n)-probability bound on the Gaussian noise norm,
    omp.rpsc_threshold(sigma, n), and 0 at sigma = 0.
    """
    require_int("k0", k0)  # a bool would pass as 0 or 1, and a float cannot index the table
    if not 1 <= k0 <= k_max:
        raise DomainError(f"k0={k0} must lie in [1, k_max={k_max}]")
    for name, value in (("delta_k0", delta_k0), ("delta_k0p1", delta_k0p1)):
        if not (value == math.inf or is_real(value) and value >= 0.0):
            raise DomainError(f"{name} must be nonnegative, or inf when unknown, got {value!r}")
    reals = {"beta_min": beta_min, "beta_max": beta_max, "sigma": sigma}
    for name, value in reals.items():
        if not (is_real(value) and value >= 0.0):
            raise DomainError(f"{name} must be finite and nonnegative, got {value!r}")
    delta_k0, delta_k0p1, beta_min, beta_max, sigma = map(float, (delta_k0, delta_k0p1, *reals.values()))
    if beta_min == 0.0 or beta_max < beta_min:
        raise DomainError("need 0 < beta_min <= beta_max")

    root = math.sqrt(k0 + 1.0)
    eps_omp = eps_rrt = eps_rrt_tilde = eps_rrm = 0.0
    if root * delta_k0p1 < 1.0:
        eps_omp = (
            beta_min
            * math.sqrt(1.0 - delta_k0p1)
            * (1.0 - root * delta_k0p1)
            / (1.0 + math.sqrt(1.0 - delta_k0p1**2) - root * delta_k0p1)
        )
    gammas = build_threshold_table(n, p, k_max, alpha)
    if delta_k0 < 1.0:
        g_k0 = float(gammas[k0 - 1])
        g_min = float(np.min(gammas))
        scale = math.sqrt(1.0 - delta_k0) * beta_min
        eps_rrt = g_k0 * scale / (1.0 + g_k0)
        eps_rrt_tilde = g_min * scale / (1.0 + g_min)
        ratio = math.sqrt((1.0 + delta_k0) / (1.0 - delta_k0))
        eps_rrm = scale / (1.0 + ratio * (2.0 + beta_max / beta_min))
    eps_sigma = rpsc_threshold(sigma, n) if sigma > 0.0 else 0.0
    return EpsilonBounds(eps_omp, eps_rrt, eps_rrt_tilde, eps_rrm, eps_sigma)
