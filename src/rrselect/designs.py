"""Design matrices, sparse signals, and noisy observations at a target SNR.

Two matrix models are built in: the deterministic identity+Hadamard
concatenation [I_n, H_n/sqrt(n)] and i.i.d. Gaussian entries N(0, 1/n).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import DenseMatrix, load_matrix_csv

DESIGN_KINDS = ("identity_hadamard", "gaussian", "external")
SIGNAL_KINDS = ("pm_one", "geometric")

# The +-1 values of a pm_one signal, indexed by a uniform draw from {0, 1}:
# the draw Generator.choice([-1.0, 1.0], size) makes, without its set-up.
_PM_ONE = np.array([-1.0, 1.0])


def is_finite_number(value) -> bool:
    """An int or float, not a bool, of finite value: abs(v) <= max compares
    an int of any size exactly, and fails for nan and both infinities."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """An n x p sensing matrix plus provenance metadata."""

    matrix: DenseMatrix
    kind: str
    unit_norm_columns: bool

    @property
    def n(self) -> int:
        return self.matrix.rows

    @property
    def p(self) -> int:
        return self.matrix.cols


@dataclass(frozen=True)
class SignalSpec:
    """Shape of the sparse coefficient vector to draw.

    pm_one: each support entry is an independent uniform +-1.
    geometric: the values {1, ratio, ..., ratio^(k0-1)} are placed on the
    support in a random order (dynamic range ratio^-(k0-1)).
    """

    k0: int
    kind: str = "pm_one"
    ratio: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        # Types first: a string or a float would otherwise reach the range
        # checks, which raise a bare TypeError or let 3.5 and True through.
        if isinstance(self.k0, bool) or not isinstance(self.k0, int):
            raise ValidationError(f"signal.k0: must be an integer, got {self.k0!r}")
        if not is_finite_number(self.ratio):  # also for pm_one, which reads no ratio
            raise ValidationError(f"signal.ratio: must be a finite number, got {self.ratio!r}")
        if self.k0 < 1:
            raise ValidationError(f"k0 must be >= 1, got {self.k0}")
        if self.kind not in SIGNAL_KINDS:
            raise ValidationError(f"signal kind must be one of {SIGNAL_KINDS}, got {self.kind!r}")
        if self.kind == "geometric" and not 0.0 < self.ratio < 1.0:
            raise ValidationError(f"geometric ratio must lie in (0,1), got {self.ratio}")


@dataclass(frozen=True, eq=False)
class SparseProblem:
    """Ground truth for one synthetic trial: y = X beta + w at a known SNR."""

    design: DesignMatrix
    true_support: frozenset[int]
    beta: np.ndarray
    sigma: float
    noise: np.ndarray
    observation: np.ndarray
    snr: float


def sylvester_hadamard(n: int) -> np.ndarray:
    """n x n Hadamard matrix by Sylvester doubling; n must be a power of two."""
    if n < 1 or n & (n - 1):
        raise ValidationError(f"n must be a positive power of two, got {n}")
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def make_identity_hadamard(n: int) -> DesignMatrix:
    """[I_n, H_n/sqrt(n)]: 2n unit-norm columns with mutual incoherence 1/sqrt(n)."""
    h = sylvester_hadamard(n)
    x = np.hstack([np.eye(n), h / math.sqrt(n)])
    return DesignMatrix(DenseMatrix(x), "identity_hadamard", unit_norm_columns=True)


def load_design_csv(path) -> DesignMatrix:
    """An external design read from CSV (one line per row, no header)."""
    dense = load_matrix_csv(path)
    norms = np.linalg.norm(dense.values, axis=0)
    return DesignMatrix(dense, "external", unit_norm_columns=bool(np.allclose(norms, 1.0, atol=1e-10)))


def make_gaussian(n: int, p: int, seed: int, normalize: bool = False) -> DesignMatrix:
    """i.i.d. N(0, 1/n) entries; optionally rescale each column to unit norm."""
    if n < 1 or p < 1:
        raise ValidationError(f"n and p must be >= 1, got n={n}, p={p}")
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0 / math.sqrt(n), size=(n, p))
    if normalize:
        x /= np.linalg.norm(x, axis=0, keepdims=True)
    return DesignMatrix(DenseMatrix(x), "gaussian", unit_norm_columns=normalize)


def sample_support(p: int, k0: int, seed: int) -> tuple[int, ...]:
    """Uniformly random k0-subset of {0, ..., p-1}, sorted ascending."""
    if not 1 <= k0 <= p:
        raise ValidationError(f"k0 must lie in [1, p={p}], got {k0}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(p, size=k0, replace=False)
    return tuple(sorted(idx.tolist()))


def make_signal(p: int, support, spec: SignalSpec, seed: int) -> np.ndarray:
    """Sparse coefficient vector with the given support and value model."""
    support = tuple(sorted(int(i) for i in support))
    if len(set(support)) != len(support):
        raise ValidationError("support contains repeated indices")
    if support and not 0 <= support[0] <= support[-1] < p:
        raise ValidationError(f"support indices must lie in [0, {p})")
    if len(support) != spec.k0:
        raise ValidationError(f"support size {len(support)} != spec k0 {spec.k0}")
    rng = np.random.default_rng(seed)
    beta = np.zeros(p)
    if spec.kind == "pm_one":
        beta[list(support)] = _PM_ONE[rng.integers(0, 2, size=spec.k0)]
    else:
        values = spec.ratio ** np.arange(spec.k0)
        beta[list(support)] = rng.permutation(values)
    return beta


def synthesize(design: DesignMatrix, beta: np.ndarray, support, snr: float, seed: int) -> SparseProblem:
    """Assemble y = X beta + w with sigma chosen so ||X beta||^2/(n sigma^2) = snr.

    sigma is derived from the realized ||X beta||, so the SNR identity holds
    exactly for this trial rather than on ensemble average.
    """
    if snr <= 0.0:
        raise ValidationError(f"snr must be positive, got {snr}")
    beta = np.asarray(beta, dtype=np.float64)
    support = frozenset(int(i) for i in support)
    nonzero = {int(i) for i in np.nonzero(beta)[0]}
    if nonzero != support:
        raise ValidationError("beta must be nonzero exactly on the given support")
    x = design.matrix.values
    if beta.shape != (design.p,):
        raise ValidationError(f"beta has shape {beta.shape}, expected ({design.p},)")
    signal = x @ beta
    signal_norm = math.sqrt(signal.dot(signal))  # np.linalg.norm of a 1-d vector, same bits
    if signal_norm == 0.0:
        raise ValidationError("X beta vanishes; SNR is undefined for a zero signal")
    n = design.n
    sigma = signal_norm / math.sqrt(n * snr)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=n)
    return SparseProblem(
        design=design,
        true_support=support,
        beta=beta,
        sigma=sigma,
        noise=noise,
        observation=signal + noise,
        snr=float(snr),
    )
