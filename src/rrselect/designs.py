"""Design matrices, their CSV format, sparse signals, and noisy observations
at a target SNR.

Two matrix models are built in: the deterministic identity+Hadamard
concatenation [I_n, H_n/sqrt(n)] and i.i.d. Gaussian entries N(0, 1/n).

Every random draw takes a `seed`: an int in [0, 2**64) stands for the stream
of np.random.default_rng(seed), a streams.Stream for a stream prepared by the
caller (a sweep seeds its trials' streams a job at a time).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    ValidationError,
    is_int,
    is_real,
    require_field,
    require_indices,
    require_int,
)
from .streams import Stream

SIGNAL_KINDS = ("pm_one", "geometric")

# The +-1 values of a pm_one signal, indexed by Generator.integers(0, 2, k0):
# the draw Generator.choice([-1.0, 1.0], k0) makes, without its set-up.
_PM_ONE = np.array([-1.0, 1.0])


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """An n x p sensing matrix and what is derived from it, once per design.

    `matrix` is a read-only float64 copy of the array given, in column-major
    (Fortran) order: greedy paths read whole columns, and a design shared by
    many paths is not changed under them. Every entry must be finite.
    `column_sq` is the read-only ||x_j||^2 of each column, which the paths'
    and erc_constant's rank tests scale by; each must be a double too.
    """

    matrix: np.ndarray
    column_sq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        x = np.array(self.matrix, dtype=np.float64, order="F")
        if x.ndim != 2:
            raise DimensionMismatchError(f"expected a 2-d array, got ndim={x.ndim}")
        if x.size and not np.isfinite(x).all():
            raise ValidationError("matrix entries must be finite")
        sq = np.einsum("ij,ij->j", x, x)
        overflow = np.flatnonzero(np.isinf(sq))
        if overflow.size:
            raise ValidationError(f"matrix column {overflow[0]}: its squared norm overflows a double")
        x.flags.writeable = sq.flags.writeable = False
        object.__setattr__(self, "matrix", x)
        object.__setattr__(self, "column_sq", sq)

    def __reduce__(self):
        # Unpickled arrays come back writeable: rebuild from the matrix alone,
        # so a pool worker's copy is read-only again and derives its own norms.
        return (DesignMatrix, (self.matrix,))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def p(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def unit_norm_columns(self) -> bool:
        """Every column has norm 1 to within 1e-10."""
        return bool(np.allclose(np.sqrt(self.column_sq), 1.0, atol=1e-10))


@dataclass(frozen=True)
class SignalSpec:
    """Shape of the sparse coefficient vector to draw.

    pm_one: each support entry is an independent uniform +-1 (ratio unread).
    geometric: the values {1, ratio, ..., ratio^(k0-1)} are placed on the
    support in a random order (dynamic range ratio^-(k0-1)).
    """

    k0: int
    kind: str = "pm_one"
    ratio: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        # Types first: in the range checks a string raises a bare TypeError, and 3.5 or True pass.
        k0, kind, ratio = self.k0, self.kind, self.ratio
        require_field(is_int(k0), "signal.k0", "be an integer", k0)
        require_field(is_real(ratio), "signal.ratio", "be a finite number", ratio)
        ratio = float(ratio)
        object.__setattr__(self, "ratio", ratio)
        require_field(k0 >= 1, "signal.k0", "be >= 1", k0)
        require_field(kind in SIGNAL_KINDS, "signal.kind", f"be one of {SIGNAL_KINDS}", kind)
        geometric_ok = kind != "geometric" or 0.0 < ratio < 1.0
        require_field(geometric_ok, "signal.ratio", "lie in (0,1) for a geometric signal", ratio)
        # A scalar power, as k0 meets p only later; past 2**63 any ratio < 1 underflows.
        nonzero_ok = kind != "geometric" or ratio ** min(k0 - 1, 2**63) > 0.0
        require_field(nonzero_ok, "signal.ratio", "keep ratio^(k0-1) above 0 in doubles", ratio)
        pm_one_ok = kind != "pm_one" or ratio == SignalSpec.ratio
        require_field(pm_one_ok, "signal.ratio", "keep its default 1/3 (pm_one reads none)", ratio)


@dataclass(frozen=True, eq=False)
class SparseProblem:
    """What one synthetic trial draws for y = X beta + w: the noise level
    sigma, the noise w and the observation y. The design, beta and the SNR
    are the caller's own inputs."""

    sigma: float
    noise: np.ndarray
    observation: np.ndarray


def sylvester_hadamard(n: int) -> np.ndarray:
    """n x n Hadamard matrix by Sylvester doubling; n must be a power of two."""
    require_int("n", n, ValidationError)
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
    return DesignMatrix(x)


def _read_csv(path) -> np.ndarray:
    """A 2-d float64 array from CSV: one line per row, comma separated, no header."""
    return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)


def load_design_csv(path) -> DesignMatrix:
    """An external design read from CSV; DesignMatrix checks its entries."""
    return DesignMatrix(_read_csv(path))


def load_vector_csv(path) -> np.ndarray:
    """A vector read from CSV as one column or one row; every entry must be finite."""
    arr = _read_csv(path)
    if 1 not in arr.shape:
        raise DimensionMismatchError(f"expected a vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("vector entries must be finite")
    return arr.reshape(-1)


def save_matrix_csv(path, matrix: np.ndarray) -> None:
    """Write a matrix as CSV with full float64 round-trip precision."""
    np.savetxt(path, np.atleast_2d(matrix), delimiter=",", fmt="%.17g")


def make_gaussian(n: int, p: int, seed: int | Stream, normalize: bool = False) -> DesignMatrix:
    """i.i.d. N(0, 1/n) entries; optionally rescale each column to unit norm."""
    require_int("n", n, ValidationError)
    require_int("p", p, ValidationError)
    if n < 1 or p < 1:
        raise ValidationError(f"n and p must be >= 1, got n={n}, p={p}")
    x = Stream.of(seed).generator().normal(0.0, 1.0 / math.sqrt(n), size=(n, p))
    if normalize:
        x /= np.linalg.norm(x, axis=0, keepdims=True)
    return DesignMatrix(x)


def sample_support(p: int, k0: int, seed: int | Stream) -> tuple[int, ...]:
    """Uniformly random k0-subset of {0, ..., p-1}, sorted ascending: the
    draw Generator.choice(p, k0, replace=False) makes."""
    require_int("p", p, ValidationError)
    require_int("k0", k0, ValidationError)
    if not 1 <= k0 <= p:
        raise ValidationError(f"k0 must lie in [1, p={p}], got {k0}")
    return tuple(sorted(Stream.of(seed).generator().choice(p, k0, replace=False).tolist()))


def make_signal(p: int, support, spec: SignalSpec, seed: int | Stream) -> np.ndarray:
    """Sparse coefficient vector with the given support and value model."""
    require_int("p", p, ValidationError)
    support = require_indices("support", support, p, ValidationError)
    if len(set(support)) != len(support):
        raise ValidationError("support contains repeated indices")
    if len(support) != spec.k0:
        raise ValidationError(f"support size {len(support)} != spec k0 {spec.k0}")
    gen = Stream.of(seed).generator()
    beta = np.zeros(p)
    if spec.kind == "pm_one":
        beta[list(support)] = _PM_ONE[gen.integers(0, 2, spec.k0)]
    else:
        beta[list(support)] = gen.permutation(spec.ratio ** np.arange(spec.k0))
    return beta


def synthesize(design: DesignMatrix, beta: np.ndarray, snr: float, seed: int | Stream) -> SparseProblem:
    """Assemble y = X beta + w with sigma chosen so ||X beta||^2/(n sigma^2) = snr.

    beta's support is where it is nonzero. sigma is derived from the realized
    ||X beta||, so the SNR identity holds exactly for this trial rather than
    on ensemble average; an ||X beta||, sigma or y that overflows is refused,
    and so is a sigma that underflows to 0.
    """
    if not (is_real(snr) and snr > 0.0):
        raise ValidationError(f"snr must be positive and finite, got {snr!r}")
    snr = float(snr)
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (design.p,):
        raise ValidationError(f"beta has shape {beta.shape}, expected ({design.p},)")
    n = design.n
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        signal = design.matrix @ beta
        signal_norm = math.sqrt(signal.dot(signal))  # np.linalg.norm of a 1-d vector, same bits
        if signal_norm == 0.0:
            raise ValidationError("X beta vanishes; SNR is undefined for a zero signal")
        if not math.isfinite(signal_norm):
            raise ValidationError(f"||X beta|| is {signal_norm}: X beta overflows a double or beta is not finite")
        sigma = signal_norm / math.sqrt(n * snr)
        if not 0.0 < sigma < math.inf:
            raise ValidationError(f"sigma = ||X beta||/sqrt(n snr) {'over' if sigma else 'under'}flows at snr {snr!r}")
        noise = Stream.of(seed).generator().normal(0.0, sigma, size=n)
        observation = signal + noise
    if not np.isfinite(observation).all():
        raise ValidationError("y = X beta + w overflows a double")
    return SparseProblem(sigma=sigma, noise=noise, observation=observation)
