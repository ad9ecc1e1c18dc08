"""Seeded Monte-Carlo engine: sweep SNR, run every configured algorithm on the
same trials, and aggregate support-error / false-discovery rates.

Each trial is a pure function of (config, derived seed), so sweeps are
bit-reproducible and trivially parallel: worker count never changes the
output.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .designs import (
    DESIGN_KINDS,
    DesignMatrix,
    SignalSpec,
    is_finite_number,
    load_design_csv,
    make_gaussian,
    make_identity_hadamard,
    make_signal,
    sample_support,
    synthesize,
)
from .errors import ValidationError
from .omp import RULES, SupportEstimate, default_kmax, solution_path, stop_fixed, stop_rcsc, stop_rpsc
from .selectors import RrtaParams, prefix_hits, residual_ratios, rrm_select, rrt_select, rrta_select

_MASK64 = (1 << 64) - 1

# The open interval each AlgorithmSpec parameter must lie in: the domains the
# kernels enforce (rrt_threshold for alpha, RrtaParams for pfd and q); eta,
# the exponent of the sigma^-eta scaling, only needs to be finite.
PARAMETER_DOMAINS = {
    "alpha": (0.0, 1.0),
    "eta": (-math.inf, math.inf),
    "pfd": (0.0, 1.0),
    "q": (0.0, math.inf),
}


class Oracle(NamedTuple):
    """What a rule knows besides its path: the noise level sigma or the
    sparsity k0, for the rules that need them."""

    sigma: float | None = None
    k0: int | None = None


@dataclass(frozen=True)
class Algorithm:
    """A registry entry: select(path, ratios, oracle, spec) -> SupportEstimate,
    where ratios are the path's residual ratios and spec is the AlgorithmSpec;
    the spec fields it reads, in `recover --method name:v1,v2` order; and the
    oracle input it needs."""

    select: Callable[..., SupportEstimate]
    params: tuple[str, ...] = ()
    needs: str | None = None  # "sigma" | "k0"


# Every stopping rule and selector, read by config validation, the sweep and
# the `recover` subcommand alike. The select functions look the kernels up by
# module-global name at call time, so a caller may wrap those names (as a
# tracer does).
ALGORITHMS: dict[str, Algorithm] = {
    "fixed_k0": Algorithm(lambda path, rr, o, s: stop_fixed(path, o.k0), needs="k0"),
    "rpsc": Algorithm(lambda path, rr, o, s: stop_rpsc(path, o.sigma), needs="sigma"),
    "rcsc": Algorithm(lambda path, rr, o, s: stop_rcsc(path, o.sigma), needs="sigma"),
    "rpsc_hsc": Algorithm(lambda path, rr, o, s: stop_rpsc(path, o.sigma, eta=s.eta), ("eta",), "sigma"),
    "rcsc_hsc": Algorithm(lambda path, rr, o, s: stop_rcsc(path, o.sigma, eta=s.eta), ("eta",), "sigma"),
    "rrt": Algorithm(lambda path, rr, o, s: path.estimate(rrt_select(rr, s.alpha)), ("alpha",)),
    "rrm": Algorithm(lambda path, rr, o, s: path.estimate(rrm_select(rr))),
    "rrta": Algorithm(lambda path, rr, o, s: path.estimate(rrta_select(rr, RrtaParams(s.pfd, s.q))), ("q", "pfd")),
}


def _require(ok: bool, where: str, what: str, value) -> None:
    """Raise ValidationError "where: must what, got value" unless ok."""
    if not ok:
        raise ValidationError(f"{where}: must {what}, got {value!r}")


def supported_roster() -> dict[str, dict[str, float]]:
    """Algorithm families and their default parameters (each runs on omp or ols)."""
    return {name: AlgorithmSpec(name).params for name in ALGORITHMS}


@dataclass(frozen=True)
class DesignSpec:
    """How to materialize the sensing matrix for a sweep."""

    kind: str
    n: int
    p: int
    seed: int = 0
    normalize: bool = False
    path: str | None = None  # CSV source for kind == "external"


@dataclass(frozen=True)
class AlgorithmSpec:
    """One configured algorithm. The field defaults are every entry point's
    defaults; parameters the algorithm does not read keep them."""

    name: str
    rule: str = "omp"
    alpha: float = 0.1
    eta: float = 0.1
    pfd: float = 0.1
    q: float = 2.0

    @property
    def params(self) -> dict[str, float]:
        """The parameters this algorithm reads, by name."""
        return {key: getattr(self, key) for key in ALGORITHMS[self.name].params}

    @cached_property
    def label(self) -> str:
        """name(key=value,...)[|rule], e.g. rrt(alpha=0.1) or rrm|ols; built
        once per spec (the cache is not a field: equality, hashing and
        dataclasses.replace ignore it)."""
        params = ",".join(f"{key}={value:g}" for key, value in sorted(self.params.items()))
        base = f"{self.name}({params})" if params else self.name
        return base if self.rule == "omp" else f"{base}|{self.rule}"

    def check(self, where: str) -> None:
        """Raise ValidationError, naming `where` and the field, for a name or
        rule that is not a known string, a parameter that is not a finite
        number, or a parameter the algorithm reads outside its domain."""
        name, rule = self.name, self.rule
        _require(isinstance(name, str) and name in ALGORITHMS, f"{where}.name", f"be one of {sorted(ALGORITHMS)}", name)
        _require(isinstance(rule, str) and rule in RULES, f"{where}.rule", f"be one of {RULES}", rule)
        read = ALGORITHMS[name].params
        for key, (low, high) in PARAMETER_DOMAINS.items():
            value = getattr(self, key)
            _require(is_finite_number(value), f"{where}.{key}", "be a finite number", value)
            _require(key not in read or low < value < high, f"{where}.{key}", f"lie in ({low:g},{high:g})", value)


@dataclass(frozen=True)
class ExperimentConfig:
    design: DesignSpec
    signal: SignalSpec
    snr_db_list: tuple[float, ...]
    trials: int
    algorithms: tuple[AlgorithmSpec, ...]
    root_seed: int
    k_max_override: int | None = None
    regenerate_matrix_per_trial: bool | None = None  # None: per design default

    @property
    def k_max(self) -> int:
        return self.k_max_override if self.k_max_override is not None else default_kmax(self.design.n)

    @property
    def regenerate_matrix(self) -> bool:
        if self.regenerate_matrix_per_trial is None:
            return self.design.kind == "gaussian"
        return self.regenerate_matrix_per_trial

    def validate(self) -> None:
        """Raise ValidationError, naming the field, for a field of the wrong
        type or out of range. The one check of a config, for library and JSON
        callers alike; run_sweep runs it once per sweep."""
        d = self.design
        _require(isinstance(d, DesignSpec), "design", "be a DesignSpec", d)
        _require(isinstance(self.signal, SignalSpec), "signal", "be a SignalSpec", self.signal)
        _require(isinstance(d.kind, str) and d.kind in DESIGN_KINDS, "design.kind", f"be one of {DESIGN_KINDS}", d.kind)
        integers = {
            "trials": self.trials,
            "root_seed": self.root_seed,
            "design.n": d.n,
            "design.p": d.p,
            "design.seed": d.seed,
            "signal.k0": self.signal.k0,
        }
        if self.k_max_override is not None:
            integers["k_max_override"] = self.k_max_override
        for where, value in integers.items():
            _require(not isinstance(value, bool) and isinstance(value, int), where, "be an integer", value)
        _require(isinstance(d.normalize, bool), "design.normalize", "be true or false", d.normalize)
        _require(d.path is None or isinstance(d.path, str), "design.path", "be a string or None", d.path)
        regenerate = self.regenerate_matrix_per_trial
        is_flag = regenerate is None or isinstance(regenerate, bool)
        _require(is_flag, "regenerate_matrix_per_trial", "be a bool or None", regenerate)
        _require(isinstance(self.snr_db_list, tuple), "snr_db", "be a tuple (a JSON list)", self.snr_db_list)
        for i, value in enumerate(self.snr_db_list):
            _require(is_finite_number(value), f"snr_db[{i}]", "be a finite number", value)
        _require(isinstance(self.algorithms, tuple), "algorithms", "be a tuple (a JSON list)", self.algorithms)
        for i, alg in enumerate(self.algorithms):
            _require(isinstance(alg, AlgorithmSpec), f"algorithms[{i}]", "be an AlgorithmSpec", alg)
            alg.check(f"algorithms[{i}]")
        if d.kind == "identity_hadamard":
            if d.n < 1 or d.n & (d.n - 1):
                raise ValidationError(f"design.n: must be a power of two, got {d.n}")
            if d.p != 2 * d.n:
                raise ValidationError(f"design.p: must equal 2n={2 * d.n}, got {d.p}")
        if d.kind == "external" and not d.path:
            raise ValidationError("design.path: required for kind 'external'")
        if d.n < 2 or d.p < 1:
            raise ValidationError(f"design dimensions invalid: n={d.n}, p={d.p}")
        if not self.snr_db_list:
            raise ValidationError("snr_db: must be nonempty")
        if len(set(self.snr_db_list)) != len(self.snr_db_list):
            raise ValidationError("snr_db: values must be distinct (they key the trial seeds)")
        if self.trials < 1:
            raise ValidationError(f"trials: must be >= 1, got {self.trials}")
        if not self.algorithms:
            raise ValidationError("algorithms: must be nonempty")
        labels = [a.label for a in self.algorithms]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"algorithms: duplicate entries {labels}")
        if not 1 <= self.signal.k0 <= self.design.p:
            raise ValidationError(f"signal.k0: must lie in [1, p], got {self.signal.k0}")
        k_max = self.k_max
        if not self.signal.k0 <= k_max <= min(d.n - 1, d.p):
            raise ValidationError(
                f"k_max={k_max} must lie in [k0={self.signal.k0}, min(n-1, p)={min(d.n - 1, d.p)}]"
            )
        if regenerate and d.kind != "gaussian":
            raise ValidationError("regenerate_matrix_per_trial: only meaningful for gaussian designs")
        if self.root_seed < 0:
            raise ValidationError(f"root_seed: must be nonnegative, got {self.root_seed}")

    def to_dict(self) -> dict:
        """The config as JSON values, with the SNR points, signal.ratio and
        the algorithm parameters as floats: an experiment's digest does not
        depend on whether a number was written as an int or a float."""
        return {
            "design": asdict(self.design),
            "signal": dict(asdict(self.signal), ratio=float(self.signal.ratio)),
            "snr_db": [float(v) for v in self.snr_db_list],
            "trials": self.trials,
            "algorithms": [
                dict(asdict(a), **{key: float(getattr(a, key)) for key in PARAMETER_DOMAINS}) for a in self.algorithms
            ],
            "root_seed": self.root_seed,
            "k_max": self.k_max,
            "regenerate_matrix_per_trial": self.regenerate_matrix,
        }

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


class AlgorithmOutcome(NamedTuple):
    estimate: SupportEstimate
    exact: bool
    false_discovery: bool


@dataclass
class TrialRecord:
    trial_index: int
    snr_db: float
    true_support: tuple[int, ...]
    outcomes: dict[str, AlgorithmOutcome] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepRow:
    snr_db: float
    algorithm: str
    rule: str
    trials: int
    pe: float
    pe_stderr: float
    pfd: float
    pfd_stderr: float


@dataclass
class SweepResult:
    config_digest: str
    rows: list[SweepRow]


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_trial_seed(root_seed: int, snr_index: int, trial_index: int) -> int:
    """Collision-resistant 64-bit stream id for one (snr point, trial) cell."""
    h = _splitmix64(root_seed & _MASK64)
    h = _splitmix64(h ^ (snr_index & _MASK64))
    h = _splitmix64(h ^ (trial_index & _MASK64))
    return h


def build_design(spec: DesignSpec) -> DesignMatrix:
    if spec.kind == "identity_hadamard":
        return make_identity_hadamard(spec.n)
    if spec.kind == "gaussian":
        return make_gaussian(spec.n, spec.p, spec.seed, spec.normalize)
    if spec.kind == "external":
        design = load_design_csv(spec.path)
        if (design.n, design.p) != (spec.n, spec.p):
            raise ValidationError(
                f"external matrix is {design.n}x{design.p}, config says {spec.n}x{spec.p}"
            )
        return design
    raise ValidationError(f"unknown design kind {spec.kind!r}")


def score_estimate(estimate: SupportEstimate, hits: list[int], k0: int) -> AlgorithmOutcome:
    """Score an estimate of a k0-sparse support from its path's prefix hits
    (selectors.prefix_hits): the first k picks are the support exactly when
    k = k0 = h(k), and hold a false index when h(k) < k."""
    k = estimate.k_selected
    h = hits[k]
    return AlgorithmOutcome(estimate, k == k0 == h, h < k)


def run_trial(
    config: ExperimentConfig,
    matrix: DesignMatrix | None,
    snr_db: float,
    trial_index: int,
) -> TrialRecord:
    """One synthetic trial: draw data, compute one path per rule, apply all
    algorithms to identical data, and record outcomes.

    Selectors (rrt/rrm/rrta) see only the path; known-sigma rules receive the
    trial's true sigma and fixed_k0 the true sparsity, as oracles by design.
    """
    snr_index = config.snr_db_list.index(snr_db)
    seed = derive_trial_seed(config.root_seed, snr_index, trial_index)
    support_seed = _splitmix64(seed ^ 0x1)
    signal_seed = _splitmix64(seed ^ 0x2)
    noise_seed = _splitmix64(seed ^ 0x3)
    matrix_seed = _splitmix64(seed ^ 0x4)

    design = matrix
    if config.regenerate_matrix:
        design = make_gaussian(config.design.n, config.design.p, matrix_seed, config.design.normalize)
    if design is None:
        design = build_design(config.design)

    p, k0 = config.design.p, config.signal.k0
    support = sample_support(p, k0, support_seed)
    beta = make_signal(p, support, config.signal, signal_seed)
    snr = 10.0 ** (snr_db / 10.0)
    problem = synthesize(design, beta, support, snr, noise_seed)

    oracle = Oracle(sigma=problem.sigma, k0=k0)
    paths: dict[str, tuple] = {}  # rule -> (path, its residual ratios, its prefix hits)
    record = TrialRecord(trial_index=trial_index, snr_db=snr_db, true_support=support)
    for alg in config.algorithms:
        computed = paths.get(alg.rule)
        if computed is None:
            path = solution_path(design, problem.observation, config.k_max, alg.rule)
            computed = paths[alg.rule] = (path, residual_ratios(path), prefix_hits(path, support))
        path, ratios, hits = computed
        estimate = ALGORITHMS[alg.name].select(path, ratios, oracle, alg)
        record.outcomes[alg.label] = score_estimate(estimate, hits, k0)
    return record


def _count_block(args) -> Counter:
    """(snr_db, label, "pe" | "pfd") -> how many trials in [start, stop) the
    algorithm got wrong | made a false discovery on."""
    config, matrix, snr_db, start, stop = args
    counts = Counter()
    for trial_index in range(start, stop):
        for label, outcome in run_trial(config, matrix, snr_db, trial_index).outcomes.items():
            counts[snr_db, label, "pe"] += not outcome.exact
            counts[snr_db, label, "pfd"] += outcome.false_discovery
    return counts


def _binomial_stderr(successes: int, trials: int) -> float:
    phat = successes / trials
    return math.sqrt(phat * (1.0 - phat) / trials)


def run_sweep(config: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Full sweep over the configured SNR points.

    Every trial block of the sweep (one per SNR point on 1 worker, else up to
    4 per worker) goes through one ordered map, in one process pool when
    workers > 1. Trials are independent and seed-determined, so any worker
    count produces the identical SweepResult.
    """
    config.validate()
    if workers < 1:
        raise ValidationError(f"workers: must be >= 1, got {workers}")
    matrix = None if config.regenerate_matrix else build_design(config.design)
    trials = config.trials
    blocks = min(workers * 4, trials) if workers > 1 else 1
    bounds = np.linspace(0, trials, blocks + 1, dtype=int).tolist()
    jobs = [
        (config, matrix, snr_db, start, stop)
        for snr_db in config.snr_db_list
        for start, stop in zip(bounds[:-1], bounds[1:])
    ]
    if workers == 1:
        counts = sum(map(_count_block, jobs), Counter())
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            counts = sum(pool.map(_count_block, jobs), Counter())
    rows: list[SweepRow] = []
    for snr_db in config.snr_db_list:
        for alg in config.algorithms:
            err, fd = counts[snr_db, alg.label, "pe"], counts[snr_db, alg.label, "pfd"]
            rows.append(
                SweepRow(
                    snr_db=float(snr_db),
                    algorithm=alg.label,
                    rule=alg.rule,
                    trials=trials,
                    pe=err / trials,
                    pe_stderr=_binomial_stderr(err, trials),
                    pfd=fd / trials,
                    pfd_stderr=_binomial_stderr(fd, trials),
                )
            )
    return SweepResult(config_digest=config.digest(), rows=rows)


SWEEP_CSV_HEADER = [
    "experiment_id",
    "design",
    "n",
    "p",
    "k0",
    "signal_kind",
    "snr_db",
    "algorithm",
    "rule",
    "trials",
    "pe",
    "pe_stderr",
    "pfd",
    "pfd_stderr",
]


def write_sweep_csv(fh, result: SweepResult, config: ExperimentConfig) -> None:
    """One row per (snr point, algorithm); floats use repr for exact round-trip."""
    writer = csv.writer(fh)
    writer.writerow(SWEEP_CSV_HEADER)
    for row in result.rows:
        writer.writerow(
            [
                result.config_digest,
                config.design.kind,
                config.design.n,
                config.design.p,
                config.signal.k0,
                config.signal.kind,
                repr(row.snr_db),
                row.algorithm,
                row.rule,
                row.trials,
                repr(row.pe),
                repr(row.pe_stderr),
                repr(row.pfd),
                repr(row.pfd_stderr),
            ]
        )


def read_sweep_csv(fh) -> list[SweepRow]:
    reader = csv.DictReader(fh)
    rows = []
    for rec in reader:
        rows.append(
            SweepRow(
                snr_db=float(rec["snr_db"]),
                algorithm=rec["algorithm"],
                rule=rec["rule"],
                trials=int(rec["trials"]),
                pe=float(rec["pe"]),
                pe_stderr=float(rec["pe_stderr"]),
                pfd=float(rec["pfd"]),
                pfd_stderr=float(rec["pfd_stderr"]),
            )
        )
    return rows
