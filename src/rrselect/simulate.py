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
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .designs import (
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
from .streams import Stream, pcg64_states

DESIGN_KINDS = ("identity_hadamard", "gaussian", "external")
_MASK64 = (1 << 64) - 1
# Most trials in one job: _count_block seeds its job's streams in one pass,
# so this bounds the streams held at once.
_SEED_CHUNK = 1024

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
            try:
                snr = 10.0 ** (value / 10.0)  # the power ratio run_trial takes
            except OverflowError:
                snr = math.inf
            _require(0.0 < snr < math.inf, f"snr_db[{i}]", "give a positive finite 10^(dB/10)", value)
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


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """splitmix64 of each word of a uint64 array (its products wrap mod 2**64)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _derive_trial_seeds(root_seed: int, snr_index: int, start: int, stop: int) -> np.ndarray:
    """The 64-bit seeds of trials [start, stop) at one SNR point, as uint64:
    splitmix64(splitmix64(splitmix64(root_seed) ^ snr_index) ^ t), every
    integer taken mod 2**64. The words are one-element arrays, not numpy
    scalars, whose wrapping products warn."""
    root, snr, first = (np.array([word & _MASK64], dtype=np.uint64) for word in (root_seed, snr_index, start))
    trials = first + np.arange(stop - start, dtype=np.uint64)
    return _splitmix64_array(_splitmix64_array(_splitmix64_array(root) ^ snr) ^ trials)


class TrialStreams(NamedTuple):
    """One trial's random streams: those of np.random.default_rng(splitmix64(seed ^ c))
    for its derived seed and c = 1, 2, 3 and 4. matrix is None unless the
    sweep draws a Gaussian design per trial."""

    support: Stream
    signal: Stream
    noise: Stream
    matrix: Stream | None = None


def trial_streams(config: ExperimentConfig, snr_index: int, start: int, stop: int) -> list[TrialStreams]:
    """The streams of trials [start, stop) at one SNR point, seeded in one pass."""
    tags = np.arange(1, 5 if config.regenerate_matrix else 4, dtype=np.uint64)
    seeds = _splitmix64_array(_derive_trial_seeds(config.root_seed, snr_index, start, stop)[:, None] ^ tags)
    streams = [Stream(state, inc) for state, inc in pcg64_states(seeds)]  # trial by trial
    kinds = len(tags)
    return [TrialStreams(*streams[i : i + kinds]) for i in range(0, len(streams), kinds)]


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
    streams: TrialStreams | None = None,
) -> TrialRecord:
    """One synthetic trial: draw data, compute one path per rule, apply all
    algorithms to identical data, and record outcomes.

    streams, if given, must be trial_streams' for this trial: a caller that
    seeds a block of trials at once passes them, and without them the trial
    seeds its own. A Stream is a value no draw moves, so the same streams
    draw the same data on every call and the record depends only on
    (config, snr_db, trial_index).

    Selectors (rrt/rrm/rrta) see only the path; known-sigma rules receive the
    trial's true sigma and fixed_k0 the true sparsity, as oracles by design.
    """
    if streams is None:
        _require(snr_db in config.snr_db_list, "snr_db", f"be one of the config's points {config.snr_db_list}", snr_db)
        snr_index = config.snr_db_list.index(snr_db)
        (streams,) = trial_streams(config, snr_index, trial_index, trial_index + 1)

    design = matrix
    if config.regenerate_matrix:
        design = make_gaussian(config.design.n, config.design.p, streams.matrix, config.design.normalize)
    if design is None:
        design = build_design(config.design)

    p, k0 = config.design.p, config.signal.k0
    support = sample_support(p, k0, streams.support)
    beta = make_signal(p, support, config.signal, streams.signal)
    snr = 10.0 ** (snr_db / 10.0)
    problem = synthesize(design, beta, support, snr, streams.noise)

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
    snr_index = config.snr_db_list.index(snr_db)
    counts = Counter()
    for trial_index, trial in enumerate(trial_streams(config, snr_index, start, stop), start=start):
        for label, outcome in run_trial(config, matrix, snr_db, trial_index, trial).outcomes.items():
            counts[snr_db, label, "pe"] += not outcome.exact
            counts[snr_db, label, "pfd"] += outcome.false_discovery
    return counts


def ProcessPoolExecutor(max_workers: int):
    """The process pool run_sweep maps its jobs on when workers > 1.

    concurrent.futures.process pulls in multiprocessing and socket, so it is
    imported here, on a sweep's first pool: a one-worker sweep never loads it.
    Tests and perfbench patch this name to stand in for or count the pool.
    """
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def _binomial_stderr(successes: int, trials: int) -> float:
    phat = successes / trials
    return math.sqrt(phat * (1.0 - phat) / trials)


def run_sweep(config: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Full sweep over the configured SNR points.

    Each SNR point's trials are split once into jobs of at most
    min(_SEED_CHUNK, ceil(trials / workers)) trials, and every job goes
    through one ordered map, in one process pool when workers > 1. Trials are
    independent and seed-determined, so any worker count produces the
    identical SweepResult.
    """
    config.validate()
    _require(not isinstance(workers, bool) and isinstance(workers, int), "workers", "be an integer", workers)
    _require(workers >= 1, "workers", "be >= 1", workers)
    matrix = None if config.regenerate_matrix else build_design(config.design)
    trials = config.trials
    size = min(_SEED_CHUNK, (trials + workers - 1) // workers)
    jobs = [
        (config, matrix, snr_db, start, min(start + size, trials))
        for snr_db in config.snr_db_list
        for start in range(0, trials, size)
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
