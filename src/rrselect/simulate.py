"""Experiment configs, with their JSON form and the designs they build, and the
seeded Monte-Carlo engine: sweep SNR, run every configured algorithm on the
same trials, and aggregate support-error / false-discovery rates.

Each trial is a pure function of (config, derived seed), so sweeps are
bit-reproducible and trivially parallel: worker count never changes the output.
"""
from __future__ import annotations

import csv
import dataclasses
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
    load_design_csv,
    make_gaussian,
    make_identity_hadamard,
    make_signal,
    sample_support,
    synthesize,
)
from .errors import ParseError, ValidationError, is_int, is_real, require_field
from .omp import RULES, SupportEstimate, default_kmax, solution_path, stop_fixed, stop_rcsc, stop_rpsc
from .selectors import prefix_hits, residual_ratios, rrm_select, rrt_select, rrta_select
from .streams import SEED_LIMIT, Stream, pcg64_states

DESIGN_KINDS = ("identity_hadamard", "gaussian", "external")
_MASK64 = (1 << 64) - 1
# Most trials in one job: _count_block seeds its job's streams in one pass,
# so this bounds the streams held at once.
_SEED_CHUNK = 1024

# The open interval each AlgorithmSpec parameter must lie in: the domains the
# kernels enforce (rrt_select for alpha, rrta_alpha for pfd and q); eta, the
# exponent of the sigma^-eta scaling, only needs to be finite.
PARAMETER_DOMAINS = {
    "alpha": (0.0, 1.0),
    "eta": (-math.inf, math.inf),
    "pfd": (0.0, 1.0),
    "q": (0.0, math.inf),
}

# The largest |snr_db| a config takes: y = X beta + w, rounded to doubles,
# carries the smaller part to about 5e-7 relative error here, 1e-4 at 250 dB.
SNR_DB_LIMIT = 200.0


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


# Every stopping rule and selector, read by AlgorithmSpec's checks, the sweep and
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
    "rrta": Algorithm(lambda path, rr, o, s: path.estimate(rrta_select(rr, pfd=s.pfd, q=s.q)), ("q", "pfd")),
}


@dataclass(frozen=True)
class DesignSpec:
    """How to materialize the sensing matrix for a sweep; p of
    identity_hadamard defaults to 2n, the only p it allows, and is stored, so
    dataclasses.replace copies it: replace(DesignSpec("identity_hadamard",
    32), n=16, p=None) derives p = 32, and without p=None it raises "design.p:
    must equal 2n=32, got 64". A gaussian design is drawn afresh in every
    trial; a fixed matrix is an external one (`rrselect gen-matrix` writes a
    seeded Gaussian one). normalize is for gaussian and path for external
    only: elsewhere each would change the experiment id and no row."""

    kind: str
    n: int
    p: int | None = None
    normalize: bool = False
    path: str | None = None  # CSV source for kind == "external"

    def __post_init__(self) -> None:
        kind, n = self.kind, self.n
        kind_ok = isinstance(kind, str) and kind in DESIGN_KINDS
        require_field(kind_ok, "design.kind", f"be one of {DESIGN_KINDS}", kind)
        require_field(is_int(n), "design.n", "be an integer", n)
        if self.p is None and kind == "identity_hadamard":
            object.__setattr__(self, "p", 2 * n)
        require_field(is_int(self.p), "design.p", "be an integer", self.p)
        require_field(n >= 1, "design.n", "be >= 1", n)
        require_field(self.p >= 1, "design.p", "be >= 1", self.p)
        normalize_ok = self.normalize is False or self.normalize is True and kind == "gaussian"
        require_field(normalize_ok, "design.normalize", "be false, or true for kind 'gaussian'", self.normalize)
        path_ok = isinstance(self.path, str) and self.path != "" if kind == "external" else self.path is None
        require_field(path_ok, "design.path", "be a CSV path for kind 'external', else None", self.path)
        if kind == "identity_hadamard":
            require_field(not n & (n - 1), "design.n", "be a power of two", n)
            require_field(self.p == 2 * n, "design.p", f"equal 2n={2 * n}", self.p)


@dataclass(frozen=True)
class AlgorithmSpec:
    """One configured algorithm. The field defaults are every entry point's;
    a parameter the algorithm does not read must keep its default, as another
    value would change the experiment id and no row. Each parameter is stored
    as a float. A spec cannot know its place in a list: its builder prefixes
    the field its errors name with it."""

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

    def __post_init__(self) -> None:
        name, rule = self.name, self.rule
        name_ok = isinstance(name, str) and name in ALGORITHMS
        require_field(name_ok, "name", f"be one of {sorted(ALGORITHMS)}", name)
        require_field(isinstance(rule, str) and rule in RULES, "rule", f"be one of {RULES}", rule)
        read = ALGORITHMS[name].params
        for key, (low, high) in PARAMETER_DOMAINS.items():
            value = getattr(self, key)
            require_field(is_real(value), key, "be a finite number", value)
            object.__setattr__(self, key, float(value))
            if key in read:
                require_field(low < value < high, key, f"lie in ({low:g},{high:g})", value)
            else:
                default = getattr(AlgorithmSpec, key)  # the field's default
                unread = f"keep its default {default:g} ({name} does not read it)"
                require_field(value == default, key, unread, value)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep. Every config type checks its fields when built and at every
    dataclasses.replace, raising a ValidationError that names the field: each
    spec its own, this what needs more than one. A config that exists is valid.
    It stores what it runs: SNR points as floats, and k_max, which None makes
    default_kmax(design.n); replace copies it, as DesignSpec's p."""

    design: DesignSpec
    signal: SignalSpec
    snr_db_list: tuple[float, ...]
    trials: int
    algorithms: tuple[AlgorithmSpec, ...]
    root_seed: int
    k_max: int | None = None

    def __post_init__(self) -> None:
        d = self.design
        require_field(isinstance(d, DesignSpec), "design", "be a DesignSpec", d)
        require_field(isinstance(self.signal, SignalSpec), "signal", "be a SignalSpec", self.signal)
        require_field(d.n >= 2, "design.n", "be >= 2", d.n)
        if self.k_max is None:
            object.__setattr__(self, "k_max", default_kmax(d.n))
        for where in ("trials", "root_seed", "k_max"):
            value = getattr(self, where)
            require_field(is_int(value), where, "be an integer", value)
        require_field(isinstance(self.snr_db_list, tuple), "snr_db", "be a tuple (a JSON list)", self.snr_db_list)
        for i, value in enumerate(self.snr_db_list):
            in_range = is_real(value) and -SNR_DB_LIMIT <= value <= SNR_DB_LIMIT
            require_field(in_range, f"snr_db[{i}]", f"lie in [{-SNR_DB_LIMIT:g}, {SNR_DB_LIMIT:g}] dB", value)
        snr_db = tuple(map(float, self.snr_db_list))
        object.__setattr__(self, "snr_db_list", snr_db)
        require_field(isinstance(self.algorithms, tuple), "algorithms", "be a tuple (a JSON list)", self.algorithms)
        for i, alg in enumerate(self.algorithms):
            require_field(isinstance(alg, AlgorithmSpec), f"algorithms[{i}]", "be an AlgorithmSpec", alg)
        require_field(len(snr_db) > 0, "snr_db", "be nonempty", snr_db)
        require_field(len(set(snr_db)) == len(snr_db), "snr_db", "be distinct (they key the trial seeds)", snr_db)
        require_field(self.trials >= 1, "trials", "be >= 1", self.trials)
        require_field(len(self.algorithms) > 0, "algorithms", "be nonempty", self.algorithms)
        labels = [a.label for a in self.algorithms]
        require_field(len(set(labels)) == len(labels), "algorithms", "have distinct labels", labels)
        k0, longest = self.signal.k0, min(d.n - 1, d.p)  # a path's most steps
        require_field(k0 <= d.p, "signal.k0", f"lie in [1, {d.p}]", k0)
        require_field(k0 <= self.k_max <= longest, "k_max", f"lie in [{k0}, {longest}]", self.k_max)
        require_field(0 <= self.root_seed < SEED_LIMIT, "root_seed", "lie in [0, 2**64)", self.root_seed)

    def to_dict(self) -> dict:
        """The config's fields under their JSON names, tuples as lists. A
        number that may be an int or a float is stored as a float, so the
        digest does not depend on which one a config was given."""
        return {_JSON_NAMES.get(key, key): list(v) if isinstance(v, tuple) else v for key, v in asdict(self).items()}

    def digest(self) -> str:
        # Configs once also held design.seed and regenerate_matrix_per_trial;
        # they are hashed at the only values a config can now have, so that
        # every experiment id stays what it was.
        fields = self.to_dict()
        fields["design"]["seed"] = 0
        fields["regenerate_matrix_per_trial"] = self.design.kind == "gaussian"
        blob = json.dumps(fields, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


# The JSON names of the ExperimentConfig fields that to_dict spells differently.
_JSON_NAMES = {"snr_db_list": "snr_db"}


def _fields(raw, cls, context: str) -> dict:
    """The keyword arguments of the dataclass `cls` that the JSON object `raw`
    gives. An unknown field, or a missing one that has no default, is a
    ValidationError naming it; an integral number such as 100.0 for a field
    annotated int becomes an int. The values' types are left to the
    dataclass, which checks its fields when built."""
    require_field(isinstance(raw, dict), context, "be a JSON object", raw)
    fields = {_JSON_NAMES.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(fields)
    if unknown:
        raise ValidationError(f"{context}: unknown field(s) {sorted(unknown)}")
    kwargs = {}
    for key, f in fields.items():
        if key in raw:
            value = raw[key]
            if f.type in ("int", "int | None") and isinstance(value, float) and value.is_integer():
                value = int(value)
            kwargs[f.name] = value
        elif f.default is dataclasses.MISSING:
            raise ValidationError(f"{context}.{key}: required field missing")
    return kwargs


def algorithm_from_json(entry, where: str) -> AlgorithmSpec:
    """An algorithm entry in its JSON form, a name or an object of
    AlgorithmSpec fields, as an AlgorithmSpec. The spec's ValidationError
    names the field; `where`, the entry's place in a config file or on the
    command line, goes before it, as a spec cannot know its own."""
    fields = {"name": entry} if isinstance(entry, str) else _fields(entry, AlgorithmSpec, where)
    try:
        return AlgorithmSpec(**fields)
    except ValidationError as exc:
        raise ValidationError(f"{where}.{exc}") from None


def parse_config(json_text: str) -> ExperimentConfig:
    """The config that JSON text in to_dict's form describes; each dataclass
    checks its fields' types and ranges when built. A field left out takes
    the default of its dataclass field (DesignSpec makes design.p of
    identity_hadamard 2n), and parse_config(json.dumps(c.to_dict())) == c."""
    try:
        raw = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    top = _fields(raw, ExperimentConfig, "config")
    top["design"] = DesignSpec(**_fields(top["design"], DesignSpec, "design"))
    top["signal"] = SignalSpec(**_fields(top["signal"], SignalSpec, "signal"))
    if isinstance(top["snr_db_list"], list):
        top["snr_db_list"] = tuple(top["snr_db_list"])
    if isinstance(top["algorithms"], list):  # each entry a name or an object
        top["algorithms"] = tuple(algorithm_from_json(a, f"algorithms[{i}]") for i, a in enumerate(top["algorithms"]))
    return ExperimentConfig(**top)


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
    design is gaussian, which each trial draws afresh."""

    support: Stream
    signal: Stream
    noise: Stream
    matrix: Stream | None = None


def trial_streams(config: ExperimentConfig, snr_index: int, start: int, stop: int) -> list[TrialStreams]:
    """The streams of trials [start, stop) at one SNR point, seeded in one pass."""
    tags = np.arange(1, 5 if config.design.kind == "gaussian" else 4, dtype=np.uint64)
    seeds = _splitmix64_array(_derive_trial_seeds(config.root_seed, snr_index, start, stop)[:, None] ^ tags)
    streams = [Stream(state, inc) for state, inc in pcg64_states(seeds)]  # trial by trial
    kinds = len(tags)
    return [TrialStreams(*streams[i : i + kinds]) for i in range(0, len(streams), kinds)]


def build_design(spec: DesignSpec, seed: int | Stream | None = None) -> DesignMatrix | None:
    """The design spec describes, for a sweep and for `rrselect gen-matrix`.
    A gaussian design is make_gaussian(n, p, seed, normalize), and None
    without a seed: each trial of a sweep then draws its own from its matrix
    stream. A fixed kind, which every trial of a sweep shares, draws nothing
    and refuses a seed."""
    if spec.kind == "gaussian":
        return None if seed is None else make_gaussian(spec.n, spec.p, seed, spec.normalize)
    require_field(seed is None, "seed", f"be None for kind {spec.kind!r}, which draws nothing", seed)
    if spec.kind == "identity_hadamard":
        return make_identity_hadamard(spec.n)
    design = load_design_csv(spec.path)  # kind "external"
    shape_ok = design.matrix.shape == (spec.n, spec.p)
    require_field(shape_ok, "design.path", f"hold an n x p = {spec.n}x{spec.p} matrix", design.matrix.shape)
    return design


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

    matrix is the design the trial uses, if given: a sweep passes
    build_design(config.design) to every trial, which is None for a gaussian
    design. Without one, the trial builds its own, from its matrix stream
    if the design is gaussian.

    streams, if given, must be trial_streams' for this trial: a caller that
    seeds a block of trials at once passes them, and without them the trial
    seeds its own. A Stream is a value no draw moves, so the same streams
    draw the same data on every call and the record depends only on
    (config, snr_db, trial_index).

    Selectors (rrt/rrm/rrta) see only the path; known-sigma rules receive the
    trial's true sigma and fixed_k0 the true sparsity, as oracles by design.
    """
    if streams is None:
        points = config.snr_db_list
        require_field(snr_db in points, "snr_db", f"be one of the config's points {points}", snr_db)
        snr_index = points.index(snr_db)
        (streams,) = trial_streams(config, snr_index, trial_index, trial_index + 1)

    design = matrix if matrix is not None else build_design(config.design, streams.matrix)

    p, k0 = config.design.p, config.signal.k0
    support = sample_support(p, k0, streams.support)
    beta = make_signal(p, support, config.signal, streams.signal)
    snr = 10.0 ** (float(snr_db) / 10.0)
    problem = synthesize(design, beta, snr, streams.noise)

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
    require_field(is_int(workers), "workers", "be an integer", workers)
    require_field(workers >= 1, "workers", "be >= 1", workers)
    matrix = build_design(config.design)
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
                    snr_db=snr_db,
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
