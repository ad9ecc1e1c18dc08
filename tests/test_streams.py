"""Block-seeded PCG64 streams against numpy.

numpy does not promise that a Generator stream stays the same across its
versions (NEP 19), so every expected value here is drawn by the installed
numpy: `np.random.default_rng(seed)` or a Generator given the same state.
"""
import sys
import threading

import numpy as np
import pytest

from rrselect import simulate
from rrselect.cli import figure_config
from rrselect.designs import SignalSpec, make_gaussian, make_identity_hadamard, make_signal, sample_support, synthesize
from rrselect.errors import ValidationError
from rrselect.simulate import (
    _count_block,
    _derive_trial_seeds,
    _splitmix64_array,
    build_design,
    run_sweep,
    run_trial,
    trial_streams,
)
from rrselect.streams import Stream, pcg64_states

# One and two entropy words, and the largest seed of each.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
MANY = 100_000
MASK64 = 2**64 - 1


def splitmix64(x: int) -> int:
    """One splitmix64 step on a 64-bit word, in Python ints: the oracle of
    the sweep's uint64 arrays."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def trial_seed(root_seed: int, snr_index: int, trial_index: int) -> int:
    """The seed of one (SNR point, trial) cell, every integer taken mod 2**64."""
    h = splitmix64(root_seed & MASK64)
    h = splitmix64(h ^ (snr_index & MASK64))
    return splitmix64(h ^ (trial_index & MASK64))


def _trial_seeds(count: int, tag: int) -> list[int]:
    """Seeds as a sweep derives them: splitmix64(trial_seed(7, 0, t) ^ tag)."""
    return _splitmix64_array(_derive_trial_seeds(7, 0, 0, count) ^ np.uint64(tag)).tolist()


def test_pcg64_states_equal_numpys_seeding():
    seeds = EDGE_SEEDS + list(range(2, 1000)) + _trial_seeds(MANY, 1)
    for seed, (state, inc) in zip(seeds, pcg64_states(seeds)):
        expected = np.random.PCG64(seed).state["state"]
        assert (state, inc) == (expected["state"], expected["inc"]), seed
    assert pcg64_states([]) == []


# (p, k) shapes cycled over the seeds: the sweeps' 64 and 3, every k of a small
# population, and the largest population numpy samples by Floyd's algorithm.
SHAPES = [(64, 3)] * 4 + [(5, k) for k in range(1, 6)] + [(32, 2), (200, 12), (10_000, 3)]


def test_support_equals_numpys_choice():
    for i, seed in enumerate(_trial_seeds(MANY, 1)):
        p, k = SHAPES[i % len(SHAPES)]
        expected = sorted(np.random.default_rng(seed).choice(p, k, replace=False).tolist())
        assert list(sample_support(p, k, Stream.of(seed))) == expected, (seed, p, k)


def test_signs_equal_numpys_integers():
    # A drawn 0 is the sign -1 and a drawn 1 the sign +1.
    for i, seed in enumerate(_trial_seeds(MANY, 2)):
        k = 1 + i % 5
        signs = make_signal(8, range(k), SignalSpec(k0=k), Stream.of(seed))[:k]
        assert signs.tolist() == (2 * np.random.default_rng(seed).integers(0, 2, size=k) - 1).tolist(), seed


@pytest.mark.parametrize("p, k", [(10_001, 200), (10_001, 201), (20_000, 401), (12_000, 12_000)])
def test_floyd_and_tail_shuffle_branches_equal_numpy(p, k):
    # numpy shuffles a tail of arange(p) once p > 10000 and k > p // 50, and
    # runs Floyd's algorithm below that.
    for seed in _trial_seeds(5, 1):
        expected = sorted(np.random.default_rng(seed).choice(p, k, replace=False).tolist())
        assert list(sample_support(p, k, Stream.of(seed))) == expected


def test_generator_draws_equal_numpys():
    design = make_identity_hadamard(32)
    beta = np.zeros(64)
    beta[[3, 40]] = [1.0, -1.0]
    geometric = SignalSpec(k0=3, kind="geometric")
    for seed in EDGE_SEEDS + _trial_seeds(500, 4):
        expected = np.random.default_rng(seed).normal(0.0, 1.0 / np.sqrt(32), size=(32, 64))
        assert np.array_equal(make_gaussian(32, 64, Stream.of(seed)).matrix, expected)
        noise = synthesize(design, beta, 10.0, Stream.of(seed)).noise
        sigma = np.linalg.norm(design.matrix @ beta) / np.sqrt(32 * 10.0)
        assert np.array_equal(noise, np.random.default_rng(seed).normal(0.0, sigma, size=32))
        values = np.random.default_rng(seed).permutation(geometric.ratio ** np.arange(3))
        assert np.array_equal(make_signal(64, (1, 2, 9), geometric, Stream.of(seed))[[1, 2, 9]], values)


def test_int_seed_and_its_stream_draw_alike():
    # Stream.of seeds an int through pcg64_states, the sweep's own seeding:
    # the stream of default_rng(seed) at each end of both entropy widths.
    spec = SignalSpec(k0=3)
    for seed in EDGE_SEEDS + [2**63, 12345]:
        expected = np.random.PCG64(seed).state["state"]
        assert Stream.of(seed) == Stream(expected["state"], expected["inc"]), seed
        support = tuple(sorted(np.random.default_rng(seed).choice(64, 3, replace=False).tolist()))
        assert sample_support(64, 3, seed) == sample_support(64, 3, Stream.of(seed)) == support
        assert np.array_equal(make_signal(64, (1, 5, 9), spec, seed), make_signal(64, (1, 5, 9), spec, Stream.of(seed)))


_SEED_REFUSAL = r"^seed: must be an integer in \[0, 2\*\*64\), got "
_DRAWS = {
    "Stream.of": lambda seed: Stream.of(seed),
    "make_gaussian": lambda seed: make_gaussian(4, 8, seed),
    "sample_support": lambda seed: sample_support(8, 2, seed),
    "make_signal": lambda seed: make_signal(8, (1, 5), SignalSpec(k0=2), seed),
    "synthesize": lambda seed: synthesize(make_identity_hadamard(4), np.eye(8)[1] + np.eye(8)[5], 10.0, seed),
    "build_design": lambda seed: build_design(simulate.DesignSpec("gaussian", 4, 8), seed),
}


@pytest.mark.parametrize("draw", sorted(_DRAWS))
@pytest.mark.parametrize(
    "seed",
    [-1, 2**64, 2**70, 1.5, 3.0, True, np.int64(3), np.uint64(3), "3", [1, 2], None],
    ids=lambda seed: repr(seed),
)
def test_a_seed_is_a_64_bit_word(draw, seed):
    # numpy would take -1 as a bare ValueError and 1.5 as a TypeError, True
    # as 1, None as OS entropy, [1, 2] as entropy words and 2**64 as a longer
    # seed; each is a ValidationError naming the seed here. build_design takes
    # None as no seed: a sweep's gaussian design is drawn per trial.
    if draw == "build_design" and seed is None:
        assert _DRAWS[draw](seed) is None
        return
    with pytest.raises(ValidationError, match=_SEED_REFUSAL):
        _DRAWS[draw](seed)


def test_a_stream_draws_the_same_on_every_call():
    stream = Stream.of(12345)
    assert sample_support(64, 3, stream) == sample_support(64, 3, stream) == sample_support(64, 3, 12345)
    for spec in (SignalSpec(k0=3), SignalSpec(k0=3, kind="geometric")):
        first = make_signal(64, (1, 5, 9), spec, stream)
        assert np.array_equal(make_signal(64, (1, 5, 9), spec, stream), first)
    assert (stream.state, stream.inc) == (Stream.of(12345).state, Stream.of(12345).inc)


def test_threads_each_draw_their_own_streams():
    seeds = _trial_seeds(40, 4)
    expected = {s: np.random.default_rng(s).normal(size=(8, 8)) * (1.0 / np.sqrt(8)) for s in seeds}
    errors = []

    def draw():
        for _ in range(5):
            for seed in seeds:
                if not np.array_equal(make_gaussian(8, 8, Stream.of(seed)).matrix, expected[seed]):
                    errors.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_vectorized_splitmix_equals_the_scalar_one():
    assert splitmix64(0) == 0xE220A8397B1DCDAF  # the first output of splitmix64 seeded with 0
    words = EDGE_SEEDS + [2**63, 2**63 - 1] + np.random.default_rng(5).integers(0, 2**64, 10_000, dtype=np.uint64).tolist()
    assert _splitmix64_array(np.array(words, dtype=np.uint64)).tolist() == [splitmix64(w) for w in words]
    for root in (0, 7, 2**64 - 1, 2**70 + 3):
        for snr_index in (0, 5):
            got = _derive_trial_seeds(root, snr_index, 90, 400).tolist()
            assert got == [trial_seed(root, snr_index, t) for t in range(90, 400)]


@pytest.mark.parametrize("root", [0, 2**64 - 2, 2**64 - 1, 2**64, 2**64 + 9])
@pytest.mark.parametrize("snr_index", [3, 2**32 - 1, 2**32, 2**32 + 7, 2**40])
def test_trial_seeds_equal_the_oracle_across_the_wraps(root, snr_index):
    # Every word is taken mod 2**64: a trial range may cross the int64 limit
    # 2**63 and wrap at 2**64, as an unsigned 64-bit count does.
    for start in (0, 2**63 - 4, 2**64 - 4, 2**64 + 2**63 - 4):
        got = _derive_trial_seeds(root, snr_index, start, start + 9).tolist()
        assert got == [trial_seed(root, snr_index, t) for t in range(start, start + 9)], start
    assert _derive_trial_seeds(root, snr_index, 5, 5).tolist() == []


def test_trial_streams_are_the_trials_seeds():
    for name in ("fig1_hadamard", "fig2_gaussian"):
        config = figure_config(name, 30, 11)
        streams = trial_streams(config, 2, 10, 30)
        for t, trial in zip(range(10, 30), streams):
            seed = trial_seed(11, 2, t)
            for tag, stream in zip((1, 2, 3, 4), trial):
                if stream is None:
                    assert tag == 4 and config.design.kind != "gaussian"
                    continue
                expected = np.random.PCG64(splitmix64(seed ^ tag)).state["state"]
                assert (stream.state, stream.inc) == (expected["state"], expected["inc"])


@pytest.mark.parametrize("name", ["fig1_hadamard", "fig2_gaussian"])
def test_run_trial_with_and_without_streams(name):
    config = figure_config(name, 20, 3)
    matrix = build_design(config.design)
    for snr_index, snr_db in enumerate(config.snr_db_list[:3]):
        streams = trial_streams(config, snr_index, 0, 20)
        for t in range(0, 20, 3):
            record = run_trial(config, matrix, snr_db, t, streams[t])
            assert record == run_trial(config, matrix, snr_db, t)
            assert record == run_trial(config, matrix, snr_db, t, streams[t])


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: maps in this process, starts none."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_sweep_rows_do_not_depend_on_the_seeding_chunk(monkeypatch):
    # 13 trials per point, a prime: jobs of 5, 7 or 8 trials leave a short last one.
    config = figure_config("fig1_hadamard", 13, 5)
    whole = run_sweep(config).rows
    jobs = []
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(simulate, "_count_block", lambda job: jobs.append(job[2:]) or _count_block(job))
    for chunk in (1, 8, 1024):
        monkeypatch.setattr(simulate, "_SEED_CHUNK", chunk)
        for workers in (1, 2, 3):
            jobs.clear()
            assert run_sweep(config, workers).rows == whole, (chunk, workers)
            size = min(chunk, -(-13 // workers))
            for snr_db in config.snr_db_list:
                # Each point's jobs cover [0, trials) once, in order, each at most `size` long.
                spans = [(start, stop) for point, start, stop in jobs if point == snr_db]
                assert [start for start, _ in spans] == list(range(0, 13, size)), (chunk, workers)
                assert [stop for _, stop in spans] == [min(start + size, 13) for start, _ in spans]
