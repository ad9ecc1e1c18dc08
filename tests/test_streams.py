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
from rrselect.simulate import (
    _count_block,
    _derive_trial_seeds,
    _splitmix64,
    _splitmix64_array,
    build_design,
    derive_trial_seed,
    run_trial,
    trial_streams,
)
from rrselect.streams import Stream, pcg64_states

# One and two entropy words, and the largest seed of each.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
MANY = 100_000


def _trial_seeds(count: int, tag: int) -> list[int]:
    """Seeds as a sweep derives them: _splitmix64(derive_trial_seed(...) ^ tag)."""
    return _splitmix64_array(_derive_trial_seeds(7, 0, 0, count) ^ np.uint64(tag)).tolist()


def _generator(state: int, inc: int) -> np.random.Generator:
    gen = np.random.Generator(np.random.PCG64(0))
    gen.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
    return gen


def test_pcg64_states_equal_numpys_seeding():
    seeds = EDGE_SEEDS + list(range(2, 1000)) + _trial_seeds(MANY, 1)
    for seed, (state, inc) in zip(seeds, pcg64_states(seeds)):
        expected = np.random.PCG64(seed).state["state"]
        assert (state, inc) == (expected["state"], expected["inc"]), seed
    assert pcg64_states([]) == []


def test_raw_words_equal_numpys():
    for seed in EDGE_SEEDS + _trial_seeds(200, 1):
        stream = Stream.of(seed)
        assert [stream.next64() for _ in range(5)] == np.random.default_rng(seed).bit_generator.random_raw(5).tolist()


# (p, k) shapes cycled over the seeds: the sweeps' 64 and 3, every k of a small
# population (k = p draws nothing at j = 0), and Floyd's largest population.
SHAPES = [(64, 3)] * 4 + [(5, k) for k in range(1, 6)] + [(32, 2), (200, 12), (10_000, 3)]


def test_support_equals_numpys_choice():
    for i, seed in enumerate(_trial_seeds(MANY, 1)):
        p, k = SHAPES[i % len(SHAPES)]
        expected = sorted(np.random.default_rng(seed).choice(p, k, replace=False).tolist())
        assert Stream.of(seed).support(p, k) == expected, (seed, p, k)


def test_signs_equal_numpys_integers():
    for i, seed in enumerate(_trial_seeds(MANY, 2)):
        k = 1 + i % 5
        assert Stream.of(seed).bits(k) == np.random.default_rng(seed).integers(0, 2, size=k).tolist(), seed


def _stream_whose_next_word_is(word: int, inc: int = 0x1234567 * 2 + 1) -> Stream:
    """Invert the LCG step so the stream's next 64-bit output is `word`: a state
    after the step of word itself has 0 in its top six bits (no rotation) and
    0 in its high half, so XSL-RR outputs word."""
    after = word
    before = ((after - inc) * pow(0x2360ED051FC65DA44385DF649FCCF645, -1, 1 << 128)) % (1 << 128)
    return Stream(before, inc)


@pytest.mark.parametrize("j", [2, 2**31, 2**32 - 2])
def test_lemire_rejection_equals_numpy(j):
    # A zero word's two halves are rejected by every bound with 2**32 % (j+1) > 0.
    stream = _stream_whose_next_word_is(0)
    gen = _generator(stream.state, stream.inc)
    start = stream.state
    assert _stream_whose_next_word_is(0).next64() == 0
    first = stream.bounded(j)
    # Three 32-bit words went into the first draw: two rejected, one kept.
    assert stream.half is not None
    steps = start
    for _ in range(2):
        steps = (steps * 0x2360ED051FC65DA44385DF649FCCF645 + stream.inc) % (1 << 128)
    assert stream.state == steps
    drawn = [first] + [stream.bounded(j) for _ in range(5)]
    assert drawn == gen.integers(0, j + 1, size=6).tolist()


def test_support_after_a_rejection_equals_numpy():
    # choice(5, 3) first draws from [0, 2], which rejects a zero word.
    stream = _stream_whose_next_word_is(0)
    expected = sorted(_generator(stream.state, stream.inc).choice(5, 3, replace=False).tolist())
    assert stream.support(5, 3) == expected


@pytest.mark.parametrize("p, k", [(10_001, 200), (10_001, 201), (20_000, 401), (12_000, 12_000)])
def test_floyd_and_tail_shuffle_branches_equal_numpy(p, k):
    # numpy shuffles a tail of arange(p) once p > 10000 and k > p // 50, and
    # runs Floyd's algorithm below that.
    for seed in _trial_seeds(5, 1):
        expected = sorted(np.random.default_rng(seed).choice(p, k, replace=False).tolist())
        assert Stream.of(seed).support(p, k) == expected


def test_generator_continues_a_stream_mid_word():
    for seed in EDGE_SEEDS + _trial_seeds(50, 3):
        stream = Stream.of(seed)
        head = stream.bits(1)  # keeps the high half of a word for the next 32-bit draw
        rest = stream.generator().integers(0, 2, size=4).tolist()
        assert head + rest == np.random.default_rng(seed).integers(0, 2, size=5).tolist()


def test_generator_draws_equal_numpys():
    design = make_identity_hadamard(32)
    beta = np.zeros(64)
    beta[[3, 40]] = [1.0, -1.0]
    geometric = SignalSpec(k0=3, kind="geometric")
    for seed in EDGE_SEEDS + _trial_seeds(500, 4):
        expected = np.random.default_rng(seed).normal(0.0, 1.0 / np.sqrt(32), size=(32, 64))
        assert np.array_equal(make_gaussian(32, 64, Stream.of(seed)).matrix, expected)
        noise = synthesize(design, beta, (3, 40), 10.0, Stream.of(seed)).noise
        sigma = np.linalg.norm(design.matrix @ beta) / np.sqrt(32 * 10.0)
        assert np.array_equal(noise, np.random.default_rng(seed).normal(0.0, sigma, size=32))
        values = np.random.default_rng(seed).permutation(geometric.ratio ** np.arange(3))
        assert np.array_equal(make_signal(64, (1, 2, 9), geometric, Stream.of(seed))[[1, 2, 9]], values)


def test_int_seed_and_its_stream_draw_alike():
    spec = SignalSpec(k0=3)
    for seed in EDGE_SEEDS + [12345]:
        assert sample_support(64, 3, seed) == sample_support(64, 3, Stream.of(seed))
        assert np.array_equal(make_signal(64, (1, 5, 9), spec, seed), make_signal(64, (1, 5, 9), spec, Stream.of(seed)))
    # A seed default_rng rejects is rejected alike, and one it accepts past
    # 64 bits gives its stream.
    with pytest.raises(ValueError):
        sample_support(64, 3, -1)
    assert sample_support(64, 3, 2**70) == tuple(sorted(np.random.default_rng(2**70).choice(64, 3, replace=False).tolist()))


def test_a_stream_draws_the_same_on_every_call():
    stream = Stream.of(12345)
    assert sample_support(64, 3, stream) == sample_support(64, 3, stream) == sample_support(64, 3, 12345)
    for spec in (SignalSpec(k0=3), SignalSpec(k0=3, kind="geometric")):
        first = make_signal(64, (1, 5, 9), spec, stream)
        assert np.array_equal(make_signal(64, (1, 5, 9), spec, stream), first)
    assert (stream.state, stream.inc, stream.half) == (Stream.of(12345).state, Stream.of(12345).inc, None)


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
    words = EDGE_SEEDS + [2**63, 2**63 - 1] + np.random.default_rng(5).integers(0, 2**64, 10_000, dtype=np.uint64).tolist()
    assert _splitmix64_array(np.array(words, dtype=np.uint64)).tolist() == [_splitmix64(w) for w in words]
    for root in (0, 7, 2**64 - 1, 2**70 + 3):
        for snr_index in (0, 5):
            got = _derive_trial_seeds(root, snr_index, 90, 400).tolist()
            assert got == [derive_trial_seed(root, snr_index, t) for t in range(90, 400)]


def test_trial_streams_are_the_trials_seeds():
    for name in ("fig1_hadamard", "fig2_gaussian"):
        config = figure_config(name, 30, 11)
        streams = trial_streams(config, 2, 10, 30)
        for t, trial in zip(range(10, 30), streams):
            seed = derive_trial_seed(11, 2, t)
            for tag, stream in zip((1, 2, 3, 4), trial):
                if stream is None:
                    assert tag == 4 and not config.regenerate_matrix
                    continue
                expected = np.random.PCG64(_splitmix64(seed ^ tag)).state["state"]
                assert (stream.state, stream.inc, stream.half) == (expected["state"], expected["inc"], None)


@pytest.mark.parametrize("name", ["fig1_hadamard", "fig2_gaussian"])
def test_run_trial_with_and_without_streams(name):
    config = figure_config(name, 20, 3)
    matrix = None if config.regenerate_matrix else build_design(config.design)
    for snr_index, snr_db in enumerate(config.snr_db_list[:3]):
        streams = trial_streams(config, snr_index, 0, 20)
        for t in range(0, 20, 3):
            record = run_trial(config, matrix, snr_db, t, streams[t])
            assert record == run_trial(config, matrix, snr_db, t)
            assert record == run_trial(config, matrix, snr_db, t, streams[t])


def test_block_counts_do_not_depend_on_the_seeding_chunk(monkeypatch):
    config = figure_config("fig1_hadamard", 40, 5)
    matrix = build_design(config.design)
    job = (config, matrix, config.snr_db_list[4], 3, 40)
    whole = _count_block(job)
    monkeypatch.setattr(simulate, "_SEED_CHUNK", 8)
    assert _count_block(job) == whole
