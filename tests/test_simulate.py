import dataclasses
import io
import math
import os
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrselect import cli
from rrselect.designs import SignalSpec
from rrselect.errors import ValidationError
from rrselect.omp import SolutionPath, SupportEstimate, stop_fixed
from rrselect.selectors import RrtaParams, prefix_hits
from rrselect.simulate import (
    AlgorithmSpec,
    DesignSpec,
    ExperimentConfig,
    build_design,
    derive_trial_seed,
    read_sweep_csv,
    run_sweep,
    run_trial,
    score_estimate,
    supported_roster,
    write_sweep_csv,
)

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "reference")


def _config(**overrides):
    base = dict(
        design=DesignSpec(kind="identity_hadamard", n=32, p=64),
        signal=SignalSpec(k0=3, kind="pm_one"),
        snr_db_list=(20.0,),
        trials=5,
        algorithms=(AlgorithmSpec("rrm"),),
        root_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_roster_families_and_defaults():
    roster = supported_roster()
    assert len(roster) == 8
    assert set(roster) == {
        "fixed_k0",
        "rpsc",
        "rcsc",
        "rpsc_hsc",
        "rcsc_hsc",
        "rrt",
        "rrm",
        "rrta",
    }
    assert roster["rpsc_hsc"] == {"eta": 0.1}
    assert roster["rrt"] == {"alpha": 0.1}
    assert roster["rrta"] == {"pfd": 0.1, "q": 2.0}
    # non-default levels are accepted configuration
    _config(algorithms=(AlgorithmSpec("rrt", alpha=0.01),)).validate()


def test_algorithm_label_is_cached_outside_the_fields():
    spec = AlgorithmSpec("rrt", alpha=0.1)
    assert spec.label == "rrt(alpha=0.1)"
    assert "label" in vars(spec)  # built once, then read from the instance
    clone = pickle.loads(pickle.dumps(spec))
    assert clone.label == spec.label and clone == spec
    changed = dataclasses.replace(spec, alpha=0.01)
    assert changed.label == "rrt(alpha=0.01)"
    assert dataclasses.replace(AlgorithmSpec("rrm"), rule="ols").label == "rrm|ols"
    # equality and hashing read the fields only, cached or not
    fresh = AlgorithmSpec("rrt", alpha=0.1)
    assert "label" not in vars(fresh)
    assert fresh == spec and hash(fresh) == hash(spec)
    assert {spec: 1}[fresh] == 1


def test_derive_trial_seed_deterministic_and_distinct():
    assert derive_trial_seed(7, 0, 0) == derive_trial_seed(7, 0, 0)
    assert derive_trial_seed(7, 0, 0) != derive_trial_seed(7, 0, 1)
    assert derive_trial_seed(7, 1, 0) != derive_trial_seed(7, 0, 0)
    seeds = {derive_trial_seed(7, i, j) for i in range(20) for j in range(200)}
    assert len(seeds) == 20 * 200
    assert all(0 <= s < 2**64 for s in list(seeds)[:10])


def test_derive_trial_seed_avalanche():
    rng = np.random.default_rng(0)
    flips = []
    for _ in range(10_000):
        root = int(rng.integers(0, 2**63))
        si = int(rng.integers(0, 2**16))
        ti = int(rng.integers(0, 2**31))
        base = derive_trial_seed(root, si, ti)
        which = int(rng.integers(0, 3))
        bit = 1 << int(rng.integers(0, [63, 16, 31][which]))
        args = [root, si, ti]
        args[which] ^= bit
        flipped = derive_trial_seed(*args)
        flips.append(bin(base ^ flipped).count("1"))
    assert np.mean(flips) >= 20.0


def test_run_trial_deterministic():
    config = _config(trials=3, algorithms=(AlgorithmSpec("rrm"), AlgorithmSpec("rrt")))
    matrix = build_design(config.design)
    a = run_trial(config, matrix, 20.0, 1)
    b = run_trial(config, matrix, 20.0, 1)
    assert a.true_support == b.true_support
    assert a.outcomes == b.outcomes


def test_run_trial_high_snr_fixed_k0_exact():
    config = _config(snr_db_list=(120.0,), algorithms=(AlgorithmSpec("fixed_k0"),))
    matrix = build_design(config.design)
    for ti in range(10):
        record = run_trial(config, matrix, 120.0, ti)
        assert record.outcomes["fixed_k0"].exact


def test_score_estimate_bookkeeping():
    # prefix hits of a path whose picks are (1, 2, ...) and (1, 3, ...)
    # against the true support {1, 2}
    est = SupportEstimate(2, "ok")
    out = score_estimate(est, [0, 1, 2], 2)
    assert out.exact and not out.false_discovery

    out = score_estimate(est, [0, 1, 1], 2)
    assert not out.exact and out.false_discovery

    # an empty selection against the true support {1}
    out = score_estimate(SupportEstimate(0, "empty_selection"), [0, 1, 1], 1)
    assert not out.exact and not out.false_discovery

    # degenerate empty truth: an empty estimate is exact
    out = score_estimate(SupportEstimate(0, "ok"), [0, 0, 0], 0)
    assert out.exact and not out.false_discovery

    # exact implies no false discovery by construction
    assert not score_estimate(est, [0, 1, 2], 2).false_discovery


@settings(max_examples=300, deadline=None)
@given(
    selected=st.lists(st.integers(0, 11), unique=True, max_size=8),
    support=st.frozensets(st.integers(0, 11), max_size=5),
    data=st.data(),
)
def test_score_from_prefix_hits_matches_the_set_definition(selected, support, data):
    # exact: the first k picks are the true support; false discovery: one of
    # them is not in it. k is an empty selection, any order 0..K, or the
    # exhausted estimate at K.
    K = len(selected)
    path = SolutionPath("omp", tuple(selected), np.zeros(K + 1), np.zeros(K + 1), "complete", 12, 12, max(K, 1))
    k = data.draw(st.sampled_from([None, "exhausted", *range(K + 1)]))
    estimate = stop_fixed(path, K + 1) if k == "exhausted" else path.estimate(k)
    picked = set(selected[: estimate.k_selected])
    out = score_estimate(estimate, prefix_hits(path, support), len(support))
    assert out.estimate == estimate
    assert out.exact == (picked == support)
    assert out.false_discovery == bool(picked - support)


def test_sweep_shapes_and_determinism():
    config = _config(
        snr_db_list=(10.0, 30.0),
        trials=8,
        algorithms=(AlgorithmSpec("rrm"), AlgorithmSpec("rrta"), AlgorithmSpec("fixed_k0")),
    )
    res1 = run_sweep(config)
    res2 = run_sweep(config)
    assert res1.rows == res2.rows  # bit-identical repeat
    assert len(res1.rows) == 2 * 3
    for row in res1.rows:
        assert 0.0 <= row.pe <= 1.0 and 0.0 <= row.pfd <= 1.0
        assert row.trials == 8


def test_sweep_single_trial_degenerate_stats():
    config = _config(trials=1)
    row = run_sweep(config).rows[0]
    assert row.pe in (0.0, 1.0)
    assert row.pe_stderr == 0.0


def test_parallel_equals_sequential():
    config = _config(snr_db_list=(15.0,), trials=12, algorithms=(AlgorithmSpec("rrm"), AlgorithmSpec("rrt")))
    seq = run_sweep(config, workers=1)
    par = run_sweep(config, workers=2)
    assert seq.rows == par.rows
    assert seq.config_digest == par.config_digest


def test_gaussian_redraw_gives_fresh_matrices_per_trial():
    from rrselect.designs import make_gaussian
    from rrselect.simulate import _splitmix64

    config = _config(
        design=DesignSpec(kind="gaussian", n=16, p=24, seed=3),
        snr_db_list=(60.0,),
        trials=2,
        algorithms=(AlgorithmSpec("fixed_k0"),),
        signal=SignalSpec(k0=2, kind="pm_one"),
    )
    assert config.regenerate_matrix
    # run_trial regenerates internally; identical trial index -> identical record
    a = run_trial(config, None, 60.0, 0)
    b = run_trial(config, None, 60.0, 0)
    assert a.true_support == b.true_support
    # distinct trials derive distinct matrix seeds (tag 0x4 in the seed fanout)
    seeds = [
        _splitmix64(derive_trial_seed(config.root_seed, 0, ti) ^ 0x4) for ti in (0, 1)
    ]
    m0 = make_gaussian(16, 24, seeds[0])
    m1 = make_gaussian(16, 24, seeds[1])
    assert not np.array_equal(m0.matrix, m1.matrix)

    fixed = dataclasses.replace(config, regenerate_matrix_per_trial=False)
    assert not fixed.regenerate_matrix


def test_external_design_sweep(tmp_path):
    from rrselect.designs import make_identity_hadamard
    from rrselect.linalg import save_matrix_csv

    mpath = tmp_path / "X.csv"
    save_matrix_csv(mpath, make_identity_hadamard(16).matrix)
    config = _config(
        design=DesignSpec(kind="external", n=16, p=32, path=str(mpath)),
        signal=SignalSpec(k0=2, kind="pm_one"),
        snr_db_list=(30.0,),
        trials=5,
    )
    rows = run_sweep(config).rows
    assert len(rows) == 1 and 0.0 <= rows[0].pe <= 1.0

    wrong = _config(
        design=DesignSpec(kind="external", n=8, p=32, path=str(mpath)),
        signal=SignalSpec(k0=2, kind="pm_one"),
    )
    with pytest.raises(ValidationError):
        run_sweep(wrong)


def test_config_validation_errors():
    with pytest.raises(ValidationError):
        _config(trials=0).validate()
    with pytest.raises(ValidationError):
        _config(snr_db_list=()).validate()
    with pytest.raises(ValidationError):
        _config(algorithms=(AlgorithmSpec("lars"),)).validate()
    with pytest.raises(ValidationError):
        _config(design=DesignSpec(kind="identity_hadamard", n=12, p=24)).validate()
    with pytest.raises(ValidationError):
        _config(design=DesignSpec(kind="identity_hadamard", n=32, p=60)).validate()
    with pytest.raises(ValidationError):
        _config(k_max_override=40).validate()
    with pytest.raises(ValidationError):
        _config(regenerate_matrix_per_trial=True).validate()  # hadamard design
    with pytest.raises(ValidationError):
        _config(algorithms=(AlgorithmSpec("rrm"), AlgorithmSpec("rrm"))).validate()
    with pytest.raises(ValidationError):
        _config(snr_db_list=(10.0, 10.0)).validate()
    _config().validate()


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"trials": 2.5}, "trials"),
        ({"trials": True}, "trials"),
        ({"trials": 3.0}, "trials"),
        ({"root_seed": 7.5}, "root_seed"),
        ({"root_seed": False}, "root_seed"),
        ({"k_max_override": 8.0}, "k_max_override"),
        ({"k_max_override": True}, "k_max_override"),
        ({"design": DesignSpec(kind="identity_hadamard", n=32.0, p=64)}, "design.n"),
        ({"design": DesignSpec(kind="identity_hadamard", n=32, p=True)}, "design.p"),
        ({"design": DesignSpec(kind="gaussian", n=32, p=64, seed=1.5)}, "design.seed"),
        ({"snr_db_list": (True,)}, "snr_db[0]"),
        ({"design": DesignSpec(kind="gaussian", n=32, p=64, seed=True)}, "design.seed"),
        ({"snr_db_list": (20.0, math.nan)}, "snr_db[1]"),
        ({"snr_db_list": (math.inf,)}, "snr_db[0]"),
        ({"snr_db_list": (-math.inf,)}, "snr_db[0]"),
        ({"snr_db_list": ("20",)}, "snr_db[0]"),
        ({"algorithms": (AlgorithmSpec("rrt", alpha="0.1"),)}, "algorithms[0].alpha"),
        ({"algorithms": (AlgorithmSpec("rpsc_hsc", eta=None),)}, "algorithms[0].eta"),
        ({"design": DesignSpec("gaussian", 8, 16, normalize="false")}, "design.normalize"),
        ({"regenerate_matrix_per_trial": "no"}, "regenerate_matrix_per_trial"),
        ({"algorithms": (AlgorithmSpec("rrm", alpha="x"),)}, "algorithms[0].alpha"),
        ({"design": DesignSpec("external", 8, 16, path=5)}, "design.path"),
        ({"design": DesignSpec(3, 8, 16)}, "design.kind"),
        ({"algorithms": (AlgorithmSpec(["rrt"]),)}, "algorithms[0].name"),
        ({"algorithms": (AlgorithmSpec("rrt", rule=["omp"]),)}, "algorithms[0].rule"),
        ({"snr_db_list": 5}, "snr_db"),
        ({"algorithms": AlgorithmSpec("rrm")}, "algorithms"),
        ({"algorithms": (5,)}, "algorithms[0]"),
        ({"design": None}, "design"),
        ({"signal": None}, "signal"),
        ({"snr_db_list": (20.0, 3090.0)}, "snr_db[1]"),  # 10^309 overflows
        ({"snr_db_list": (-4000.0,)}, "snr_db[0]"),  # 10^-400 underflows to 0
    ],
)
def test_config_validation_names_a_field_of_the_wrong_type(overrides, field):
    config = _config(**overrides)
    with pytest.raises(ValidationError, match=rf"^{re.escape(field)}: must "):
        config.validate()
    with pytest.raises(ValidationError, match=rf"^{re.escape(field)}: must "):
        run_sweep(config)


def test_config_validation_accepts_integer_snr_points_and_k_max():
    _config(snr_db_list=(0, 20), k_max_override=8).validate()


def test_an_experiment_has_one_digest_whether_its_numbers_are_ints_or_floats():
    def config(snr_db_list, q, ratio):
        return _config(
            design=DesignSpec("identity_hadamard", 8, 16),
            signal=SignalSpec(2, ratio=ratio),
            snr_db_list=snr_db_list,
            algorithms=(AlgorithmSpec("rrta", q=q),),
        )

    as_ints, as_floats = config((0, 10), 2, 0), config((0.0, 10.0), 2.0, 0.0)
    assert as_ints.digest() == as_floats.digest()
    assert run_sweep(as_ints) == run_sweep(as_floats)


def test_sweep_csv_round_trip():
    config = _config(trials=4, algorithms=(AlgorithmSpec("rrm"), AlgorithmSpec("rrt", alpha=0.01)))
    result = run_sweep(config)
    buf = io.StringIO()
    write_sweep_csv(buf, result, config)
    text = buf.getvalue()
    header = text.splitlines()[0].split(",")
    assert header == [
        "experiment_id", "design", "n", "p", "k0", "signal_kind", "snr_db",
        "algorithm", "rule", "trials", "pe", "pe_stderr", "pfd", "pfd_stderr",
    ]
    back = read_sweep_csv(io.StringIO(text))
    assert back == result.rows


def test_stderr_formula():
    config = _config(trials=16)
    row = run_sweep(config).rows[0]
    assert row.pe_stderr == pytest.approx(math.sqrt(row.pe * (1 - row.pe) / 16))


def test_ols_rule_runs_through_sweep():
    config = _config(
        trials=4,
        algorithms=(AlgorithmSpec("rrm", rule="ols"), AlgorithmSpec("rrm", rule="omp")),
    )
    rows = run_sweep(config).rows
    labels = {row.algorithm for row in rows}
    assert labels == {"rrm", "rrm|ols"}


def test_run_trial_computes_residual_ratios_once_per_path(monkeypatch):
    from rrselect import simulate

    # The registry looks the kernels up in simulate's namespace at call time,
    # so a wrapper installed there sees every call.
    calls = []
    original = simulate.residual_ratios
    monkeypatch.setattr(simulate, "residual_ratios", lambda path: calls.append(path.rule) or original(path))
    algorithms = tuple(AlgorithmSpec(name, rule) for rule in ("omp", "ols") for name in supported_roster())
    config = _config(algorithms=algorithms)
    record = run_trial(config, build_design(config.design), 20.0, 0)
    assert len(record.outcomes) == 16
    assert sorted(calls) == ["ols", "omp"]


@pytest.mark.parametrize(
    "algorithms, builds",
    [
        ((AlgorithmSpec("rrt"), AlgorithmSpec("rrt", alpha=0.01), AlgorithmSpec("rrta"), AlgorithmSpec("rrm")), 1),
        ((AlgorithmSpec("rrm"), AlgorithmSpec("rrm", rule="ols"), AlgorithmSpec("fixed_k0")), 0),
    ],
)
def test_run_trial_builds_the_cdf_vector_once_per_path_and_only_for_rrt(monkeypatch, algorithms, builds):
    from rrselect import selectors, simulate, special

    # Exactly one log_cdf_of_square call per rrt or rrta scan and per step
    # that the scan reaches without its bounds deciding it; none for rrm or
    # fixed_k0. Trials 1, 4 and 25 at 5 dB hold such steps.
    calls, paths = [], []
    original, original_ratios = special.log_cdf_of_square, simulate.residual_ratios
    monkeypatch.setattr(special, "log_cdf_of_square", lambda a, b, r: calls.append(a) or original(a, b, r))
    monkeypatch.setattr(simulate, "residual_ratios", lambda path: paths.append(path) or original_ratios(path))
    config = _config(algorithms=algorithms, snr_db_list=(5.0,))
    undecided_steps = 0
    for trial in (0, 1, 4, 25):
        calls.clear()
        paths.clear()
        run_trial(config, build_design(config.design), 5.0, trial)
        made = sorted(calls)
        expected = []
        for path in paths:
            ratios = selectors.residual_ratios(path)
            undecided = []
            for alpha in (0.1, 0.01, selectors.rrta_alpha(ratios, RrtaParams())):
                for k in range(path.K, 0, -1):
                    a, rr = (32 - k) / 2.0, float(ratios.values[k - 1])
                    ln_z = special.rrt_log_level(32, 64, 16, alpha, k)
                    if special.log_cdf_of_square_floor(a, 0.5, rr) > ln_z + 1e-9:
                        continue
                    if special.log_cdf_of_square_ceiling(a, 0.5, rr) < ln_z - 1e-9:
                        break
                    undecided.append(a)
                    if original(a, 0.5, rr) < ln_z:
                        break
            expected += undecided * builds
        assert made == sorted(expected)
        undecided_steps += len(expected)
    assert undecided_steps >= 3 or builds == 0


@pytest.mark.parametrize("workers", [0, -1])
def test_run_sweep_rejects_worker_counts_below_one(workers):
    with pytest.raises(ValidationError, match="workers"):
        run_sweep(_config(), workers=workers)


@pytest.mark.parametrize("workers", [2.5, "2", True, None])
def test_run_sweep_rejects_a_worker_count_that_is_not_an_int(workers):
    with pytest.raises(ValidationError, match="^workers: must be an integer"):
        run_sweep(_config(), workers=workers)


def test_run_trial_rejects_an_snr_point_the_config_does_not_list():
    config = _config(snr_db_list=(0.0, 20.0))
    with pytest.raises(ValidationError, match="^snr_db: must be one of"):
        run_trial(config, build_design(config.design), 25.0, 0)


@pytest.mark.parametrize(
    "snr_db_list, trials, workers, pool_size",
    [((20.0,), 2, 500, 2), ((0.0, 20.0), 1, 3, 2), ((0.0, 10.0, 20.0), 5, 3, 3)],
)
def test_pool_is_never_larger_than_the_job_list(monkeypatch, snr_db_list, trials, workers, pool_size):
    from rrselect import simulate

    created = []

    class InProcessExecutor:
        """Stands in for ProcessPoolExecutor: records max_workers, starts no process."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", InProcessExecutor)
    config = _config(snr_db_list=snr_db_list, trials=trials)
    assert run_sweep(config, workers=workers).rows == run_sweep(config).rows
    assert created == [pool_size]


@pytest.mark.parametrize("workers, pools", [(1, 0), (2, 1)])
def test_one_pool_per_sweep(monkeypatch, workers, pools):
    from rrselect import simulate

    created = []
    real = simulate.ProcessPoolExecutor

    def counted(*args, **kwargs):
        created.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", counted)
    run_sweep(_config(snr_db_list=(0.0, 10.0, 20.0), trials=4), workers=workers)
    assert len(created) == pools


def test_sweep_csv_is_byte_identical_for_any_worker_count():
    # 5 trials per point: 1 block on 1 worker, 5 one-trial blocks on 2 or 3.
    config = _config(
        snr_db_list=(0.0, 10.0, 20.0),
        trials=5,
        algorithms=(AlgorithmSpec("rrm"), AlgorithmSpec("rrta"), AlgorithmSpec("rpsc", rule="ols")),
    )
    texts = set()
    for workers in (1, 2, 3):
        buf = io.StringIO()
        write_sweep_csv(buf, run_sweep(config, workers=workers), config)
        texts.add(buf.getvalue())
    assert len(texts) == 1


def _benchmark_config(name):
    """The benchmark's two configurations at root seed 0, 100 trials per point."""
    config = cli.figure_config(name, 100, 0)
    if name == "fig2_gaussian":  # the sigma rules and rrm on both paths
        algorithms = tuple(
            AlgorithmSpec(alg, rule=rule) for rule in ("omp", "ols") for alg in ("fixed_k0", "rpsc", "rcsc", "rrm")
        )
        config = dataclasses.replace(config, algorithms=algorithms)
    return config


@pytest.mark.parametrize(
    "name, reference", [("fig1_hadamard", "fig1_hadamard.csv"), ("fig2_gaussian", "gauss_ols_oracle.csv")]
)
def test_sweep_csv_is_byte_identical_to_the_benchmark_reference(name, reference):
    config = _benchmark_config(name)
    buf = io.StringIO()
    write_sweep_csv(buf, run_sweep(config), config)
    with open(os.path.join(REFERENCE_DIR, reference), newline="") as fh:
        assert buf.getvalue() == fh.read()


FIGURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "figures")


@pytest.mark.parametrize("name", cli.FIGURE_NAMES)
def test_every_preset_csv_is_byte_identical_to_its_record_on_one_and_two_workers(name):
    """tests/data/figures/<preset>_results.csv: each preset at 30 trials per
    point, root seed 7, as `rrselect figure` writes it."""
    config = cli.figure_config(name, 30, 7)
    with open(os.path.join(FIGURE_DIR, f"{name}_results.csv"), newline="") as fh:
        recorded = fh.read()
    for workers in (1, 2):
        buf = io.StringIO()
        write_sweep_csv(buf, run_sweep(config, workers=workers), config)
        assert buf.getvalue() == recorded, f"{workers} worker(s)"
