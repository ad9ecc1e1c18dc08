import csv
import dataclasses
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrselect import cli
from rrselect.designs import SignalSpec
from rrselect.errors import ValidationError
from rrselect.omp import SolutionPath, SupportEstimate, stop_fixed
from rrselect.selectors import prefix_hits
from rrselect.simulate import (
    ALGORITHMS,
    PARAMETER_DOMAINS,
    SNR_DB_LIMIT,
    AlgorithmSpec,
    DesignSpec,
    ExperimentConfig,
    _derive_trial_seeds,
    build_design,
    parse_config,
    run_sweep,
    run_trial,
    score_estimate,
    trial_streams,
    write_sweep_csv,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE_DIR = os.path.join(ROOT, "perfbench", "reference")


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
    roster = {name: AlgorithmSpec(name).params for name in ALGORITHMS}
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
    _config(algorithms=(AlgorithmSpec("rrt", alpha=0.01),))


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_a_spec_refuses_a_parameter_its_algorithm_does_not_read_unless_at_its_default(name):
    read = ALGORITHMS[name].params
    for key in PARAMETER_DOMAINS:
        default = getattr(AlgorithmSpec(name), key)
        if key in read:
            assert getattr(AlgorithmSpec(name, **{key: 0.5}), key) == 0.5  # 0.5 lies in every domain
            continue
        # An int or a numpy real equal to the default is the default.
        for same in (default, np.float64(default), *([int(default)] if default == int(default) else [])):
            assert AlgorithmSpec(name, **{key: same}).label == AlgorithmSpec(name).label
        # 0.5 lies in the domain, 5.0 outside alpha's and pfd's: both are unread.
        for other in (0.5, 5.0):
            with pytest.raises(ValidationError, match=rf"^{key}: must keep its default {default:g} \({name} does not "):
                AlgorithmSpec(name, **{key: other})
        # A value that is no real is named as such first.
        with pytest.raises(ValidationError, match=rf"^{key}: must be a finite number"):
            AlgorithmSpec(name, **{key: "0.1"})


def test_one_experiment_has_one_id_whatever_its_unread_fields_say():
    config = cli.figure_config("fig1_hadamard", 20, 0)
    assert config.digest() == "8217573ab23b"
    rrm = config.algorithms.index(AlgorithmSpec("rrm"))
    with pytest.raises(ValidationError, match=r"^alpha: must keep its default 0\.1 \(rrm does not read it\), got 0\.5$"):
        dataclasses.replace(config.algorithms[rrm], alpha=0.5)
    raw = config.to_dict()
    raw["algorithms"][rrm]["alpha"] = 0.5
    with pytest.raises(ValidationError, match=rf"^algorithms\[{rrm}\]\.alpha: must keep its default "):
        parse_config(json.dumps(raw))
    with pytest.raises(ValidationError, match=r"^signal\.ratio: must keep its default 1/3 \(pm_one reads none\), got 0\.5$"):
        dataclasses.replace(config.signal, ratio=0.5)
    assert dataclasses.replace(config.signal, ratio=1 / 3) == config.signal


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


def _trial_seed(root_seed: int, snr_index: int, trial_index: int) -> int:
    return int(_derive_trial_seeds(root_seed, snr_index, trial_index, trial_index + 1)[0])


def test_derive_trial_seed_deterministic_and_distinct():
    assert _trial_seed(7, 0, 0) == _trial_seed(7, 0, 0)
    assert _trial_seed(7, 0, 0) != _trial_seed(7, 0, 1)
    assert _trial_seed(7, 1, 0) != _trial_seed(7, 0, 0)
    seeds = {seed for i in range(20) for seed in _derive_trial_seeds(7, i, 0, 200).tolist()}
    assert len(seeds) == 20 * 200
    assert all(0 <= s < 2**64 for s in list(seeds)[:10])


def test_derive_trial_seed_avalanche():
    rng = np.random.default_rng(0)
    flips = []
    for _ in range(10_000):
        root = int(rng.integers(0, 2**63))
        si = int(rng.integers(0, 2**16))
        ti = int(rng.integers(0, 2**31))
        base = _trial_seed(root, si, ti)
        which = int(rng.integers(0, 3))
        bit = 1 << int(rng.integers(0, [63, 16, 31][which]))
        args = [root, si, ti]
        args[which] ^= bit
        flipped = _trial_seed(*args)
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
    path = SolutionPath(tuple(selected), np.zeros(K + 1), np.zeros(K + 1), "complete", 12, 12, max(K, 1))
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

    config = _config(
        design=DesignSpec(kind="gaussian", n=16, p=24),
        snr_db_list=(60.0,),
        trials=2,
        algorithms=(AlgorithmSpec("fixed_k0"),),
        signal=SignalSpec(k0=2, kind="pm_one"),
    )
    assert build_design(config.design) is None  # no matrix shared by the sweep
    # run_trial regenerates internally; identical trial index -> identical record
    a = run_trial(config, None, 60.0, 0)
    b = run_trial(config, None, 60.0, 0)
    assert a.true_support == b.true_support
    # distinct trials draw from distinct matrix streams (tag 4 in the seed fanout)
    first, second = trial_streams(config, 0, 0, 2)
    m0 = make_gaussian(16, 24, first.matrix)
    m1 = make_gaussian(16, 24, second.matrix)
    assert not np.array_equal(m0.matrix, m1.matrix)
    # Only a gaussian design draws a matrix per trial.
    hadamard = dataclasses.replace(config, design=DesignSpec("identity_hadamard", 16))
    assert build_design(hadamard.design) is not None
    assert all(trial.matrix is None for trial in trial_streams(hadamard, 0, 0, 2))


def test_external_design_sweep(tmp_path):
    from rrselect.designs import make_identity_hadamard, save_matrix_csv

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


def _replaced(**overrides):
    return dataclasses.replace(_config(), **overrides)


@pytest.mark.parametrize("make", [_config, _replaced], ids=["built", "replaced"])
@pytest.mark.parametrize(
    "refuse, field",
    [
        (lambda make, csv: make(design=DesignSpec("identity_hadamard", 12, 24)), "design.n"),
        (lambda make, csv: make(design=DesignSpec("identity_hadamard", 32, 60)), "design.p"),
        (lambda make, csv: make(design=DesignSpec("gaussian", 1, 3), signal=SignalSpec(1)), "design.n"),
        (lambda make, csv: make(design=DesignSpec("gaussian", 8, 0)), "design.p"),
        (lambda make, csv: make(design=DesignSpec("external", 0, 8, path=csv)), "design.n"),
        (lambda make, csv: make(design=DesignSpec("identity_hadamard", 0)), "design.n"),
        (lambda make, csv: make(signal=SignalSpec(0)), "signal.k0"),
        (lambda make, csv: make(signal=SignalSpec(3, "geometric", 1.5)), "signal.ratio"),
        (lambda make, csv: make(signal=SignalSpec(65)), "signal.k0"),
        (lambda make, csv: make(snr_db_list=()), "snr_db"),
        (lambda make, csv: make(snr_db_list=(10.0, 10.0)), "snr_db"),
        (lambda make, csv: make(trials=0), "trials"),
        (lambda make, csv: make(algorithms=()), "algorithms"),
        (lambda make, csv: make(algorithms=(AlgorithmSpec("lars"),)), "name"),
        (lambda make, csv: make(algorithms=(AlgorithmSpec("rrm"), AlgorithmSpec("rrm"))), "algorithms"),
        (lambda make, csv: make(k_max=40), "k_max"),
        (lambda make, csv: make(k_max=2), "k_max"),
        (lambda make, csv: make(root_seed=-1), "root_seed"),
        (lambda make, csv: make(root_seed=2**64), "root_seed"),  # would seed as root_seed 0
        (lambda make, csv: build_design(DesignSpec("identity_hadamard", 4), seed=0), "seed"),
        (lambda make, csv: build_design(DesignSpec("external", 4, 8, path=csv), seed=0), "seed"),
        (lambda make, csv: build_design(DesignSpec("external", 8, 16, path=csv)), "design.path"),
        # k_max=None: replace would copy the n = 32 config's stored k_max 16 into this n = 4 one.
        (lambda make, csv: run_sweep(make(design=DesignSpec("external", 4, 16, path=csv), signal=SignalSpec(1),
                                          k_max=None)), "design.path"),
    ],
)
def test_config_validation_errors(refuse, field, make, tmp_path):
    # Every range refusal of a config type, and each of build_design, names
    # its field in one form; the type refusals are the test below.
    from rrselect.designs import make_identity_hadamard, save_matrix_csv

    csv = str(tmp_path / "X.csv")
    save_matrix_csv(csv, make_identity_hadamard(4).matrix)  # 4 x 8
    with pytest.raises(ValidationError, match=rf"^{re.escape(field)}: must "):
        refuse(make, csv)


def test_a_config_that_exists_is_valid_so_run_trial_never_sees_an_invalid_one():
    preset = cli.figure_config("fig1_hadamard", 3, 7)
    with pytest.raises(ValidationError, match=r"^k_max: must lie in \[20, 31\], got 16$"):
        dataclasses.replace(preset, signal=SignalSpec(20))
    with pytest.raises(ValidationError, match=r"^algorithms: must have distinct labels, got \['rrm', 'rrm'\]$"):
        dataclasses.replace(preset, algorithms=(AlgorithmSpec("rrm"), AlgorithmSpec("rrm")))
    # A pool worker unpickles the config without building it again.
    assert pickle.loads(pickle.dumps(preset)) == preset


def test_identity_hadamard_p_is_2n_whether_given_or_left_out():
    assert DesignSpec("identity_hadamard", 32).p == 64
    assert DesignSpec("identity_hadamard", 32) == DesignSpec("identity_hadamard", 32, 64)
    with pytest.raises(ValidationError, match=r"^design\.p: must equal 2n=16, got 10$"):
        DesignSpec("identity_hadamard", 8, 10)
    with pytest.raises(ValidationError, match=r"^design\.p: must be an integer, got None$"):
        DesignSpec("gaussian", 8)
    # A design checks only itself: a 1 x 3 Gaussian matrix is a design, not a sweep's.
    assert DesignSpec("gaussian", 1, 3).p == 3
    with pytest.raises(ValidationError, match=r"^design\.n: must be >= 2, got 1$"):
        _config(design=DesignSpec("gaussian", 1, 3), signal=SignalSpec(1))


def test_replace_copies_a_derived_hadamard_p_unless_p_none_asks_for_it_again():
    # The derived p is a field, so replace copies it, as the docstring and the README say.
    spec = DesignSpec("identity_hadamard", 32)
    assert dataclasses.replace(spec, n=16, p=None) == DesignSpec("identity_hadamard", 16, 32)
    with pytest.raises(ValidationError, match=r"^design\.p: must equal 2n=32, got 64$"):
        dataclasses.replace(spec, n=16)


def test_normalize_and_path_are_refused_for_the_kinds_that_do_not_read_them():
    # Set for another kind, either would split the experiment id of identical rows.
    preset = dataclasses.replace(cli.figure_config("fig1_hadamard", 20, 7), snr_db_list=(20.0,))
    assert preset.digest() == "869a2ea8f489"
    normalize = r"^design\.normalize: must be false, or true for kind 'gaussian', got True$"
    path = r"^design\.path: must be a CSV path for kind 'external', else None, got "
    for kind in ("identity_hadamard", "external"):
        with pytest.raises(ValidationError, match=normalize):
            DesignSpec(kind, 32, 64, normalize=True, path="X.csv")
    for kind in ("identity_hadamard", "gaussian"):
        with pytest.raises(ValidationError, match=path + "'nowhere.csv'$"):
            DesignSpec(kind, 32, 64, path="nowhere.csv")
    with pytest.raises(ValidationError, match=path + "''$"):
        DesignSpec("external", 32, 64, path="")
    assert DesignSpec("gaussian", 32, 64, normalize=True).normalize is True


@pytest.mark.parametrize(
    "overrides, field",
    [
        (lambda: {"trials": 2.5}, "trials"),
        (lambda: {"trials": True}, "trials"),
        (lambda: {"trials": 3.0}, "trials"),
        (lambda: {"root_seed": 7.5}, "root_seed"),
        (lambda: {"root_seed": False}, "root_seed"),
        (lambda: {"k_max": 8.0}, "k_max"),
        (lambda: {"k_max": True}, "k_max"),
        (lambda: {"design": DesignSpec(kind="identity_hadamard", n=32.0, p=64)}, "design.n"),
        (lambda: {"design": DesignSpec(kind="identity_hadamard", n=32, p=True)}, "design.p"),
        (lambda: {"design": DesignSpec(kind="gaussian", n=32, p=64.5)}, "design.p"),
        (lambda: {"snr_db_list": (True,)}, "snr_db[0]"),
        (lambda: {"snr_db_list": (np.True_,)}, "snr_db[0]"),
        (lambda: {"design": DesignSpec(kind="gaussian", n=True, p=64)}, "design.n"),
        (lambda: {"snr_db_list": (20.0, math.nan)}, "snr_db[1]"),
        (lambda: {"snr_db_list": (math.inf,)}, "snr_db[0]"),
        (lambda: {"snr_db_list": (-math.inf,)}, "snr_db[0]"),
        (lambda: {"snr_db_list": ("20",)}, "snr_db[0]"),
        (lambda: {"design": DesignSpec("gaussian", 8, 16, normalize="false")}, "design.normalize"),
        (lambda: {"k_max": "8"}, "k_max"),
        (lambda: {"design": DesignSpec("external", 8, 16, path=5)}, "design.path"),
        (lambda: {"design": DesignSpec(3, 8, 16)}, "design.kind"),
        (lambda: {"snr_db_list": 5}, "snr_db"),
        (lambda: {"algorithms": AlgorithmSpec("rrm")}, "algorithms"),
        (lambda: {"algorithms": (5,)}, "algorithms[0]"),
        (lambda: {"design": None}, "design"),
        (lambda: {"signal": None}, "signal"),
        (lambda: {"snr_db_list": (20.0, 3090.0)}, "snr_db[1]"),  # far past +SNR_DB_LIMIT
        (lambda: {"snr_db_list": (-4000.0,)}, "snr_db[0]"),  # far past -SNR_DB_LIMIT
        # y = X beta + w holds w only to about 1e-4 at 250 dB, X beta at -250 dB.
        (lambda: {"snr_db_list": (20.0, 250.0)}, "snr_db[1]"),
        (lambda: {"snr_db_list": (-250.0,)}, "snr_db[0]"),
        (lambda: {"snr_db_list": (math.nextafter(SNR_DB_LIMIT, math.inf),)}, "snr_db[0]"),
        (lambda: {"snr_db_list": (0.0, math.nextafter(-SNR_DB_LIMIT, -math.inf))}, "snr_db[1]"),
    ],
)
def test_config_validation_names_a_field_of_the_wrong_type(overrides, field):
    # A spec in the overrides raises when it is built, before the config is.
    with pytest.raises(ValidationError, match=rf"^{re.escape(field)}: must "):
        _config(**overrides())
    with pytest.raises(ValidationError, match=rf"^{re.escape(field)}: must "):
        dataclasses.replace(_config(), **overrides())


@pytest.mark.parametrize(
    "fields, key",
    [
        ({"name": "rrt", "alpha": "0.1"}, "alpha"),
        ({"name": "rpsc_hsc", "eta": None}, "eta"),
        ({"name": "rrm", "alpha": "x"}, "alpha"),
        ({"name": ["rrt"]}, "name"),
        ({"name": "rrt", "rule": ["omp"]}, "rule"),
    ],
)
def test_an_algorithm_spec_names_its_field_and_a_config_file_its_place(fields, key):
    # A spec cannot know its index in a list: parse_config, which does, puts
    # it before the field.
    with pytest.raises(ValidationError, match=rf"^{key}: must "):
        AlgorithmSpec(**fields)
    with pytest.raises(ValidationError, match=rf"^{key}: must "):
        dataclasses.replace(AlgorithmSpec("rrt"), **fields)
    raw = dict(_config().to_dict(), algorithms=["rrm", fields])
    with pytest.raises(ValidationError, match=rf"^algorithms\[1\]\.{key}: must "):
        parse_config(json.dumps(raw))


@pytest.mark.parametrize("name", [*cli.FIGURE_NAMES, "gauss_ols_oracle"])
def test_a_config_survives_its_own_dict(name):
    # The five presets and the benchmark's two configs (fig1_hadamard is one).
    config = _benchmark_config("fig2_gaussian") if name == "gauss_ols_oracle" else cli.figure_config(name, 100, 0)
    # The config stores the k_max it resolves to and its numbers as floats,
    # so the JSON to_dict writes reads back as the config itself.
    rebuilt = parse_config(json.dumps(config.to_dict()))
    assert rebuilt == config and rebuilt.digest() == config.digest()


def test_config_validation_accepts_integer_snr_points_and_k_max():
    # Ints are stored as the floats JSON reads back, under the digest the
    # config had when to_dict converted them.
    given = _config(
        snr_db_list=(0, 20),
        k_max=8,
        algorithms=(AlgorithmSpec("rrta", q=5), AlgorithmSpec("rpsc_hsc", eta=1), AlgorithmSpec("rrm", q=2)),
    )
    assert given == _config(
        snr_db_list=(0.0, 20.0),
        k_max=8,
        algorithms=(AlgorithmSpec("rrta", q=5.0), AlgorithmSpec("rpsc_hsc", eta=1.0), AlgorithmSpec("rrm")),
    )
    assert [type(v) for v in given.snr_db_list] == [float, float]
    assert {type(getattr(a, key)) for a in given.algorithms for key in PARAMETER_DOMAINS} == {float}
    assert given.digest() == "403be5a88679"
    # k_max is stored, as design.p is: replace copies it, and k_max=None derives it again.
    assert dataclasses.replace(given, k_max=None).k_max == 16
    assert dataclasses.replace(_config(), design=DesignSpec("identity_hadamard", 64)).k_max == 16
    # Both ends of the SNR range, SNR_DB_LIMIT = 200 dB, as ints and as floats.
    _config(snr_db_list=(-200, 200))
    _config(snr_db_list=(-SNR_DB_LIMIT, SNR_DB_LIMIT))


def test_rpsc_at_the_highest_snr_point_errs_at_the_chi_square_tail():
    # On fig1's design mu = 1/sqrt(32) < 1/(2 k0 - 1), so at high SNR OMP takes
    # the support first (Tropp 2004) and rpsc errs exactly when the residual
    # power ||P_S^perp w||^2 / sigma^2, chi-square with n - k0 = 29 degrees of
    # freedom, exceeds n + 2 sqrt(n ln n) (Cai & Wang 2011). A trial that did
    # not carry w in y would read a different rate.
    import mpmath

    config = cli.figure_config("fig1_hadamard", 20_000, 0)
    config = dataclasses.replace(config, snr_db_list=(SNR_DB_LIMIT,), algorithms=(AlgorithmSpec("rpsc"),))
    (row,) = run_sweep(config).rows
    n, k0 = 32, 3
    level = n + 2.0 * math.sqrt(n * math.log(n))
    tail = float(mpmath.gammainc(mpmath.mpf(n - k0) / 2, mpmath.mpf(level) / 2, mpmath.inf, regularized=True))
    assert tail == pytest.approx(0.00414, abs=5e-6)
    assert abs(row.pe - tail) <= 3.0 * math.sqrt(tail * (1.0 - tail) / config.trials), row


def test_an_experiment_has_one_digest_whether_its_numbers_are_ints_or_floats():
    def config(snr_db_list, q, ratio):
        return _config(
            design=DesignSpec("identity_hadamard", 8, 16),
            signal=SignalSpec(2, "geometric", ratio),
            snr_db_list=snr_db_list,
            algorithms=(AlgorithmSpec("rrta", q=q),),
        )

    # A geometric ratio lies in (0,1), so no int can give it.
    as_ints, as_floats = config((0, 10), 2, 0.5), config((0.0, 10.0), 2.0, 0.5)
    as_numpy = [config((kind(0), kind(10)), kind(2), np.float64(0.5)) for kind in (np.float64, np.int64)]
    for other in (as_ints, *as_numpy):
        assert other.digest() == as_floats.digest()
        assert run_sweep(other) == run_sweep(as_floats)


def test_a_config_of_numpy_float32_values_runs_as_the_doubles_of_those_values(monkeypatch):
    # float32 arithmetic would round 10^(dB/10), ratio^k and RR^q to float32;
    # the digest reads each value as its double, and so does every trial.
    from rrselect import simulate

    synthesized = []  # each trial's signal and SNR
    original = simulate.synthesize

    def synthesize(design, beta, support, snr, seed):
        synthesized.append((beta.tolist(), snr))
        return original(design, beta, support, snr, seed)

    monkeypatch.setattr(simulate, "synthesize", synthesize)

    def config(kind):
        return _config(
            signal=SignalSpec(3, "geometric", kind(0.3)),
            snr_db_list=(kind(7.3), kind(15.1)),
            algorithms=(AlgorithmSpec("rrta", q=kind(1.7)), AlgorithmSpec("rpsc_hsc", eta=kind(0.3))),
            trials=20,
        )

    as_float32 = config(np.float32)
    as_doubles = config(lambda v: float(np.float32(v)))
    assert as_float32.digest() == as_doubles.digest()
    assert run_sweep(as_float32) == run_sweep(as_doubles)
    half = len(synthesized) // 2
    assert half == 40 and synthesized[:half] == synthesized[half:]  # bit for bit


def test_sweep_csv_round_trip():
    config = _config(trials=4, algorithms=(AlgorithmSpec("rrm"), AlgorithmSpec("rrt", alpha=0.01)))
    result = run_sweep(config)
    buf = io.StringIO()
    write_sweep_csv(buf, result, config)
    records = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert list(records[0]) == [
        "experiment_id", "design", "n", "p", "k0", "signal_kind", "snr_db",
        "algorithm", "rule", "trials", "pe", "pe_stderr", "pfd", "pfd_stderr",
    ]
    # floats are written by repr, so each reads back as the same double
    floats = ("snr_db", "pe", "pe_stderr", "pfd", "pfd_stderr")
    back = [(rec["algorithm"], rec["rule"], int(rec["trials"]), *(float(rec[key]) for key in floats)) for rec in records]
    assert back == [(row.algorithm, row.rule, row.trials, *(getattr(row, key) for key in floats)) for row in result.rows]


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
    paths, calls = {}, []  # rule -> its path; the paths given residual_ratios
    original_path, original_ratios = simulate.solution_path, simulate.residual_ratios

    def solution_path(design, y, k_max, rule):
        paths[rule] = original_path(design, y, k_max, rule)
        return paths[rule]

    monkeypatch.setattr(simulate, "solution_path", solution_path)
    monkeypatch.setattr(simulate, "residual_ratios", lambda path: calls.append(path) or original_ratios(path))
    algorithms = tuple(AlgorithmSpec(name, rule) for rule in ("omp", "ols") for name in ALGORITHMS)
    config = _config(algorithms=algorithms)
    record = run_trial(config, build_design(config.design), 20.0, 0)
    assert len(record.outcomes) == 16
    assert sorted(paths) == ["ols", "omp"]
    assert calls == list(paths.values())


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
            lows, highs = ratios.log_cdf_bounds
            undecided = []
            for alpha in (0.1, 0.01, selectors.rrta_alpha(ratios, 0.1, 2.0)):
                for k in range(path.K, 0, -1):
                    a, rr = (32 - k) / 2.0, float(ratios.values[k - 1])
                    ln_z = special.rrt_log_level(32, 64, 16, alpha, k)
                    if lows[k - 1] > ln_z + 1e-9:
                        continue
                    if highs[k - 1] < ln_z - 1e-9:
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


_POOL_IMPORT_SCRIPT = """
import io, sys
import rrselect
from rrselect.cli import figure_config
from rrselect.simulate import run_sweep, write_sweep_csv

def csv_text(workers):
    config = figure_config("fig1_hadamard", 2, 0)
    buf = io.StringIO()
    write_sweep_csv(buf, run_sweep(config, workers=workers), config)
    return buf.getvalue()

one = csv_text(1)
loaded = sorted(m for m in ("concurrent.futures.process", "multiprocessing") if m in sys.modules)
two = csv_text(2)
print(loaded, one == two, "multiprocessing" in sys.modules)
"""


def test_a_one_worker_sweep_never_imports_the_process_pool():
    # A fresh interpreter: this test process may have loaded the pool already.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-c", _POOL_IMPORT_SCRIPT], env=env, capture_output=True, text=True, check=True
    ).stdout
    # Nothing of the pool after 1 worker; the same CSV bytes from the pool 2 workers load.
    assert out.split() == ["[]", "True", "True"]


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
