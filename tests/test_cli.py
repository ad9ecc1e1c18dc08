import argparse
import contextlib
import dataclasses
import functools
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrselect.analysis import epsilon_bounds, mic_sparsity_limit, ric_bruteforce
from rrselect.cli import FIGURE_NAMES, build_parser, figure_config, main
from rrselect.designs import SignalSpec, load_design_csv, make_gaussian, make_identity_hadamard, save_matrix_csv
from rrselect.errors import ParseError, ValidationError
from rrselect.simulate import (
    ALGORITHMS,
    AlgorithmSpec,
    DesignSpec,
    ExperimentConfig,
    build_design,
    parse_config,
    run_sweep,
    run_trial,
)
from rrselect.special import build_threshold_table

# A noisy 32x64 identity+Hadamard problem: k0=3 random-sign signal at 3 dB
# (sample_support seed 11, make_signal seed 12, synthesize seed 13), with the
# stdout of `recover` for every algorithm and rule. The outputs were recorded
# with the per-command dispatch that the algorithm registry replaced.
RECOVER_FIXTURE = json.loads((Path(__file__).parent / "data" / "recover_hadamard32.json").read_text())

MINIMAL_CONFIG = {
    "design": {"kind": "identity_hadamard", "n": 32},
    "signal": {"k0": 3, "kind": "pm_one"},
    "snr_db": [0, 10, 20],
    "trials": 1000,
    "algorithms": ["rrm"],
    "root_seed": 7,
}


def test_parse_config_minimal_fills_defaults():
    config = parse_config(json.dumps(MINIMAL_CONFIG))
    assert config.design.p == 64
    assert config.k_max == 16
    assert config.algorithms[0].name == "rrm"
    assert config.trials == 1000
    assert config.snr_db_list == (0.0, 10.0, 20.0)


def test_parse_config_algorithm_objects_and_defaults():
    raw = dict(MINIMAL_CONFIG)
    raw["algorithms"] = [
        "rrm",
        {"name": "rrt", "alpha": 0.01},
        {"name": "rrta"},
        {"name": "rpsc_hsc", "rule": "ols"},
    ]
    config = parse_config(json.dumps(raw))
    by_name = {a.label: a for a in config.algorithms}
    assert by_name["rrt(alpha=0.01)"].alpha == 0.01
    assert by_name["rrta(pfd=0.1,q=2)"].q == 2.0
    assert by_name["rpsc_hsc(eta=0.1)|ols"].rule == "ols"


def test_parse_config_errors():
    with pytest.raises(ParseError) as err:
        parse_config("{not json")
    assert "line" in str(err.value)
    with pytest.raises(ParseError, match="^Exceeds the limit"):
        parse_config(json.dumps(MINIMAL_CONFIG).replace('"trials": 1000', '"trials": 1' + "0" * 5000))

    bad_trials = dict(MINIMAL_CONFIG, trials=0)
    with pytest.raises(ValidationError):
        parse_config(json.dumps(bad_trials))

    unknown_alg = dict(MINIMAL_CONFIG, algorithms=["lasso"])
    with pytest.raises(ValidationError) as err:
        parse_config(json.dumps(unknown_alg))
    assert "rrm" in str(err.value)  # the message lists the roster

    unknown_key = dict(MINIMAL_CONFIG, extra=1)
    with pytest.raises(ValidationError):
        parse_config(json.dumps(unknown_key))

    missing = {k: v for k, v in MINIMAL_CONFIG.items() if k != "signal"}
    with pytest.raises(ValidationError) as err:
        parse_config(json.dumps(missing))
    assert "signal" in str(err.value)


@pytest.mark.parametrize(
    "entry, field",
    [
        ({"name": "rrt", "alpha": 1.5}, "alpha"),
        ({"name": "rrta", "pfd": 0}, "pfd"),
        ({"name": "rrta", "q": -1}, "q"),
        ({"name": "rpsc_hsc", "eta": float("nan")}, "eta"),
    ],
)
def test_parse_config_rejects_parameters_outside_their_domain(entry, field):
    raw = dict(MINIMAL_CONFIG, algorithms=["rrm", entry])
    with pytest.raises(ValidationError) as err:
        parse_config(json.dumps(raw))
    assert f"algorithms[1].{field}:" in str(err.value)


@pytest.mark.parametrize(
    "section, key, value",
    [
        (None, "trials", 10.9),
        ("signal", "k0", 2.5),
        (None, "root_seed", 7.5),
        ("design", "normalize", "false"),
        (None, "regenerate_matrix_per_trial", "no"),  # no longer a field: refused as unknown
        (None, "snr_db", [0, True]),
        ("design", "n", "abc"),
        (None, "k_max", "8"),
        ("signal", "ratio", "0.5"),
        ("design", "kind", 3),
        ("signal", "ratio", float("nan")),
        ("signal", "ratio", float("inf")),
        (None, "algorithms", [{"name": "rrm", "alpha": "x"}]),
        (None, "algorithms", [{"name": "rrm", "eta": float("nan")}]),
        (None, "algorithms", ["rrm", 5]),
        ("design", "path", 5),
    ],
)
def test_parse_config_rejects_a_value_of_the_wrong_type(section, key, value):
    raw = json.loads(json.dumps(MINIMAL_CONFIG))
    (raw[section] if section else raw)[key] = value
    with pytest.raises(ValidationError) as err:
        parse_config(json.dumps(raw))
    assert key in str(err.value)


def test_parse_config_accepts_integral_floats_and_leaves_defaults_to_the_dataclasses():
    raw = dict(MINIMAL_CONFIG, trials=100.0, root_seed=7.0, k_max=8.0, signal={"k0": 3.0})
    config = parse_config(json.dumps(raw))
    assert [(v, type(v)) for v in (config.trials, config.root_seed, config.k_max, config.signal.k0)] == [
        (100, int),
        (7, int),
        (8, int),
        (3, int),
    ]
    assert config.design == DesignSpec("identity_hadamard", 32, 64)
    assert config.signal == SignalSpec(3)
    assert config.algorithms == (AlgorithmSpec("rrm"),)


@pytest.mark.parametrize(
    "section, entry, field",
    [
        ("algorithms", {"name": "rrm", "alpha": 1.5}, "algorithms[0].alpha"),
        ("algorithms", {"name": "rrm", "alpha": 0.5}, "algorithms[0].alpha"),
        ("algorithms", {"name": "rrt", "q": 3}, "algorithms[0].q"),
        ("algorithms", {"name": "rrta", "alpha": 0.2}, "algorithms[0].alpha"),
        ("algorithms", {"name": "rpsc_hsc", "pfd": 0.2}, "algorithms[0].pfd"),
        ("algorithms", {"name": "fixed_k0", "eta": 0.5}, "algorithms[0].eta"),
        ("signal", {"k0": 3, "kind": "pm_one", "ratio": 0.5}, "signal.ratio"),
    ],
)
def test_parse_config_refuses_a_parameter_that_the_run_does_not_read(section, entry, field):
    # Such a value would change the experiment id and no row.
    raw = dict(MINIMAL_CONFIG, **{section: [entry] if section == "algorithms" else entry})
    with pytest.raises(ValidationError, match=rf"^{re.escape(field)}: must keep its default "):
        parse_config(json.dumps(raw))


def test_parse_config_accepts_an_unread_parameter_at_its_default():
    algorithms = [{"name": "rrm", "alpha": 0.1, "q": 2}, {"name": "fixed_k0", "eta": 0.1, "pfd": 0.1}]
    raw = dict(MINIMAL_CONFIG, algorithms=algorithms, signal={"k0": 3, "kind": "pm_one", "ratio": 1 / 3})
    plain = dict(MINIMAL_CONFIG, algorithms=["rrm", "fixed_k0"])
    assert parse_config(json.dumps(raw)).digest() == parse_config(json.dumps(plain)).digest()


def test_experiment_ids_are_those_recorded():
    # One experiment, one id: recorded while parse_config turned the JSON
    # numbers of float fields into floats, which to_dict does now.
    assert parse_config(json.dumps(MINIMAL_CONFIG)).digest() == "26e39ab41939"
    assert {name: figure_config(name, 100, 0).digest() for name in FIGURE_NAMES} == {
        "fig1_hadamard": "e290eb3310c8",
        "fig1_gaussian": "c2fc02106e1a",
        "fig2_hadamard": "35be1828eb8d",
        "fig2_gaussian": "7711499d8db4",
        "fig3_q_sweep": "a69424963242",
    }


def test_gen_matrix_and_sidecar(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = main([
        "gen-matrix", "--kind", "identity_hadamard", "--n", "8", "--out", str(out)
    ])
    assert code == 0
    matrix = load_design_csv(out).matrix
    assert matrix.shape == (8, 16)
    sidecar = json.loads((tmp_path / "m.csv.json").read_text())
    # A fixed kind draws nothing and is not normalized: its sidecar records no seed and no normalize.
    assert sidecar == {"kind": "identity_hadamard", "n": 8, "p": 16}


def test_gen_matrix_gaussian_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        assert main([
            "gen-matrix", "--kind", "gaussian", "--n", "8", "--p", "12",
            "--seed", "5", "--out", str(out),
        ]) == 0
    assert out1.read_text() == out2.read_text()


def test_gen_matrix_gaussian_is_the_seeded_matrix_bit_for_bit(tmp_path):
    # A fixed Gaussian design is this CSV read back as an external design.
    out = tmp_path / "G.csv"
    args = ["gen-matrix", "--kind", "gaussian", "--n", "32", "--p", "64", "--seed", "5", "--normalize"]
    assert main(args + ["--out", str(out)]) == 0
    assert np.array_equal(load_design_csv(out).matrix, make_gaussian(32, 64, 5, True).matrix)
    sidecar = json.loads((tmp_path / "G.csv.json").read_text())
    assert sidecar == {"kind": "gaussian", "n": 32, "p": 64, "seed": 5, "normalize": True}


@pytest.mark.parametrize(
    "section, key, context",
    [("design", "seed", "design"), (None, "regenerate_matrix_per_trial", "config")],
)
def test_parse_config_refuses_the_deleted_fixed_gaussian_settings(section, key, context):
    # A gaussian design is drawn per trial; a fixed one is an external design.
    raw = json.loads(json.dumps(MINIMAL_CONFIG))
    (raw[section] if section else raw)[key] = False
    with pytest.raises(ValidationError, match=rf"^{context}: unknown field\(s\) \['{key}'\]$"):
        parse_config(json.dumps(raw))


def test_gen_matrix_takes_no_p_for_identity_hadamard_but_2n(tmp_path, capsys):
    out = tmp_path / "m.csv"
    args = ["gen-matrix", "--kind", "identity_hadamard", "--n", "8", "--p", "10", "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err == "error: design.p: must equal 2n=16, got 10\n"
    assert not out.exists()
    # A design is checked as a design only: n >= 2 is a sweep's requirement.
    assert main(["gen-matrix", "--kind", "gaussian", "--n", "1", "--p", "3", "--out", str(out)]) == 0
    assert load_design_csv(out).matrix.shape == (1, 3)


@pytest.mark.parametrize(
    "args, message",
    [
        (["--kind", "identity_hadamard", "--n", "4", "--normalize"],
         "design.normalize: must be false, or true for kind 'gaussian', got True"),
        (["--kind", "identity_hadamard", "--n", "4", "--seed", "9"],
         "seed: must be None for kind 'identity_hadamard', which draws nothing, got 9"),
        (["--kind", "identity_hadamard", "--n", "4", "--seed", "0"],
         "seed: must be None for kind 'identity_hadamard', which draws nothing, got 0"),
        (["--kind", "gaussian", "--n", "4"], "design.p: must be an integer, got None"),
        (["--kind", "gaussian", "--n", "0", "--p", "3"], "design.n: must be >= 1, got 0"),
    ],
)
def test_gen_matrix_refuses_a_setting_its_build_does_not_read(tmp_path, capsys, args, message):
    # The sidecar records what the build read: a fixed kind draws nothing.
    out = tmp_path / "m.csv"
    assert main(["gen-matrix", *args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_threshold_subcommand(tmp_path, capsys):
    assert main(["threshold", "--n", "32", "--p", "64", "--k-max", "4", "--alpha", "0.1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,gamma"
    table = build_threshold_table(32, 64, 4, 0.1)
    for k, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        assert int(fields[0]) == k
        assert float(fields[1]) == table[k - 1]

    out = tmp_path / "thr.csv"
    assert main([
        "threshold", "--n", "32", "--p", "64", "--k-max", "4", "--out", str(out)
    ]) == 0
    assert out.read_text().splitlines()[0] == "k,gamma"


def test_threshold_subcommand_takes_a_level_denominator_past_the_doubles(capsys):
    # k_max p = 2 * 10^400 is no double, and the level 1e-300 / (2 p) lies
    # far below the doubles: Gamma(1) is the quantile of that exact level, to
    # 1e-13 of 50-digit mpmath (ln z ~ -1613 held in a double is ~1e-13 off),
    # and Gamma(2) = sqrt(2 z) ~ 1e-350 reads as the smallest positive double.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    p = 10**400
    assert main(["threshold", "--n", "4", "--p", str(p), "--k-max", "2", "--alpha", "1e-300"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0] == "k,gamma" and len(lines) == 3
    gammas = [float(line.split(",")[1]) for line in lines[1:]]
    a, z = mp.mpf(3) / 2, mp.mpf(1e-300) / (2 * p)
    ln_g = mp.findroot(lambda t: mp.log(mp.betainc(a, 0.5, 0, mp.exp(2 * t), regularized=True)) - mp.log(z), -470)
    assert gammas[0] == pytest.approx(float(mp.exp(ln_g)), rel=1e-13, abs=0.0)
    assert gammas[1] == 5e-324


def _write_identity_problem(tmp_path):
    mpath = tmp_path / "X.csv"
    ypath = tmp_path / "y.csv"
    np.savetxt(mpath, np.eye(4), delimiter=",", fmt="%.17g")
    y = np.zeros(4)
    y[1] = 2.0
    np.savetxt(ypath, y.reshape(-1, 1), delimiter=",", fmt="%.17g")
    return mpath, ypath


def test_recover_rrm(tmp_path, capsys):
    mpath, ypath = _write_identity_problem(tmp_path)
    code = main(["recover", "--matrix", str(mpath), "--y", str(ypath), "--method", "rrm"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["support"] == [2]  # 1-based output
    assert payload["k_selected"] == 1
    assert payload["status"] == "ok"
    assert payload["residual_norm"] == pytest.approx(0.0, abs=1e-12)
    assert payload["rr_values"][0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("method", ["rrm", "rrta", "rrt"])
def test_recover_rejects_non_finite_y(tmp_path, capsys, method):
    mpath, ypath = _write_identity_problem(tmp_path)
    ypath.write_text("0.0\nnan\n0.0\n0.0\n")
    assert main(["recover", "--matrix", str(mpath), "--y", str(ypath), "--method", method]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: vector entries must be finite\n"


def test_recover_rejects_non_finite_matrix(tmp_path, capsys):
    mpath, ypath = _write_identity_problem(tmp_path)
    mpath.write_text("1,0,0,0\n0,nan,0,0\n0,0,1,0\n0,0,0,1\n")
    assert main(["recover", "--matrix", str(mpath), "--y", str(ypath), "--method", "rrm"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix entries must be finite\n"


@pytest.mark.parametrize("bad", ["matrix", "y"])
def test_recover_names_a_csv_that_does_not_parse(tmp_path, capsys, bad):
    paths = dict(zip(("matrix", "y"), _write_identity_problem(tmp_path)))
    paths[bad].write_text("1,0,0,0\n0,x,0,0\n")
    assert main(["recover", "--matrix", str(paths["matrix"]), "--y", str(paths["y"]), "--method", "rrm"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {paths[bad]}: could not convert string 'x' to float64 at row ")


def test_recover_rrt_and_fixed(tmp_path, capsys):
    mpath, ypath = _write_identity_problem(tmp_path)
    assert main([
        "recover", "--matrix", str(mpath), "--y", str(ypath), "--method", "rrt:0.1"
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    # exactly noiseless input: the zero residual propagates RR = [0, 0], and
    # max-semantics select both steps (column 2 plus the smallest-index tie)
    assert payload["support"] == [1, 2]
    assert payload["k_selected"] == 2

    assert main([
        "recover", "--matrix", str(mpath), "--y", str(ypath), "--method", "fixed_k0:0"
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["support"] == [] and payload["status"] == "ok"


def test_recover_sigma_rules(tmp_path, capsys):
    mpath, ypath = _write_identity_problem(tmp_path)
    assert main([
        "recover", "--matrix", str(mpath), "--y", str(ypath),
        "--method", "rpsc", "--sigma", "0.001",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["support"] == [2]

    assert main([
        "recover", "--matrix", str(mpath), "--y", str(ypath),
        "--method", "rcsc_hsc:0.2", "--sigma", "0.001",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["support"] == [2]

    # sigma required for noise-aware rules
    assert main([
        "recover", "--matrix", str(mpath), "--y", str(ypath), "--method", "rpsc"
    ]) == 1


@pytest.mark.parametrize("method", ["rpsc", "rcsc_hsc:0.2"])
@pytest.mark.parametrize("sigma", ["nan", "inf", "0", "-1"])
def test_recover_rejects_a_sigma_that_is_not_finite_and_positive(tmp_path, capsys, method, sigma):
    mpath, ypath = _write_identity_problem(tmp_path)
    assert main(["recover", "--matrix", str(mpath), "--y", str(ypath), "--method", method, f"--sigma={sigma}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: sigma must be finite and positive")


def test_recover_rejects_incomplete_or_invalid_methods(tmp_path, capsys):
    mpath, ypath = _write_identity_problem(tmp_path)
    for method, reason in (
        ("fixed_k0", "k0"),
        ("fixed_k0:1.5", "k0"),
        ("rrt:1.5", "alpha"),
        ("rrta:2,1", "pfd"),
        ("rrm:0.5", "at most 0"),
    ):
        assert main(["recover", "--matrix", str(mpath), "--y", str(ypath), "--method", method]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and reason in err, (method, err)


@pytest.mark.parametrize(
    "method, message",
    [
        ("rrt:abc", "--method rrt.alpha: must be a finite number, got 'abc'"),
        ("rrt:nan", "--method rrt.alpha: must be a finite number, got nan"),
        ("rrta:2,x", "--method rrta.pfd: must be a finite number, got 'x'"),
        ("fixed_k0:abc", "method 'fixed_k0' needs a nonnegative integer k0: fixed_k0:k0"),
    ],
)
def test_recover_names_the_field_of_a_value_that_is_not_a_number(tmp_path, capsys, method, message):
    mpath, ypath = _write_identity_problem(tmp_path)
    assert main(["recover", "--matrix", str(mpath), "--y", str(ypath), "--method", method]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _write_rank_deficient_design(tmp_path):
    """8x6 design whose columns all lie in span(e1, e2): every path stops after
    two steps, short of k0 = 3."""
    x = np.zeros((8, 6))
    for j, (a, b) in enumerate([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1)]):
        x[:2, j] = np.array([a, b]) / np.hypot(a, b)
    mpath = tmp_path / "X.csv"
    save_matrix_csv(mpath, x)
    return mpath


def test_fixed_k0_past_the_path_keeps_the_path_as_exhausted(tmp_path, capsys):
    mpath = _write_rank_deficient_design(tmp_path)
    config = ExperimentConfig(
        design=DesignSpec(kind="external", n=8, p=6, path=str(mpath)),
        signal=SignalSpec(k0=3),
        snr_db_list=(20.0,),
        trials=3,
        algorithms=(AlgorithmSpec("fixed_k0"), AlgorithmSpec("rrt"), AlgorithmSpec("rrta")),
        root_seed=7,
    )
    record = run_trial(config, build_design(config.design), 20.0, 0)
    estimate = record.outcomes["fixed_k0"].estimate
    assert (estimate.k_selected, estimate.status) == (2, "exhausted")
    assert not record.outcomes["fixed_k0"].exact
    # the threshold selectors compare only the two realized steps
    assert all(o.estimate.k_selected <= 2 for o in record.outcomes.values())
    assert run_sweep(config).rows[0].pe == 1.0  # fixed_k0 can never hold all three

    ypath = tmp_path / "y.csv"
    np.savetxt(ypath, np.arange(1.0, 9.0).reshape(-1, 1), delimiter=",", fmt="%.17g")
    assert main(["recover", "--matrix", str(mpath), "--y", str(ypath), "--method", "fixed_k0:3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["k_selected"], payload["status"]) == (2, "exhausted")
    assert len(payload["support"]) == 2


@pytest.mark.parametrize("rule", ["omp", "ols"])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_recover_every_algorithm_on_noisy_hadamard(tmp_path, capsys, name, rule):
    mpath, ypath = tmp_path / "X.csv", tmp_path / "y.csv"
    save_matrix_csv(mpath, make_identity_hadamard(32).matrix)
    np.savetxt(ypath, np.array(RECOVER_FIXTURE["y"]).reshape(-1, 1), delimiter=",", fmt="%.17g")
    method = f"{name}:{RECOVER_FIXTURE['k0']}" if name == "fixed_k0" else name
    assert main([
        "recover", "--matrix", str(mpath), "--y", str(ypath), "--method", method,
        "--rule", rule, "--sigma", repr(RECOVER_FIXTURE["sigma"]),
    ]) == 0
    assert capsys.readouterr().out == RECOVER_FIXTURE["stdout"][f"{name}|{rule}"]


@pytest.mark.parametrize("rule", ["omp", "ols"])
@pytest.mark.parametrize("method", ["rrm", "rrt", "rrta", "rpsc"])
def test_recover_zero_observation_selects_nothing(tmp_path, capsys, method, rule):
    # y = 0 holds nothing: the residual-ratio selectors return an empty
    # selection, and the sigma rules stop at k = 0 with the empty support.
    mpath, ypath = tmp_path / "X.csv", tmp_path / "y.csv"
    save_matrix_csv(mpath, make_identity_hadamard(32).matrix)
    np.savetxt(ypath, np.zeros((32, 1)), delimiter=",", fmt="%.17g")
    assert main([
        "recover", "--matrix", str(mpath), "--y", str(ypath), "--method", method, "--rule", rule, "--sigma", "0.1",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["support"] == [] and payload["k_selected"] == 0
    assert payload["status"] == ("ok" if method == "rpsc" else "empty_selection")
    assert payload["residual_norm"] == 0.0


def test_recover_ols_rule(tmp_path, capsys):
    mpath, ypath = _write_identity_problem(tmp_path)
    assert main([
        "recover", "--matrix", str(mpath), "--y", str(ypath),
        "--method", "rrm", "--rule", "ols",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["support"] == [2]


def test_recover_unknown_method(tmp_path, capsys):
    mpath, ypath = _write_identity_problem(tmp_path)
    assert main([
        "recover", "--matrix", str(mpath), "--y", str(ypath), "--method", "lasso"
    ]) == 1
    assert "error:" in capsys.readouterr().err


def test_diagnose_json(tmp_path, capsys):
    mpath = tmp_path / "X.csv"
    from rrselect.designs import SignalSpec, make_identity_hadamard, save_matrix_csv

    save_matrix_csv(mpath, make_identity_hadamard(4).matrix)
    code = main([
        "diagnose", "--matrix", str(mpath), "--k0", "1",
        "--ric-max-order", "2", "--support", "1,6",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    regularity = payload["regularity"]
    assert regularity["mu"] == pytest.approx(0.5)
    assert regularity["mic_max_k0"] == mic_sparsity_limit(regularity["mu"])
    assert regularity["ric"] == {"1": pytest.approx(0.0, abs=1e-12), "2": pytest.approx(0.5)}
    assert regularity["erc_constant"] is not None
    assert regularity["notes"] == ""  # RIC orders k0 = 1 and 2 are computed: no proxy
    assert payload["epsilon_bounds"]["eps_sigma"] > 0.0


def test_diagnose_skips_the_ric_orders_past_the_subset_guard(tmp_path, capsys):
    # C(256, 3) = 2,763,520 subsets exceed the guard of 10^6; C(256, 2) does not.
    mpath = tmp_path / "G.csv"
    gen = ["gen-matrix", "--kind", "gaussian", "--n", "8", "--p", "256", "--seed", "1", "--normalize"]
    assert main([*gen, "--out", str(mpath)]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--matrix", str(mpath), "--k0", "3", "--ric-max-order", "3"]) == 0
    regularity = json.loads(capsys.readouterr().out)["regularity"]
    assert list(regularity["ric"]) == ["1", "2"]
    assert regularity["notes"] == (
        "RIC orders [3] skipped (subset guard); epsilon bounds use the incoherence proxy delta_j <= (j-1) mu"
    )
    assert regularity["erc_constant"] is None


@pytest.mark.parametrize(
    "matrix, args, message",
    [
        (np.ones((3, 1)), [], "mutual incoherence needs at least two columns"),
        (make_identity_hadamard(4).matrix, ["--support", "0"], r"--support: indices must be integers in \[1, 8\], got '0'"),
        (make_identity_hadamard(4).matrix, ["--support", "1,9"], r"--support: indices must be integers in \[1, 8\], got '9'"),
        (make_identity_hadamard(4).matrix, ["--support", "1.5"], r"--support: indices must be integers in \[1, 8\], got '1.5'"),
        (make_identity_hadamard(4).matrix, ["--support", "2,x"], r"--support: indices must be integers in \[1, 8\], got 'x'"),
        (make_identity_hadamard(4).matrix, ["--ric-max-order", "9"], r"--ric-max-order: must lie in \[0, 8\], got 9"),
        (make_identity_hadamard(4).matrix, ["--ric-max-order", "-2"], r"--ric-max-order: must lie in \[0, 8\], got -2"),
        (make_identity_hadamard(4).matrix, ["--k0", "0"], r"k0=0 must lie in \[1, k_max=2\]"),
    ],
)
def test_diagnose_fails_with_a_one_line_error(tmp_path, capsys, matrix, args, message):
    mpath = tmp_path / "X.csv"
    save_matrix_csv(mpath, matrix)
    assert main(["diagnose", "--matrix", str(mpath), "--k0", "1", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"error: {message}\n", captured.err)


@pytest.mark.parametrize("flag, value", [("--sigma", "nan"), ("--sigma", "inf"), ("--beta-min", "nan"), ("--beta-max", "inf")])
def test_diagnose_rejects_a_non_finite_margin_input(tmp_path, capsys, flag, value):
    # A NaN would reach the JSON as NaN, which is not JSON; an inf gives no margin.
    mpath = tmp_path / "X.csv"
    save_matrix_csv(mpath, make_identity_hadamard(4).matrix)
    assert main(["diagnose", "--matrix", str(mpath), "--k0", "1", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "must be finite and nonnegative" in captured.err


def _diagnose(mpath, *args) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["diagnose", "--matrix", str(mpath), *args]) == 0
    return json.loads(out.getvalue())


def test_diagnose_gives_a_margin_of_0_where_a_ric_value_voids_it(tmp_path):
    # The normalized 16 x 32 Gaussian of seed 0 has delta_2 = 0.748 and
    # delta_3 = 1.087: delta_3 voids every margin at k0 = 3 and OMP's at
    # k0 = 2, where the exact delta_2 still gives RRT and RRM a margin.
    mpath = tmp_path / "G.csv"
    save_matrix_csv(mpath, make_gaussian(16, 32, 0, normalize=True).matrix)
    payload = _diagnose(mpath, "--k0", "3", "--ric-max-order", "3")
    assert payload["regularity"]["ric"]["3"] == pytest.approx(1.0867572832758299, rel=1e-12)
    margins = {key: value for key, value in payload["epsilon_bounds"].items() if key != "eps_sigma"}
    assert margins == dict.fromkeys(["eps_omp", "eps_rrt", "eps_rrt_tilde", "eps_rrm"], 0.0)
    bounds = _diagnose(mpath, "--k0", "2", "--ric-max-order", "3")["epsilon_bounds"]
    assert bounds["eps_omp"] == 0.0
    assert bounds["eps_rrt"] == pytest.approx(0.19405187368471816, rel=1e-12)  # from delta_2 = 0.748


def test_diagnose_bounds_no_ric_by_incoherence_on_columns_of_other_norms(tmp_path):
    # Unnormalized, (j-1) mu bounds no RIC: delta_1 = 0.95 and delta_2 = 1.32
    # on this design, where the proxy would read 0 and 0.68.
    mpath = tmp_path / "U.csv"
    save_matrix_csv(mpath, make_gaussian(32, 64, 0).matrix)
    payload = _diagnose(mpath, "--k0", "2")
    assert payload["regularity"]["notes"] == (
        "columns are not unit norm, so mu bounds no RIC: the margins that read "
        "an uncomputed delta_j are 0 (they need --ric-max-order >= k0+1)"
    )
    bounds = payload["epsilon_bounds"]
    assert [bounds[key] for key in ("eps_omp", "eps_rrt", "eps_rrt_tilde", "eps_rrm")] == [0.0] * 4


@functools.cache
def _small_design(name: str, seed: int):
    if name == "hadamard":
        return make_identity_hadamard(8)
    return make_gaussian(8, 16, seed, normalize=name == "gaussian, unit-norm columns")


@functools.cache
def _exact_ric(name: str, seed: int, order: int) -> float:
    return ric_bruteforce(_small_design(name, seed), order)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["hadamard", "gaussian, unit-norm columns", "gaussian"]),
    seed=st.integers(0, 3),
    k0=st.integers(1, 4),  # k_max = 4 for n = 8
    ric_max_order=st.integers(0, 5),
)
def test_diagnose_margins_never_exceed_those_of_the_exact_ric(tmp_path_factory, name, seed, k0, ric_max_order):
    # 8 x 16 designs, [I, H/sqrt 8] and Gaussians with and without unit-norm
    # columns, whose RIC of every order diagnose reads is within brute-force
    # reach. The RIC values diagnose feeds epsilon_bounds (exact,
    # the incoherence proxy, or none) must bound the exact ones, so that no
    # margin it prints exceeds the margin of the exact RIC.
    mpath = tmp_path_factory.getbasetemp() / f"{name}-{seed}.csv"
    if not mpath.exists():
        save_matrix_csv(mpath, _small_design(name, seed).matrix)
    printed = _diagnose(mpath, "--k0", str(k0), "--ric-max-order", str(ric_max_order))["epsilon_bounds"]
    exact = dataclasses.asdict(
        epsilon_bounds(_exact_ric(name, seed, k0), _exact_ric(name, seed, k0 + 1), 1.0, 1.0, 8, 16, 4, 0.1, 0.1, k0)
    )
    for key, value in printed.items():
        assert value <= exact[key] * (1.0 + 1e-9), key


def test_simulate_subcommand(tmp_path):
    config = dict(MINIMAL_CONFIG, snr_db=[20], trials=5)
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(config))
    out = tmp_path / "sweep.csv"
    assert main(["simulate", "--config", str(cpath), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2  # header + 1 snr x 1 algorithm
    assert lines[0].startswith("experiment_id,design,n,p")


def test_simulate_trials_override_and_failure_leaves_no_file(tmp_path):
    config = dict(MINIMAL_CONFIG, snr_db=[20], trials=1000)
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(config))
    out = tmp_path / "sweep.csv"
    assert main([
        "simulate", "--config", str(cpath), "--out", str(out), "--trials", "3"
    ]) == 0
    assert "3" in out.read_text().splitlines()[1].split(",")

    bad = dict(config, trials=0)
    cpath.write_text(json.dumps(bad))
    out2 = tmp_path / "sweep2.csv"
    assert main(["simulate", "--config", str(cpath), "--out", str(out2)]) == 1
    assert not out2.exists()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize(
    "args, message",
    [
        (["gen-matrix", "--kind", "gaussian", "--n", "8", "--p", "16", "--seed", "-1", "--out", "{out}"],
         "seed: must be an integer in [0, 2**64), got -1"),
        (["simulate", "--config", "{wide}", "--out", "{out}"],
         "root_seed: must lie in [0, 2**64), got 18446744073709551616"),
        (["simulate", "--config", "{config}", "--out", "{out}", "--root-seed", "-1"],
         "root_seed: must lie in [0, 2**64), got -1"),
    ],
)
def test_a_seed_is_a_64_bit_word_on_the_command_line(tmp_path, capsys, args, message):
    # numpy would take -1 as a bare ValueError, and a root seed of 2**64 would
    # sweep as 0 under another experiment id.
    paths = {name: tmp_path / f"{name}.json" for name in ("config", "wide")}
    paths["config"].write_text(json.dumps(dict(MINIMAL_CONFIG, trials=5)))
    paths["wide"].write_text(json.dumps(dict(MINIMAL_CONFIG, trials=5, root_seed=2**64)))
    out = tmp_path / "out.csv"
    assert main([arg.format(out=out, **paths) for arg in args]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_figure_config_presets():
    for name in ("fig1_hadamard", "fig1_gaussian", "fig2_hadamard", "fig2_gaussian"):
        config = figure_config(name, trials=10, root_seed=7)
        labels = [a.label for a in config.algorithms]
        assert len(labels) == 9
        assert "rrt(alpha=0.1)" in labels and "rrt(alpha=0.01)" in labels
        kind = "gaussian" if "gaussian" in name else "identity_hadamard"
        assert config.design.kind == kind
        expected_signal = "geometric" if name.startswith("fig2") else "pm_one"
        assert config.signal.kind == expected_signal

    qcfg = figure_config("fig3_q_sweep", trials=10, root_seed=7)
    qlabels = [a.label for a in qcfg.algorithms]
    for q in (1, 2, 5, 10):
        assert f"rrta(pfd=0.1,q={q})" in qlabels
    with pytest.raises(ValidationError):
        figure_config("fig9", trials=10, root_seed=7)


def test_figure_subcommand_shape_and_determinism(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        assert main([
            "figure", "fig1_hadamard", "--trials", "3", "--out", str(out)
        ]) == 0
    results = (out1 / "fig1_hadamard_results.csv").read_text()
    assert results == (out2 / "fig1_hadamard_results.csv").read_text()
    plot = (out1 / "fig1_hadamard_pe.csv").read_text()
    assert plot == (out2 / "fig1_hadamard_pe.csv").read_text()

    config = figure_config("fig1_hadamard", trials=3, root_seed=7)
    n_rows = len(results.strip().splitlines()) - 1
    assert n_rows == len(config.snr_db_list) * len(config.algorithms)
    assert plot.splitlines()[0] == "snr_db,algorithm,pe"


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_figure_rejects_thread_counts_below_one(tmp_path, capsys, threads):
    out = tmp_path / "out"
    assert main(["figure", "fig1_hadamard", "--trials", "2", "--threads", threads, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: workers: must be >= 1, got {threads}\n"
    assert not out.exists()


def test_unknown_flag_rejected(capsys):
    # Reported under the subcommand's own usage, whose options the user must read.
    parsers = _subcommand_parsers()
    assert len(parsers) == 6
    for name, parser in parsers.items():
        with pytest.raises(SystemExit) as exc:
            main([name, *_required_argv(parser), "--bogus", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: rrselect {name} "), err
        assert f"\nrrselect {name}: error: unrecognized arguments: --bogus 1\n" in err, err


def _subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    """{name: parser} of every subcommand, read off build_parser()'s actions."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _options(parser):
    """Every action of a subcommand but --help, each with a value it accepts
    as typed and that value as parsed."""
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action.nargs == 0:
            yield action, [], action.const
        else:
            token = str(list(action.choices)[0]) if action.choices else {int: "1", float: "0.5"}.get(action.type, "v")
            yield action, [token], action.type(token) if action.type else token


def _required_argv(parser, skip=None) -> list[str]:
    """The required options and positionals of a subcommand, each with a value."""
    argv = []
    for action, tokens, _ in _options(parser):
        if action.required and action is not skip:
            argv += action.option_strings[:1] + tokens
    return argv


@pytest.mark.parametrize("name", sorted(_subcommand_parsers()))
def test_every_option_parses_under_its_full_spelling(name):
    parser = _subcommand_parsers()[name]
    for action, tokens, value in _options(parser):
        for spelling in action.option_strings or [None]:
            typed = ([spelling] if spelling else []) + tokens
            args = build_parser().parse_args([name, *_required_argv(parser, skip=action), *typed])
            assert getattr(args, action.dest) == value, (name, spelling)


@pytest.mark.parametrize("name", sorted(_subcommand_parsers()))
def test_no_option_takes_an_abbreviation(name, capsys):
    # An option has one spelling: a prefix of it is refused with argparse's
    # usage error, not expanded to the option.
    parser = _subcommand_parsers()[name]
    abbreviated = 0
    for action, tokens, _ in _options(parser):
        for spelling in action.option_strings:
            if len(spelling) <= 3:  # --n, --p, --y: no prefix is an option
                continue
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([name, *_required_argv(parser, skip=action), spelling[:-1], *tokens])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: rrselect ") and "error: " in err and spelling[:-1] in err, err
            abbreviated += 1
    assert abbreviated


@pytest.mark.parametrize(
    "args",
    [
        ["recover", "--matrix", "{X}", "--y", "{y}", "--meth", "rrm"],
        ["recover", "--matrix", "{X}", "--y", "{y}", "--method", "rrm", "--ru", "ols"],
        ["gen-matrix", "--kind", "identity_hadamard", "--n", "8", "--ou", "{out}"],
        ["gen-matrix", "--kind", "gaussian", "--n", "8", "--p", "16", "--norm", "--out", "{out}"],
        ["threshold", "--n", "8", "--p", "16", "--k-max", "2", "--alph", "0.01"],
        ["diagnose", "--matrix", "{X}", "--k0", "1", "--ric", "2"],
        ["simulate", "--config", "{config}", "--out", "{out}", "--tri", "2"],
        ["figure", "fig1_hadamard", "--tri", "2", "--out", "{out}"],
    ],
)
def test_each_subcommand_refuses_an_abbreviated_option(tmp_path, capsys, args):
    # Each command runs as typed when spelled out: only the abbreviation fails.
    mpath, ypath = _write_identity_problem(tmp_path)
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(dict(MINIMAL_CONFIG, snr_db=[20], trials=2)))
    out = tmp_path / "out"
    argv = [a.format(X=mpath, y=ypath, config=cpath, out=out) for a in args]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    spellings = _subcommand_parsers()[args[0]]._option_string_actions
    (prefix,) = [a for a in argv if a.startswith("--") and a not in spellings]
    assert err.startswith("usage: rrselect ") and "error: " in err and prefix in err, err
    assert not out.exists()
    (full,) = [spelling for spelling in spellings if spelling.startswith(prefix)]
    assert main([full if a == prefix else a for a in argv]) == 0
