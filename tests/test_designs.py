import dataclasses
import math
import pickle

import numpy as np
import pytest

from rrselect.designs import (
    DesignMatrix,
    SignalSpec,
    SparseProblem,
    load_design_csv,
    load_vector_csv,
    make_gaussian,
    make_identity_hadamard,
    make_signal,
    sample_support,
    save_matrix_csv,
    sylvester_hadamard,
    synthesize,
)
from rrselect.errors import DimensionMismatchError, ValidationError


def test_design_matrix_validates_shape_and_finiteness():
    d = DesignMatrix([[1.0, 2.0], [3.0, 4.0]])
    assert (d.n, d.p) == (2, 2)
    assert d.matrix.dtype == np.float64 and d.matrix.flags.f_contiguous
    with pytest.raises(DimensionMismatchError):
        DesignMatrix([1.0, 2.0, 3.0])
    with pytest.raises(ValidationError, match="matrix entries must be finite"):
        DesignMatrix([[1.0, np.nan]])
    with pytest.raises(ValidationError, match="matrix entries must be finite"):
        DesignMatrix([[np.inf, 0.0]])


def test_design_matrix_holds_a_read_only_fortran_order_copy():
    x = np.arange(6.0).reshape(2, 3)  # C order
    d = DesignMatrix(x)
    assert d.matrix.flags.f_contiguous and not d.matrix.flags.c_contiguous
    assert np.array_equal(d.matrix, x) and not np.shares_memory(d.matrix, x)
    x[0, 0] = 7.0
    assert d.matrix[0, 0] == 0.0
    with pytest.raises(ValueError):
        d.matrix[0, 0] = 7.0


def test_column_sq_is_the_einsum_read_only_and_computed_once():
    d = make_gaussian(32, 64, 0)
    sq = d.column_sq
    assert sq.tobytes() == np.einsum("ij,ij->j", d.matrix, d.matrix).tobytes()
    assert not sq.flags.writeable
    assert d.column_sq is sq


@pytest.mark.parametrize("design", [make_identity_hadamard(4), make_gaussian(3, 5, 0)])
def test_a_pickled_design_comes_back_read_only_without_its_cache(design):
    # A pool worker unpickles the sweep's design: it must be the checked
    # read-only copy again, and derive its column norms itself.
    design.column_sq
    clone = pickle.loads(pickle.dumps(design))
    assert clone.matrix.tobytes() == design.matrix.tobytes()
    assert clone.matrix.flags.f_contiguous and not clone.matrix.flags.writeable
    assert "column_sq" not in clone.__dict__
    assert clone.column_sq.tobytes() == design.column_sq.tobytes() and not clone.column_sq.flags.writeable


def test_unit_norm_flag_is_derived_from_the_columns(tmp_path):
    assert make_identity_hadamard(32).unit_norm_columns
    assert make_gaussian(32, 64, 0, normalize=True).unit_norm_columns
    assert not make_gaussian(32, 64, 0).unit_norm_columns
    path = tmp_path / "x.csv"
    save_matrix_csv(path, make_identity_hadamard(32).matrix)
    assert load_design_csv(path).unit_norm_columns


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_design_csv_rejects_non_finite_entries(tmp_path, bad):
    mpath = tmp_path / "m.csv"
    mpath.write_text(f"1.0,0.0\n{bad},1.0\n")
    with pytest.raises(ValidationError, match="matrix entries must be finite"):
        load_design_csv(mpath)


def test_hadamard_orthogonality_exact_integers():
    for n in (1, 2, 4, 8, 16, 32):
        h = sylvester_hadamard(n)
        assert np.array_equal(h.T @ h, n * np.eye(n))
    with pytest.raises(ValidationError):
        sylvester_hadamard(12)
    with pytest.raises(ValidationError):
        sylvester_hadamard(0)


def test_identity_hadamard_small_cases():
    d1 = make_identity_hadamard(1)
    assert np.array_equal(d1.matrix, [[1.0, 1.0]])

    d2 = make_identity_hadamard(2)
    s = 1.0 / math.sqrt(2.0)
    expected = np.array([[1.0, 0.0, s, s], [0.0, 1.0, s, -s]])
    assert np.allclose(d2.matrix, expected)
    assert d2.unit_norm_columns


def test_identity_hadamard_unit_columns():
    d = make_identity_hadamard(32)
    norms = np.linalg.norm(d.matrix, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-10
    assert (d.n, d.p) == (32, 64)


def test_pm_one_signs_are_the_draw_of_generator_choice():
    # make_signal draws the signs by indexing [-1, 1] with integers(0, 2),
    # which is the draw rng.choice([-1.0, 1.0], size=k0) makes.
    spec = SignalSpec(k0=3, kind="pm_one")
    for seed in range(1000):
        beta = make_signal(64, (4, 17, 40), spec, seed)
        expected = np.random.default_rng(seed).choice([-1.0, 1.0], size=3)
        assert np.array_equal(beta[[4, 17, 40]], expected)
        assert np.count_nonzero(beta) == 3


def test_gaussian_determinism_and_normalization():
    a = make_gaussian(16, 24, seed=123)
    b = make_gaussian(16, 24, seed=123)
    assert np.array_equal(a.matrix, b.matrix)
    c = make_gaussian(16, 24, seed=124)
    assert not np.array_equal(a.matrix, c.matrix)

    norm = make_gaussian(16, 24, seed=5, normalize=True)
    norms = np.linalg.norm(norm.matrix, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-10
    assert norm.unit_norm_columns and not a.unit_norm_columns


def test_gaussian_column_norm_concentration():
    # Column norms are sqrt(chi2_32/32). Chi-square tails give
    # P(norm outside [0.35, 1.8]) ~ 3e-9 per column, so 3200 draws stay inside
    # with overwhelming probability; the [0.6, 1.4] band has per-column
    # violation rate ~1.3e-3, so allow a small count there and pin the mean.
    all_norms = []
    for seed in range(50):
        d = make_gaussian(32, 64, seed=seed)
        all_norms.append(np.linalg.norm(d.matrix, axis=0))
    norms = np.concatenate(all_norms)
    assert norms.min() > 0.35 and norms.max() < 1.8
    within = np.mean((norms > 0.6) & (norms < 1.4))
    assert within >= 0.995
    assert abs(norms.mean() - 1.0) < 0.02


def test_sample_support_basics():
    assert sample_support(5, 5, seed=0) == (0, 1, 2, 3, 4)
    s1 = sample_support(64, 3, seed=42)
    s2 = sample_support(64, 3, seed=42)
    assert s1 == s2
    assert len(s1) == 3 and len(set(s1)) == 3
    assert all(0 <= i < 64 for i in s1)
    with pytest.raises(ValidationError):
        sample_support(4, 5, seed=0)
    with pytest.raises(ValidationError):
        sample_support(4, 0, seed=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: make_identity_hadamard(32.0),
        lambda: make_identity_hadamard(True),
        lambda: make_gaussian(32.0, 64, 0),
        lambda: make_gaussian(32, 64.0, 0),
        lambda: sample_support(64, 3.0, 0),
        lambda: sample_support(64, True, 0),
        lambda: sample_support(64.0, 3, 0),
        lambda: make_signal(64.0, (1, 2, 3), SignalSpec(3), 0),
    ],
    ids=[
        "hadamard-float-n",
        "hadamard-bool-n",
        "gaussian-float-n",
        "gaussian-float-p",
        "support-float-k0",
        "support-bool-k0",
        "support-float-p",
        "signal-float-p",
    ],
)
def test_builders_reject_a_non_int_size(call):
    with pytest.raises(ValidationError, match="must be an integer"):
        call()


def test_sample_support_marginal_frequency():
    # marginal inclusion probability of each index is k0/p = 1/3
    p, k0, draws = 6, 2, 60000
    counts = np.zeros(p)
    for seed in range(draws):
        for i in sample_support(p, k0, seed=seed):
            counts[i] += 1
    freq = counts / draws
    assert np.max(np.abs(freq - 1.0 / 3.0)) < 0.01


def test_make_signal_pm_one():
    spec = SignalSpec(k0=1, kind="pm_one")
    beta = make_signal(10, (4,), spec, seed=3)
    assert set(np.nonzero(beta)[0]) == {4}
    assert beta[4] in (-1.0, 1.0)

    spec3 = SignalSpec(k0=3, kind="pm_one")
    beta3 = make_signal(10, (1, 5, 7), spec3, seed=9)
    vals = np.abs(beta3[[1, 5, 7]])
    assert np.array_equal(vals, np.ones(3))  # dynamic range 1


def test_make_signal_geometric():
    spec = SignalSpec(k0=3, kind="geometric", ratio=1.0 / 3.0)
    beta = make_signal(12, (2, 6, 9), spec, seed=11)
    nonzero = sorted(abs(v) for v in beta[[2, 6, 9]])
    assert nonzero == pytest.approx(sorted([1.0, 1.0 / 3.0, 1.0 / 9.0]))
    assert max(nonzero) / min(nonzero) == pytest.approx(9.0)  # dynamic range 3^(k0-1)
    assert np.all(beta[[0, 1, 3, 4, 5, 7, 8, 10, 11]] == 0.0)


def test_make_signal_validation():
    spec = SignalSpec(k0=3, kind="pm_one")
    with pytest.raises(ValidationError):
        make_signal(10, (1, 2), spec, seed=0)  # size mismatch
    with pytest.raises(ValidationError, match=r"^support indices must be integers in \[0, 10\), got 12$"):
        make_signal(10, (1, 2, 12), spec, seed=0)  # out of range
    with pytest.raises(ValidationError, match="^support contains repeated indices$"):
        make_signal(10, (1, 2, 2), spec, seed=0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"k0": 0}, r"signal\.k0: must be >= 1, got 0"),
        ({"k0": 2, "kind": "unknown"}, r"signal\.kind: must be one of \('pm_one', 'geometric'\), got 'unknown'"),
        ({"k0": 2, "kind": "geometric", "ratio": 1.5}, r"signal\.ratio: must lie in \(0,1\) for a geometric signal, got 1\.5"),
    ],
)
def test_signal_spec_range_refusals_name_their_field(kwargs, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        SignalSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"k0": "3"}, "signal.k0"),
        ({"k0": 3.5}, "signal.k0"),
        ({"k0": 3.0}, "signal.k0"),
        ({"k0": True}, "signal.k0"),
        ({"k0": 3, "kind": "geometric", "ratio": "x"}, "signal.ratio"),
        ({"k0": 3, "kind": "geometric", "ratio": True}, "signal.ratio"),
        ({"k0": 2, "ratio": math.nan}, "signal.ratio"),  # pm_one reads no ratio, but it must be finite
        ({"k0": 2, "kind": "geometric", "ratio": -math.inf}, "signal.ratio"),
    ],
)
def test_signal_spec_checks_types_before_ranges(kwargs, field):
    # A string would reach the comparisons (a bare TypeError), and 3.5 or
    # True would pass them.
    with pytest.raises(ValidationError, match=rf"^{field}: must "):
        SignalSpec(**kwargs)


def test_synthesize_sigma_formula():
    design = make_identity_hadamard(32)
    beta = np.zeros(64)
    beta[2] = math.sqrt(3.0)  # ||X beta||^2 = 3 on a unit-norm column
    problem = synthesize(design, beta, (2,), snr=1.0, seed=0)
    assert problem.sigma**2 == pytest.approx(3.0 / 32.0, rel=1e-12)
    assert np.array_equal(problem.observation, design.matrix @ beta + problem.noise)
    # the SNR identity holds exactly per trial
    xb = design.matrix @ beta
    snr = np.linalg.norm(xb) ** 2 / (32 * problem.sigma**2)
    assert snr == pytest.approx(1.0, rel=1e-9)


def test_synthesize_high_snr_limit():
    design = make_identity_hadamard(32)
    spec = SignalSpec(k0=3, kind="pm_one")
    support = sample_support(64, 3, seed=1)
    beta = make_signal(64, support, spec, seed=2)
    problem = synthesize(design, beta, support, snr=1e12, seed=3)
    xb = design.matrix @ beta
    assert np.linalg.norm(problem.noise) / np.linalg.norm(xb) <= 1e-4


def test_synthesize_noise_power_matches_sigma():
    design = make_identity_hadamard(32)
    beta = np.zeros(64)
    beta[5] = 1.0
    ratios = []
    for seed in range(1000):
        problem = synthesize(design, beta, (5,), snr=4.0, seed=seed)
        ratios.append(np.sum(problem.noise**2) / (32 * problem.sigma**2))
    assert np.mean(ratios) == pytest.approx(1.0, abs=0.05)


def test_synthesize_validation():
    design = make_identity_hadamard(4)
    beta = np.zeros(8)
    with pytest.raises(ValidationError):
        synthesize(design, beta, (), snr=1.0, seed=0)  # zero signal
    beta[1] = 1.0
    with pytest.raises(ValidationError):
        synthesize(design, beta, (1, 2), snr=1.0, seed=0)  # support mismatch
    for snr in (0.0, -1.0, math.nan, math.inf):  # inf would give sigma 0, which no sigma rule takes
        with pytest.raises(ValidationError, match="snr must be positive"):
            synthesize(design, beta, (1,), snr=snr, seed=0)


def test_a_sparse_problem_holds_only_what_synthesize_draws():
    assert tuple(f.name for f in dataclasses.fields(SparseProblem)) == ("sigma", "noise", "observation")


def test_synthesize_reproducible():
    design = make_identity_hadamard(16)
    spec = SignalSpec(k0=2, kind="pm_one")
    support = sample_support(32, 2, seed=10)
    beta = make_signal(32, support, spec, seed=20)
    p1 = synthesize(design, beta, support, snr=10.0, seed=30)
    p2 = synthesize(design, beta, support, snr=10.0, seed=30)
    assert np.array_equal(p1.noise, p2.noise)
    assert np.array_equal(p1.observation, p2.observation)
    assert p1.sigma == p2.sigma


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    m = rng.normal(size=(5, 3))
    path = tmp_path / "m.csv"
    save_matrix_csv(path, m)
    back = load_design_csv(path).matrix
    assert np.array_equal(back, m)

    v = rng.normal(size=6)
    vpath = tmp_path / "v.csv"
    save_matrix_csv(vpath, v.reshape(-1, 1))
    assert np.array_equal(load_vector_csv(vpath), v)

    with pytest.raises(DimensionMismatchError):
        save_matrix_csv(vpath, rng.normal(size=(2, 2)))
        load_vector_csv(vpath)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_vector_csv_rejects_non_finite_entries(tmp_path, bad):
    vpath = tmp_path / "v.csv"
    vpath.write_text(f"1.0\n{bad}\n2.0\n")
    with pytest.raises(ValidationError):
        load_vector_csv(vpath)
