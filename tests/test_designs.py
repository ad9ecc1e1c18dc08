import dataclasses
import math
import pickle
import re
import types
import warnings

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
from rrselect.errors import ParseError, ValidationError


def test_design_matrix_validates_shape_and_finiteness():
    d = DesignMatrix([[1.0, 2.0], [3.0, 4.0]])
    assert (d.n, d.p) == (2, 2)
    assert d.matrix.dtype == np.float64 and d.matrix.flags.f_contiguous
    with pytest.raises(ValidationError, match=r"^expected a 2-d array, got ndim=1$"):
        DesignMatrix([1.0, 2.0, 3.0])
    with pytest.raises(ValidationError, match="matrix entries must be finite"):
        DesignMatrix([[1.0, np.nan]])
    with pytest.raises(ValidationError, match="matrix entries must be finite"):
        DesignMatrix([[np.inf, 0.0]])


@pytest.mark.parametrize("scale, overflows", [(1e160, True), (1e150, False)])
def test_design_matrix_refuses_a_column_whose_squared_norm_overflows(scale, overflows):
    # 8 entries of 1e160 square to 8e320 > 1.8e308: the paths' rank test
    # would read an inf column norm (OMP stopped at step 0 as rank deficient,
    # OLS ran amid overflow warnings). 8e300 is still a double.
    x = np.ones((8, 16))
    x[:, 3] = scale
    if overflows:
        with pytest.raises(ValidationError, match=r"^matrix column 3: its squared norm overflows a double$"):
            DesignMatrix(x)
    else:
        assert DesignMatrix(x).column_sq[3] == 8 * scale * scale


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
    # read-only copy again, and derive its column norms itself. The pickle
    # holds the matrix alone, and the clone's build derives the norms.
    assert design.__reduce__() == (DesignMatrix, (design.matrix,))
    clone = pickle.loads(pickle.dumps(design))
    assert clone.matrix.tobytes() == design.matrix.tobytes()
    assert clone.matrix.flags.f_contiguous and not clone.matrix.flags.writeable
    assert clone.column_sq.tobytes() == design.column_sq.tobytes() and not clone.column_sq.flags.writeable


def test_unit_norm_flag_is_derived_from_the_columns(tmp_path):
    assert make_identity_hadamard(32).unit_norm_columns
    assert make_gaussian(32, 64, 0, normalize=True).unit_norm_columns
    assert not make_gaussian(32, 64, 0).unit_norm_columns
    path = tmp_path / "x.csv"
    save_matrix_csv(path, make_identity_hadamard(32).matrix)
    assert load_design_csv(path).unit_norm_columns


@pytest.mark.parametrize("load", [load_design_csv, load_vector_csv])
@pytest.mark.parametrize(
    "text, message",
    [
        ("1,x\n2,3\n", "could not convert string 'x' to float64 at row 0, column 2"),
        ("1,2\n3\n", "the number of columns changed from 2 to 1 at row 2"),
        ("", "no data"),
        ("\n\n", "no data"),
    ],
    ids=["non-numeric", "ragged", "empty", "blank-lines"],
)
def test_csv_text_that_is_no_array_is_a_parse_error_naming_the_path(tmp_path, load, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty file is refused, not warned of
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}"):
            load(path)


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


_UNDERFLOW = r"signal\.ratio: must keep ratio\^\(k0-1\) above 0 in doubles, got "


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"k0": 0}, r"signal\.k0: must be >= 1, got 0"),
        ({"k0": 2, "kind": "unknown"}, r"signal\.kind: must be one of \('pm_one', 'geometric'\), got 'unknown'"),
        ({"k0": 2, "kind": "geometric", "ratio": 1.5}, r"signal\.ratio: must lie in \(0,1\) for a geometric signal, got 1\.5"),
        ({"k0": 2, "ratio": 0.5}, r"signal\.ratio: must keep its default 1/3 \(pm_one reads none\), got 0\.5"),
        ({"k0": 3, "kind": "geometric", "ratio": 1e-200}, _UNDERFLOW + "1e-200"),
        # The largest ratio below 1 underflows past k0 = 2**63; a float power takes no exponent past a double.
        ({"k0": 2**63 + 1, "kind": "geometric", "ratio": 1 - 2**-53}, _UNDERFLOW + r"0\.9999999999999999"),
        ({"k0": 10**400, "kind": "geometric", "ratio": 1 - 2**-53}, _UNDERFLOW + r"0\.9999999999999999"),
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


@pytest.mark.parametrize("k0", [2, 3, 10, 50])
def test_a_geometric_ratio_is_refused_exactly_where_its_draw_would_hold_a_zero(k0):
    # ratio^(k0-1) underflows to 0 below a threshold ratio (for k0 = 2, below
    # the smallest double, where the (0,1) range check refuses). Zero-ness
    # only: the scalar power and make_signal's array power may differ in the
    # last ulp.
    def refused(ratio):
        try:
            SignalSpec(k0, "geometric", ratio)
        except ValidationError as error:
            assert str(error).startswith("signal.ratio: must ")
            return True
        return False

    def draw_holds_a_zero(ratio):  # make_signal reads only these three fields of its spec
        spec = types.SimpleNamespace(k0=k0, kind="geometric", ratio=ratio)
        return not make_signal(k0, tuple(range(k0)), spec, seed=0).all()

    def double(bits):
        return float(np.int64(bits).view(np.float64))

    refused_bits, accepted_bits = 0, int(np.float64(0.5).view(np.int64))  # 0.0 and 0.5
    while accepted_bits - refused_bits > 1:  # bisect over the doubles between
        mid = (refused_bits + accepted_bits) // 2
        if refused(double(mid)):
            refused_bits = mid
        else:
            accepted_bits = mid
    for bits in range(max(accepted_bits - 40, 0), accepted_bits + 40):
        ratio = double(bits)
        assert refused(ratio) == (bits < accepted_bits) == draw_holds_a_zero(ratio), ratio


def _no_warning_refusal(message, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=message):
            call()


def test_synthesize_refuses_an_x_beta_sigma_or_y_that_is_no_double_without_a_warning():
    x = np.eye(8, 16)
    x[:, 3] = 0.0
    x[0, 3] = 1e150  # its squared norm 1e300 is a double, but (1e150 * 1e10)^2 is not
    design = DesignMatrix(x)
    beta = np.zeros(16)
    beta[3] = 1e10
    _no_warning_refusal(r"^\|\|X beta\|\| is inf: X beta overflows a double", lambda: synthesize(design, beta, 10.0, 0))
    beta[3] = 1e-5  # ||X beta|| = 1e145, and y at 10 dB is finite
    assert np.isfinite(synthesize(design, beta, 10.0, 0).observation).all()

    unit = make_identity_hadamard(4)
    tiny_snr = 5e-324  # sqrt(n snr) = 4.4e-162
    _no_warning_refusal(r"^sigma = .* overflows at snr", lambda: synthesize(unit, 1e150 * np.eye(8)[1], tiny_snr, 0))
    # at snr 1e308, n snr overflows, and sigma would be 0 with y = X beta
    _no_warning_refusal(r"^sigma = .* underflows at snr", lambda: synthesize(unit, np.eye(8)[1], 1e308, 0))
    big = synthesize(unit, 1e146 * np.eye(8)[1], tiny_snr, 0)  # sigma 2.2e307, and y finite
    assert math.isfinite(big.sigma) and np.isfinite(big.observation).all()
    # sigma 1.57e308 is a double, but w = sigma z overflows where |z| > 1.14, as in seed 2's draw
    _no_warning_refusal(r"^y = X beta \+ w overflows a double", lambda: synthesize(unit, 7e146 * np.eye(8)[1], tiny_snr, 2))



def test_synthesize_names_an_x_beta_whose_squared_norm_underflows():
    unit = make_identity_hadamard(4)
    # X beta = 1e-200 e_0 is nonzero, but its squared norm 1e-400 is below the doubles.
    underflow = r"^\|\|X beta\|\|\^2 underflows a double though X beta is nonzero"
    _no_warning_refusal(underflow, lambda: synthesize(unit, 1e-200 * np.eye(8)[0], 10.0, 0))
    zero = r"^X beta vanishes; SNR is undefined for a zero signal$"
    _no_warning_refusal(zero, lambda: synthesize(unit, np.zeros(8), 10.0, 0))
    assert synthesize(unit, 1e-150 * np.eye(8)[0], 10.0, 0).sigma > 0.0  # 1e-300 is a double

def test_synthesize_sigma_formula():
    design = make_identity_hadamard(32)
    beta = np.zeros(64)
    beta[2] = math.sqrt(3.0)  # ||X beta||^2 = 3 on a unit-norm column
    problem = synthesize(design, beta, snr=1.0, seed=0)
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
    problem = synthesize(design, beta, snr=1e12, seed=3)
    xb = design.matrix @ beta
    assert np.linalg.norm(problem.noise) / np.linalg.norm(xb) <= 1e-4


def test_synthesize_noise_power_matches_sigma():
    design = make_identity_hadamard(32)
    beta = np.zeros(64)
    beta[5] = 1.0
    ratios = []
    for seed in range(1000):
        problem = synthesize(design, beta, snr=4.0, seed=seed)
        ratios.append(np.sum(problem.noise**2) / (32 * problem.sigma**2))
    assert np.mean(ratios) == pytest.approx(1.0, abs=0.05)


def test_synthesize_validation():
    design = make_identity_hadamard(4)
    beta = np.zeros(8)
    with pytest.raises(ValidationError):
        synthesize(design, beta, snr=1.0, seed=0)  # zero signal
    beta[1] = 1.0
    for snr in (0.0, -1.0, math.nan, math.inf):  # inf would give sigma 0, which no sigma rule takes
        with pytest.raises(ValidationError, match="snr must be positive"):
            synthesize(design, beta, snr=snr, seed=0)


def test_a_sparse_problem_holds_only_what_synthesize_draws():
    assert tuple(f.name for f in dataclasses.fields(SparseProblem)) == ("sigma", "noise", "observation")


def test_synthesize_reproducible():
    design = make_identity_hadamard(16)
    spec = SignalSpec(k0=2, kind="pm_one")
    support = sample_support(32, 2, seed=10)
    beta = make_signal(32, support, spec, seed=20)
    p1 = synthesize(design, beta, snr=10.0, seed=30)
    p2 = synthesize(design, beta, snr=10.0, seed=30)
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

    with pytest.raises(ValidationError, match=r"^expected a vector, got shape \(2, 2\)$"):
        save_matrix_csv(vpath, rng.normal(size=(2, 2)))
        load_vector_csv(vpath)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_vector_csv_rejects_non_finite_entries(tmp_path, bad):
    vpath = tmp_path / "v.csv"
    vpath.write_text(f"1.0\n{bad}\n2.0\n")
    with pytest.raises(ValidationError):
        load_vector_csv(vpath)
