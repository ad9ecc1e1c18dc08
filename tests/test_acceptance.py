"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is sized to finish in a few minutes single-threaded.
"""
import math

import numpy as np

from rrselect.analysis import mutual_incoherence, ric_bruteforce, rrt_error_lower_bound
from rrselect.designs import (
    SignalSpec,
    make_gaussian,
    make_identity_hadamard,
    make_signal,
    sample_support,
    synthesize,
)
from rrselect.omp import default_kmax, solution_path
from rrselect.selectors import (
    minimal_superset_index,
    residual_ratios,
    rrm_select,
    rrt_select,
    rrta_select,
)
from rrselect.simulate import AlgorithmSpec, DesignSpec, ExperimentConfig, build_design, run_sweep
from rrselect.special import build_threshold_table

HADAMARD32 = DesignSpec(kind="identity_hadamard", n=32, p=64)
PM_ONE3 = SignalSpec(k0=3, kind="pm_one")


def _check(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _rows_by(result, algorithm: str):
    return {row.snr_db: row for row in result.rows if row.algorithm == algorithm}


def _slack(row_a, row_b) -> float:
    return max(math.hypot(row_a.pe_stderr, row_b.pe_stderr), 1.0 / row_a.trials)


def test_criterion_1_high_snr_consistency_of_rrm_and_rrta():
    import time

    config = ExperimentConfig(
        design=HADAMARD32,
        signal=PM_ONE3,
        snr_db_list=(10.0, 20.0, 30.0, 40.0),
        trials=1000,
        algorithms=(AlgorithmSpec("rrm"), AlgorithmSpec("rrta", pfd=0.1, q=2.0), AlgorithmSpec("rrt", alpha=0.1)),
        root_seed=101,
    )
    start = time.perf_counter()
    result = run_sweep(config)
    elapsed = time.perf_counter() - start
    rrm = _rows_by(result, "rrm")
    rrta = _rows_by(result, "rrta(pfd=0.1,q=2)")
    rrt = _rows_by(result, "rrt(alpha=0.1)")

    ok = rrm[40.0].pe <= 0.01 and rrta[40.0].pe <= 0.02
    ok &= rrm[40.0].pe <= rrm[20.0].pe + _slack(rrm[40.0], rrm[20.0])
    ok &= rrta[40.0].pe <= rrta[20.0].pe + _slack(rrta[40.0], rrta[20.0])
    trend_ok = True
    for series in (rrm, rrta):
        snrs = sorted(series)
        for lo, hi in zip(snrs, snrs[1:]):
            trend_ok &= series[hi].pe <= series[lo].pe + _slack(series[hi], series[lo])
    floored = rrt[40.0].pe > rrm[40.0].pe
    in_time = elapsed < 300.0  # stated budget: under 5 minutes single-threaded
    _check(
        "criterion 1 (RRM/RRTA high-SNR consistency)",
        ok and trend_ok and floored and in_time,
        f"PE_rrm(40)={rrm[40.0].pe:.4f} PE_rrta(40)={rrta[40.0].pe:.4f} "
        f"PE_rrm(20)={rrm[20.0].pe:.4f} PE_rrta(20)={rrta[20.0].pe:.4f} "
        f"PE_rrt(40)={rrt[40.0].pe:.4f} trend={trend_ok} elapsed={elapsed:.1f}s",
    )


def test_criterion_2_rrt_high_snr_error_floor():
    n, p, k_max, k0, alpha, trials = 16, 32, 8, 3, 0.9, 20000
    config = ExperimentConfig(
        design=DesignSpec(kind="identity_hadamard", n=n, p=p),
        signal=SignalSpec(k0=k0, kind="pm_one"),
        snr_db_list=(60.0,),
        trials=trials,
        algorithms=(AlgorithmSpec("rrt", alpha=alpha), AlgorithmSpec("rrm")),
        root_seed=202,
    )
    assert config.k_max == k_max
    result = run_sweep(config)
    rrt = _rows_by(result, "rrt(alpha=0.9)")[60.0]
    rrm = _rows_by(result, "rrm")[60.0]
    floor = rrt_error_lower_bound(alpha, k_max, p, k0)  # 3.879e-3
    threshold = floor - 3.0 * rrt.pfd_stderr
    ok = rrt.pfd > 0.0 and rrt.pfd >= threshold and rrm.pe <= 0.005
    _check(
        "criterion 2 (RRT floor, RRM consistency)",
        ok,
        f"PFD_rrt={rrt.pfd:.5f} >= {floor:.5f}-3se={threshold:.5f}, PE_rrm={rrm.pe:.5f}",
    )


def test_criterion_3_threshold_coverage_beyond_minimal_superset():
    design = make_identity_hadamard(32)
    table = build_threshold_table(32, 64, 16, 0.1)
    trials = 2000
    hits = 0
    for seed in range(trials):
        support = sample_support(64, 3, seed=7_000_000 + seed)
        beta = make_signal(64, support, PM_ONE3, seed=8_000_000 + seed)
        problem = synthesize(design, beta, snr=10.0, seed=9_000_000 + seed)
        path = solution_path(design, problem.observation, 16)
        rr = residual_ratios(path).values
        k_min = minimal_superset_index(path, support)
        if math.isinf(k_min):
            continue
        tail = np.arange(int(k_min), len(rr))  # positions of k = k_min+1 .. K
        if tail.size and np.any(rr[tail] <= table[tail]):
            hits += 1
    rate = hits / trials
    bound = 0.1 + 3.0 * math.sqrt(0.1 * 0.9 / trials)
    _check(
        "criterion 3 (ratio coverage above k_min)",
        rate <= bound,
        f"rate={rate:.4f} <= {bound:.4f}",
    )


def test_criterion_4_dynamic_range_sensitivity_of_rrm():
    config = ExperimentConfig(
        design=HADAMARD32,
        signal=SignalSpec(k0=3, kind="geometric", ratio=1.0 / 3.0),
        snr_db_list=tuple(float(s) for s in range(10, 61, 5)),
        trials=1000,
        algorithms=(AlgorithmSpec("rrm"), AlgorithmSpec("rrta", pfd=0.1, q=2.0)),
        root_seed=404,
    )
    result = run_sweep(config)
    rrm = _rows_by(result, "rrm")
    rrta = _rows_by(result, "rrta(pfd=0.1,q=2)")
    mid = next((s for s in sorted(rrta) if rrta[s].pe < 0.3), None)
    gap_ok = mid is not None and rrm[mid].pe >= rrta[mid].pe + 0.1
    top_ok = rrm[60.0].pe <= 0.02 and rrta[60.0].pe <= 0.02
    _check(
        "criterion 4 (dynamic-range gap at mid SNR)",
        gap_ok and top_ok,
        f"mid={mid} PE_rrm(mid)={rrm[mid].pe if mid else None:.3f} "
        f"PE_rrta(mid)={rrta[mid].pe if mid else None:.3f} "
        f"PE@60: rrm={rrm[60.0].pe:.3f} rrta={rrta[60.0].pe:.3f}",
    )


def test_criterion_5_q_sweep_ordering():
    config = ExperimentConfig(
        design=HADAMARD32,
        signal=PM_ONE3,
        snr_db_list=(4.0, 5.0, 6.0, 40.0),
        trials=1000,
        algorithms=(
            AlgorithmSpec("rrta", pfd=0.1, q=1.0),
            AlgorithmSpec("rrta", pfd=0.1, q=2.0),
            AlgorithmSpec("rrta", pfd=0.1, q=10.0),
        ),
        root_seed=505,
    )
    result = run_sweep(config)
    q1 = _rows_by(result, "rrta(pfd=0.1,q=1)")
    q2 = _rows_by(result, "rrta(pfd=0.1,q=2)")
    q10 = _rows_by(result, "rrta(pfd=0.1,q=10)")

    top = max(q1)
    high_ok = (
        q10[top].pe <= q2[top].pe + _slack(q10[top], q2[top])
        and q2[top].pe <= q1[top].pe + _slack(q2[top], q1[top])
    )
    low = min(sorted(q1)[:-1], key=lambda s: abs(q1[s].pe - 0.5))
    low_ok = q1[low].pe <= q10[low].pe
    _check(
        "criterion 5 (q-sweep ordering)",
        high_ok and low_ok,
        f"top={top}: q10={q10[top].pe:.4f} q2={q2[top].pe:.4f} q1={q1[top].pe:.4f}; "
        f"low={low}: q1={q1[low].pe:.3f} q10={q10[low].pe:.3f}",
    )


def test_criterion_6_gaussian_design_floor_equivalence():
    config = ExperimentConfig(
        design=DesignSpec(kind="gaussian", n=32, p=64),
        signal=PM_ONE3,
        snr_db_list=(60.0,),
        trials=1000,
        algorithms=(AlgorithmSpec("rrm"), AlgorithmSpec("rrta", pfd=0.1, q=2.0), AlgorithmSpec("fixed_k0")),
        root_seed=606,
    )
    assert build_design(config.design) is None  # fresh matrix per trial
    result = run_sweep(config)
    rrm = _rows_by(result, "rrm")[60.0]
    rrta = _rows_by(result, "rrta(pfd=0.1,q=2)")[60.0]
    oracle = _rows_by(result, "fixed_k0")[60.0]
    d_rrm = abs(rrm.pe - oracle.pe)
    d_rrta = abs(rrta.pe - oracle.pe)
    lim_rrm = 3.0 * math.hypot(rrm.pe_stderr, oracle.pe_stderr)
    lim_rrta = 3.0 * math.hypot(rrta.pe_stderr, oracle.pe_stderr)
    _check(
        "criterion 6 (gaussian floor equivalence)",
        d_rrm <= lim_rrm and d_rrta <= lim_rrta,
        f"PE: rrm={rrm.pe:.4f} rrta={rrta.pe:.4f} fixed_k0={oracle.pe:.4f}; "
        f"|d_rrm|={d_rrm:.4f}<={lim_rrm:.4f} |d_rrta|={d_rrta:.4f}<={lim_rrta:.4f}",
    )


def test_criterion_7_numerical_kernels():
    worst_res = 0.0
    mismatched = 0
    for seed in range(100):
        design = make_gaussian(16, 32, seed=1_000 + seed)
        y = np.random.default_rng(2_000 + seed).normal(size=16)
        path = solution_path(design, y, default_kmax(16))
        x = design.matrix
        selected = []
        r = y.copy()
        norms = [float(np.linalg.norm(y))]
        for t in path.selected:  # replay selections, recompute by pseudo-inverse
            scores = np.abs(x.T @ r)
            scores[selected] = -1.0
            if int(np.argmax(scores)) != t:
                mismatched += 1
            selected.append(t)
            cols = x[:, selected]
            r = y - cols @ (np.linalg.pinv(cols) @ y)
            norms.append(float(np.linalg.norm(r)))
        rel = np.max(
            np.abs(path.residual_norms - np.array(norms)) / max(np.max(norms), 1e-30)
        )
        worst_res = max(worst_res, float(rel))
    _check(
        "criterion 7 (numerical kernels)",
        worst_res <= 1e-9 and mismatched == 0,
        f"path-vs-pinv worst rel={worst_res:.2e}; selection mismatches={mismatched}",
    )


def test_criterion_8_bruteforce_oracles():
    d4 = make_identity_hadamard(4)
    delta2 = ric_bruteforce(d4, 2)
    gram = d4.matrix.T @ d4.matrix
    np.fill_diagonal(gram, 0.0)
    closed_form = float(np.max(np.abs(gram)))
    exact_ok = delta2 == closed_form == 0.5

    mu = mutual_incoherence(make_identity_hadamard(32))
    mu_ok = abs(mu - 1.0 / math.sqrt(32.0)) <= 1e-12

    lb = rrt_error_lower_bound(0.1, 16, 64, 3)
    lb_ok = abs(lb - 1.0245901639344262e-4) <= 1e-9 * 1.0245901639344262e-4
    _check(
        "criterion 8 (brute-force oracles)",
        exact_ok and mu_ok and lb_ok,
        f"delta2={delta2} closed={closed_form}; mu={mu:.15f}; lb={lb:.10e}",
    )


def test_criterion_9_selector_scale_invariance():
    design = make_identity_hadamard(32)

    def decisions(y):
        path = solution_path(design, y, 16)
        rr = residual_ratios(path)
        keys = (path.selected, rrt_select(rr, 0.1), rrm_select(rr), rrta_select(rr, 0.1, 2.0))
        return keys, rr.values

    all_ok = True
    worst = 0.0
    for seed in range(100):
        support = sample_support(64, 3, seed=90_000 + seed)
        beta = make_signal(64, support, PM_ONE3, seed=91_000 + seed)
        y = synthesize(design, beta, snr=100.0, seed=92_000 + seed).observation
        baseline, base_rr = decisions(y)
        for c in (1e-300, 1e-200, 1e-6, 1e6, 1e200, 1e300):
            # c * y is rounded entrywise, so its ratios agree to rounding ...
            keys, rr = decisions(c * y)
            all_ok &= keys == baseline and np.allclose(rr, base_rr, rtol=1e-9, atol=0.0)
            worst = max(worst, float(np.max(np.abs(rr / base_rr - 1.0))))
            # ... and the nearest power of two scales y exactly: bit-equal ratios.
            keys, rr = decisions(np.ldexp(y, round(math.log2(c))))
            all_ok &= keys == baseline and np.array_equal(rr, base_rr)
    _check(
        "criterion 9 (scale invariance)",
        all_ok,
        "selected indices, k_rrt/k_rrm/k_rrta and ratios invariant under y -> c y for c = 1e-300..1e300; "
        f"ratios bit-equal at powers of two, within {worst:.1e} relative at powers of ten",
    )
