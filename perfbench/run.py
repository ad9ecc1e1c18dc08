"""Sweep benchmark: trials/s of `simulate.run_sweep` on three workloads, with
a per-layer split from a separate traced run.

    python3 perfbench/run.py --workload fig1_hadamard_1w --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it imports `rrselect` from `src/`. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of BENCHMARK.json
with `--trace 0`, its per-layer metrics with `--trace 1`. A fuller record
(machine, split, the seed commit's baseline) goes to `.perfbench_out/`.

Every sweep's CSV is checked: against the committed reference at the
reference seed, against the run's first single-worker sweep for every repeat
(and for the 2-worker and traced sweeps), and row by row for internal
consistency. `attempted`/`failed` count CSV rows.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

from tracing import Tracer, summarize, threshold_cache
from workloads import REFERENCE_SEED, ROOT, TRIALS, WORKLOADS, import_rrselect

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".perfbench_out")
MIN_SWEEPS = 3
# The layer split cuts run_trial into self times, so it adds up to run_trial
# by construction. A wrapper that misses part of a trial leaves that part in
# run_trial's own self time (about 5% of a trial at the seed commit), and a
# missed run_trial leaves the sweep without trial spans. Either fails the run.
MAX_UNATTRIBUTED = 0.2  # run_trial self time / run_trial
MIN_TRIAL_COVERAGE = 0.5  # summed run_trial spans / traced sweep wall
PROBE_TIMEOUT_S = 60


class Rows:
    """CSV rows attempted and failed over every sweep of a run."""

    def __init__(self, config) -> None:
        self.config = config
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def expected_rows(self) -> int:
        return len(self.config.snr_db_list) * len(self.config.algorithms)

    def fail(self, what: str, rows: int) -> None:
        self.attempted += rows
        self.failed += rows
        self.problems.append(what)

    def compare(self, got: str, want: str, what: str) -> None:
        """Count each data row of `got` that differs from `want` (missing rows too)."""
        got_lines, want_lines = got.splitlines(), want.splitlines()
        if got_lines[:1] != want_lines[:1]:
            self.fail(f"{what}: header differs", len(want_lines) - 1)
            return
        bad = sum(
            1
            for i in range(1, len(want_lines))
            if i >= len(got_lines) or got_lines[i] != want_lines[i]
        )
        bad += max(0, len(got_lines) - len(want_lines))
        if not bad and got != want:
            bad = 1  # same rows, different bytes (line endings)
        self.attempted += len(want_lines) - 1
        self.failed += bad
        if bad:
            self.problems.append(f"{what}: {bad} rows differ")

    def check_consistency(self, text: str, what: str) -> None:
        """Each row must match the config and hold pe/pfd that a count of `trials` can give."""
        from rrselect.simulate import SWEEP_CSV_HEADER

        cfg = self.config
        lines = list(csv.reader(io.StringIO(text)))
        n = self.expected_rows
        if lines[:1] != [SWEEP_CSV_HEADER] or len(lines) != n + 1:
            self.fail(f"{what}: wrong header or {len(lines) - 1} rows for {n}", n)
            return
        self.attempted += n
        digest = cfg.digest()
        cells = [(snr, alg) for snr in cfg.snr_db_list for alg in cfg.algorithms]
        bad = 0
        for line, (snr, alg) in zip(lines[1:], cells):
            if not _row_ok(line, cfg, digest, snr, alg):
                bad += 1
        self.failed += bad
        if bad:
            self.problems.append(f"{what}: {bad} inconsistent rows")


def _row_ok(f, cfg, digest, snr, alg) -> bool:
    head = [digest, cfg.design.kind, str(cfg.design.n), str(cfg.design.p), str(cfg.signal.k0),
            cfg.signal.kind, repr(float(snr)), alg.label, alg.rule, str(cfg.trials)]
    if len(f) != 14 or f[:10] != head:
        return False
    t = cfg.trials
    try:
        err, fd = round(float(f[10]) * t), round(float(f[12]) * t)
    except ValueError:
        return False

    def stderr(k):
        phat = k / t
        return repr(math.sqrt(phat * (1.0 - phat) / t))

    return (
        0 <= fd <= err <= t
        and f[10] == repr(err / t)
        and f[12] == repr(fd / t)
        and f[11] == stderr(err)
        and f[13] == stderr(fd)
    )


def clear_program_caches() -> None:
    """Each measured sweep starts cold, as a fresh `rrselect figure` process does."""
    from rrselect import special

    cache = threshold_cache(special)
    if cache is not None:
        cache.cache_clear()


def sweep(config, workers: int, tracer: Tracer | None = None) -> tuple[float, str]:
    """One run_sweep: (wall seconds of run_sweep, CSV text)."""
    from rrselect import simulate

    clear_program_caches()
    with tracer.installed() if tracer else nullcontext():
        t0 = time.perf_counter()
        result = simulate.run_sweep(config, workers=workers)
        wall = time.perf_counter() - t0
    buf = io.StringIO()
    simulate.write_sweep_csv(buf, result, config)
    return wall, buf.getvalue()


def checked_sweep(rows: Rows, config, workers: int, want: str, what: str, tracer=None):
    """A sweep whose CSV must equal `want`; an exception fails every row. Returns wall or None."""
    try:
        wall, text = sweep(config, workers, tracer)
    except Exception as exc:  # a failing program is a measured outcome, not a crash
        rows.fail(f"{what}: {type(exc).__name__}: {exc}", rows.expected_rows)
        return None
    rows.compare(text, want, what)
    return wall


def first_sweep_csv(rows: Rows, workload, root_seed: int) -> str | None:
    """The run's single-worker CSV that every later sweep must reproduce, after
    checking it (and the reference seed's sweep) against the committed reference."""
    config = rows.config
    with open(os.path.join(HERE, "reference", workload.reference), newline="") as fh:
        reference = fh.read()
    try:
        _, text = sweep(config, 1)
    except Exception as exc:
        rows.fail(f"first sweep: {type(exc).__name__}: {exc}", rows.expected_rows)
        return None
    rows.check_consistency(text, "first sweep")
    if root_seed == REFERENCE_SEED:
        rows.compare(text, reference, "reference")
    else:
        checked_sweep(rows, workload.config(REFERENCE_SEED), 1, reference, "reference")
    return text


def cells(config) -> int:
    return len(config.snr_db_list) * config.trials


def measure_untraced(workload, config, rows: Rows, want: str, seconds: float, root_seed: int) -> dict:
    """Timed sweeps until `seconds` have passed, each followed by one set-up
    probe, so both metrics sample the same stretches of machine time."""
    rates, setups = [], []
    worker_kb = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(rates) < MIN_SWEEPS:
        wall = checked_sweep(rows, config, workload.workers, want, f"sweep {len(rates)}")
        if wall is None:
            break
        rates.append(cells(config) / wall)
        if not setups and workload.workers > 1:
            # Probes are children too: read the pool workers' peak before the first one.
            worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        setups.append(setup_time(workload, root_seed))
    if not rates:
        return {}
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "trials_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": (self_kb + workload.workers * worker_kb) / 1024.0,
        "sweep_rates": rates,
        "setup_times": setups,
    }


def setup_time(workload, root_seed: int) -> float:
    """Wall time from starting a fresh interpreter to its first trial."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), workload.name, str(root_seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(out.stdout.split()[-1]) - t0


def measure_traced(workload, config, rows: Rows, want: str, seconds: float, seed: int) -> tuple[dict, dict]:
    """Layer split from one cold single-process traced sweep, then traced and
    untraced sweeps alternated for the overhead (and 1 vs 2 workers for the pool)."""
    from rrselect import special

    tracer = Tracer()
    cache = threshold_cache(special)
    # sweep() clears the cache first, so the sweep's lookups are its own.
    wall = checked_sweep(rows, config, 1, want, "traced layer sweep", tracer)
    info = cache.cache_info() if cache is not None else None
    if wall is None:
        return {}, {}
    metrics, split = summarize(tracer, info.hits if info else 0, info.misses if info else 0)
    trial_us = metrics["simulate.run_trial.us_per_trial"]
    coverage = trial_us * metrics["simulate.run_trial.samples"] / 1e6 / wall
    unattributed = metrics["simulate.run_trial.self_us_per_trial"] / trial_us if trial_us else 1.0
    if coverage < MIN_TRIAL_COVERAGE:
        rows.fail(f"run_trial spans cover {coverage:.0%} of the traced sweep (at least {MIN_TRIAL_COVERAGE:.0%})", 1)
    elif unattributed > MAX_UNATTRIBUTED:
        rows.fail(f"{unattributed:.0%} of run_trial is in no traced layer (at most {MAX_UNATTRIBUTED:.0%})", 1)
    metrics["trace.trial_coverage_frac"] = coverage
    metrics["trace.unattributed_frac"] = unattributed
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{workload.name}-seed{seed}.jsonl"))

    walls = {"untraced": [], "traced": [], "one_worker": []}
    pools = None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(walls["traced"]) < MIN_SWEEPS:
        i = len(walls["traced"])
        pool_tracer = Tracer()
        plan = [("untraced", workload.workers, None), ("traced", workload.workers, pool_tracer)]
        if workload.workers > 1:
            plan.append(("one_worker", 1, None))
        if i % 2:
            plan.reverse()
        for kind, workers, tr in plan:
            wall = checked_sweep(rows, config, workers, want, f"{kind} sweep {i}", tr)
            if wall is None:
                return {}, {}
            walls[kind].append(wall)
        if pools is None:
            pools = pool_tracer.counts["simulate.pool.created"]
    med = {k: statistics.median(v) for k, v in walls.items() if v}
    metrics["simulate.pool.created"] = pools
    metrics["simulate.pool.parallel_efficiency"] = (
        med["one_worker"] / (workload.workers * med["untraced"]) if workload.workers > 1 else 1.0
    )
    metrics["trace.overhead_frac"] = med["traced"] / med["untraced"] - 1.0
    return metrics, split


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed, used as root_seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of this run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_rrselect()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot import rrselect from this checkout: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    workload = WORKLOADS[args.workload]
    root_seed = args.seed % (1 << 64)
    config = workload.config(root_seed)
    rows = Rows(config)
    want = first_sweep_csv(rows, workload, root_seed)

    measured, split = {}, {}
    if want is not None and args.trace:
        measured, split = measure_traced(workload, config, rows, want, args.seconds, args.seed)
    elif want is not None:
        measured = measure_untraced(workload, config, rows, want, args.seconds, root_seed)
    completed = bool(measured)
    if not args.trace:
        measured["rows_ok_frac"] = 1.0 - rows.failed / rows.attempted
    declared = spec["per_layer" if args.trace else "end_to_end"]

    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    result = {
        "correct": rows.failed == 0,
        "attempted": rows.attempted,
        "failed": rows.failed,
        "metrics": metrics,
    }
    if not completed:
        # A sweep that raised is a measured outcome: its rows count as failed.
        print(f"perfbench: no sweep completed: {rows.problems}", file=sys.stderr)
        print(json.dumps(result))
        return 1

    with open(os.path.join(HERE, "baseline.json")) as fh:
        baseline = json.load(fh)
    base = baseline.get("workloads", {}).get(workload.name, {})
    record = {
        "workload": workload.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "seed": args.seed,
        "trials_per_point": TRIALS,
        "workers": workload.workers,
        "trace": args.trace,
        "machine": machine(),
        "problems": rows.problems,
        "split_us_per_trial": split,
        "measured": measured,
        "result": result,
        "seed_commit_baseline": {"machine": baseline.get("machine"), "medians": base},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{workload.name}-trace{args.trace}-seed{args.seed}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"machine": record["machine"]}))
    for name, m in metrics.items():
        ref = base.get(name)
        ref_text = "" if ref is None else f"  (seed commit median {ref:.6g})"
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}{ref_text}")
    for problem in rows.problems:
        print(f"problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
