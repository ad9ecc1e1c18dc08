"""The benchmark's workloads: each builds an ExperimentConfig through the
public API and names the worker count `run_sweep` gets. Why each workload
was chosen is recorded in BENCHMARK.json.

All workloads use the paper's setting n=32, p=64, k0=3, k_max=16. The root
seed is the only input taken from outside; the program sees only the config.
"""
from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Trials per SNR point in one measured sweep: about 2 s of work per sweep on
# one worker, and at least 1100 trial cells so a p99 has ten samples beyond it.
TRIALS = 100
# Root seed at which the committed reference CSVs were recorded.
REFERENCE_SEED = 0


def import_rrselect():
    """Import the package from this checkout's sources, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "rrselect", "__init__.py")):
        raise FileNotFoundError(f"no rrselect sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import rrselect

    return rrselect


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    reference: str  # CSV under perfbench/reference/, recorded at REFERENCE_SEED

    def config(self, root_seed: int):
        import_rrselect()
        from rrselect import cli
        from rrselect.simulate import AlgorithmSpec

        if self.name.startswith("fig1_hadamard"):
            return cli.figure_config("fig1_hadamard", TRIALS, root_seed)
        # The fig2_gaussian preset (Gaussian 32x64 design, geometric signals,
        # 0-60 dB) with the sigma rules and rrm on both the OMP and OLS paths.
        algorithms = tuple(
            AlgorithmSpec(name, rule=rule)
            for rule in ("omp", "ols")
            for name in ("fixed_k0", "rpsc", "rcsc", "rrm")
        )
        return replace(cli.figure_config("fig2_gaussian", TRIALS, root_seed), algorithms=algorithms)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig1_hadamard_1w", 1, "fig1_hadamard.csv"),
        Workload("gauss_ols_oracle_1w", 1, "gauss_ols_oracle.csv"),
        Workload("fig1_hadamard_2w", 2, "fig1_hadamard.csv"),
    )
}
