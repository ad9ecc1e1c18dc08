"""Greedy sparse support recovery with residual-ratio based model selection.

Computes OMP/OLS solution paths, applies classical (noise-aware) stopping
rules and the noise-statistics-oblivious RRT/RRM/RRTA selectors, and ships the
design diagnostics and Monte-Carlo harness used to benchmark them.
"""
from .analysis import (
    EpsilonBounds,
    epsilon_bounds,
    erc_constant,
    mutual_incoherence,
    ric_bruteforce,
    rrt_error_lower_bound,
)
from .designs import (
    DesignMatrix,
    SignalSpec,
    SparseProblem,
    make_gaussian,
    make_identity_hadamard,
    make_signal,
    sample_support,
    synthesize,
)
from .linalg import OrthoBasisState
from .omp import (
    SolutionPath,
    SupportEstimate,
    default_kmax,
    solution_path,
    stop_fixed,
    stop_rcsc,
    stop_rpsc,
)
from .selectors import (
    ResidualRatios,
    minimal_superset_index,
    prefix_hits,
    residual_ratios,
    rrm_select,
    rrt_select,
    rrta_alpha,
    rrta_select,
)
from .simulate import (
    AlgorithmSpec,
    DesignSpec,
    ExperimentConfig,
    SweepResult,
    run_sweep,
    run_trial,
)
from .special import (
    build_threshold_table,
    log_beta_fn,
    rrt_log_level,
    rrt_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmSpec",
    "DesignMatrix",
    "DesignSpec",
    "EpsilonBounds",
    "ExperimentConfig",
    "OrthoBasisState",
    "ResidualRatios",
    "SignalSpec",
    "SolutionPath",
    "SparseProblem",
    "SupportEstimate",
    "SweepResult",
    "build_threshold_table",
    "default_kmax",
    "epsilon_bounds",
    "erc_constant",
    "log_beta_fn",
    "make_gaussian",
    "make_identity_hadamard",
    "make_signal",
    "minimal_superset_index",
    "mutual_incoherence",
    "prefix_hits",
    "residual_ratios",
    "ric_bruteforce",
    "rrm_select",
    "rrt_error_lower_bound",
    "rrt_log_level",
    "rrt_select",
    "rrt_threshold",
    "rrta_alpha",
    "rrta_select",
    "run_sweep",
    "run_trial",
    "sample_support",
    "solution_path",
    "stop_fixed",
    "stop_rcsc",
    "stop_rpsc",
    "synthesize",
]
