"""Command-line front end: subcommand dispatch, CSV/JSON emission, and
plot-data export for the built-in experiment presets. The config file is read
by simulate.parse_config, beside the to_dict that writes it.

User-facing column indices are 1-based; everything internal is 0-based.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile

from . import analysis, simulate
from .designs import SignalSpec, load_design_csv, load_vector_csv, save_matrix_csv
from .errors import TooManySubsetsError, ValidationError
from .omp import default_kmax, solution_path
from .selectors import residual_ratios
from .simulate import ALGORITHMS, AlgorithmSpec, DesignSpec, ExperimentConfig, Oracle, algorithm_from_json
from .special import build_threshold_table


# ---------------------------------------------------------------------------
# experiment presets (n=32 identity+Hadamard / gaussian, k0=3)
# ---------------------------------------------------------------------------

_FIG_BASELINES = (
    AlgorithmSpec("fixed_k0"),
    AlgorithmSpec("rpsc"),
    AlgorithmSpec("rcsc"),
    AlgorithmSpec("rpsc_hsc"),
    AlgorithmSpec("rcsc_hsc"),
    AlgorithmSpec("rrt"),
    AlgorithmSpec("rrt", alpha=0.01),
    AlgorithmSpec("rrm"),
    AlgorithmSpec("rrta"),
)
_FIG_Q_SWEEP = (
    AlgorithmSpec("rrta", q=1.0),
    AlgorithmSpec("rrta", q=2.0),
    AlgorithmSpec("rrta", q=5.0),
    AlgorithmSpec("rrta", q=10.0),
    AlgorithmSpec("fixed_k0"),
    AlgorithmSpec("rpsc_hsc"),
    AlgorithmSpec("rcsc_hsc"),
)
_HADAMARD_32 = DesignSpec(kind="identity_hadamard", n=32, p=64)
_GAUSSIAN_32 = DesignSpec(kind="gaussian", n=32, p=64)
_PM_ONE = SignalSpec(k0=3, kind="pm_one")
_GEOMETRIC = SignalSpec(k0=3, kind="geometric", ratio=1.0 / 3.0)
_SNR_0_40 = tuple(range(0, 44, 4))
_SNR_0_60 = tuple(range(0, 65, 5))

# Each figure preset: (design, signal, SNR points, algorithms).
_FIGURES = {
    "fig1_hadamard": (_HADAMARD_32, _PM_ONE, _SNR_0_40, _FIG_BASELINES),
    "fig1_gaussian": (_GAUSSIAN_32, _PM_ONE, _SNR_0_40, _FIG_BASELINES),
    "fig2_hadamard": (_HADAMARD_32, _GEOMETRIC, _SNR_0_60, _FIG_BASELINES),
    "fig2_gaussian": (_GAUSSIAN_32, _GEOMETRIC, _SNR_0_60, _FIG_BASELINES),
    "fig3_q_sweep": (_HADAMARD_32, _PM_ONE, _SNR_0_40, _FIG_Q_SWEEP),
}
FIGURE_NAMES = tuple(_FIGURES)


def figure_config(name: str, trials: int, root_seed: int) -> ExperimentConfig:
    """Built-in sweep configuration behind each named figure preset."""
    if name not in _FIGURES:
        raise ValidationError(f"unknown figure {name!r}; choose from {FIGURE_NAMES}")
    design, signal, snr, algorithms = _FIGURES[name]
    return ExperimentConfig(
        design=design,
        signal=signal,
        snr_db_list=snr,
        trials=trials,
        algorithms=algorithms,
        root_seed=root_seed,
    )


# ---------------------------------------------------------------------------
# output helpers: build content fully, then write atomically
# ---------------------------------------------------------------------------


def _write_text_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _method_fields(name: str) -> tuple[str, ...]:
    """The positional values of `--method name:v1,v2`: k0 for a rule that
    needs the sparsity, then the parameters."""
    entry = ALGORITHMS[name]
    return (("k0",) if entry.needs == "k0" else ()) + entry.params


_METHOD_SYNTAX = "|".join(
    f"{name}:{','.join(_method_fields(name))}" if _method_fields(name) else name for name in ALGORITHMS
)


def _number(token: str) -> float | str:
    """float(token), or the token itself if no number, for the spec to name."""
    try:
        return float(token)
    except ValueError:
        return token


def _parse_method(method: str, rule: str) -> tuple[AlgorithmSpec, int | None]:
    """`name[:v1,v2,...]` as an AlgorithmSpec, plus k0 for the fixed_k0 rule."""
    name, _, text = method.partition(":")
    if name not in ALGORITHMS:
        raise ValidationError(f"unknown method {name!r}; expected {_METHOD_SYNTAX}")
    fields = _method_fields(name)
    values = [_number(tok) for tok in text.split(",") if tok]
    if len(values) > len(fields):
        raise ValidationError(f"method {name!r} takes at most {len(fields)} value(s), got {text!r}")
    params = dict(zip(fields, values))
    k0 = params.pop("k0", None)
    if "k0" in fields and not (isinstance(k0, float) and k0.is_integer() and k0 >= 0):
        raise ValidationError(f"method {name!r} needs a nonnegative integer k0: {name}:k0")
    spec = algorithm_from_json({"name": name, "rule": rule, **params}, f"--method {name}")
    return spec, None if k0 is None else int(k0)


def _cmd_recover(args) -> int:
    spec, k0 = _parse_method(args.method, args.rule)
    algorithm = ALGORITHMS[spec.name]
    if algorithm.needs == "sigma" and args.sigma is None:
        raise ValidationError(f"--sigma is required for method {spec.name!r}")
    design = load_design_csv(args.matrix)
    y = load_vector_csv(args.y)
    k_max = args.k_max if args.k_max is not None else default_kmax(design.n)
    path = solution_path(design, y, k_max, spec.rule)
    ratios = residual_ratios(path)
    oracle = Oracle(sigma=args.sigma, k0=k0)
    estimate = algorithm.select(path, ratios, oracle, spec)
    payload = {
        "support": sorted(i + 1 for i in path.support_at(estimate.k_selected)),
        "k_selected": estimate.k_selected,
        "status": estimate.status,
        "residual_norm": float(path.residual_norms[estimate.k_selected]),
        "rr_values": [float(v) for v in ratios.values],
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_gen_matrix(args) -> int:
    spec = DesignSpec(kind=args.kind, n=args.n, p=args.p, normalize=args.normalize)
    # A gaussian draw's seed defaults to 0; a fixed kind draws nothing and is
    # never normalized, so it refuses both flags, and its sidecar holds neither.
    gaussian = spec.kind == "gaussian"
    seed = 0 if args.seed is None and gaussian else args.seed
    design = simulate.build_design(spec, seed)
    buf = io.StringIO()
    save_matrix_csv(buf, design.matrix)
    _write_text_atomic(args.out, buf.getvalue())
    sidecar = {"kind": spec.kind, "n": design.n, "p": design.p}
    if gaussian:
        sidecar.update(seed=seed, normalize=spec.normalize)
    _write_text_atomic(args.out + ".json", json.dumps(sidecar, indent=2) + "\n")
    print(f"wrote {args.out} ({design.n}x{design.p}) and {args.out}.json")
    return 0


def _cmd_threshold(args) -> int:
    table = build_threshold_table(args.n, args.p, args.k_max, args.alpha)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k", "gamma"])
    for k, gamma in enumerate(table, start=1):
        writer.writerow([k, repr(float(gamma))])
    if args.out:
        _write_text_atomic(args.out, buf.getvalue())
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(buf.getvalue())
    return 0


def _cmd_diagnose(args) -> int:
    design = load_design_csv(args.matrix)
    tokens = [tok for tok in args.support.split(",") if tok] if args.support else []
    for tok in tokens:  # 1-based: a bad one is named as typed
        if not (tok.strip().isdecimal() and 1 <= int(tok) <= design.p):
            raise ValidationError(f"--support: indices must be integers in [1, {design.p}], got {tok!r}")
    support = [int(tok) - 1 for tok in tokens] if args.support else None
    if not 0 <= args.ric_max_order <= design.p:
        raise ValidationError(f"--ric-max-order: must lie in [0, {design.p}], got {args.ric_max_order}")
    mu = analysis.mutual_incoherence(design)
    mic_max_k0 = analysis.mic_sparsity_limit(mu)
    ric: dict[int, float] = {}
    skipped = []
    for order in range(1, args.ric_max_order + 1):
        try:
            ric[order] = analysis.ric_bruteforce(design, order)
        except TooManySubsetsError:
            skipped.append(order)
    erc = None if support is None else analysis.erc_constant(design, support)
    notes = [f"RIC orders {skipped} skipped (subset guard)"] if skipped else []

    k0 = args.k0
    k_max = args.k_max if args.k_max is not None else default_kmax(design.n)
    # RIC inputs: brute-force values when available, else the incoherence
    # bound delta_j <= (j-1) mu, which holds only for unit-norm columns;
    # with none known, inf voids the margins that read delta_j.
    def delta_for(order: int) -> float:
        if order in ric:
            return ric[order]
        return (order - 1) * mu if design.unit_norm_columns else math.inf

    if not (k0 in ric and k0 + 1 in ric):
        if design.unit_norm_columns:
            notes.append("epsilon bounds use the incoherence proxy delta_j <= (j-1) mu")
        else:
            notes.append(
                "columns are not unit norm, so mu bounds no RIC: the margins that read "
                "an uncomputed delta_j are 0 (they need --ric-max-order >= k0+1)"
            )
    bounds = analysis.epsilon_bounds(
        delta_k0=delta_for(k0),
        delta_k0p1=delta_for(k0 + 1),
        beta_min=args.beta_min,
        beta_max=args.beta_max,
        n=design.n,
        p=design.p,
        k_max=k_max,
        alpha=args.alpha,
        sigma=args.sigma,
        k0=k0,
    )
    payload = {
        "regularity": {
            "mu": mu,
            "mic_max_k0": mic_max_k0,
            "erc_constant": erc,
            "ric": {str(k): v for k, v in ric.items()} or None,
            "notes": "; ".join(notes),
        },
        "epsilon_bounds": dataclasses.asdict(bounds),
    }
    print(json.dumps(payload, indent=2))
    return 0


def _sweep_csv_text(result, config) -> str:
    buf = io.StringIO()
    simulate.write_sweep_csv(buf, result, config)
    return buf.getvalue()


def _cmd_simulate(args) -> int:
    with open(args.config) as fh:
        config = simulate.parse_config(fh.read())
    if args.trials is not None:
        config = dataclasses.replace(config, trials=args.trials)
    if args.root_seed is not None:
        config = dataclasses.replace(config, root_seed=args.root_seed)
    result = simulate.run_sweep(config, workers=args.threads)
    _write_text_atomic(args.out, _sweep_csv_text(result, config))
    print(f"wrote {args.out} ({len(result.rows)} rows, experiment {result.config_digest})")
    return 0


def _cmd_figure(args) -> int:
    config = figure_config(args.name, args.trials, args.root_seed)
    result = simulate.run_sweep(config, workers=args.threads)
    os.makedirs(args.out, exist_ok=True)
    results_path = os.path.join(args.out, f"{args.name}_results.csv")
    _write_text_atomic(results_path, _sweep_csv_text(result, config))
    plot_buf = io.StringIO()
    writer = csv.writer(plot_buf)
    writer.writerow(["snr_db", "algorithm", "pe"])
    for row in result.rows:
        writer.writerow([repr(row.snr_db), row.algorithm, repr(row.pe)])
    plot_path = os.path.join(args.out, f"{args.name}_pe.csv")
    _write_text_atomic(plot_path, plot_buf.getvalue())
    print(f"wrote {results_path} and {plot_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False on every parser: --meth is refused, not read as --method.
    parser = argparse.ArgumentParser(
        prog="rrselect",
        description="Greedy sparse support recovery with residual-ratio selection.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-matrix", help="write a design matrix as CSV + JSON sidecar", allow_abbrev=False)
    gen.add_argument("--kind", required=True, choices=["identity_hadamard", "gaussian"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p", type=int)
    gen.add_argument("--seed", type=int, help="gaussian only; default 0")
    gen.add_argument("--normalize", action="store_true", help="gaussian only")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen_matrix)

    thr = sub.add_parser("threshold", help="print the threshold table as CSV (k, gamma)", allow_abbrev=False)
    thr.add_argument("--n", type=int, required=True)
    thr.add_argument("--p", type=int, required=True)
    thr.add_argument("--k-max", type=int, required=True)
    thr.add_argument("--alpha", type=float, default=AlgorithmSpec.alpha)
    thr.add_argument("--out")
    thr.set_defaults(func=_cmd_threshold)

    rec = sub.add_parser("recover", help="estimate a support from matrix/observation CSVs", allow_abbrev=False)
    rec.add_argument("--matrix", required=True)
    rec.add_argument("--y", required=True)
    rec.add_argument("--method", required=True, help=f"{_METHOD_SYNTAX}; a value left out takes its default")
    rec.add_argument("--rule", choices=["omp", "ols"], default="omp")
    rec.add_argument("--k-max", type=int)
    rec.add_argument("--sigma", type=float)
    rec.set_defaults(func=_cmd_recover)

    diag = sub.add_parser(
        "diagnose", help="print regularity diagnostics and recovery margins as JSON", allow_abbrev=False
    )
    diag.add_argument("--matrix", required=True)
    diag.add_argument("--k0", type=int, default=3)
    diag.add_argument("--k-max", type=int)
    diag.add_argument("--alpha", type=float, default=AlgorithmSpec.alpha)
    diag.add_argument("--sigma", type=float, default=0.1)
    diag.add_argument("--beta-min", type=float, default=1.0)
    diag.add_argument("--beta-max", type=float, default=1.0)
    diag.add_argument("--ric-max-order", type=int, default=0)
    diag.add_argument("--support", help="1-based column indices, comma separated (enables ERC)")
    diag.set_defaults(func=_cmd_diagnose)

    sim = sub.add_parser("simulate", help="run a sweep from a JSON config and write CSV", allow_abbrev=False)
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True)
    sim.add_argument("--trials", type=int, help="override config trials")
    sim.add_argument("--root-seed", type=int, help="override config root seed")
    sim.add_argument("--threads", type=int, default=1)
    sim.set_defaults(func=_cmd_simulate)

    fig = sub.add_parser("figure", help="run a built-in experiment preset", allow_abbrev=False)
    fig.add_argument("name", choices=list(FIGURE_NAMES))
    fig.add_argument("--trials", type=int, default=10000)
    fig.add_argument("--root-seed", type=int, default=7)
    fig.add_argument("--threads", type=int, default=1)
    fig.add_argument("--out", required=True, help="output directory")
    fig.set_defaults(func=_cmd_figure)

    for subparser in sub.choices.values():  # main reports an unknown option with its subcommand's usage
        subparser.set_defaults(error=subparser.error)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        args.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
