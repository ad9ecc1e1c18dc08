"""Tracing from outside the program: wrap the public functions of each layer
in the namespace of the module that calls them, record spans in memory, and
derive the per-layer metrics after the sweep.

A span is [name, start_ns, end_ns, parent index, trial id]; the trial id is
the index of the enclosing `simulate.run_trial` span, so the spans of one
trial share it. Only single-process sweeps yield spans: worker processes
inherit the wrappers (and their cost) but their spans stay in the worker.
"""
from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("designs", "omp", "linalg", "selectors", "special", "simulate")

# The sigma rules, whose estimates are "exhausted" when no step falls below
# their level; rrt/rrta instead return an empty selection when no step
# clears the threshold.
EXHAUSTED_FAMILIES = ("rpsc", "rcsc", "rpsc_hsc", "rcsc_hsc")


def threshold_cache(special):
    """The lru_cache behind build_threshold_table, or None if there is none."""
    cache = getattr(special, "_threshold_values", None)
    return cache if hasattr(cache, "cache_info") else None


def status_metric(label: str, status: str) -> str:
    """Metric name of one algorithm's status count, e.g. counts.rrt_alpha_0.1.empty_selection."""
    safe = "".join(c if c.isalnum() or c == "." else "_" for c in label)
    safe = "_".join(part for part in safe.split("_") if part)
    return f"counts.{safe}.{status}"


def _family(label: str) -> str:
    return label.split("(")[0].split("|")[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name, fn, on_result=None):
        """Wrap fn so each call records a span; name may be a callable of (args, kwargs)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [
                name if isinstance(name, str) else name(args, kwargs),
                0,
                0,
                stack[-1] if stack else -1,
                stack[0] if stack else idx,
            ]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _on_trial(self, record) -> None:
        for label, outcome in record.outcomes.items():
            self.counts[("estimate", _family(label))] += 1
            if outcome.estimate.status != "ok":
                self.counts[("status", label, outcome.estimate.status)] += 1

    def _on_path(self, path) -> None:
        self.counts["omp.paths"] += 1
        if path.status == "rank_deficient":
            self.counts["omp.rank_deficient"] += 1

    def _targets(self, simulate, selectors, special, linalg):
        def rule_name(args, kwargs):
            rule = args[3] if len(args) > 3 else kwargs.get("rule", "omp")
            return f"omp.solution_path_{rule}"

        span = self.span
        return [
            (simulate, "run_trial", lambda f: span("simulate.run_trial", f, self._on_trial)),
            (simulate, "score_estimate", lambda f: span("simulate.score_estimate", f)),
            (simulate, "ProcessPoolExecutor", lambda f: self.counter("simulate.pool.created", f)),
            (simulate, "make_gaussian", lambda f: span("designs.make_gaussian", f)),
            (simulate, "sample_support", lambda f: span("designs.sample_support", f)),
            (simulate, "make_signal", lambda f: span("designs.make_signal", f)),
            (simulate, "synthesize", lambda f: span("designs.synthesize", f)),
            (simulate, "solution_path", lambda f: span(rule_name, f, self._on_path)),
            (simulate, "stop_fixed", lambda f: span("omp.stop_rules", f)),
            (simulate, "stop_rpsc", lambda f: span("omp.stop_rules", f)),
            (simulate, "stop_rcsc", lambda f: span("omp.stop_rules", f)),
            (linalg.OrthoBasisState, "append", lambda f: span("linalg.ortho_append", f)),
            (simulate, "residual_ratios", lambda f: span("selectors.residual_ratios", f)),
            (simulate, "rrm_select", lambda f: span("selectors.rrm_select", f)),
            (simulate, "rrt_select", lambda f: span("selectors.rrt_select", f)),
            (selectors, "rrt_select", lambda f: span("selectors.rrt_select", f)),
            (simulate, "rrta_select", lambda f: span("selectors.rrta_select", f)),
            (simulate, "build_threshold_table", lambda f: span("special.build_threshold_table", f)),
            (selectors, "build_threshold_table", lambda f: span("special.build_threshold_table", f)),
            (special, "beta_cdf_inv", lambda f: span("special.beta_cdf_inv", f)),
            (special, "beta_cdf", lambda f: self.counter("special.beta_cdf", f)),
        ]

    @contextmanager
    def installed(self):
        """Patch every target that exists in this version of the program; restore on exit."""
        from rrselect import linalg, selectors, simulate, special

        saved = []
        try:
            for owner, attr, wrap in self._targets(simulate, selectors, special, linalg):
                if hasattr(owner, attr):
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrap(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def summarize(tracer: Tracer, cache_hits: int, cache_misses: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced single-process sweep, and the layer split in µs/trial."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: Counter = Counter()
    total_ns: Counter = Counter()
    self_ns: Counter = Counter()
    layer_ns: Counter = Counter()
    trial_ns = []
    for i, (name, start, end, parent, root) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        total_ns[name] += dur
        self_ns[name] += dur - child_ns[i]
        if spans[root][0] == "simulate.run_trial":
            layer_ns[name.split(".")[0]] += dur - child_ns[i]
        if name == "simulate.run_trial":
            trial_ns.append(dur)

    trials = len(trial_ns)
    counts = tracer.counts
    paths = counts["omp.paths"]

    def per(value, base):
        return value / base if base else 0.0

    def us_per_trial(*names, self_time=False):
        table = self_ns if self_time else total_ns
        return per(sum(table[n] for n in names), trials) / 1e3

    def us_per_call(name):
        return per(total_ns[name], calls[name]) / 1e3

    # statistics.quantiles with n=100 yields the 1st..99th percentiles.
    pct = statistics.quantiles(trial_ns, n=100, method="inclusive") if trials > 1 else [0.0] * 99
    exhausted = sum(v for k, v in counts.items() if k[0] == "status" and k[2] == "exhausted")
    empty = sum(v for k, v in counts.items() if k[0] == "status" and k[2] == "empty_selection")
    sigma_rule_estimates = sum(counts[("estimate", f)] for f in EXHAUSTED_FAMILIES)
    rr_estimates = sum(counts[("estimate", f)] for f in ("rrt", "rrm", "rrta"))
    lookups = cache_hits + cache_misses
    ratios = calls["selectors.residual_ratios"]
    beta_cdf = counts["special.beta_cdf"]
    metrics = {
        "designs.make_gaussian.us_per_trial": us_per_trial("designs.make_gaussian"),
        "designs.sample_support.us_per_trial": us_per_trial("designs.sample_support"),
        "designs.make_signal.us_per_trial": us_per_trial("designs.make_signal"),
        "designs.synthesize.us_per_trial": us_per_trial("designs.synthesize"),
        "omp.solution_path_omp.us_per_call": us_per_call("omp.solution_path_omp"),
        "omp.solution_path_ols.us_per_call": us_per_call("omp.solution_path_ols"),
        "omp.solution_path.calls_per_trial": per(paths, trials),
        "omp.solution_path.self_us_per_trial": us_per_trial(
            "omp.solution_path_omp", "omp.solution_path_ols", self_time=True
        ),
        "omp.stop_rules.us_per_trial": us_per_trial("omp.stop_rules"),
        "omp.rank_deficient_frac": per(counts["omp.rank_deficient"], paths),
        "omp.exhausted_frac": per(exhausted, sigma_rule_estimates),
        "linalg.ortho_append.us_per_call": us_per_call("linalg.ortho_append"),
        "linalg.ortho_append.calls_per_trial": per(calls["linalg.ortho_append"], trials),
        "selectors.residual_ratios.us_per_trial": us_per_trial("selectors.residual_ratios"),
        "selectors.residual_ratios.calls_per_path": per(ratios, paths),
        "selectors.rrm_select.us_per_trial": us_per_trial("selectors.rrm_select"),
        "selectors.rrt_select.us_per_trial": us_per_trial("selectors.rrt_select"),
        "selectors.rrta_select.us_per_trial": us_per_trial("selectors.rrta_select"),
        "selectors.rrta_select.self_us_per_trial": us_per_trial("selectors.rrta_select", self_time=True),
        "selectors.empty_frac": per(empty, rr_estimates),
        "special.build_threshold_table.us_per_trial": us_per_trial("special.build_threshold_table"),
        "special.threshold_cache.hit_ratio": per(cache_hits, lookups),
        "special.threshold_cache.lookups": lookups,
        "special.beta_cdf_inv.calls_per_trial": per(calls["special.beta_cdf_inv"], trials),
        "special.beta_cdf_inv.us_per_call": us_per_call("special.beta_cdf_inv"),
        "special.beta_cdf.calls_per_trial": per(beta_cdf, trials),
        "simulate.run_trial.us_p50": pct[49] / 1e3,
        "simulate.run_trial.us_p99": pct[98] / 1e3,
        "simulate.run_trial.samples": trials,
        "simulate.run_trial.us_per_trial": us_per_trial("simulate.run_trial"),
        "simulate.run_trial.self_us_per_trial": us_per_trial("simulate.run_trial", self_time=True),
        "simulate.score_estimate.us_per_trial": us_per_trial("simulate.score_estimate"),
        "counts.omp.rank_deficient": counts["omp.rank_deficient"],
        "counts.special.threshold_cache.hits": cache_hits,
        "counts.special.threshold_cache.misses": cache_misses,
        "counts.special.beta_cdf.calls": beta_cdf,
        "counts.special.beta_cdf_inv.calls": calls["special.beta_cdf_inv"],
        "counts.selectors.residual_ratios.calls": ratios,
    }
    for key, value in counts.items():
        if key[0] == "status":
            metrics[status_metric(key[1], key[2])] = value
    split = {layer: per(layer_ns[layer], trials) / 1e3 for layer in LAYERS}
    for layer, value in split.items():
        metrics[f"split.{layer}.us_per_trial"] = value
    return metrics, split
