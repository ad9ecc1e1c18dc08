"""Greedy paths pinned bit for bit.

tests/data/paths_golden.json holds, for OMP and OLS, the selections, the
status and float.hex of every residual norm and residual correlation of:
40 fig1 Hadamard trials and 40 fig2 Gaussian trials, drawn through
simulate.run_trial with its trial seeds, and one design with a duplicated
column, whose path stops early as rank deficient.

Regenerate (only when a change to the paths is intended and explained):

    PYTHONPATH=src python tests/test_paths_golden.py
"""
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from rrselect import cli, simulate
from rrselect.designs import DesignMatrix
from rrselect.omp import solution_path
from rrselect.simulate import AlgorithmSpec

GOLDEN = Path(__file__).parent / "data" / "paths_golden.json"
ROOT_SEED = 7
TRIALS_PER_PRESET = 40


def _record(case: str, rule: str, path) -> dict:
    return {
        "case": case,
        "rule": rule,
        "selected": list(path.selected),
        "status": path.status,
        "residual_norms": [float(v).hex() for v in path.residual_norms],
        "residual_corr_inf": [float(v).hex() for v in path.residual_corr_inf],
    }


def _trial_paths(preset: str, snr_index: int, trial_index: int) -> list:
    """The (rule, path) of the OMP and OLS paths of one trial of `preset`, as
    run_trial computes them."""
    config = dataclasses.replace(
        cli.figure_config(preset, TRIALS_PER_PRESET, ROOT_SEED),
        algorithms=(AlgorithmSpec("rrm"), AlgorithmSpec("rrm", rule="ols")),
    )
    matrix = simulate.build_design(config.design)
    paths = []
    original = simulate.solution_path

    def recording(design, y, k_max, rule):
        paths.append((rule, original(design, y, k_max, rule)))
        return paths[-1][1]

    simulate.solution_path = recording
    try:
        simulate.run_trial(config, matrix, config.snr_db_list[snr_index], trial_index)
    finally:
        simulate.solution_path = original
    return paths


def _duplicate_column_paths() -> list:
    """(rule, path) of both rules on n=6, columns (a, b, a): the third step
    can only take the copy of a."""
    rng = np.random.default_rng(20181118)
    a, b = rng.normal(size=(2, 6))
    design = DesignMatrix(np.column_stack([a, b, a]))
    y = 2.0 * a - 0.5 * b + 0.1 * rng.normal(size=6)
    return [(rule, solution_path(design, y, 3, rule)) for rule in ("omp", "ols")]


GROUPS = ("fig1_hadamard", "fig2_gaussian", "duplicated column")


def golden_records(group: str) -> list[dict]:
    if group == "duplicated column":
        return [_record(group, rule, path) for rule, path in _duplicate_column_paths()]
    records = []
    snr_points = len(cli.figure_config(group, 1, ROOT_SEED).snr_db_list)
    for trial_index in range(TRIALS_PER_PRESET):
        snr_index = trial_index % snr_points
        case = f"{group} snr_index={snr_index} trial={trial_index}"
        records += [_record(case, rule, path) for rule, path in _trial_paths(group, snr_index, trial_index)]
    return records


def _load(group: str) -> list[dict]:
    return [g for g in json.loads(GOLDEN.read_text()) if g["case"].split()[0] == group.split()[0]]


def test_golden_covers_both_rules_and_a_rank_deficient_stop():
    assert [len(_load(group)) for group in GROUPS] == [2 * TRIALS_PER_PRESET] * 2 + [2]
    assert {g["rule"] for g in _load("fig1_hadamard")} == {"omp", "ols"}
    dup = _load("duplicated column")
    assert [(g["rule"], g["status"], len(g["selected"])) for g in dup] == [
        ("omp", "rank_deficient", 2),
        ("ols", "rank_deficient", 2),
    ]


@pytest.mark.parametrize("group", GROUPS)
def test_paths_match_the_golden_bits(group):
    assert golden_records(group) == _load(group)


if __name__ == "__main__":
    records = [r for group in GROUPS for r in golden_records(group)]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
