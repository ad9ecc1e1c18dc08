"""The README's library quick start runs as written, and at 0 dB, where rrt
and rrta find no step and return None; its config example keeps its
experiment id; its module table names every export."""
import contextlib
import dataclasses
import io
import json
import re
from pathlib import Path

import pytest

import rrselect
from rrselect.simulate import parse_config

README = (Path(__file__).parent.parent / "README.md").read_text()
QUICK_START = re.search(r"## Library quick start\s+```python\n(.*?)```", README, re.S).group(1)
CONFIG_EXAMPLE = re.search(r"### Experiment config schema\s+```json\n(.*?)```", README, re.S).group(1)
MODULE_MAP = re.search(r"## Module map\n(.*?)(?:\n## |\Z)", README, re.S).group(1)
MODULE_ROWS = {m.group(1): m.group(0) for m in re.finditer(r"^\| `(\w+)` .*$", MODULE_MAP, re.M)}
# Public names deleted from the package; the README must not name them either.
DELETED = (
    "DimensionMismatchError",
    "EmptyBasisError",
    "EmptyPathError",
    "RegularityReport",
    "RrtaParams",
    "beta_cdf",
    "beta_cdf_inv",
    "build_regularity_report",
    "check_level_args",
    "derive_trial_seed",
    "is_finite_number",
    "log_cdf_of_square_ceiling",
    "log_cdf_of_square_floor",
    "pfd_finite",
    "read_sweep_csv",
    "supported_roster",
)


@pytest.mark.parametrize(
    "snr, support_seed",
    [("100.0", "1"), ("1.0", "0")],  # 20 dB as written; 0 dB with a support on which rrt/rrta select nothing
)
def test_readme_quick_start_runs(snr, support_seed):
    code = QUICK_START.replace("snr=100.0", f"snr={snr}").replace(
        "sample_support(64, 3, seed=1)", f"sample_support(64, 3, seed={support_seed})"
    )
    assert f"snr={snr}" in code and f"seed={support_seed})" in code
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert [line.split()[0] for line in lines] == ["RRM", "RRT", "RRTA"]
    if snr == "1.0":
        assert lines[1:] == ["RRT empty_selection []", "RRTA empty_selection []"]


def test_readme_config_example_keeps_its_experiment_id():
    config = parse_config(CONFIG_EXAMPLE)
    assert config.digest() == "8a8f6129cb96"
    # It leaves k_max out, and its to_dict JSON reads back as the config itself.
    assert parse_config(json.dumps(config.to_dict())) == config


def test_module_table_names_every_export_in_its_modules_row():
    def row(name):
        return MODULE_ROWS[getattr(rrselect, name).__module__.rpartition(".")[2]]

    assert [name for name in rrselect.__all__ if not re.search(rf"`{name}\b", row(name))] == []


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_are_gone_from_the_package_and_the_readme(name):
    assert not hasattr(rrselect, name)
    assert re.search(rf"\b{name}\b", README) is None


@pytest.mark.parametrize("method", ["ExperimentConfig.validate", "AlgorithmSpec.check"])
def test_config_types_check_themselves_and_their_deleted_check_methods_are_unnamed(method):
    cls, _, name = method.partition(".")
    assert not hasattr(getattr(rrselect.simulate, cls), name)
    assert method not in README
    assert "Each config type checks itself when built" in README


@pytest.mark.parametrize(
    "cls, name, spelled",
    [("DesignSpec", "seed", "design.seed"), ("ExperimentConfig", "regenerate_matrix_per_trial", "regenerate_matrix")],
)
def test_the_fixed_gaussian_settings_are_gone_from_the_configs_and_the_readme(cls, name, spelled):
    assert name not in {f.name for f in dataclasses.fields(getattr(rrselect.simulate, cls))}
    assert spelled not in README
