"""The traced run's exact counters must repeat exactly across two runs at one seed.

    python3 -m pytest -q perfbench/test_counts.py    (or: python3 perfbench/test_counts.py)

Timings vary from run to run; counts of work done (paths, statuses, cache
hits and misses, Beta CDF calls, residual-ratio calls, pools) must not.
"""
import json
import os
import subprocess
import sys

import pytest

from workloads import ROOT, WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SEED = 7
TIMED = ("us", "frac")
EXACT_FRACS = (
    "omp.rank_deficient_frac",
    "omp.exhausted_frac",
    "selectors.empty_frac",
    "special.threshold_cache.hit_ratio",
)


def traced_counts(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"], out.stdout
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] not in TIMED or name in EXACT_FRACS
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly(workload):
    first, second = traced_counts(workload), traced_counts(workload)
    assert "counts.special.threshold_cache.hits" in first
    assert first == second


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
