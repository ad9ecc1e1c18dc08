"""Set-up probe, run in a fresh interpreter by run.py for setup_s:

    python3 perfbench/probe.py <workload> <root_seed>

Imports rrselect, builds the workload's config and calls run_sweep, which
validates the config and builds the design. At the first trial (or the first
process pool, which would run the trials) it prints time.monotonic() and
stops; run.py subtracts the time it started the interpreter.
"""
import sys
import time

from workloads import WORKLOADS


class FirstTrial(Exception):
    pass


def first_trial(*args, **kwargs):
    print(time.monotonic(), flush=True)
    raise FirstTrial


def main() -> int:
    workload = WORKLOADS[sys.argv[1]]
    config = workload.config(int(sys.argv[2]))
    from rrselect import simulate

    simulate.run_trial = first_trial
    simulate.ProcessPoolExecutor = first_trial
    try:
        simulate.run_sweep(config, workers=workload.workers)
    except FirstTrial:
        return 0
    print("run_sweep returned without starting a trial", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
