"""Record the reference sweep CSVs that run.py compares against:

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known good; a change that alters
the outputs on purpose lists the flipped trials rather than re-recording.
"""
import io
import os

from workloads import REFERENCE_SEED, WORKLOADS, import_rrselect

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    simulate = import_rrselect().simulate

    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for workload in WORKLOADS.values():
        if workload.workers != 1:
            continue  # multi-worker workloads share the single-worker reference
        config = workload.config(REFERENCE_SEED)
        buf = io.StringIO()
        simulate.write_sweep_csv(buf, simulate.run_sweep(config), config)
        with open(os.path.join(HERE, "reference", workload.reference), "w", newline="") as fh:
            fh.write(buf.getvalue())
        print(f"wrote reference/{workload.reference}")


if __name__ == "__main__":
    main()
