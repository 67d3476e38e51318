"""Time, in a fresh process, the set-up a workload's command does first.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds from the start of the script to the end of the
set-up: importing mosco_graphs and building what the command needs
before its first unit of work.
"""

import time

import spec

START = time.perf_counter()


def main(workload, seed):
    import numpy as np
    from mosco_graphs import builtin_models, default_test_battery, get_model

    if workload == "run":
        config = spec.RUN_CONFIG
        model = get_model(config["model"], config["resolution"], config["modes"])
        default_test_battery(model, model.basis, np.random.default_rng(seed))
    elif workload == "export-roundtrip":
        get_model("neumann", spec.EXPORT_RESOLUTION, spec.EXPORT_MODES)
    elif workload == "verify":
        builtin_models(spec.RESOLUTION, spec.MODES, seed=seed)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return time.perf_counter() - START


if __name__ == "__main__":
    import sys

    print(repr(main(sys.argv[1], int(sys.argv[2]))))
