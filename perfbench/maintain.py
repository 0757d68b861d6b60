"""Maintenance of the benchmark's fixed data files.

    python3 perfbench/maintain.py calibrate   # once per benchmark version
    python3 perfbench/maintain.py pin         # regenerate pinned.json

``calibrate`` times the reference loop and records the host it ran on
in ``calibration.json``.  It refuses to replace an existing nominal
time: every normalised metric is relative to it, so changing it breaks
comparability with every earlier measurement.

``pin`` records, for the default seed, the first windows' simulated
statistics, the event hash of the hashed replay and the traced run's
exact work counts in ``pinned.json``.  The simulator must keep these
bit-identical; regenerate them only with a change that is meant to
alter trajectories, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

import run

#: fitted slope of log(events/s) on log(reference time) over fresh
#: processes (see host.py); fixed with the nominal time
ELASTICITY = 0.8


def calibrate(force: bool) -> None:
    import host
    import numpy

    path = host.CALIBRATION
    if path.exists() and not force:
        sys.exit(f"{path} exists; its nominal time is fixed (use --force)")
    times = sorted(host.time_reference() for _ in range(200))
    quartiles = statistics.quantiles(times, n=4)
    try:
        model = next(
            line.split(":", 1)[1].strip()
            for line in open("/proc/cpuinfo")
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        model = platform.processor()
    calibration = {
        "reference_loop": {
            "iterations": host.REFERENCE_ITERATIONS,
            # the lower quartile: the loop's time on an uncontended host
            "nominal_s": round(quartiles[0], 4),
            "elasticity": ELASTICITY,
            "measured_quartiles_s": [round(q, 5) for q in quartiles],
        },
        "host": {
            "cpus": os.cpu_count(),
            "cpu_model": model,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }
    path.write_text(json.dumps(calibration, indent=2) + "\n")
    print(json.dumps(calibration, indent=2))


def pin() -> None:
    import host
    import workloads

    clock = host.load_clock()
    pins = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(run.DEFAULT_SEED)
        n_pinned = workload.cycle
        state, _ = run.setup(workload, clock, 1, batch=1)
        workload.warm_up(state)
        workload.prepare_checks(state)
        windows = run.timed_windows(workload, state, clock, 0.0, n_pinned, None)
        _, replay_hash = workload.replay(state)
        state = None
        counts, _, _ = run.traced_phase(workload, clock, None)
        pins[name] = {
            "windows": [w.record for w in windows[:n_pinned]],
            "replay_hash": replay_hash,
            "trace_counts": counts,
        }
    run.PINNED.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {run.PINNED}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    cal = sub.add_parser("calibrate")
    cal.add_argument("--force", action="store_true")
    sub.add_parser("pin")
    args = parser.parse_args()
    run.import_program()
    if args.command == "calibrate":
        calibrate(args.force)
    else:
        pin()


if __name__ == "__main__":
    main()
