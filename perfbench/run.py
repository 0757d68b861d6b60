"""Benchmark entry point: one workload, one fresh process.

    python3 perfbench/run.py --workload set-map --seed 1 --seconds 18 --trace 0

``--trace 0`` measures the end-to-end metrics (``setup_s``,
``events_per_s``, ``peak_rss_mb``) with nothing wrapped; ``--trace 1``
runs the same windows untraced, then again with spans around every
layer's public calls, and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEFAULT_SEED = 1
#: default-seed records: the first cycle of windows, the replay hash
#: and the traced exact counts (see maintain.py)
PINNED = HERE / "pinned.json"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_program() -> None:
    """Import the simulator from this checkout's ``src``, single-threaded.

    Raises ``ImportError`` when the checkout has no simulator (or a
    different installation would be picked up instead).
    """
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ[var] = "1"
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    import repro

    location = Path(repro.__file__).resolve()
    if source.resolve() not in location.parents:
        raise ImportError(f"repro imported from {location}, not {source}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_pins(workload_name: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(PINNED.read_text())[workload_name]


@dataclasses.dataclass
class Window:
    """One timed window: its interval, events, record and failures."""

    index: int
    events: int
    interval: object
    record: dict
    failures: list

    @property
    def rate(self) -> float:
        return self.events / self.interval.normalised_s

    @property
    def raw_rate(self) -> float:
        return self.events / self.interval.raw_s


def setup(workload, clock, reps, batch):
    """Time ``reps`` intervals of ``batch`` consecutive set-ups each
    (a batch makes a microsecond set-up measurable); keeps the last
    state.  Returns the state and the per-set-up times."""

    def build_batch():
        for _ in range(batch - 1):
            workload.setup()
        return workload.setup()

    intervals = []
    state = None
    for _ in range(reps):
        state = None  # release the previous state before the next build
        state, interval = clock.measure(build_batch)
        intervals.append(interval)
    clock.break_chain()
    return state, [
        dataclasses.replace(
            i, raw_s=i.raw_s / batch
        ) for i in intervals
    ]


def timed_windows(workload, state, clock, seconds, min_windows, pins,
                  on_window=None, label="window"):
    """Run whole cycles of windows until ``seconds`` have passed and at
    least ``min_windows`` ran; each window is checked outside its
    timing."""
    windows: list[Window] = []
    pinned = pins["windows"] if pins else []
    start = time.perf_counter()
    while True:
        k = len(windows)
        workload.begin(state)
        if on_window is not None:
            on_window(k)
        events, interval = clock.measure(workload.window, state)
        if on_window is not None:
            on_window(None)
        record = workload.record(state)
        failures = workload.check(state, record)
        if workload.repeats and windows and record != windows[0].record:
            failures.append("record differs from window 0 (same inputs)")
        if k < len(pinned) and record != pinned[k]:
            failures.append("record differs from the pinned default-seed record")
        windows.append(Window(k, events, interval, record, failures))
        print(f"{label} {k} " + json.dumps(
            {"events": events, "raw_s": interval.raw_s,
             "ref_ms": 1e3 * interval.ref_s, **record, "failures": failures},
            separators=(",", ":"),
        ))
        if (
            len(windows) >= min_windows
            and len(windows) % workload.cycle == 0
            and time.perf_counter() - start >= seconds
        ):
            return windows


def result(correct, windows, metrics) -> dict:
    failed = sum(1 for w in windows if w.failures)
    return {
        "correct": bool(correct and failed == 0),
        "attempted": len(windows),
        "failed": failed,
        "metrics": metrics,
    }


def measure(workload, seed, seconds, clock) -> dict:
    """The untraced run: end-to-end metrics."""
    pins = load_pins(workload.name, seed)
    state, setups = setup(
        workload, clock, workload.setup_reps, workload.setup_batch
    )
    for k, interval in enumerate(setups):
        print(f"setup {k} " + json.dumps(
            {"raw_s": interval.raw_s, "ref_ms": 1e3 * interval.ref_s}
        ))
    workload.warm_up(state)
    workload.prepare_checks(state)
    windows = timed_windows(workload, state, clock, seconds, 1, pins)
    # the workload's own peak: the replay below builds a second engine
    rss_mb = peak_rss_mb()

    replay_record, replay_hash = workload.replay(state)
    replay_failures = []
    if replay_record != windows[0].record:
        replay_failures.append("hashed replay differs from window 0")
    if pins and replay_hash != pins["replay_hash"]:
        replay_failures.append(
            f"replay event hash {replay_hash} != pinned {pins['replay_hash']}"
        )
    print("replay " + json.dumps(
        {**replay_record, "event_hash": replay_hash,
         "failures": replay_failures},
        separators=(",", ":"),
    ))
    # the replay is window 0 again: its failures are window 0's
    windows[0].failures.extend(replay_failures)

    rate = statistics.median(w.rate for w in windows)
    raw_rate = statistics.median(w.raw_rate for w in windows)
    ref_ms = 1e3 * statistics.median(w.interval.ref_s for w in windows)
    setup_s = statistics.median(i.normalised_s for i in setups)
    raw_setup = statistics.median(i.raw_s for i in setups)
    failed = sum(1 for w in windows if w.failures)
    print(f"{workload.name} seed {seed}: {failed}/{len(windows)} windows failed"
          f"{' (pinned records checked)' if pins else ''}")
    print(f"  events_per_s {rate:.1f} normalised; raw median {raw_rate:.1f}, "
          f"reference loop median {ref_ms:.2f} ms vs nominal "
          f"{1e3 * clock.nominal_ref_s:.2f} ms")
    print(f"  setup_s {setup_s:.6f} normalised; raw median {raw_setup:.6f} "
          f"over {len(setups)} set-ups")
    return result(True, windows, {
        "setup_s": {"value": setup_s, "unit": "s"},
        "events_per_s": {"value": rate, "unit": "events/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    })


def count_totals(windows, spans: dict) -> dict:
    """Exact work counts over ``windows`` (stats plus span counts)."""
    totals = dict(spans)
    for window in windows:
        for name, value in window.record["stats"].items():
            totals[name] = totals.get(name, 0) + value
    return totals


def traced_phase(workload, clock, pins):
    """Set up again with every layer wrapped and run the fixed number of
    traced windows; returns ``(exact counts, tracer, windows)``."""
    import tracing

    n_traced = workload.trace_windows
    tracer = tracing.Tracer()

    def on_window(k):
        tracer.current_window = k if k is not None else tracing.OUTSIDE

    with tracer:
        state, _ = setup(workload, clock, 1, batch=1)
        tracer.current_window = tracing.WARM_UP
        workload.warm_up(state)
        windows = timed_windows(
            workload, state, clock, 0.0, n_traced, pins,
            on_window=on_window, label="traced",
        )
    counts = count_totals(windows, tracing.span_counts(tracer, n_traced))
    return counts, tracer, windows


def trace(workload, seed, seconds, clock, import_s) -> dict:
    """The traced run: per-layer metrics and the span artifact."""
    import tracing

    pins = load_pins(workload.name, seed)
    n_traced = workload.trace_windows
    state, _ = setup(workload, clock, 1, batch=1)
    workload.warm_up(state)
    workload.prepare_checks(state)
    untraced = timed_windows(workload, state, clock, seconds, n_traced, pins)
    state = None
    counts, tracer, traced = traced_phase(workload, clock, pins)

    correct = True
    for window in traced:
        if window.record != untraced[window.index].record:
            window.failures.append("traced record differs from untraced")
    events = sum(w.events for w in traced)
    print("counts " + json.dumps(counts, separators=(",", ":")))
    if pins and counts != pins["trace_counts"]:
        print("trace counts differ from the pinned default-seed counts")
        correct = False
    if workload.repeats:
        for name in ("circuit.potential_update", "core.tree_update"):
            if len(set(tracer.window_counts(name).values())) > 1:
                print(f"{name} calls differ between identical windows")
                correct = False

    metrics = tracing.layer_metrics(tracer, n_traced, events)
    metrics.update({
        "circuit.potential_updates_per_event":
            counts["potential_update_calls"] / events,
        "physics.rate_evals_per_event":
            counts["sequential_rate_evaluations"] / events,
        "physics.secondary_evals_per_event":
            counts["secondary_rate_evaluations"] / events,
        "core.tree_updates_per_event": counts["tree_update_calls"] / events,
        "core.flagged_per_event": counts["flagged_recalculations"] / events,
        "core.full_refreshes_per_kevent":
            1e3 * counts["full_refreshes"] / events,
        "core.potential_solves_per_kevent":
            1e3 * counts["potential_solves"] / events,
        "host.events_per_s_raw": statistics.median(w.raw_rate for w in untraced),
        "host.ref_loop_ms": 1e3 * statistics.median(
            w.interval.ref_s for w in untraced + traced
        ),
        "host.import_s": import_s,
        "trace.overhead_pct": 100.0 * (
            sum(w.interval.normalised_s for w in traced)
            / sum(w.interval.normalised_s for w in untraced[:n_traced]) - 1.0
        ),
    })

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{seed}"
    tracer.write(
        stem.with_name(stem.name + "-spans.json"),
        {"workload": workload.name, "seed": seed, "traced_windows": n_traced},
    )
    table = tracing.self_time_table(
        tracer.totals(set(range(n_traced))), events
    )
    stem.with_name(stem.name + "-selftime.txt").write_text(table + "\n")
    print(table)
    units = dict(per_layer_units())
    return result(correct, traced, {
        name: {"value": float(metrics[name]), "unit": units[name]}
        for name in units
    })


def per_layer_units() -> list[tuple[str, str]]:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in benchmark["per_layer"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the simulator: {exc}", file=sys.stderr)
        return 2
    import host
    import workloads

    import_s = time.perf_counter() - started
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    clock = host.load_clock()
    if args.trace:
        outcome = trace(workload, args.seed, args.seconds, clock, import_s)
    else:
        outcome = measure(workload, args.seed, args.seconds, clock)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
