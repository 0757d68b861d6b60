"""Traced run: spans around the public calls of each layer.

The tracer wraps library calls from the outside — class attributes are
patched before the traced engines are built, module functions at the
site that looks them up — so the program itself is unchanged.  Every
span keeps its name, start, end, parent span and window id in compact
in-memory arrays; the spans are written out once, at the end.

A span's *self* time is its duration minus the durations of its child
spans.  Window ids: ``>= 0`` for traced timed windows, :data:`SETUP`
for the traced set-up, :data:`WARM_UP` and :data:`OUTSIDE` for work
that per-layer metrics ignore (warm-up, correctness checks).
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from pathlib import Path

import repro.core.adaptive
import repro.core.sweep
import repro.logic
from repro.circuit.electrostatics import Electrostatics
from repro.circuit.junction_table import JunctionTable
from repro.core.base import BaseSolver
from repro.core.engine import MonteCarloEngine
from repro.core.pairtree import PairRateTree
from repro.physics.rates import TunnelingModel

SETUP = -1
OUTSIDE = -2
WARM_UP = -3

#: (owner, attribute, span name): the public calls wrapped per layer
LAYER_CALLS = (
    (repro.logic, "build_benchmark", "logic.build_benchmark"),
    (repro.logic, "find_step_stimulus", "logic.find_step_stimulus"),
    (Electrostatics, "__init__", "circuit.Electrostatics"),
    (Electrostatics, "potential_update", "circuit.potential_update"),
    (Electrostatics, "potentials", "circuit.potentials"),
    (Electrostatics, "source_potential_update", "circuit.source_potential_update"),
    (JunctionTable, "__init__", "circuit.JunctionTable"),
    (JunctionTable, "free_energy_changes", "circuit.free_energy_changes"),
    (TunnelingModel, "__init__", "physics.TunnelingModel"),
    (TunnelingModel, "sequential_rates", "physics.sequential_rates"),
    (TunnelingModel, "sequential_rate_single", "physics.sequential_rate_single"),
    (TunnelingModel, "cooper_pair_rates", "physics.cooper_pair_rates"),
    (repro.core.adaptive, "orthodox_rates_both", "physics.orthodox_rates_both"),
    (MonteCarloEngine, "__init__", "core.MonteCarloEngine"),
    (MonteCarloEngine, "run", "core.run"),
    (MonteCarloEngine, "set_sources", "core.set_sources"),
    (BaseSolver, "step", "core.step"),
    (PairRateTree, "update", "core.tree_update"),
    (PairRateTree, "sample", "core.tree_sample"),
    (repro.core.sweep, "sweep_map", "core.sweep_map"),
)
SHARD = "parallel.shard"


class Tracer:
    """Span recorder; use as a context manager to patch and unpatch."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.window = array("q")
        self._stack: list[int] = []
        self.current_window = SETUP
        self._saved: list[tuple[object, str, object]] = []
        self._self_ns: array | None = None

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call."""
        name_id = self._name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, windows, stack = self.parent, self.window, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            windows.append(self.current_window)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def __enter__(self) -> "Tracer":
        for owner, attribute, name in LAYER_CALLS:
            self._patch(owner, attribute, self.wrap(name, getattr(owner, attribute)))
        execute_shards = repro.core.sweep.execute_shards

        def traced_execute_shards(worker, payloads, *args, **kwargs):
            # one span per shard, run inline (jobs=1)
            return execute_shards(
                self.wrap(SHARD, worker), payloads, *args, **kwargs
            )

        self._patch(repro.core.sweep, "execute_shards", traced_execute_shards)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    def self_times(self) -> array:
        """Self time (ns) of every span (computed once tracing ended)."""
        if self._self_ns is not None:
            return self._self_ns
        n = len(self.start)
        child = array("q", bytes(8 * n))
        duration = array("q", (self.end[i] - self.start[i] for i in range(n)))
        for i in range(n):
            parent = self.parent[i]
            if parent >= 0:
                child[parent] += duration[i]
        self._self_ns = array("q", (duration[i] - child[i] for i in range(n)))
        return self._self_ns

    def totals(self, windows) -> dict[str, tuple[int, int]]:
        """``{name: (calls, self ns)}`` over spans in ``windows``."""
        self_ns = self.self_times()
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        for i in range(len(self.start)):
            if self.window[i] in windows:
                calls[self.name[i]] += 1
                total[self.name[i]] += self_ns[i]
        return {
            name: (calls[k], total[k]) for k, name in enumerate(self.names)
        }

    def window_counts(self, name: str) -> dict[int, int]:
        """Calls of ``name`` per traced window."""
        counts: dict[int, int] = {}
        if name not in self._ids:
            return counts
        name_id = self._ids[name]
        for i in range(len(self.start)):
            if self.name[i] == name_id and self.window[i] >= 0:
                counts[self.window[i]] = counts.get(self.window[i], 0) + 1
        return counts

    def write(self, path: Path, meta: dict) -> None:
        """All spans as one JSON object of columns (ns since the first)."""
        origin = self.start[0] if len(self.start) else 0
        payload = {
            **meta,
            "names": self.names,
            "columns": {
                "name": self.name.tolist(),
                "start_ns": [t - origin for t in self.start],
                "end_ns": [t - origin for t in self.end],
                "parent": self.parent.tolist(),
                "window": self.window.tolist(),
            },
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


def self_time_table(totals: dict, events: int) -> str:
    """Per-span self-time table over the traced windows."""
    lines = [
        f"{'span':36s} {'calls':>9s} {'self ms':>11s} {'us/event':>10s}"
        f" {'calls/event':>12s}"
    ]
    for name, (calls, self_ns) in sorted(
        totals.items(), key=lambda item: -item[1][1]
    ):
        if not calls:
            continue
        lines.append(
            f"{name:36s} {calls:9d} {self_ns / 1e6:11.3f}"
            f" {self_ns / 1e3 / events:10.3f} {calls / events:12.4f}"
        )
    return "\n".join(lines)


def layer_metrics(tracer: Tracer, traced_windows: int, events: int) -> dict:
    """Per-layer metrics from the spans of the traced set-up and windows.

    ``*_us`` are self time per event inside the traced windows; ``*_s``
    (initialisers) are mean self time per call over the traced set-up
    and windows; ``*_ms`` are mean self time per call (per retarget,
    shard or sweep row) inside the windows.  A layer that does not run
    on a workload reads 0.
    """
    in_windows = set(range(traced_windows))
    windows = tracer.totals(in_windows)
    with_setup = tracer.totals(in_windows | {SETUP})

    def per_event_us(name):
        return windows.get(name, (0, 0))[1] / 1e3 / events

    def per_call(totals, name, scale):
        calls, self_ns = totals.get(name, (0, 0))
        return self_ns / scale / calls if calls else 0.0

    rows = windows.get(SHARD, (0, 0))[0]
    sweep_ns = windows.get("core.sweep_map", (0, 0))[1]
    return {
        "logic.build_s": per_call(with_setup, "logic.build_benchmark", 1e9),
        "logic.stimulus_s": per_call(with_setup, "logic.find_step_stimulus", 1e9),
        "circuit.electrostatics_init_s": per_call(
            with_setup, "circuit.Electrostatics", 1e9
        ),
        "circuit.junction_table_init_s": per_call(
            with_setup, "circuit.JunctionTable", 1e9
        ),
        "circuit.potential_update_us": per_event_us("circuit.potential_update"),
        "circuit.potentials_us": per_event_us("circuit.potentials"),
        "circuit.free_energy_us": per_event_us("circuit.free_energy_changes"),
        "circuit.source_update_ms": per_call(
            windows, "circuit.source_potential_update", 1e6
        ),
        "physics.model_init_s": per_call(with_setup, "physics.TunnelingModel", 1e9),
        "physics.sequential_rates_us": per_event_us("physics.sequential_rates"),
        "physics.orthodox_us": per_event_us("physics.orthodox_rates_both"),
        "physics.qp_rate_us": per_event_us("physics.sequential_rate_single"),
        "physics.cooper_us": per_event_us("physics.cooper_pair_rates"),
        "core.engine_init_s": per_call(with_setup, "core.MonteCarloEngine", 1e9),
        "core.step_self_us": per_event_us("core.step"),
        "core.run_self_us": per_event_us("core.run"),
        "core.sweep_self_ms": sweep_ns / 1e6 / rows if rows else 0.0,
        "core.tree_update_us": per_event_us("core.tree_update"),
        "core.tree_sample_us": per_event_us("core.tree_sample"),
        "core.retarget_ms": per_call(windows, "core.set_sources", 1e6),
        "parallel.shard_self_ms": per_call(windows, SHARD, 1e6),
    }


def span_counts(tracer: Tracer, traced_windows: int) -> dict[str, int]:
    """Exact call counts over the traced windows."""
    totals = tracer.totals(set(range(traced_windows)))
    return {
        "potential_update_calls": totals.get("circuit.potential_update", (0, 0))[0],
        "tree_update_calls": totals.get("core.tree_update", (0, 0))[0],
    }
