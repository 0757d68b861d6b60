"""The four benchmark workloads.

Each workload turns the benchmark seed into inputs (engine seeds, sweep
grids, logic stimuli), and splits its work into

* ``setup`` — circuit build / logic mapping, stimulus search and engine
  preparation (timed as ``setup_s``);
* ``warm_up`` — untimed work that lets lazy caches fill;
* ``window`` — one fixed-work timed operation;
* ``record`` / ``check`` — the window's simulated statistics and its
  correctness checks, both outside timing;
* ``replay`` — window 0 again with the event-stream hash on.

Library calls go through module attributes (``sweep.sweep_map``,
``logic.build_benchmark``) so the traced run can wrap them at the site
that looks them up.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

import repro.core as core
import repro.core.sweep as sweep
import repro.logic as logic
from repro.circuit import Superconductor, build_set
from repro.constants import MEV
from repro.gen.differential import Tolerance
from repro.master import MasterEquationSolver


def derive_seed(seed: int, part: int) -> int:
    """Independent 32-bit seed ``part`` of the benchmark seed."""
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(part,))
    return int(sequence.generate_state(1, np.uint32)[0])


def stats_record(stats) -> dict:
    return {name: int(value) for name, value in stats.as_dict().items()}


# ----------------------------------------------------------------------
# current maps: sweep_map over a (gate, bias) grid, one call per window
# ----------------------------------------------------------------------

@dataclasses.dataclass
class MapState:
    circuit: object
    config: core.SimulationConfig
    cmap: object = None


class MapWorkload:
    """``sweep_map`` over a seed-drawn grid; every window is one call
    with identical inputs, so every window must produce the identical
    record."""

    repeats = True
    cycle = 1
    setup_reps = 11
    setup_batch = 200
    trace_windows = 2
    temperature = 4.2
    rows = 16
    points = 4
    jumps_per_point = 500
    gate_range = (0.0, 0.0534)
    bias_range = (0.02, 0.08)

    def __init__(self, seed: int):
        rng = np.random.default_rng(derive_seed(seed, 0))
        self.gates = np.sort(rng.uniform(*self.gate_range, self.rows))
        self.biases = np.sort(rng.uniform(*self.bias_range, self.points))
        self.engine_seed = derive_seed(seed, 1)
        self.reference: np.ndarray | None = None

    def build_circuit(self):
        return build_set()

    def setup(self) -> MapState:
        config = core.SimulationConfig(
            temperature=self.temperature, seed=self.engine_seed
        )
        return MapState(self.build_circuit(), config)

    def warm_up(self, state: MapState) -> None:
        self.window(state)

    def window(self, state: MapState, config=None) -> int:
        state.cmap = sweep.sweep_map(
            state.circuit, self.biases, self.gates,
            config if config is not None else state.config,
            jumps_per_point=self.jumps_per_point, jobs=1,
        )
        return state.cmap.stats.events

    def begin(self, state: MapState) -> None:
        """Nothing to snapshot: every call starts from fresh engines."""

    def record(self, state: MapState) -> dict:
        return {
            "stats": stats_record(state.cmap.stats),
            "currents": [
                [float(i).hex() for i in row] for row in state.cmap.currents
            ],
        }

    def prepare_checks(self, state: MapState) -> None:
        """Master-equation steady state at every pixel (untimed, once)."""
        solver = MasterEquationSolver(state.circuit, self.temperature)
        index = {s.name: k + 1 for k, s in enumerate(state.circuit.sources)}
        reference = np.empty((self.rows, self.points))
        for gi, vg in enumerate(self.gates):
            for bi, vb in enumerate(self.biases):
                vext = state.circuit.external_voltages()
                vext[index["vs"]] = +vb / 2.0
                vext[index["vd"]] = -vb / 2.0
                vext[index["vg"]] = vg
                result = solver.steady_state(vext)
                reference[gi, bi] = result.junction_currents[0]
        self.reference = reference

    def check(self, state: MapState, record: dict) -> list[str]:
        failures = []
        expected = self.rows * self.points * self.jumps_per_point
        if record["stats"]["events"] != expected:
            failures.append(
                f"events {record['stats']['events']} != {expected}"
            )
        # shot-noise sem of a pixel: at most one transferred electron
        # per two measured events, Fano factor <= 1
        measured = 0.8 * self.jumps_per_point
        tolerance = Tolerance()
        scale = float(np.max(np.abs(self.reference)))
        for gi in range(self.rows):
            for bi in range(self.points):
                ref = float(self.reference[gi, bi])
                mc = float.fromhex(record["currents"][gi][bi])
                sem = abs(ref) * math.sqrt(2.0 / measured)
                budget = tolerance.budget(ref, sem, scale)
                if not abs(mc - ref) <= budget:
                    failures.append(
                        f"pixel ({gi},{bi}): MC {mc:.4e} A vs master "
                        f"{ref:.4e} A exceeds budget {budget:.3e} A"
                    )
        return failures

    def replay(self, state: MapState) -> tuple[dict, str]:
        replay = MapState(state.circuit, state.config)
        self.window(replay, state.config.replace(event_hash=True))
        return self.record(replay), replay.cmap.event_hash


class SetMap(MapWorkload):
    """Normal-metal SET (Fig. 1b device) at 4.2 K."""

    name = "set-map"


class SsetMap(MapWorkload):
    """Fig. 5 superconducting SET at 0.52 K with Cooper pairs."""

    name = "sset-map"
    temperature = 0.52
    # one row per call keeps a window near one second (a row rebuilds
    # its QP tables, ~0.6 s), so a run has enough windows for a stable
    # median
    rows = 1
    points = 2
    jumps_per_point = 1000
    gate_range = (0.0, 0.010)
    bias_range = (1.3e-3, 1.8e-3)

    def build_circuit(self):
        return build_set(
            r1=2.1e5, r2=2.1e5, c1=1.1e-16, c2=1.1e-16, cg=1.4e-17,
            background_charge_e=0.65,
            superconductor=Superconductor(delta0=0.21 * MEV, tc=1.4),
        )


# ----------------------------------------------------------------------
# c1908: one engine, legs cycling through the steps' after/before vectors
# ----------------------------------------------------------------------

@dataclasses.dataclass
class LogicState:
    mapped: object
    stimuli: list
    engine: object
    #: source voltages of each leg: after_0, before_0, after_1, ...
    vectors: list
    #: per stimulus, the islands of the outputs it toggles
    output_islands: list
    stats_before: object = None
    flux_before: np.ndarray | None = None
    time_before: float = 0.0
    window_index: int = 0


class LogicWorkload:
    """c1908 (6,988 junctions) under input steps found by
    ``find_step_stimulus``; window ``k`` retargets the inputs to the
    ``after`` (even ``k``) or ``before`` (odd ``k``) vector of step
    ``k // 2`` (cyclically) and runs a fixed number of events on the
    same engine.

    The work per event depends on the input vector (which gates
    conduct): over a single step it varies by +-12 % between seeds.  A
    run therefore cycles through :attr:`steps` steps and times whole
    cycles, so every run averages the same number of vectors.
    """

    repeats = False
    setup_reps = 3
    setup_batch = 1
    steps = 8
    cycle = 2 * steps
    trace_windows = cycle
    benchmark = "c1908"
    warm_up_events = 200
    #: relative tolerance of incremental vs from-scratch potentials
    potential_rtol = 1e-12
    solver = "adaptive"
    leg_events = 1500

    def __init__(self, seed: int):
        self.engine_seed = derive_seed(seed, 1)
        self.stimulus_seeds = [
            derive_seed(seed, 2 + i) for i in range(self.steps)
        ]

    def setup(self) -> LogicState:
        mapped = logic.build_benchmark(self.benchmark)
        stimuli = [
            logic.find_step_stimulus(mapped.netlist, s)
            for s in self.stimulus_seeds
        ]
        return LogicState(
            mapped, stimuli, self._engine(mapped, stimuli[0]),
            vectors=[
                mapped.input_voltages(vector)
                for stimulus in stimuli
                for vector in (stimulus.after, stimulus.before)
            ],
            output_islands=[
                [mapped.island_of(net) for net, _ in stimulus.toggled_outputs]
                for stimulus in stimuli
            ],
        )

    def _engine(self, mapped, stimulus, event_hash: bool = False):
        config = core.SimulationConfig(
            temperature=mapped.params.temperature, solver=self.solver,
            seed=self.engine_seed, event_hash=event_hash,
        )
        engine = core.MonteCarloEngine(
            mapped.circuit, config,
            initial_occupation=mapped.initial_occupation(stimulus.before),
        )
        engine.set_sources(mapped.input_voltages(stimulus.before))
        return engine

    def warm_up(self, state: LogicState) -> None:
        state.engine.run(max_jumps=self.warm_up_events)

    def window(self, state: LogicState) -> int:
        engine = state.engine
        engine.set_sources(state.vectors[state.window_index % self.cycle])
        engine.run(max_jumps=self.leg_events)
        state.window_index += 1
        return self.leg_events

    def begin(self, state: LogicState) -> None:
        solver = state.engine.solver
        state.stats_before = dataclasses.replace(solver.stats)
        state.flux_before = solver.flux.copy()
        state.time_before = solver.time

    def record(self, state: LogicState) -> dict:
        solver = state.engine.solver
        before = state.stats_before.as_dict()
        flux = solver.flux - state.flux_before
        potentials = solver.potentials()
        step = (state.window_index - 1) % self.cycle // 2
        return {
            "stats": {
                name: int(value - before[name])
                for name, value in solver.stats.as_dict().items()
            },
            "time": float(solver.time).hex(),
            "elapsed": float(solver.time - state.time_before).hex(),
            "flux_net": int(flux.sum()),
            "flux_abs": int(np.abs(flux).sum()),
            "outputs": [
                float(potentials[i]).hex() for i in state.output_islands[step]
            ],
        }

    def prepare_checks(self, state: LogicState) -> None:
        """Nothing to precompute: checks compare against the engine."""

    def check(self, state: LogicState, record: dict) -> list[str]:
        failures = []
        if record["stats"]["events"] != self.leg_events:
            failures.append(
                f"events {record['stats']['events']} != {self.leg_events}"
            )
        engine = state.engine
        incremental = engine.solver.potentials()
        scratch = engine.electrostatics.potentials(
            engine.solver.occupation, engine.solver.vext
        )
        error = float(np.max(np.abs(incremental - scratch)))
        bound = self.potential_rtol * float(np.max(np.abs(scratch)))
        if not error <= bound:
            failures.append(
                f"island potentials drift {error:.3e} V from a fresh solve "
                f"(bound {bound:.3e} V)"
            )
        return failures

    def replay(self, state: LogicState) -> tuple[dict, str]:
        # release the timed engine (and its C^-1 column cache) first, so
        # the replay does not double the process's peak memory
        state.engine = None
        replay = dataclasses.replace(
            state, engine=self._engine(state.mapped, state.stimuli[0], True),
            window_index=0,
        )
        self.warm_up(replay)
        self.begin(replay)
        self.window(replay)
        return self.record(replay), replay.engine.event_hash()


class C1908Adaptive(LogicWorkload):
    name = "c1908-adaptive"


class C1908NonAdaptive(LogicWorkload):
    name = "c1908-nonadaptive"
    solver = "nonadaptive"
    leg_events = 400


WORKLOADS = {
    cls.name: cls for cls in (SetMap, SsetMap, C1908Adaptive, C1908NonAdaptive)
}
