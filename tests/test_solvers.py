"""Tests for the two Monte Carlo solvers and their equivalence.

The strongest correctness property of the adaptive algorithm: with a
zero threshold it must reproduce the conventional solver's trajectory
*exactly* (same seed, same events, same times), because every tested
junction is flagged and recomputed.
"""

import numpy as np
import pytest

from repro.circuit import build_set
from repro.core import MonteCarloEngine, SimulationConfig
from repro.errors import SimulationError


def engines(circuit, **overrides):
    base = dict(temperature=4.2, seed=42)
    base.update(overrides)
    na = MonteCarloEngine(circuit, SimulationConfig(solver="nonadaptive", **base))
    ad = MonteCarloEngine(circuit, SimulationConfig(solver="adaptive", **base))
    return na, ad


class TestTrajectoryEquivalence:
    def test_zero_threshold_exact_match_set(self, set_circuit):
        circuit = set_circuit.with_source_voltages({"vs": 0.02, "vd": -0.02})
        na, ad = engines(circuit, adaptive_threshold=0.0)
        na.run(max_jumps=2000)
        ad.run(max_jumps=2000)
        assert na.solver.time == pytest.approx(ad.solver.time, rel=1e-12)
        assert np.array_equal(na.solver.flux, ad.solver.flux)
        assert np.array_equal(na.solver.occupation, ad.solver.occupation)

    def test_zero_threshold_exact_match_double_dot(self, double_dot_circuit):
        circuit = double_dot_circuit.with_source_voltages(
            {"vl": 0.03, "vr": -0.03, "vg1": 0.01}
        )
        na, ad = engines(circuit, adaptive_threshold=0.0, temperature=2.0)
        na.run(max_jumps=3000)
        ad.run(max_jumps=3000)
        assert na.solver.time == pytest.approx(ad.solver.time, rel=1e-12)
        assert np.array_equal(na.solver.flux, ad.solver.flux)

    def test_zero_threshold_exact_match_through_source_changes(self, set_circuit):
        na, ad = engines(set_circuit, adaptive_threshold=0.0)
        for engine in (na, ad):
            engine.run(max_jumps=500)
            engine.set_sources({"vs": 0.015, "vd": -0.015})
            engine.run(max_jumps=500)
            engine.set_sources({"vg": 0.01})
            engine.run(max_jumps=500)
        assert na.solver.time == pytest.approx(ad.solver.time, rel=1e-12)
        assert np.array_equal(na.solver.flux, ad.solver.flux)


class TestAdaptiveAccuracy:
    def test_default_threshold_current_within_tolerance(self, set_circuit):
        circuit = set_circuit.with_source_voltages({"vs": 0.02, "vd": -0.02})
        na, ad = engines(circuit, adaptive_threshold=0.05)
        i_na = na.measure_current([0], jumps=30000)
        i_ad = ad.measure_current([0], jumps=30000)
        assert i_ad == pytest.approx(i_na, rel=0.1)

    def test_work_reduction_on_multi_stage_circuit(self):
        from repro.logic import build_benchmark

        mapped = build_benchmark("74LS138")
        na, ad = engines(
            mapped.circuit, temperature=1.5,
        )
        na.run(max_jumps=2000)
        ad.run(max_jumps=2000)
        na_evals = na.solver.stats.sequential_rate_evaluations
        ad_evals = ad.solver.stats.sequential_rate_evaluations
        assert ad_evals < na_evals / 5  # large reduction in rate work

    def test_periodic_refresh_counted(self, set_circuit):
        _, ad = engines(set_circuit.with_source_voltages({"vs": 0.02, "vd": -0.02}))
        ad.config.full_refresh_interval  # default 1000
        ad.run(max_jumps=2500)
        assert ad.solver.stats.full_refreshes >= 3  # initial + 2 periodic


class TestSolverStateIntegrity:
    def test_adaptive_potentials_track_exact_solution(self, double_dot_circuit):
        circuit = double_dot_circuit.with_source_voltages(
            {"vl": 0.02, "vr": -0.02}
        )
        _, ad = engines(circuit, temperature=2.0)
        ad.run(max_jumps=700)
        exact = ad.electrostatics.potentials(ad.solver.occupation, ad.solver.vext)
        assert np.allclose(ad.solver.potentials(), exact, atol=1e-15)

    def test_charge_conservation_island_flux(self, set_circuit):
        circuit = set_circuit.with_source_voltages({"vs": 0.02, "vd": -0.02})
        na, _ = engines(circuit)
        na.run(max_jumps=5000)
        # net electrons onto the island = flux(j1 a->b=source->island)
        # + flux(j2 a->b=drain->island)
        island_gain = na.solver.flux[0] + na.solver.flux[1]
        assert island_gain == na.solver.occupation[0]

    def test_blockaded_circuit_raises_instead_of_hanging(self, set_circuit):
        # zero bias at T = 0: every rate vanishes
        frozen = set_circuit.with_source_voltages({"vs": 0.0, "vd": 0.0})
        engine = MonteCarloEngine(
            frozen, SimulationConfig(temperature=0.0, solver="nonadaptive")
        )
        with pytest.raises(SimulationError):
            engine.run(max_jumps=10)

    def test_initial_occupation_shape_checked(self, set_circuit):
        with pytest.raises(SimulationError):
            MonteCarloEngine(
                set_circuit, SimulationConfig(),
                initial_occupation=np.zeros(5),
            )


class TestPinnedLogicTrajectory:
    """Bit-exact trajectory of a mid-size logic circuit.

    c432 (2,072 junctions, sparse backend) under one input step: the
    run exercises the scalar flag walk and recompute, per-event
    recomputes of more than 64 flagged junctions (numpy path), two
    wide-front retargets and the lazily repaired pair tree.  The hash
    and counters were recorded before the flat-state rewrite of the
    adaptive solver; any optimisation must keep them.  ``np.expm1`` is
    SIMD-dispatched, so the pin holds on hosts whose numpy picks the
    same kernel (as do the golden decks).
    """

    def test_c432_step_event_hash(self):
        from repro import logic
        from repro.core import SolverStats

        mapped = logic.build_benchmark("c432")
        stimulus = logic.find_step_stimulus(mapped.netlist, 3)
        config = SimulationConfig(
            temperature=mapped.params.temperature, solver="adaptive",
            seed=5, event_hash=True,
        )
        engine = MonteCarloEngine(
            mapped.circuit, config,
            initial_occupation=mapped.initial_occupation(stimulus.before),
        )
        assert not engine.electrostatics.is_dense
        engine.set_sources(mapped.input_voltages(stimulus.before))
        engine.run(max_jumps=2000)
        engine.set_sources(mapped.input_voltages(stimulus.after))
        engine.run(max_jumps=3000)
        assert engine.event_hash() == "6239fcf9493312d894e8a5343349047c"
        assert engine.solver.stats == SolverStats(
            events=5000, sequential_rate_evaluations=267614,
            potential_solves=6, full_refreshes=6,
            flagged_recalculations=121375,
        )
