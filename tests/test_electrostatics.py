"""Tests for the capacitance-matrix electrostatics (Eq. 2 and friends)."""

import numpy as np
import pytest

from repro.circuit import CircuitBuilder, Electrostatics, build_set
from repro.constants import E_CHARGE
from repro.errors import CircuitError


class TestSETElectrostatics:
    """Closed-form checks on the single-island SET."""

    CSIGMA = 5e-18  # 1 + 1 + 3 aF

    def test_capacitance_matrix(self, set_stat):
        c = set_stat.capacitance_matrix()
        assert c.shape == (1, 1)
        assert c[0, 0] == pytest.approx(self.CSIGMA)

    def test_cinv(self, set_stat):
        assert set_stat.cinv_entry(0, 0) == pytest.approx(1.0 / self.CSIGMA)

    def test_neutral_island_potential_symmetric_bias(self, set_circuit, set_stat):
        # symmetric sources and equal junction caps leave the neutral
        # island at the gate-coupling potential: (C1 Vs + C2 Vd)/C = 0
        v = set_stat.potentials(np.zeros(1, dtype=np.int64),
                                set_circuit.external_voltages())
        assert v[0] == pytest.approx(0.0, abs=1e-15)

    def test_one_electron_shifts_potential_by_e_over_c(self, set_circuit, set_stat):
        v = set_stat.potentials(np.array([1]), set_circuit.external_voltages())
        assert v[0] == pytest.approx(-E_CHARGE / self.CSIGMA)

    def test_gate_voltage_couples_with_cg_over_csigma(self, set_circuit, set_stat):
        biased = set_circuit.with_source_voltages({"vg": 0.01})
        v = set_stat.potentials(np.zeros(1, dtype=np.int64),
                                biased.external_voltages())
        assert v[0] == pytest.approx(0.01 * 3e-18 / self.CSIGMA)

    def test_charging_energy_lead_island(self, set_circuit, set_stat):
        rj = set_circuit.resolved_junctions()[0]
        coeff = set_stat.charging_coefficient(rj.ref_a, rj.ref_b)
        e_c = 0.5 * E_CHARGE**2 * coeff
        assert e_c == pytest.approx(E_CHARGE**2 / (2 * self.CSIGMA))

    def test_free_energy_change_threshold(self, set_circuit, set_stat):
        # at Vds = e/C_sigma the source->island event becomes free
        threshold = E_CHARGE / self.CSIGMA
        biased = set_circuit.with_source_voltages(
            {"vs": threshold / 2, "vd": -threshold / 2}
        )
        vext = biased.external_voltages()
        v = set_stat.potentials(np.zeros(1, dtype=np.int64), vext)
        rj = biased.resolved_junctions()[1]  # drain junction: drain->island
        dw = set_stat.free_energy_change(rj.ref_a, rj.ref_b, v, vext)
        assert dw == pytest.approx(0.0, abs=1e-25)


class TestBookkeepingIdentity:
    def test_event_energy_identity_island_island(self, double_dot_circuit):
        stat = Electrostatics(double_dot_circuit)
        vext = double_dot_circuit.external_voltages()
        occ = np.array([0, 0], dtype=np.int64)
        rj = double_dot_circuit.resolved_junctions()[1]  # dot1 - dot2
        v = stat.potentials(occ, vext)
        dw = stat.free_energy_change(rj.ref_a, rj.ref_b, v, vext)
        f_before = stat.total_free_energy(occ, vext)
        occ_after = occ.copy()
        occ_after[rj.ref_a.index] -= 1
        occ_after[rj.ref_b.index] += 1
        f_after = stat.total_free_energy(occ_after, vext)
        assert dw == pytest.approx(f_after - f_before, rel=1e-9)

    def test_event_energy_identity_lead_island(self, double_dot_circuit):
        stat = Electrostatics(double_dot_circuit)
        vext = double_dot_circuit.external_voltages()
        occ = np.array([0, 0], dtype=np.int64)
        rj = double_dot_circuit.resolved_junctions()[0]  # lead_l - dot1
        v = stat.potentials(occ, vext)
        dw = stat.free_energy_change(rj.ref_a, rj.ref_b, v, vext)
        f_before = stat.total_free_energy(occ, vext)
        occ_after = occ.copy()
        occ_after[rj.ref_b.index] += 1
        f_after = stat.total_free_energy(occ_after, vext)
        # charge -e taken *from* the lead: the source does work -(-e)*V
        lead_voltage = vext[rj.ref_a.index]
        source_work = -(-E_CHARGE) * lead_voltage
        assert dw == pytest.approx(f_after - f_before - source_work, rel=1e-9)


class TestIncrementalUpdates:
    def test_potential_update_matches_resolve(self, double_dot_circuit):
        stat = Electrostatics(double_dot_circuit)
        vext = double_dot_circuit.external_voltages()
        occ = np.array([0, 0], dtype=np.int64)
        v0 = stat.potentials(occ, vext)
        rj = double_dot_circuit.resolved_junctions()[0]
        dv = stat.potential_update(rj.ref_a, rj.ref_b, -E_CHARGE)
        occ[rj.ref_b.index] += 1
        v1 = stat.potentials(occ, vext)
        assert np.allclose(v0 + dv, v1, atol=1e-18)

    def test_potential_update_bits_match_zeroed_vector_formula(
        self, double_dot_circuit, monkeypatch
    ):
        # columns with signed zeros, subnormals and ordinary values:
        # every endpoint combination must reproduce the zeroed-vector
        # formula ``0 - dq*K[:, a] + dq*K[:, b]`` bit for bit
        stat = Electrostatics(double_dot_circuit)
        columns = {
            0: np.array([-0.0, 0.0, 3.5e17, -2.0e17, -0.0, 1e-300]),
            1: np.array([0.0, -0.0, -0.0, 7.25e16, 5e-324, -1e-300]),
        }
        monkeypatch.setattr(stat, "_n", 6)
        monkeypatch.setattr(stat, "cinv_column", columns.__getitem__)
        island0, island1 = (
            double_dot_circuit.resolved_junctions()[1].ref_a,
            double_dot_circuit.resolved_junctions()[1].ref_b,
        )
        lead = double_dot_circuit.resolved_junctions()[0].ref_a
        assert island0.is_island and island1.is_island and not lead.is_island
        for dq in (-E_CHARGE, E_CHARGE, -2.0 * E_CHARGE, 0.0, -0.0):
            for ref_a, ref_b in (
                (island0, island1), (island1, island0), (island0, lead),
                (lead, island1), (lead, lead),
            ):
                expected = np.zeros(6)
                if ref_a.is_island:
                    expected -= dq * columns[ref_a.index]
                if ref_b.is_island:
                    expected += dq * columns[ref_b.index]
                dv = stat.potential_update(ref_a, ref_b, dq)
                assert dv.tobytes() == expected.tobytes()

    def test_source_potential_update_matches_resolve(self, double_dot_circuit):
        stat = Electrostatics(double_dot_circuit)
        vext0 = double_dot_circuit.external_voltages()
        vext1 = vext0.copy()
        vext1[3] += 0.004  # gate 1
        occ = np.array([1, -1], dtype=np.int64)
        dv = stat.source_potential_update(vext1 - vext0)
        assert np.allclose(
            stat.potentials(occ, vext0) + dv, stat.potentials(occ, vext1),
            atol=1e-18,
        )


class TestBackends:
    def _ladder(self, n):
        b = CircuitBuilder()
        for i in range(n):
            b.add_junction(f"j{i}", f"n{i}", f"n{i+1}", 1e6, 1e-18)
            b.add_capacitor(f"c{i}", f"n{i+1}", "0", 5e-18)
        b.add_voltage_source("v0", "n0", 0.01)
        return b.build()

    def test_sparse_matches_dense(self):
        circuit = self._ladder(30)
        dense = Electrostatics(circuit, dense_limit=1000)
        sparse = Electrostatics(circuit, dense_limit=5)
        assert dense.is_dense and not sparse.is_dense
        occ = np.zeros(circuit.n_islands, dtype=np.int64)
        occ[7] = 3
        vext = circuit.external_voltages()
        assert np.allclose(dense.potentials(occ, vext),
                           sparse.potentials(occ, vext), atol=1e-18)
        assert dense.cinv_entry(3, 11) == pytest.approx(
            sparse.cinv_entry(3, 11), rel=1e-10
        )

    def test_sparse_column_cache(self):
        circuit = self._ladder(20)
        sparse = Electrostatics(circuit, dense_limit=5)
        col1 = sparse.cinv_column(4)
        col2 = sparse.cinv_column(4)
        assert col1 is col2  # cached

    def test_floating_island_group_rejected(self):
        b = CircuitBuilder()
        b.add_junction("j1", "a", "b", 1e6, 1e-18)  # two islands, no anchor
        with pytest.raises(CircuitError):
            Electrostatics(b.build())

    def test_all_driven_circuit_rejected(self):
        b = CircuitBuilder()
        b.add_junction("j1", "a", "0", 1e6, 1e-18)
        b.add_voltage_source("v1", "a", 0.01)
        with pytest.raises(CircuitError):
            Electrostatics(b.build())
