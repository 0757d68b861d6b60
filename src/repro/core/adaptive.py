"""The adaptive Monte Carlo solver (Algorithm 1 — the paper's
contribution).

After a tunnel event only the junctions whose electrostatic environment
changed appreciably have their rates recomputed:

1. the potential change ``dv`` caused by the event is known in closed
   form (``C^-1`` columns), so island potentials stay *exact*;
2. starting from the junctions nearest the event, each tested junction
   ``i`` accumulates the potential change across it into a testing
   factor ``b(i) = b0(i) + dP_n1 - dP_n2``;
3. if ``e*|b(i)|`` exceeds ``lambda`` times the magnitude of either
   reference free-energy change stored when the junction's rate was
   last computed — additionally capped at ``lambda * cap * kT``, which
   bounds the *log-rate* staleness of thermally activated junctions
   (see :class:`~repro.core.config.SimulationConfig`) — the junction is
   flagged for recalculation and its neighbours are tested too
   (breadth-first), otherwise the accumulated factor is kept for next
   time;
4. every ``full_refresh_interval`` events all rates are recomputed,
   bounding the cumulative error.

Secondary channels (cotunneling, Cooper pairs) are recomputed every
iteration from the exact potentials, exactly as the paper prescribes
("a non-adaptive solver is used to calculate the tunnel rate
information specific to these effects").

The per-event state is flat and read as plain Python floats: the
testing factors ``b0`` and the per-junction flag limits are lists, and
so are the free-energy and rate caches whenever the pair tree draws the
events.  A full refresh converts them once; the vectorised paths gather
from and scatter to them.  With secondary channels the event draw is
the shared numpy selection, so the free-energy and rate caches stay
arrays there.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.electrostatics import Electrostatics
from repro.circuit.junction_table import JunctionTable
from repro.constants import E_CHARGE, K_B
from repro.core.base import BaseSolver
from repro.core.config import SimulationConfig
from repro.core.event_solver import draw_time
from repro.core.events import EventKind, TunnelEvent
from repro.core.pairtree import PairRateTree
from repro.physics.orthodox import orthodox_rates_both
from repro.physics.rates import TunnelingModel
from repro.telemetry import registry as _telemetry


class AdaptiveSolver(BaseSolver):
    """Selective-update MC solver (the paper's Algorithm 1)."""

    def __init__(
        self,
        circuit: Circuit,
        electrostatics: Electrostatics,
        junction_table: JunctionTable,
        model: TunnelingModel,
        config: SimulationConfig,
        rng: np.random.Generator,
        initial_occupation: np.ndarray | None = None,
    ):
        super().__init__(
            circuit, electrostatics, junction_table, model, config, rng,
            initial_occupation,
        )
        self._neighbors = circuit.junction_neighbors()
        self._neighbor_arrays = [
            np.asarray(nbrs, dtype=np.intp) for nbrs in self._neighbors
        ]
        # walk seeds of a sequential event: the junction and its
        # neighbours (Fig. 4)
        self._seed_lists = [
            [j, *nbrs] for j, nbrs in enumerate(self._neighbors)
        ]
        self._zero_ext = np.zeros(circuit.n_external)
        # plain-Python endpoint views for the scalar hot path (numpy
        # element access is several times slower than list access):
        # an island endpoint is its island index, a lead ``~index``
        self._a_node = np.where(
            junction_table.a_is_island, junction_table.a_index,
            ~junction_table.a_index,
        ).tolist()
        self._b_node = np.where(
            junction_table.b_is_island, junction_table.b_index,
            ~junction_table.b_index,
        ).tolist()
        self._charging_list = (
            0.5 * E_CHARGE * E_CHARGE * junction_table.charging
        ).tolist()
        self._denominator_list = (
            E_CHARGE * E_CHARGE * junction_table.resistance
        ).tolist()
        # O(log J) sampling tree, usable when the only channels are the
        # sequential pairs (secondary channels are recomputed globally
        # every iteration anyway, so they keep the plain path)
        self._fast = not (
            model.include_cooper_pairs or model.include_cotunneling
        )
        self._tree: PairRateTree | None = None
        # cap on the testing threshold (energy): bounds the log-rate
        # staleness of thermally activated junctions at lambda * cap
        self._energy_cap = (
            config.adaptive_thermal_cap * K_B * model.temperature
            if model.temperature > 0.0
            else float("inf")
        )
        self._lambda = config.adaptive_threshold
        self._a_is_island = junction_table.a_is_island
        self._a_index = junction_table.a_index
        self._b_is_island = junction_table.b_is_island
        self._b_index = junction_table.b_index
        self._events_since_refresh = 0
        self._walks = 0
        self._visit_mark = [0] * self.n_junctions
        self._v = np.zeros(circuit.n_islands)
        # filled by the first full refresh: ``list[float]`` (or, for the
        # free-energy and rate caches without the tree, ``np.ndarray``)
        self._b0: list = []
        self._flag_limit: list = []
        self._dw_fw: list | np.ndarray = []
        self._dw_bw: list | np.ndarray = []
        self._seq_fw: list | np.ndarray = []
        self._seq_bw: list | np.ndarray = []
        self._full_refresh()

    # ------------------------------------------------------------------
    # cache maintenance
    # ------------------------------------------------------------------
    def _flag_limits(self, dw_fw: np.ndarray, dw_bw: np.ndarray) -> np.ndarray:
        """Per-junction scalar-walk flag limits
        ``lambda/e * min(|dW_fw|, |dW_bw|, cap)`` (vectorised form of the
        expression in :meth:`_recompute_scalar`)."""
        return (self._lambda / E_CHARGE) * np.minimum(
            np.minimum(np.abs(dw_fw), np.abs(dw_bw)), self._energy_cap
        )

    def _full_refresh(self) -> None:
        """Recompute potentials, free energies and all sequential rates."""
        self._v = self.stat.potentials(self.occupation, self.vext)
        self.stats.potential_solves += 1
        dw_fw, dw_bw = self.table.free_energy_changes(self._v, self.vext)
        seq_fw, seq_bw = self.model.sequential_rates(dw_fw, dw_bw)
        self.stats.sequential_rate_evaluations += 2 * self.n_junctions
        self.stats.full_refreshes += 1
        self._b0 = [0.0] * self.n_junctions
        self._flag_limit = self._flag_limits(dw_fw, dw_bw).tolist()
        self._events_since_refresh = 0
        if self._fast:
            if self._tree is None:
                self._tree = PairRateTree(seq_fw, seq_bw)
            else:
                self._tree.rebuild(seq_fw, seq_bw)
            self._dw_fw, self._dw_bw = dw_fw.tolist(), dw_bw.tolist()
            self._seq_fw, self._seq_bw = seq_fw.tolist(), seq_bw.tolist()
        else:
            self._dw_fw, self._dw_bw = dw_fw, dw_bw
            self._seq_fw, self._seq_bw = seq_fw, seq_bw

    def _recompute_junctions(self, indices) -> None:
        """Recompute free energies and rates for flagged junctions only.

        The split between the scalar and the numpy path is part of the
        pinned trajectory, not only a speed choice: the scalar path
        calls ``math.expm1`` and the numpy path ``np.expm1`` (inside
        :func:`orthodox_rates_both`), and numpy's SIMD ``expm1`` differs
        from libm's in the last bit for a few per cent of inputs on
        AVX-512 hosts.  Moving a junction from one path to the other
        changes the event hash.
        """
        if (
            not self.model.superconducting
            and isinstance(indices, list)
            and len(indices) <= 64
        ):
            self._recompute_scalar(indices)
            return
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size == 0:
            return
        phi_a = np.where(
            self._a_is_island[idx],
            self._v[np.minimum(self._a_index[idx], len(self._v) - 1)],
            self.vext[np.minimum(self._a_index[idx], len(self.vext) - 1)],
        )
        phi_b = np.where(
            self._b_is_island[idx],
            self._v[np.minimum(self._b_index[idx], len(self._v) - 1)],
            self.vext[np.minimum(self._b_index[idx], len(self.vext) - 1)],
        )
        drop = phi_b - phi_a
        self_energy = 0.5 * E_CHARGE * E_CHARGE * self.table.charging[idx]
        dw_fw = -E_CHARGE * drop + self_energy
        dw_bw = +E_CHARGE * drop + self_energy
        idx_list = idx.tolist()
        if not self.model.superconducting:
            fw, bw = orthodox_rates_both(
                dw_fw, dw_bw, self.table.resistance[idx], self.model.temperature
            )
            fw_list, bw_list = fw.tolist(), bw.tolist()
        else:
            rate = self.model.sequential_rate_single
            fw_list, bw_list = [], []
            for pos, j in enumerate(idx_list):
                fw_list.append(float(rate(j, dw_fw[pos])))
                bw_list.append(float(rate(j, dw_bw[pos])))
        limits = self._flag_limits(dw_fw, dw_bw).tolist()
        dwf_list, dwb_list = dw_fw.tolist(), dw_bw.tolist()
        seq_fw, seq_bw = self._seq_fw, self._seq_bw
        cache_fw, cache_bw = self._dw_fw, self._dw_bw
        b0, flag_limit = self._b0, self._flag_limit
        update = self._tree.update if self._tree is not None else None
        for pos, j in enumerate(idx_list):
            cache_fw[j] = dwf_list[pos]
            cache_bw[j] = dwb_list[pos]
            seq_fw[j] = fw_list[pos]
            seq_bw[j] = bw_list[pos]
            b0[j] = 0.0
            flag_limit[j] = limits[pos]
            if update is not None:
                update(j, fw_list[pos] + bw_list[pos])
        self.stats.sequential_rate_evaluations += 2 * idx.size
        self.stats.flagged_recalculations += idx.size

    def _recompute_scalar(self, indices: list) -> None:
        """Scalar-math recompute for the few junctions a tunnel event
        flags (normal-state circuits); avoids numpy's small-array
        overhead in the hot path."""
        kt = K_B * self.model.temperature
        e = E_CHARGE
        scale = self._lambda / e
        cap = self._energy_cap
        v = memoryview(self._v)
        vext = memoryview(self.vext)
        a_node, b_node = self._a_node, self._b_node
        charging = self._charging_list
        denominators = self._denominator_list
        fw_arr, bw_arr = self._seq_fw, self._seq_bw
        dwf_arr, dwb_arr = self._dw_fw, self._dw_bw
        b0, flag_limit = self._b0, self._flag_limit
        update = self._tree.update if self._tree is not None else None

        for i in indices:
            node = a_node[i]
            phi_a = v[node] if node >= 0 else vext[~node]
            node = b_node[i]
            phi_b = v[node] if node >= 0 else vext[~node]
            drop = phi_b - phi_a
            self_energy = charging[i]
            dwf = -e * drop + self_energy
            dwb = +e * drop + self_energy
            denominator = denominators[i]
            if kt > 0.0:
                x = dwf / kt
                if x > 500.0:
                    fw = 0.0
                elif -1e-12 < x < 1e-12:
                    fw = kt / denominator
                else:
                    fw = dwf / math.expm1(x) / denominator
                x = dwb / kt
                if x > 500.0:
                    bw = 0.0
                elif -1e-12 < x < 1e-12:
                    bw = kt / denominator
                else:
                    bw = dwb / math.expm1(x) / denominator
            else:
                fw = -dwf / denominator if dwf < 0.0 else 0.0
                bw = -dwb / denominator if dwb < 0.0 else 0.0
            dwf_arr[i] = dwf
            dwb_arr[i] = dwb
            fw_arr[i] = fw
            bw_arr[i] = bw
            b0[i] = 0.0
            limit = dwf if dwf >= 0 else -dwf
            other = dwb if dwb >= 0 else -dwb
            if other < limit:
                limit = other
            if cap < limit:
                limit = cap
            flag_limit[i] = scale * limit
            if update is not None:
                update(i, fw + bw)
        self.stats.sequential_rate_evaluations += 2 * len(indices)
        self.stats.flagged_recalculations += len(indices)

    def _frontier_potential_change(
        self, frontier: np.ndarray, dv: np.ndarray, dvext: np.ndarray
    ) -> np.ndarray:
        """Change of ``phi_b - phi_a`` across each frontier junction."""
        b_isl = self._b_is_island[frontier]
        a_isl = self._a_is_island[frontier]
        b_idx = self._b_index[frontier]
        a_idx = self._a_index[frontier]
        change = np.where(
            b_isl, dv[np.minimum(b_idx, len(dv) - 1)],
            dvext[np.minimum(b_idx, len(dvext) - 1)],
        )
        change -= np.where(
            a_isl, dv[np.minimum(a_idx, len(dv) - 1)],
            dvext[np.minimum(a_idx, len(dvext) - 1)],
        )
        return change

    def _adaptive_update(
        self, dv: np.ndarray, dvext: np.ndarray | None, seeds
    ) -> None:
        """Algorithm 1: test, flag, and selectively recompute.

        The per-event walk touches a few dozen junctions; a tightly
        bound scalar loop beats vectorisation at that size.  Large
        seed sets (stimulus changes test every junction) take the
        vectorised frontier path instead.
        """
        if len(seeds) > 256:
            self._adaptive_update_vector(dv, dvext, seeds)
            return
        b0 = self._b0
        flag_limit = self._flag_limit
        a_node, b_node = self._a_node, self._b_node
        neighbors = self._neighbors
        # memoryview element reads are plain Python floats
        dv_view = memoryview(dv)
        ext = memoryview(dvext) if dvext is not None else None
        # a junction is visited in this walk once its mark equals the
        # walk's number (no per-walk set to build)
        self._walks += 1
        walk = self._walks
        mark = self._visit_mark
        flagged: list[int] = []
        queue = list(seeds)
        # the loop also visits what the flagged junctions append
        for i in queue:
            if mark[i] == walk:
                continue
            mark[i] = walk
            # ``0.0 + x``: the change accumulates from +0.0, which fixes
            # the sign of a zero result
            node = b_node[i]
            if node >= 0:
                change = 0.0 + dv_view[node]
            elif ext is not None:
                change = 0.0 + ext[~node]
            else:
                change = 0.0
            node = a_node[i]
            if node >= 0:
                change -= dv_view[node]
            elif ext is not None:
                change -= ext[~node]
            b = b0[i] + change
            if abs(b) >= flag_limit[i]:
                flagged.append(i)
                queue.extend(neighbors[i])
            else:
                b0[i] = b
        if flagged:
            self._recompute_junctions(flagged)

    def _adaptive_update_vector(
        self, dv: np.ndarray, dvext: np.ndarray | None, seeds
    ) -> None:
        """Vectorised variant for wide fronts (source/stimulus changes)."""
        lam = self._lambda
        if dvext is None:
            dvext = self._zero_ext
        b0 = np.array(self._b0)
        abs_fw = np.abs(np.asarray(self._dw_fw, dtype=float))
        abs_bw = np.abs(np.asarray(self._dw_bw, dtype=float))
        visited = np.zeros(self.n_junctions, dtype=bool)
        flagged_parts: list[np.ndarray] = []
        frontier = np.unique(np.asarray(seeds, dtype=np.intp))
        while frontier.size:
            frontier = frontier[~visited[frontier]]
            if not frontier.size:
                break
            visited[frontier] = True
            b = b0[frontier] + self._frontier_potential_change(
                frontier, dv, dvext
            )
            threshold = lam * np.minimum(
                np.minimum(abs_fw[frontier], abs_bw[frontier]),
                self._energy_cap,
            )
            flag_mask = E_CHARGE * np.abs(b) >= threshold
            flagged = frontier[flag_mask]
            kept = frontier[~flag_mask]
            b0[kept] = b[~flag_mask]
            if flagged.size:
                flagged_parts.append(flagged)
                frontier = np.unique(
                    np.concatenate(
                        [self._neighbor_arrays[j] for j in flagged]
                    )
                )
            else:
                break
        self._b0 = b0.tolist()
        if flagged_parts:
            self._recompute_junctions(np.concatenate(flagged_parts))

    # ------------------------------------------------------------------
    # solver interface
    # ------------------------------------------------------------------
    def _step_impl(self, deadline: float | None = None) -> TunnelEvent | None:
        if self._fast:
            event = self._select_fast(deadline)
        else:
            secondary_rates, payloads = self._secondary_rates(self._v)
            event = self._select_and_apply(
                self._seq_fw, self._seq_bw, secondary_rates, payloads,
                self._dw_fw, self._dw_bw, deadline=deadline,
            )
        if event is None:
            return None
        ref_a, ref_b = self._event_endpoints(event)
        dq = -E_CHARGE * event.n_electrons
        dv = self.stat.potential_update(ref_a, ref_b, dq)
        self._v += dv

        self._events_since_refresh += 1
        if self._events_since_refresh >= self.config.full_refresh_interval:
            self._full_refresh()
            return event

        seeds = self._event_seeds(event)
        self._adaptive_update(dv, None, seeds)
        return event

    def _select_fast(self, deadline: float | None = None) -> TunnelEvent | None:
        """Sequential-only event draw through the O(log J) pair tree."""
        tree = self._tree
        total = tree.total
        if deadline is not None and total <= 0.0:
            self._advance_time(deadline - self.time)
            return None
        dt = draw_time(total, self.rng)
        if deadline is not None and self.time + dt > deadline:
            self._advance_time(deadline - self.time)
            return None
        target = self.rng.random() * total
        j, residual = tree.sample(target)
        if residual < self._seq_fw[j]:
            event = TunnelEvent(
                EventKind.SEQUENTIAL, j, +1, 1, float(self._dw_fw[j])
            )
        else:
            event = TunnelEvent(
                EventKind.SEQUENTIAL, j, -1, 1, float(self._dw_bw[j])
            )
        self._commit_event(event, dt)
        return event

    def _event_seeds(self, event: TunnelEvent) -> list[int]:
        """Junctions nearest the tunnel event: the event junction(s)
        themselves plus their immediate neighbours (Fig. 4).  A
        sequential event gets its junction's precomputed list, which
        callers must not mutate."""
        if event.path is None:
            return self._seed_lists[event.junction]
        starts = [event.path.junction_in, event.path.junction_out]
        seeds = list(starts)
        for j in starts:
            seeds.extend(self._neighbors[j])
        return seeds

    def _trace_extras(self) -> dict:
        """Adaptive error proxy: the largest accumulated testing factor
        ``|b(i)|`` (converted to joules via ``e``), i.e. how much
        un-recomputed potential drift the rate caches currently carry.
        Only evaluated while a trace is being recorded."""
        if not self.n_junctions:
            return {"b_error": 0.0}
        return {"b_error": float(E_CHARGE * np.max(np.abs(self._b0)))}

    def set_external_voltages(self, vext: np.ndarray) -> None:
        """React to a stimulus/sweep change of the source voltages.

        The island potential response is exact (``dv = C^-1 C_x dV``).
        Every junction is *tested* against its accumulated threshold —
        an input can perturb junctions it only touches capacitively
        (logic inputs drive gate capacitors, not junctions), so seeding
        from junction-connected nodes alone would leave stale rates
        behind.  Testing is the cheap part of Algorithm 1; only the
        junctions that fail the test are recomputed.
        """
        vext = np.asarray(vext, dtype=float)
        dvext = vext - self.vext
        if not np.any(dvext):
            return
        dv = self.stat.source_potential_update(dvext)
        self._v += dv
        self.vext = vext.copy()
        reg = _telemetry.ACTIVE
        flagged_before = self.stats.flagged_recalculations
        self._adaptive_update(dv, dvext, list(range(self.n_junctions)))
        if reg is not None:
            reg.counter("solver.retargets").add()
            if reg.trace:
                reg.instant(
                    "solver.retarget", category="solver",
                    flagged=self.stats.flagged_recalculations - flagged_before,
                )

    def potentials(self) -> np.ndarray:
        return self._v
