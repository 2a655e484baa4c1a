"""Distributed AMR driver: Morton-SFC block ownership + dynamic rebalancing.

:class:`DistributedAMRSolver` evolves the same forest as
:class:`~repro.core.amr_solver.AMRSolver`, but assigns every leaf block to
one of ``n_ranks`` ranks via the Morton space-filling-curve partitioner
(:mod:`repro.mesh.amr.partition`) and fills ghost zones **per rank** from
partial composites built from each rank's owned blocks plus their ghost
dependencies (:mod:`repro.mesh.amr.exchange`).  Because the composite
construction consumes only block interiors, the per-rank partial fills are
bitwise identical to the serial global fill — which is the property the
golden-stream parity tests pin at 1/2/4 ranks.

After every regrid the driver measures rank imbalance (max/mean rank work)
and, above ``AMRConfig.rebalance_threshold``, recuts the Morton curve and
migrates blocks to their new owners.  In this serial driver a "migration"
is pure bookkeeping (all blocks live in one address space); the process
backend (:mod:`repro.core.amr_parallel`) overrides the same hooks with real
shm-ring transfers, so both executors replay the identical decision
sequence.

Rank 0 is special only for metrics ownership; the decision logic is fully
replicated.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from ..boundary.conditions import BoundarySet
from ..mesh.amr.blocks import BlockKey
from ..mesh.amr.exchange import (
    halo_plan,
    measured_imbalance,
    migration_plan,
    rank_loads,
    reflux_plan,
)
from ..mesh.amr.partition import PARTITIONERS
from ..mesh.amr.reflux import apply_reflux
from ..mesh.grid import Grid
from ..physics.srhd import SRHDSystem
from ..utils.errors import ConfigurationError
from .amr_solver import AMRConfig, AMRSolver
from .config import SolverConfig


class DistributedAMRSolver(AMRSolver):
    """AMR evolution with leaves partitioned across *n_ranks* ranks.

    This class runs every rank's work in one process (the serial rank
    loop): ownership, per-rank ghost fills, refluxing and dynamic
    repartitioning all behave exactly as in the process backend, so it is
    both the single-process reference the parity tests compare against and
    the base class the process-backend rank worker derives from.
    """

    #: metrics-owner rank (the process backend sets the true rank id)
    rank = 0

    def __init__(
        self,
        system: SRHDSystem,
        root_grid: Grid,
        initial_data: Callable[[SRHDSystem, Grid], np.ndarray],
        config: SolverConfig | None = None,
        amr: AMRConfig | None = None,
        boundaries: BoundarySet | None = None,
        recorder=None,
        source_fn=None,
        n_ranks: int = 1,
    ):
        if n_ranks < 1:
            raise ConfigurationError(f"n_ranks must be >= 1, got {n_ranks}")
        self.n_ranks = n_ranks
        self.assignment: dict[BlockKey, int] | None = None
        self._init_distributed_state()
        super().__init__(
            system,
            root_grid,
            initial_data,
            config=config,
            amr=amr,
            boundaries=boundaries,
            recorder=recorder,
            source_fn=source_fn,
        )
        part = PARTITIONERS[self.amr.partitioner](self.forest, n_ranks)
        self.assignment = dict(part.assignment)
        self._measure_imbalance()

    def _init_distributed_state(self) -> None:
        self.repartitions = 0
        self.migrated_blocks = 0
        self._last_imbalance = 1.0
        self._halo_plan = None
        self._reflux_plan = None
        self._periodic = None
        self._owned = None

    @property
    def imbalance(self) -> float:
        """Most recently measured rank-work imbalance (max/mean)."""
        return self._last_imbalance

    def forest_state(self, keys=None) -> dict:
        """The forest state plus block ownership and rebalance counters."""
        state = super().forest_state(keys)
        state.update(
            assignment=dict(self.assignment),
            repartitions=self.repartitions,
            migrated_blocks=self.migrated_blocks,
            imbalance=self._last_imbalance,
        )
        return state

    def install_forest_state(self, state: dict) -> None:
        super().install_forest_state(state)
        self.assignment = dict(state["assignment"])
        self._invalidate_plans()
        self.repartitions = int(state["repartitions"])
        self.migrated_blocks = int(state["migrated_blocks"])
        self._last_imbalance = float(state["imbalance"])

    # ------------------------------------------------------------------
    # Topology-derived plans
    # ------------------------------------------------------------------

    @property
    def periodic(self) -> tuple[bool, ...]:
        if self._periodic is None:
            self._periodic = tuple(
                self.wall_bcs.condition(ax, 0).name == "periodic"
                for ax in range(self.layout.ndim)
            )
        return self._periodic

    def _invalidate_plans(self) -> None:
        self._halo_plan = None
        self._reflux_plan = None
        self._owned = None

    def _get_halo_plan(self):
        if self._halo_plan is None:
            self._halo_plan = halo_plan(
                self.forest, self.assignment, self.n_ranks, self.periodic
            )
        return self._halo_plan

    def _get_reflux_plan(self):
        if self._reflux_plan is None:
            self._reflux_plan = reflux_plan(self.forest, self.assignment)
        return self._reflux_plan

    # ------------------------------------------------------------------
    # Ownership hooks
    # ------------------------------------------------------------------

    def _on_split(self, key: BlockKey) -> None:
        if self.assignment is None:
            return
        rank = self.assignment.pop(key)
        for child in key.children():
            self.assignment[child] = rank
        self._invalidate_plans()

    def _on_merge(self, parent: BlockKey) -> None:
        if self.assignment is None:
            return
        children = parent.children()
        dest = self.assignment[children[0]]
        for child in children:
            self.assignment.pop(child, None)
        self.assignment[parent] = dest
        self._invalidate_plans()

    # ------------------------------------------------------------------
    # Per-rank ghost fill and refluxing
    # ------------------------------------------------------------------

    def _fill_ghosts(self, prims: dict[BlockKey, np.ndarray]) -> None:
        if self.assignment is None:
            # Construction-time fills run before the initial partition.
            super()._fill_ghosts(prims)
            return
        plan = self._get_halo_plan()
        for rank in range(self.n_ranks):
            owned = plan.owned[rank]
            if not owned:
                continue
            fields = {k: prims[k] for k in owned}
            for k in plan.deps[rank]:
                fields[k] = prims[k]
            self.forest.fill_ghosts(
                fields, self.system.nvars, self.system, self.wall_bcs,
                only=owned,
            )
        self._count_halo_traffic(plan)

    def _count_halo_traffic(self, plan) -> None:
        """Model the cross-rank interior traffic one exchange would move
        (the process backend moves it for real over the shm rings)."""
        block_bytes = 8 * self.system.nvars * self.layout.cells_per_block()
        messages = sum(len(keys) for keys in plan.sends.values())
        if messages and self._owns_metrics():
            self.metrics.counter("comm.amr.halo_messages").inc(messages)
            self.metrics.counter("comm.amr.halo_bytes").inc(
                messages * block_bytes
            )

    def _apply_reflux(self, fluxes, dU) -> None:
        apply_reflux(self.forest, fluxes, dU)
        plan = self._get_reflux_plan()
        if plan and self._owns_metrics():
            faces = sum(len(entries) for entries in plan.values())
            self.metrics.counter("comm.amr.reflux_messages").inc(faces)

    # ------------------------------------------------------------------
    # Dynamic rebalancing
    # ------------------------------------------------------------------

    def _owns_metrics(self) -> bool:
        """Repartition metrics are counted once per fleet: by the serial
        rank loop, or by rank 0 in the process backend."""
        return self.rank == 0

    def _block_name(self, key: BlockKey) -> str:
        return f"rank {self.assignment[key]}, block {key}"

    def _measure_imbalance(self) -> float:
        loads = rank_loads(self.forest, self.assignment, self.n_ranks)
        imbalance = measured_imbalance(loads)
        self._last_imbalance = imbalance
        if self._owns_metrics():
            self.metrics.gauge("amr.imbalance").set(imbalance)
        return imbalance

    def _post_regrid(self) -> None:
        if self.assignment is None:
            return
        imbalance = self._measure_imbalance()
        if imbalance <= self.amr.rebalance_threshold:
            return
        t0 = time.perf_counter()
        part = PARTITIONERS[self.amr.partitioner](self.forest, self.n_ranks)
        new_assignment = dict(part.assignment)
        moves = migration_plan(self.forest, self.assignment, new_assignment)
        if not moves:
            # The recut reproduced the current assignment — the measured
            # imbalance is irreducible at this topology (e.g. leaves don't
            # divide evenly).  Not a rebalance: no counters, no event.
            return
        self._migrate(moves, new_assignment)
        self.repartitions += 1
        self.migrated_blocks += len(moves)
        after = self._measure_imbalance()
        elapsed = time.perf_counter() - t0
        if self._owns_metrics():
            self.metrics.counter("amr.repartitions").inc()
            self.metrics.counter("amr.migrated_blocks").inc(len(moves))
            # _s suffix: wall-clock timing, excluded from canonical streams.
            self.metrics.counter("amr.repartition_s").inc(elapsed)
        self._emit_rebalance_event(
            imbalance_before=imbalance,
            imbalance_after=after,
            migrated_blocks=len(moves),
            repartitions=self.repartitions,
        )

    def _migrate(self, moves, new_assignment: dict[BlockKey, int]) -> None:
        """Adopt the new ownership map.  All block data already lives in
        this process, so the serial migration is pure bookkeeping; the
        process backend overrides this with checksummed shm transfers."""
        self.assignment = new_assignment
        self._invalidate_plans()

    def _emit_rebalance_event(self, **payload) -> None:
        if self.recorder is not None:
            self.recorder.emit_event("amr_rebalance", step=self.steps, **payload)

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------

    def _amr_record(self, step_cells: int) -> dict:
        record = super()._amr_record(step_cells)
        if self.assignment is not None:
            loads = rank_loads(self.forest, self.assignment, self.n_ranks)
            cells = self.layout.cells_per_block()
            record["imbalance"] = self._last_imbalance
            record["migrated_blocks"] = self.migrated_blocks
            record["repartitions"] = self.repartitions
            record["rank_blocks"] = {
                str(r): int(loads[r] // cells) for r in range(self.n_ranks)
            }
        return record
