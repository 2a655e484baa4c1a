"""Adaptive-mesh-refinement solver driver.

Evolves the leaf blocks of an :class:`~repro.mesh.amr.forest.AMRForest`
with the same HRSC pipeline as the unigrid solver: shared global time step
(no subcycling), ghost zones filled per RK stage from the composite-level
snapshots, gradient-based regridding with 2:1 balance enforcement.

The headline accounting for experiment E11 is :attr:`cells_updated` — the
number of leaf-cell RK-stage updates actually performed — against the error
measured on the composite solution.

Every regrid decision is made from one *ghosted snapshot* (all leaves
recovered once, ghosts filled once) and applied in the forest's leaf
iteration order, so the sequence of topology changes is a deterministic
function of the snapshot.  The distributed driver
(:class:`~repro.core.amr_distributed.DistributedAMRSolver`) relies on this:
each rank flags only the leaves it owns, the flags are combined, and every
rank replays the identical split/merge sequence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from ..boundary.conditions import BoundarySet, InteriorFace, make_boundaries
from ..mesh.amr.blocks import BlockKey, BlockLayout
from ..mesh.amr.criteria import GradientCriterion
from ..mesh.amr.forest import AMRForest
from ..mesh.amr.transfer import prolong_array, restrict_array
from ..mesh.grid import Grid
from ..obs.metrics import MetricsRegistry
from ..physics.srhd import SRHDSystem
from ..time_integration.cfl import clip_dt_to_final, dt_from_axis_maxima
from ..time_integration.ssprk import make_integrator
from ..utils.errors import ConfigurationError
from ..utils.parameters import ParameterSet, param
from ..utils.timers import TimerRegistry
from .config import SolverConfig
from .pipeline import HydroPipeline, resolve_kernel_system
from .stepping import Driver

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.recorder import StepRecorder


class AMRConfig(ParameterSet):
    """Refinement policy knobs."""

    block_size = param(16, int, lambda v: v >= 8, "cells per block per axis")
    max_levels = param(3, int, lambda v: 1 <= v <= 8, "number of levels (incl. root)")
    refine_threshold = param(
        0.05, float, lambda v: v > 0, "scaled-gradient refinement trigger"
    )
    coarsen_threshold = param(
        0.0125, float, lambda v: v > 0, "scaled-gradient coarsening trigger"
    )
    regrid_interval = param(5, int, lambda v: v >= 1, "steps between regrids")
    initial_regrid_passes = param(
        4, int, lambda v: v >= 0, "refinement sweeps over the initial data"
    )
    reflux = param(
        True, bool, doc="conservative flux correction at coarse-fine faces"
    )
    rebalance_threshold = param(
        1.25,
        float,
        lambda v: v >= 1.0,
        "repartition when max/mean rank work exceeds this after a regrid",
    )
    partitioner = param(
        "sfc",
        str,
        lambda v: v in ("sfc", "round-robin", "random"),
        "leaf-to-rank partitioner used by the distributed driver",
    )


class AMRSolver(Driver):
    """Block-structured AMR evolution of the SRHD system.

    Parameters
    ----------
    system:
        SRHD physics.
    root_grid:
        Level-0 uniform grid; its shape must tile by ``amr.block_size``.
    initial_data:
        Callable ``(system, grid) -> prim`` evaluated per block grid, so
        newly created fine blocks at t = 0 sample the analytic data at full
        resolution.
    config:
        Numerical scheme configuration (shared with the unigrid solver).
    amr:
        Refinement policy.
    boundaries:
        Physical wall conditions (outflow default).
    recorder:
        Optional :class:`~repro.obs.StepRecorder`; per-step records carry
        forest shape (leaf counts, cells updated) alongside the shared
        kernel timings and counters of every block pipeline.
    """

    def __init__(
        self,
        system: SRHDSystem,
        root_grid: Grid,
        initial_data: Callable[[SRHDSystem, Grid], np.ndarray],
        config: SolverConfig | None = None,
        amr: AMRConfig | None = None,
        boundaries: BoundarySet | None = None,
        recorder: "StepRecorder | None" = None,
        source_fn=None,
    ):
        self._init_core(
            system, root_grid, config, amr, boundaries, recorder, source_fn
        )
        self._initial_data = initial_data

        # Root tiling from the analytic initial data.
        for key in self.layout.root_keys():
            grid = self.layout.grid_for(key)
            prim = initial_data(system, grid).astype(float, copy=True)
            self.forest.add_leaf(key, system.prim_to_con(prim))
        # Initial refinement sweeps resolve features present at t = 0.
        for _ in range(self.amr.initial_regrid_passes):
            if not self._initial_refine_pass():
                break
        self._enforce_balance(from_initial_data=True)

    def _init_core(
        self,
        system: SRHDSystem,
        root_grid: Grid,
        config: SolverConfig | None,
        amr: AMRConfig | None,
        boundaries: BoundarySet | None,
        recorder: "StepRecorder | None",
        source_fn,
    ) -> None:
        """Everything except initial-data seeding — shared with the
        process-backend rank worker, which rebuilds its forest from shipped
        state instead of evaluating ``initial_data``."""
        if system.ndim != root_grid.ndim:
            raise ConfigurationError("system/grid dimensionality mismatch")
        self.system = system
        self.config = config or SolverConfig()
        # Resolved once for every block pipeline, regrids included;
        # self.system stays the plain one (it converts initial and
        # prolonged data and is what workers unpickle).
        self._kernel_system = resolve_kernel_system(
            system, self.config.kernel_target
        )
        self.amr = amr or AMRConfig()
        self.wall_bcs = boundaries or make_boundaries("outflow")
        self.layout = BlockLayout(root_grid, self.amr.block_size)
        self.forest = AMRForest(self.layout, self.amr.max_levels)
        self.criterion = GradientCriterion(
            self.amr.refine_threshold, self.amr.coarsen_threshold
        )
        self.integrator = make_integrator(self.config.integrator)
        self._initial_data = None
        self.source_fn = source_fn
        self._pipelines: dict[BlockKey, HydroPipeline] = {}
        #: installed or migrated-in ``p_cache`` of blocks whose pipeline is
        #: not built yet; consumed by :meth:`_pipeline`
        self._pipe_state: dict[BlockKey, np.ndarray | None] = {}
        self._interior_bcs = BoundarySet(default=InteriorFace())
        # Shared across every block pipeline so timings/counters aggregate
        # over the whole forest.
        self.timers = TimerRegistry()
        self.metrics = MetricsRegistry()
        self.recorder = recorder

        self.t = 0.0
        self.steps = 0
        self.cells_updated = 0
        self.regrids = 0

    # ------------------------------------------------------------------
    # Pipelines
    # ------------------------------------------------------------------

    def _pipeline(self, key: BlockKey) -> HydroPipeline:
        pipe = self._pipelines.get(key)
        if pipe is None:
            pipe = HydroPipeline(
                self._kernel_system,
                self.forest.leaves[key].grid,
                self._interior_bcs,
                self.config,
                timers=self.timers,
                metrics=self.metrics,
            )
            pipe.store_fluxes = self.amr.reflux
            pipe.source_fn = self.source_fn
            pipe.time = self.t
            self._pipelines[key] = pipe
            pipe.install_warm_state(self._pipe_state.pop(key, None))
        return pipe

    def _drop_pipeline(self, key: BlockKey) -> None:
        """Forget a block's pipeline and any warm state staged for it."""
        self._pipelines.pop(key, None)
        self._pipe_state.pop(key, None)

    def _warm_state(self, key: BlockKey) -> np.ndarray | None:
        """``p_cache`` of one block: its pipeline's, or what is staged for
        a pipeline not built yet."""
        pipe = self._pipelines.get(key)
        if pipe is not None:
            return pipe.warm_state()
        return self._pipe_state.get(key)

    # ------------------------------------------------------------------
    # Forest state: the one capture/install pair behind AMR checkpoints,
    # the process fleet's initial states and its supervision snapshots
    # ------------------------------------------------------------------

    def forest_state(self, keys=None) -> dict:
        """Topology, counters and the ``(cons, p_cache)`` of *keys*
        (default: the leaves this driver evolves).  Leaf
        insertion order is part of the byte-level contract (every
        iteration the drivers do follows it), so it is kept verbatim."""
        return {
            "leaves": list(self.forest.leaves),
            "refined": sorted(self.forest.refined),
            "blocks": {
                key: (self.forest.leaves[key].cons.copy(), self._warm_state(key))
                for key in (self._step_keys() if keys is None else keys)
            },
            "t": self.t,
            "steps": self.steps,
            "cells_updated": self.cells_updated,
            "regrids": self.regrids,
        }

    def install_forest_state(self, state: dict) -> None:
        """Rebuild topology, block data and counters from a
        :meth:`forest_state` (leaves outside ``state["blocks"]`` are
        topology-only, as on a rank that does not own them)."""
        forest = AMRForest(self.layout, self.amr.max_levels)
        for key in state["leaves"]:
            forest.add_leaf(key, None)
        forest.refined = set(state["refined"])
        self.forest = forest
        self._pipelines = {}
        self._pipe_state = {}
        for key, (cons, p_cache) in state["blocks"].items():
            forest.leaves[key].cons = np.array(cons)
            self._pipe_state[key] = p_cache
        self.t = float(state["t"])
        self.steps = int(state["steps"])
        self.cells_updated = int(state["cells_updated"])
        self.regrids = int(state["regrids"])

    # ------------------------------------------------------------------
    # Ghosted snapshots
    # ------------------------------------------------------------------

    def _recover_leaf_prims(self) -> dict[BlockKey, np.ndarray]:
        """Recover primitives for every leaf this driver evolves, in leaf
        iteration order (warm-start caches make the order part of the
        byte-level contract)."""
        return {
            k: self._pipeline(k).recover_primitives(self.forest.leaves[k].cons)
            for k in self._step_keys()
        }

    def _fill_ghosts(self, prims: dict[BlockKey, np.ndarray]) -> None:
        """Ghost-fill hook: the distributed drivers swap in per-rank
        partial fills (plus inter-rank exchange in the process backend)."""
        self.forest.fill_ghosts(prims, self.system.nvars, self.system, self.wall_bcs)

    def _ghosted_snapshot(self) -> dict[BlockKey, np.ndarray]:
        """Recover every evolved leaf once and fill ghosts once; all regrid
        decisions and prolongations read this snapshot."""
        prims = self._recover_leaf_prims()
        self._fill_ghosts(prims)
        return prims

    # ------------------------------------------------------------------
    # Refinement operations
    # ------------------------------------------------------------------

    def _split_leaf(
        self,
        key: BlockKey,
        from_initial_data: bool = False,
        ghosted_prim: np.ndarray | None = None,
    ) -> None:
        """Refine one leaf; children get analytic data at t=0, primitives
        prolonged from the supplied ghosted snapshot afterwards."""
        children = key.children()
        child_cons: dict[BlockKey, np.ndarray] = {}
        if from_initial_data and self.t == 0.0:
            for child in children:
                grid = self.layout.grid_for(child)
                prim = self._initial_data(self.system, grid).astype(float, copy=True)
                child_cons[child] = self.system.prim_to_con(prim)
        else:
            if ghosted_prim is None:
                raise ConfigurationError(
                    f"split of {key} at t > 0 requires a ghosted snapshot"
                )
            leaf = self.forest.leaves[key]
            g = leaf.grid.n_ghost
            B = self.layout.block_size
            pad = (slice(None),) + (slice(g - 1, g + B + 1),) * self.layout.ndim
            fine_prim = prolong_array(ghosted_prim[pad], self.layout.ndim)
            for child in children:
                grid = self.layout.grid_for(child)
                child_prim = grid.allocate(self.system.nvars)
                off = child.child_offset()
                sel = (slice(None),) + tuple(
                    slice(o * B, (o + 1) * B) for o in off
                )
                grid.interior_of(child_prim)[...] = fine_prim[sel]
                # Ghosts are filled on the next stage; seed with the edge
                # values so prim_to_con stays physical.
                self.wall_bcs.apply(self.system, grid, child_prim)
                child_cons[child] = self.system.prim_to_con(child_prim)
        self.forest.split(key, child_cons)
        self._drop_pipeline(key)
        self._on_split(key)

    def _on_split(self, key: BlockKey) -> None:
        """Hook: ownership bookkeeping for the distributed drivers."""

    def _merge_siblings(
        self, parent: BlockKey, received: dict | None = None, here: bool = True
    ) -> None:
        """Coarsen a sibling group into *parent*.  The process backend
        passes the ``(parent, child)`` quarters *received* from other ranks
        and ``here=False`` on a rank that does not own the parent (a
        topology-only merge: its data lives on the owner)."""
        self._on_merge(parent)
        children = parent.children()
        cons = None
        if here:
            grid = self.layout.grid_for(parent)
            cons = grid.allocate(self.system.nvars)
            half = self.layout.block_size // 2
            for child in children:
                data = None if received is None else received.get((parent, child))
                if data is None:
                    leaf = self.forest.leaves[child]
                    data = restrict_array(
                        leaf.grid.interior_of(leaf.cons), self.layout.ndim
                    )
                off = child.child_offset()
                sel = (slice(None),) + tuple(
                    slice(o * half, (o + 1) * half) for o in off
                )
                grid.interior_of(cons)[sel] = data
        for child in children:
            self._drop_pipeline(child)
        self.forest.merge(parent, cons)

    def _on_merge(self, parent: BlockKey) -> None:
        """Hook, called while the children are still leaves: ownership
        bookkeeping for the distributed drivers."""

    def _flag_view(self, prim: np.ndarray, grid: Grid) -> np.ndarray:
        """Interior plus one ghost ring: discontinuities sitting exactly on
        a block face must still flag both neighbouring blocks."""
        g = grid.n_ghost
        sel = (slice(None),) + tuple(
            slice(g - 1, g + n + 1) for n in grid.shape
        )
        return prim[sel]

    def _initial_refine_pass(self) -> bool:
        """One sweep of refinement over the initial data; True if changed."""
        prims = self._ghosted_snapshot()
        flagged = []
        for key, leaf in self.forest.leaves.items():
            if key.level + 1 >= self.amr.max_levels:
                continue
            if self.criterion.needs_refinement(
                self.system, self._flag_view(prims[key], leaf.grid)
            ):
                flagged.append(key)
        for key in flagged:
            self._split_leaf(key, from_initial_data=True)
        return bool(flagged)

    def _enforce_balance(self, from_initial_data: bool = False) -> None:
        for _ in range(16):  # bounded: each pass strictly raises min levels
            bad = self.forest.unbalanced_leaves()
            if not bad:
                return
            prims = None
            if not (from_initial_data and self.t == 0.0):
                prims = self._ghosted_snapshot()
            for key in bad:
                if key in self.forest.leaves:
                    self._split_leaf(
                        key,
                        from_initial_data=from_initial_data,
                        ghosted_prim=None if prims is None else prims.get(key),
                    )
        raise ConfigurationError("2:1 balance did not converge")

    def regrid(self) -> None:
        """Flag, refine, coarsen, and rebalance."""
        self.regrids += 1
        prims = self._ghosted_snapshot()
        refine_flags, coarsen_ok = self._flag_leaves(prims)
        for key in refine_flags:
            if key in self.forest.leaves:
                self._split_leaf(key, ghosted_prim=prims.get(key))
        # Coarsen complete, unflagged sibling groups.
        parents: dict[BlockKey, list[BlockKey]] = {}
        for key in coarsen_ok:
            if key.level == 0 or key not in self.forest.leaves:
                continue
            parents.setdefault(key.parent(), []).append(key)
        merges = [
            parent
            for parent, kids in parents.items()
            if len(kids) == 2**self.layout.ndim
        ]
        self._merge_groups(merges)
        self._enforce_balance()
        self._post_regrid()

    def _flag_leaves(self, prims) -> tuple[list[BlockKey], list[BlockKey]]:
        """(refine, coarsen-ok) lists in leaf iteration order.  Each driver
        scores the leaves it evolves; `_combine_flags` merges the per-rank
        scores in the distributed backends."""
        order = list(self.forest.leaves)
        flags = np.zeros(len(order), dtype=np.int64)
        for i, key in enumerate(order):
            if not self._flags_here(key):
                continue
            leaf = self.forest.leaves[key]
            view = self._flag_view(prims[key], leaf.grid)
            if self.criterion.needs_refinement(self.system, view):
                if key.level + 1 < self.amr.max_levels:
                    flags[i] = 1
            elif self.criterion.allows_coarsening(self.system, view):
                flags[i] = 2
        flags = self._combine_flags(flags)
        refine = [key for key, f in zip(order, flags) if f == 1]
        coarsen = [key for key, f in zip(order, flags) if f == 2]
        return refine, coarsen

    def _flags_here(self, key: BlockKey) -> bool:
        return True

    def _combine_flags(self, flags: np.ndarray) -> np.ndarray:
        return flags

    def _merge_groups(self, merges: list[BlockKey]) -> None:
        for parent in merges:
            self._merge_siblings(parent)

    def _post_regrid(self) -> None:
        """Hook: the distributed drivers measure imbalance and repartition
        here, after the topology has settled."""

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------

    def _step_keys(self) -> list[BlockKey]:
        """The leaves this driver evolves (all of them; the process-backend
        worker narrows this to its own rank's blocks)."""
        return list(self.forest.leaves)

    def _rhs(self, cons_parts: dict[BlockKey, np.ndarray]) -> dict[BlockKey, np.ndarray]:
        # Per-block pipelines own their workspaces, so hot-path reuse is
        # safe; refluxing is too, since last_face_fluxes holds arrays of
        # its own.
        prims = {
            key: self._pipeline(key).recover_primitives(cons_parts[key], reuse=True)
            for key in cons_parts
        }
        self._fill_ghosts(prims)
        dU = {
            key: self._pipeline(key).flux_divergence(prims[key], reuse=True)
            for key in cons_parts
        }
        if self.amr.reflux:
            fluxes = {
                key: self._pipelines[key].last_face_fluxes
                for key in cons_parts
            }
            self._apply_reflux(fluxes, dU)
        if self.source_fn is not None:
            for key in cons_parts:
                self._pipeline(key).apply_source(prims[key], dU[key])
        return dU

    def _apply_reflux(self, fluxes, dU) -> None:
        from ..mesh.amr.reflux import apply_reflux

        apply_reflux(self.forest, fluxes, dU)

    def compute_dt(self, t_final: float | None = None) -> float:
        local = []
        for key in self._step_keys():
            leaf, pipe = self.forest.leaves[key], self._pipeline(key)
            prim = pipe.recover_primitives(leaf.cons, reuse=True)
            local.append(
                dt_from_axis_maxima(
                    leaf.grid, pipe.max_signal_per_axis(prim), self.config.cfl
                )
            )
        dt = self._reduce_dt(min(local) if local else float("inf"))
        return clip_dt_to_final(dt, self.t, t_final)

    def _reduce_dt(self, local_min: float) -> float:
        """Reduction hook: min over ranks in the process backend.  A global
        min over per-leaf dt values is a *selection*, so reducing per-rank
        minima is bit-identical to the serial min."""
        return local_min

    def _integrate(self, dt: float) -> None:
        advanced = self._integrate_parts(
            {k: self.forest.leaves[k].cons for k in self._step_keys()},
            dt, self._rhs, self._pipeline,
        )
        for key, cons in advanced.items():
            self.forest.leaves[key].cons = cons

    def _block_name(self, key: BlockKey) -> str:
        """How error messages name a leaf (the distributed drivers prefix
        the owning rank)."""
        return f"block {key}"

    def _patches(self):
        for key in self._step_keys():
            leaf = self.forest.leaves[key]
            yield (
                f"{self._block_name(key)}, ",
                self._pipeline(key),
                leaf.grid.interior_of(leaf.cons),
            )

    def _after_step(self, dt: float) -> None:
        """Count the step's leaf-cell RK-stage updates and run a due
        regrid — after the finite guard, so a regrid never prolongs or
        restricts NaNs.  No ``solver.dt`` observation: the golden AMR
        stream has none (golden-regeneration debt)."""
        self._step_cells = self.forest.n_leaf_cells() * self.integrator.stages
        self.cells_updated += self._step_cells
        if self.steps % self.amr.regrid_interval == 0:
            self.regrid()

    def _record_extras(self) -> dict:
        return {"amr": self._amr_record(self._step_cells)}

    # bench/trace.py patches AMRSolver.__dict__["step"]: bound here, not
    # inherited.
    step = Driver.step

    def write_checkpoint(self, path) -> None:
        # Deferred import: repro.io imports this module.
        from ..io.checkpoint import save_amr_checkpoint

        save_amr_checkpoint(self, path)

    def _amr_record(self, step_cells: int) -> dict:
        return {
            "n_leaves": len(self.forest.leaves),
            "cells_updated": step_cells,
            "regrids": self.regrids,
            "leaves_by_level": {
                str(lvl): n
                for lvl, n in sorted(self.leaf_count_by_level().items())
            },
        }

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def composite_primitives(self, level: int | None = None):
        """(grid, interior prim array) of the composite at *level*
        (finest active level by default)."""
        prims = {
            k: self._pipeline(k).recover_primitives(leaf.cons)
            for k, leaf in self.forest.leaves.items()
        }
        target = self.forest.finest_level() if level is None else level
        composites = self.forest.composite_levels(
            prims, self.system.nvars, self.system, self.wall_bcs, up_to_level=target
        )
        grid, arr = composites[target]
        return grid, grid.interior_of(arr)

    def leaf_count_by_level(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for key in self.forest.leaves:
            out[key.level] = out.get(key.level, 0) + 1
        return out
