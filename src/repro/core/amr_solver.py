"""Adaptive-mesh-refinement solver driver.

Evolves the leaf blocks of an :class:`~repro.mesh.amr.forest.AMRForest`
with the same HRSC pipeline as the unigrid solver: shared global time step
(no subcycling), ghost zones filled per RK stage as the composite-level
snapshots define them, gradient-based regridding with 2:1 balance
enforcement.

The headline accounting for experiment E11 is :attr:`cells_updated` — the
number of leaf-cell RK-stage updates actually performed — against the error
measured on the composite solution.

The leaves step in stacks by the distributed ranks' rule
(:func:`~repro.core.pipeline.patch_stacks`): every leaf has the block
shape and carries its own ``dx``, so the evolved leaves of every level are
one array stepped by one pipeline, one kernel call per stage.
``forest.leaves[key].cons`` views its stack.  Ghost fill and reflux run
gather programs compiled once per topology, ownership and stack layout
(:meth:`AMRForest.ghost_plan <repro.mesh.amr.forest.AMRForest.ghost_plan>`,
:func:`~repro.mesh.amr.reflux.compile_reflux`) — one kernel call each on
``cext`` — and flagging scores a stack in one indicator pass, so a stage
makes a few calls, not a few per leaf; a change of leaf set or owners
drops the plans and re-keys the stacks before they step.

Every leaf belongs to one of ``n_ranks`` ranks (Morton space-filling-curve
partition, :mod:`repro.mesh.amr.partition`), and the driver steps the ranks
it holds over a communicator, as
:class:`~repro.core.distributed.DistributedSolver` does: every rank over a
:class:`~repro.comm.communicator.SimCommunicator` in this process, or one
rank over a :class:`~repro.comm.shm.ShmCommunicator` inside a process
worker (:mod:`repro.core.amr_parallel`).  Either way halo interiors, fine
face-flux columns, merge quarters and checksummed block-migration frames
travel as messages, and refinement flags and dt reduce through the
communicator's exact collectives — one code path, so the block bytes are
the same at every rank count and on every executor.  Ghosts of a rank's
leaves are read from a partial composite of its own leaves plus the
interiors it imports — exactly those its ghost program's walk loads —
bitwise equal to the global fill because the composites consume only
block interiors.

Every regrid decision is made from one *ghosted snapshot* (the primitive
cache ``_prims()``, ghosts filled once) and applied in the forest's leaf
iteration order, so the sequence of topology changes is a deterministic
function of the snapshot: each rank flags only the leaves it owns, the
flags are combined, and every rank replays the identical split/merge
sequence on its replicated topology.  After a regrid the driver measures
rank imbalance (max/mean rank work) and, above
``AMRConfig.rebalance_threshold``, recuts the curve and migrates blocks to
their new owners.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..boundary.conditions import BoundarySet, InteriorFace, make_boundaries
from ..comm.communicator import SimCommunicator
from ..mesh.amr.blocks import BlockKey, BlockLayout
from ..mesh.amr.criteria import GradientCriterion
from ..mesh.amr.exchange import (
    TAG_AMR_FLUX,
    TAG_AMR_HALO,
    TAG_AMR_MERGE,
    TAG_AMR_MIGRATE,
    block_frame_header,
    check_block_frame,
    check_block_payload,
    measured_imbalance,
    merge_plan,
    migration_plan,
    rank_loads,
    reflux_plan,
)
from ..mesh.amr.forest import AMRForest, run_program
from ..mesh.amr.partition import PARTITIONERS
from ..mesh.amr.reflux import compile_reflux
from ..mesh.amr.transfer import prolong_array, restrict_array
from ..mesh.grid import Grid
from ..obs.metrics import MetricsRegistry
from ..physics.srhd import SRHDSystem
from ..time_integration.ssprk import make_integrator
from ..utils.errors import ConfigurationError
from ..utils.parameters import ParameterSet, param
from ..utils.timers import TimerRegistry
from .config import SolverConfig
from .pipeline import HydroPipeline, PatchStack, PatchViews, patch_stacks, recover_stacks
from .pipeline import resolve_kernel_system
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
        "leaf-to-rank partitioner for the initial cut and every rebalance",
    )


class AMRSolver(Driver):
    """Block-structured AMR evolution of the SRHD system; the evolved leaves
    step as one stack through one pipeline (:meth:`leaf_pipeline`).

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
        forest shape (leaf counts, cells updated, rank balance) alongside
        the shared kernel timings and counters of every stack pipeline.
    n_ranks:
        Ranks the leaves are partitioned over, all stepped in this process
        over a :class:`~repro.comm.communicator.SimCommunicator`
        (:class:`~repro.core.amr_parallel.AMRProcessSolver` runs one worker
        process per rank instead).  The block bytes do not depend on it.
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
        n_ranks: int = 1,
    ):
        if n_ranks < 1:
            raise ConfigurationError(f"n_ranks must be >= 1, got {n_ranks}")
        self._init_core(
            system, root_grid, config, amr, boundaries, recorder, source_fn,
            range(n_ranks), SimCommunicator(n_ranks),
        )
        self._initial_data = initial_data

        # Root tiling from the analytic initial data.
        for key in self.layout.root_keys():
            grid = self.layout.grid_for(key)
            prim = initial_data(system, grid).astype(float, copy=True)
            self.forest.add_leaf(key, system.prim_to_con(prim))
        # Rank 0 holds every leaf while the initial refinement sweeps
        # resolve features present at t = 0; the settled forest is then cut.
        self.assignment = dict.fromkeys(self.forest.leaves, 0)
        for _ in range(self.amr.initial_regrid_passes):
            if not self._initial_refine_pass():
                break
        self._enforce_balance(from_initial_data=True)
        self._partition()
        self._stacks_now()  # every topology change ends re-keyed: steps find them current

    def _init_core(
        self,
        system: SRHDSystem,
        root_grid: Grid,
        config: SolverConfig | None,
        amr: AMRConfig | None,
        boundaries: BoundarySet | None,
        recorder: "StepRecorder | None",
        source_fn,
        local_ranks,
        comm,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        """Everything except seeding the forest, for the ranks this stepper
        holds.

        The public constructor holds every rank over a
        :class:`SimCommunicator`; the process-backend rank worker holds one
        (``local_ranks=(rank,)``) over a
        :class:`~repro.comm.shm.ShmCommunicator` built on *metrics*, and
        installs a shipped forest state instead of evaluating
        ``initial_data`` — the same class steps both, which is what keeps
        the executors bit-identical.
        """
        if system.ndim != root_grid.ndim:
            raise ConfigurationError("system/grid dimensionality mismatch")
        self.system = system
        self.config = config or SolverConfig()
        # Resolved once for every stack pipeline, regrids included;
        # self.system stays the plain one (it converts initial and
        # prolonged data and is what workers unpickle).
        self._kernel_system = resolve_kernel_system(
            system, self.config.kernel_target
        )
        self.amr = amr or AMRConfig()
        self.wall_bcs = boundaries or make_boundaries("outflow")
        self.periodic = tuple(
            self.wall_bcs.condition(ax, 0).name == "periodic"
            for ax in range(root_grid.ndim)
        )
        self.layout = BlockLayout(root_grid, self.amr.block_size)
        self.forest = AMRForest(self.layout, self.amr.max_levels, self.periodic)
        self.criterion = GradientCriterion(
            self.amr.refine_threshold, self.amr.coarsen_threshold
        )
        self.integrator = make_integrator(self.config.integrator)
        self._initial_data = None
        self.source_fn = source_fn
        self.comm = comm
        self.n_ranks = comm.size
        self.local_ranks = tuple(local_ranks)
        #: leaf -> owning rank, replicated on every rank
        self.assignment: dict[BlockKey, int] = {}
        #: the stacks the evolved leaves step in; ``forest.leaves[key].cons``
        #: views their committed state, ``self._cons``; re-keyed when due
        self._stacks: list[PatchStack] = []
        self._invalidate_plans()
        self._interior_bcs = BoundarySet(default=InteriorFace())
        # Shared across every stack pipeline so timings/counters aggregate
        # over the whole forest.
        self.timers = TimerRegistry()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.recorder = recorder

        self.t = 0.0
        self.steps = 0
        self.cells_updated = 0
        self.regrids = 0
        self.repartitions = 0
        self.migrated_blocks = 0
        self._last_imbalance = 1.0

    # ------------------------------------------------------------------
    # Stacks
    # ------------------------------------------------------------------

    def _stacks_now(self) -> list[PatchStack]:
        """The stacks, re-keyed first if the leaves or owners changed."""
        if self._restack_due:
            self._restack()
        return self._stacks

    def _restack(self, installed: dict | None = None) -> None:
        """Re-key the stacks over the evolved leaves and install each leaf's
        ``(cons, p_cache)``: *installed*'s, else its old stack's, else (a
        leaf born since) its ``cons`` with a cold seed.  The leaves then view
        the stacks; a run of unchanged leaves keeps its pipeline."""
        leaves = self.forest.leaves
        patches = {**self._capture_patches(), **(installed or {})}
        self._stacks = patch_stacks(
            self._kernel_system, self.config,
            ((key, leaves[key].grid, self._interior_bcs, ()) for key in self._step_keys()),
            kept=self._stacks, timers=self.timers, metrics=self.metrics,
        )
        for st in self._stacks:
            st.pipeline.store_fluxes = self.amr.reflux
            st.pipeline.source_fn = self.source_fn
            st.pipeline.time = self.t
        self._restack_due = False
        self._ghost_plan = self._reflux_plan = None  # compiled for the old layout
        self._install_patches({
            k: patches.get(k) or (leaves[k].cons, None) for k in self._step_keys()
        })
        for key in self._step_keys():  # each read views the state committed then
            leaves[key].view = lambda k: self._cons[k]

    def leaf_pipeline(self, key: BlockKey) -> tuple[HydroPipeline, int]:
        """The pipeline of the stack leaf *key* steps in, and the leaf's
        patch index there (``warm_state(i)``, ``face_fluxes(i)``)."""
        for st in self._stacks_now():
            if key in st.idents:
                return st.pipeline, st.idents.index(key)
        raise KeyError(key)

    # ------------------------------------------------------------------
    # Driver state: topology, ownership and counters beside the patches
    # ------------------------------------------------------------------

    def state(self) -> dict:
        """Topology, ownership, counters and the ``(cons, p_cache)`` of
        every leaf this stepper evolves.  Leaf insertion order is part of
        the byte-level contract (every iteration the drivers do follows
        it), so it is kept verbatim."""
        return {
            **super().state(),
            "leaves": list(self.forest.leaves),
            "refined": sorted(self.forest.refined),
            "assignment": dict(self.assignment),
            "cells_updated": self.cells_updated,
            "regrids": self.regrids,
            "repartitions": self.repartitions,
            "migrated_blocks": self.migrated_blocks,
            "imbalance": self._last_imbalance,
        }

    def install_state(self, state: dict) -> None:
        """Rebuild topology, ownership and counters from a :meth:`state`
        and install the patches of the leaves this stepper evolves (the
        others are topology only, as on a rank that does not own them).  A
        state without ``assignment`` — an archive's — is cut afresh over
        this driver's ``n_ranks``."""
        forest = AMRForest(self.layout, self.amr.max_levels, self.periodic)
        for key in state["leaves"]:
            forest.add_leaf(key, None)
        forest.refined = set(state["refined"])
        self.forest = forest
        self.t = float(state["t"])
        self.steps = int(state["steps"])
        self.cells_updated = int(state["cells_updated"])
        self.regrids = int(state["regrids"])
        self.repartitions = int(state.get("repartitions", 0))
        self.migrated_blocks = int(state.get("migrated_blocks", 0))
        if "assignment" in state:
            self.assignment = dict(state["assignment"])
            self._invalidate_plans()
            self._last_imbalance = float(state["imbalance"])
        else:
            self._partition()
        self._restack(state["patches"])

    # ------------------------------------------------------------------
    # Ownership and the plans derived from it
    # ------------------------------------------------------------------

    def _invalidate_plans(self) -> None:
        """Forget what derives from topology + ownership, the stacks and
        the plans compiled over them included; every change of either
        calls this."""
        self._ghost_plan = self._reflux_plan = self._owned = None
        self._restack_due = True

    def _get_ghost_plan(self):
        """``(GatherProgram, imports)`` over the current stacks.  Each rank
        has a composite slot and may import every leaf it does not own; its
        imports are the ones its ghost walk loads, ``(key, rank)`` rows in
        import-buffer order, each sent by the key's owner.  Ranks held
        elsewhere are walked too (:meth:`AMRForest.ghost_plan`), so every
        stepper derives the same imports and knows what it must send."""
        if self._ghost_plan is None:
            owner, leaves = self.assignment, self.forest.leaves
            stacks = [[(k, owner[k]) for k in st.idents] for st in self._stacks]
            others = [(k, owner[k]) for k in leaves if not self._flags_here(k)]
            candidates = [(k, r) for r in range(self.n_ranks) for k in leaves if owner[k] != r]
            self._ghost_plan = self.forest.ghost_plan(
                stacks, [candidates], self.n_ranks, self.system.nvars, self.system,
                self.wall_bcs, targets=[others],
            )
        return self._ghost_plan

    def _get_reflux_plan(self):
        """``(sends, RefluxPlan)``: the fine columns each held rank owes
        others (:func:`~repro.mesh.amr.exchange.reflux_plan`) and the
        compiled correction of the held coarse leaves."""
        if self._reflux_plan is None:
            sends = reflux_plan(self.forest, self.assignment)
            remote = [
                entry for (_src, dst), entries in sends.items()
                if dst in self.local_ranks for entry in entries
            ]
            self._reflux_plan = sends, compile_reflux(
                self.forest, [st.idents for st in self._stacks], self.system.nvars, remote
            )
        return self._reflux_plan

    def _flags_here(self, key: BlockKey) -> bool:
        """Whether one of this stepper's ranks owns — evolves and flags —
        leaf *key*."""
        return self.assignment[key] in self.local_ranks

    def _step_keys(self) -> list[BlockKey]:
        """The leaves this stepper evolves, in leaf iteration order."""
        if self._owned is None:
            self._owned = [k for k in self.forest.leaves if self._flags_here(k)]
        return self._owned

    def _owns_metrics(self) -> bool:
        """Once-per-fleet observations (``solver.dt``, rebalance counters,
        the imbalance gauge) belong to whichever stepper holds rank 0."""
        return self.local_ranks[0] == 0

    @property
    def imbalance(self) -> float:
        """Most recently measured rank-work imbalance (max/mean)."""
        return self._last_imbalance

    def _measure_imbalance(self) -> float:
        loads = rank_loads(self.forest, self.assignment, self.n_ranks)
        imbalance = measured_imbalance(loads)
        self._last_imbalance = imbalance
        if self._owns_metrics():
            self.metrics.gauge("amr.imbalance").set(imbalance)
        return imbalance

    def _partition(self) -> None:
        """Cut the current forest over ``n_ranks`` and measure the cut."""
        part = PARTITIONERS[self.amr.partitioner](self.forest, self.n_ranks)
        self.assignment = dict(part.assignment)
        self._invalidate_plans()
        self._measure_imbalance()

    # ------------------------------------------------------------------
    # Ghosted snapshots
    # ------------------------------------------------------------------

    def _fill_ghosts(self, prims: PatchViews) -> None:
        """Fill the ghosts of the evolved leaves, *prims* of the current
        stacks: every rank posts the interiors other ranks' fills read,
        each received one, its shape checked, lands in its import-buffer
        row, and the ghost program reads every held rank's leaves plus its
        imports — one compiled call on ``cext``."""
        plan, imports = self._get_ghost_plan()
        comm, owner = self.comm, self.assignment
        marker = comm.traffic_marker()
        comm.begin_exchange_epoch()
        for key, dst in imports:
            if owner[key] in self.local_ranks:
                interior = self.forest.leaves[key].grid.interior_of(prims[key])
                comm.send(owner[key], dst, interior, tag=TAG_AMR_HALO)
        rows = [(key, dst) for key, dst in imports if dst in self.local_ranks]
        block = (self.system.nvars,) + (self.layout.block_size,) * self.layout.ndim
        buffer = np.empty((len(rows),) + block)
        for row, (key, dst) in zip(buffer, rows):
            src = owner[key]
            row[...] = check_block_payload(
                np.asarray(comm.recv(src, dst, tag=TAG_AMR_HALO)), block,
                f"rank {src}'s ghost import", key,
            )
        self.forest.fill_ghosts(plan, prims.stacks, [buffer] if rows else [], self._kernel_system)
        self._count_halo_traffic(marker)

    def _count_halo_traffic(self, marker) -> None:
        """``comm.amr.halo_*``: what this stepper's ranks sent since
        *marker* (summed over the process workers, the in-process count)."""
        messages = self.comm.messages_since(marker)
        if messages:
            self.metrics.counter("comm.amr.halo_messages").inc(messages)
            self.metrics.counter("comm.amr.halo_bytes").inc(
                self.comm.bytes_since(marker)
            )

    def _exchange(self, prims: PatchViews) -> None:
        """``_prims()``'s ghost hook: its cache is ghosted once, when made."""
        self._fill_ghosts(prims)

    def _ghosted_snapshot(self) -> PatchViews:
        """``_prims()`` of the current stacks — re-keyed first, so a cache
        from before a split is never read; all regrid decisions and
        prolongations read this snapshot, and a regrid that changes no leaf
        leaves it, ghosts and all, to the next step."""
        self._stacks_now()
        return self._prims()

    # ------------------------------------------------------------------
    # Refinement operations
    # ------------------------------------------------------------------

    def _split_leaf(
        self,
        key: BlockKey,
        from_initial_data: bool = False,
        ghosted_prim: np.ndarray | None = None,
    ) -> None:
        """Refine one leaf; its children stay with its owner.  There they
        get analytic data at t=0, primitives prolonged from the supplied
        ghosted snapshot afterwards; on other ranks the split is topology
        only."""
        children = key.children()
        owner = self.assignment.pop(key)
        here = owner in self.local_ranks
        child_cons: dict[BlockKey, np.ndarray | None] = dict.fromkeys(children)
        if here and from_initial_data and self.t == 0.0:
            for child in children:
                grid = self.layout.grid_for(child)
                prim = self._initial_data(self.system, grid).astype(float, copy=True)
                child_cons[child] = self.system.prim_to_con(prim)
        elif here:
            if ghosted_prim is None:
                raise ConfigurationError(
                    f"split of {key} at t > 0 requires a ghosted snapshot"
                )
            g, B = self.layout.n_ghost, self.layout.block_size
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
        self.assignment.update(dict.fromkeys(children, owner))
        self._invalidate_plans()

    def _merge_groups(self, merges: list[BlockKey]) -> None:
        """Coarsen each sibling group into its parent, which goes to the
        first child's owner; quarters restricted on other ranks arrive
        there as messages, and other ranks merge topology only."""
        ndim = self.layout.ndim
        half = self.layout.block_size // 2
        plan = merge_plan(merges, self.assignment)
        for _parent, child, src, dst in plan:
            if src in self.local_ranks:
                leaf = self.forest.leaves[child]
                self.comm.send(
                    src, dst,
                    restrict_array(leaf.grid.interior_of(leaf.cons), ndim),
                    tag=TAG_AMR_MERGE,
                )
        qshape = (self.system.nvars,) + (half,) * ndim
        received = {
            (parent, child): check_block_payload(
                np.asarray(self.comm.recv(src, dst, tag=TAG_AMR_MERGE)),
                qshape, "merge quarter", child,
            )
            for parent, child, src, dst in plan
            if dst in self.local_ranks
        }
        for parent in merges:
            children = parent.children()
            owner = self.assignment[children[0]]
            cons = None
            if owner in self.local_ranks:
                grid = self.layout.grid_for(parent)
                cons = grid.allocate(self.system.nvars)
                for child in children:
                    data = received.get((parent, child))
                    if data is None:
                        leaf = self.forest.leaves[child]
                        data = restrict_array(leaf.grid.interior_of(leaf.cons), ndim)
                    sel = (slice(None),) + tuple(
                        slice(o * half, (o + 1) * half) for o in child.child_offset()
                    )
                    grid.interior_of(cons)[sel] = data
            for child in children:
                del self.assignment[child]
            self.assignment[parent] = owner
            self.forest.merge(parent, cons)
            self._invalidate_plans()

    def _initial_refine_pass(self) -> bool:
        """One sweep of refinement over the initial data; True if changed."""
        flagged = self._flag_leaves(self._ghosted_snapshot())[0]
        for key in flagged:
            self._split_leaf(key, from_initial_data=True)
        return bool(flagged)

    def _enforce_balance(self, from_initial_data: bool = False) -> None:
        for _ in range(16):  # bounded: each pass strictly raises min levels
            bad = self.forest.unbalanced_leaves()
            if not bad:
                return
            prims = None if from_initial_data and self.t == 0.0 else self._ghosted_snapshot()
            for key in bad:
                if key in self.forest.leaves:
                    ghosted = None if prims is None else prims.get(key)
                    self._split_leaf(key, from_initial_data, ghosted)
        raise ConfigurationError("2:1 balance did not converge")

    def regrid(self) -> None:
        """Flag, refine, coarsen, restore 2:1 balance, then rebalance the
        ranks."""
        self.regrids += 1
        prims = self._ghosted_snapshot()
        refine_flags, coarsen_ok = self._flag_leaves(prims)
        for key in refine_flags:
            if key in self.forest.leaves:
                self._split_leaf(key, ghosted_prim=prims.get(key))
        # Coarsen complete, unflagged sibling groups.
        parents: dict[BlockKey, list[BlockKey]] = {}
        for key in coarsen_ok:
            if key.level and key in self.forest.leaves:
                parents.setdefault(key.parent(), []).append(key)
        self._merge_groups([p for p, kids in parents.items() if len(kids) == 2**self.layout.ndim])
        self._enforce_balance()
        self._post_regrid()
        self._stacks_now()

    def _flag_leaves(self, prims) -> tuple[list[BlockKey], list[BlockKey]]:
        """(refine, coarsen-ok) lists in leaf iteration order.  Each rank
        scores the leaves it owns, one indicator per stack over their
        interiors plus one ghost ring (a discontinuity sitting exactly on a
        block face must still flag both neighbouring blocks);
        :meth:`_combine_flags` merges the per-rank scores."""
        order = list(self.forest.leaves)
        position = {key: i for i, key in enumerate(order)}
        flags = {rank: np.zeros(len(order), dtype=np.int64) for rank in self.local_ranks}
        g, B = self.layout.n_ghost, self.layout.block_size
        ring = (slice(None), slice(None)) + (slice(g - 1, g + B + 1),) * self.layout.ndim
        for st, prim in zip(self._stacks, prims.stacks):
            scores = self.criterion.patch_flags(self.system, prim[ring])
            for key, refine, coarsen in zip(st.idents, *scores):
                if coarsen or refine and key.level + 1 < self.amr.max_levels:  # never both
                    flags[self.assignment[key]][position[key]] = 1 if refine else 2
        combined = self._combine_flags(flags)
        return tuple([k for k, f in zip(order, combined) if f == flag] for flag in (1, 2))

    def _combine_flags(self, flags: dict[int, np.ndarray]) -> np.ndarray:
        """Every rank's flags, summed (each leaf is scored by one rank)."""
        return self.comm.allreduce(flags, "sum")[self.local_ranks[0]]

    # ------------------------------------------------------------------
    # Dynamic rebalancing
    # ------------------------------------------------------------------

    def _post_regrid(self) -> None:
        """Measure rank imbalance after the topology has settled and, above
        the threshold, recut the curve and migrate blocks."""
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
        """Ship departing blocks as checksummed frames, validate every
        incoming frame, then clear the departed blocks and install the
        arrived ones — a torn or corrupt frame raises
        :class:`~repro.utils.errors.BlockMigrationError` before any forest
        state changes.  Clearing precedes installing because in one
        address space a moved block is both departing and arriving."""
        for key, src, dst in moves:
            if src not in self.local_ranks:
                continue
            leaf = self.forest.leaves[key]
            pipeline, i = self.leaf_pipeline(key)
            p_cache = pipeline.warm_state(i)
            header = block_frame_header(key, leaf.cons, p_cache)
            self.comm.send(src, dst, header, tag=TAG_AMR_MIGRATE)
            self.comm.send(src, dst, leaf.cons, tag=TAG_AMR_MIGRATE)
            if p_cache is not None:
                self.comm.send(src, dst, p_cache, tag=TAG_AMR_MIGRATE)
        staged_in = []
        for key, src, dst in moves:
            if dst not in self.local_ranks:
                continue
            grid = self.forest.leaves[key].grid
            gshape = (self.system.nvars,) + grid.shape_with_ghosts
            header = self.comm.recv(src, dst, tag=TAG_AMR_MIGRATE)
            has_pcache = check_block_frame(header, key, gshape)
            cons = check_block_payload(
                np.asarray(self.comm.recv(src, dst, tag=TAG_AMR_MIGRATE)),
                gshape, "cons", key,
            )
            p_cache = None
            if has_pcache:
                # The con2prim warm-start cache holds only the pressure
                # variable over the block interior.
                p_cache = check_block_payload(
                    np.asarray(self.comm.recv(src, dst, tag=TAG_AMR_MIGRATE)),
                    tuple(grid.shape), "p_cache", key,
                )
            staged_in.append((key, cons, p_cache))
        # Validate-all, then clear, then install: nothing above mutated
        # the forest.
        for key, src, _dst in moves:
            if src in self.local_ranks:
                self.forest.leaves[key].cons = None
        self.assignment = dict(new_assignment)
        self._invalidate_plans()
        self._restack({key: (cons, p_cache) for key, cons, p_cache in staged_in})

    def _emit_rebalance_event(self, **payload) -> None:
        if self.recorder is not None:
            self.recorder.emit_event("amr_rebalance", step=self.steps, **payload)

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------

    def _rhs(self, states: list) -> PatchViews:
        """RHS of every stack state, ``{leaf: view}``.  RK stage 1 steps
        from ``_prims()``'s cache when it is their recovery (its ghosts
        filled by :meth:`_exchange`); otherwise each stack pipeline recovers
        into its own workspace, so per-stack reuse is safe.  Refluxing is
        too, since ``last_face_fluxes`` holds arrays of its own."""
        stacks = self._stacks
        prims = self._committed_prims(states)
        if prims is None:
            prims = recover_stacks(stacks, states, reuse=True)
            self._fill_ghosts(prims)
        dU = PatchViews.of(stacks, [
            st.pipeline.flux_divergence(prim)
            for st, prim in zip(stacks, prims.stacks)
        ])
        if self.amr.reflux:
            self._apply_reflux(dU)
        for st, prim, div in zip(stacks, prims.stacks, dU.stacks):
            st.pipeline.apply_source(prim, div)
        return dU

    def _apply_reflux(self, dU: PatchViews) -> None:
        """Correct the evolved coarse leaves' ``dU`` (of the current
        stacks) at coarse-fine faces by the compiled reflux plan; fine
        face-flux columns owned by other ranks arrive as messages, each,
        its shape checked, into its row of the plan's per-axis buffer."""
        # Looked up per call: bench/trace.py patches the module attribute.
        from ..mesh.amr.reflux import apply_reflux

        sends, plan = self._get_reflux_plan()
        B = self.layout.block_size
        marker = self.comm.traffic_marker()
        for (src, dst), entries in sends.items():
            if src in self.local_ranks:
                for child, axis in entries:
                    # The child's face on its parent's boundary.
                    pipeline, i = self.leaf_pipeline(child)
                    face = pipeline.last_face_fluxes[axis][:, i, ..., B * child.child_offset()[axis]]
                    self.comm.send(src, dst, np.ascontiguousarray(face), tag=TAG_AMR_FLUX)
        column = (self.system.nvars,) + (B,) * (self.layout.ndim - 1)
        remote = {axis: np.empty((len(rows),) + column) for axis, rows in plan.remote.items()}
        for (src, dst), entries in sends.items():
            if dst in self.local_ranks:
                for child, axis in entries:
                    remote[axis][plan.remote[axis][child]] = check_block_payload(
                        np.asarray(self.comm.recv(src, dst, tag=TAG_AMR_FLUX)), column,
                        f"rank {src}'s reflux column", child,
                    )
        apply_reflux(
            plan, [st.pipeline.last_face_fluxes for st in self._stacks], dU.stacks, remote,
            self._kernel_system,
        )
        messages = self.comm.messages_since(marker)
        if messages:
            self.metrics.counter("comm.amr.reflux_messages").inc(messages)

    # bench/trace.py patches AMRSolver.__dict__["compute_dt"]: bound here,
    # not inherited.
    compute_dt = Driver.compute_dt

    def _reduce_dt(self, dt: float) -> float:
        """Min over ranks.  A global min over per-leaf dt values is a
        *selection*, so reducing the held leaves' minimum, whichever ranks
        hold them, is bit-identical to the one-rank min."""
        out = self.comm.allreduce(
            {rank: np.asarray([dt]) for rank in self.local_ranks}, "min"
        )
        return float(out[self.local_ranks[0]][0])

    _finite_interior = True

    def _patches(self):
        for st in self._stacks:
            for key in st.idents:
                leaf = self.forest.leaves[key]
                # Error messages name a leaf's owner once there are ranks.
                owner = "" if self.n_ranks == 1 else f"rank {self.assignment[key]}, "
                yield f"{owner}block {key}, ", st.pipeline, leaf.grid.interior_of(leaf.cons)

    def _after_step(self, dt: float) -> None:
        """Observe ``solver.dt`` (once per fleet), count the step's
        leaf-cell RK-stage updates and run a due regrid — after the finite
        guard, so a regrid never prolongs or restricts NaNs."""
        if self._owns_metrics():
            super()._after_step(dt)
        self._step_cells = self.forest.n_leaf_cells() * self.integrator.stages
        self.cells_updated += self._step_cells
        if self.steps % self.amr.regrid_interval == 0:
            self.regrid()

    def _record_extras(self) -> dict:
        loads = rank_loads(self.forest, self.assignment, self.n_ranks)
        cells = self.layout.cells_per_block()
        return {"amr": {
            "n_leaves": len(self.forest.leaves),
            "cells_updated": self._step_cells,
            "regrids": self.regrids,
            "leaves_by_level": {
                str(lvl): n
                for lvl, n in sorted(self.leaf_count_by_level().items())
            },
            "imbalance": self._last_imbalance,
            "migrated_blocks": self.migrated_blocks,
            "repartitions": self.repartitions,
            "rank_blocks": {
                str(r): int(loads[r] // cells) for r in range(self.n_ranks)
            },
        }}

    # bench/trace.py patches AMRSolver.__dict__["step"]: bound here, not
    # inherited.
    step = Driver.step

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def composite_primitives(self, level: int | None = None):
        """(grid, interior prim array) of the composite at *level*
        (finest active level by default)."""
        prims = self._prims()
        target = self.forest.finest_level() if level is None else level
        plan, _ = self.forest.ghost_plan(
            [[(k, 0) for k in st.idents] for st in self._stacks], [], 1,
            self.system.nvars, self.system, self.wall_bcs, level=target,
        )
        root = self.layout.root_grid
        grid = root.refined(2**target) if target else root
        out = np.empty((self.system.nvars,) + grid.shape)
        run_program(plan, [*prims.stacks, out], self._kernel_system)
        return grid, out

    def leaf_count_by_level(self) -> dict[int, int]:
        return dict(Counter(key.level for key in self.forest.leaves))
