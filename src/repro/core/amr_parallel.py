"""Process-backend executor for the distributed AMR driver.

:class:`AMRProcessSolver` runs one :class:`_AMRRankWorker` process per rank
in lockstep, reusing the fleet machinery of
:class:`~repro.core.parallel.ProcessSolver` (spawn/collect protocol,
supervised rank recovery, process-fault injection) with forest-shaped
workers instead of Cartesian sub-grid workers.

Bit-exactness contract: every rank holds the full replicated forest
*topology* and the per-step decision state (flags, merges, repartition
triggers) is combined through exact integer/selection reductions, so the
worker fleet replays the identical split/merge/migrate sequence as the
serial :class:`~repro.core.amr_distributed.DistributedAMRSolver` — and the
evolved block bytes match the serial :class:`~repro.core.amr_solver.
AMRSolver` exactly, before and after every block migration and across
supervised rank failures.

Construction happens once, in the parent: a serial prototype solver seeds
the forest from ``initial_data`` (which may be an unpicklable lambda), and
each worker receives its rank's blocks plus the replicated topology as
plain arrays.  Rank 0 additionally inherits the prototype's metric and
timer baselines so merged step records reproduce the serial stream.
"""

from __future__ import annotations

import time

import numpy as np

from ..boundary.conditions import BoundarySet
from ..comm.shm import SupervisionBoard, amr_channel_capacities
from ..mesh.amr.blocks import BlockKey
from ..mesh.amr.exchange import (
    TAG_AMR_HALO,
    TAG_AMR_FLUX,
    TAG_AMR_MERGE,
    TAG_AMR_MIGRATE,
    block_frame_header,
    check_block_frame,
    check_block_payload,
    face_flux_column,
    merge_plan,
)
from ..mesh.amr.reflux import apply_reflux
from ..mesh.amr.transfer import restrict_array
from ..mesh.grid import Grid
from ..obs.events import BufferSink
from ..obs.recorder import StepRecorder
from ..physics.srhd import SRHDSystem
from ..utils.errors import ConfigurationError
from .amr_distributed import DistributedAMRSolver
from .amr_solver import AMRConfig, AMRSolver
from .config import SolverConfig
from .parallel import ProcessSolver, _WorkerShell, serial_factory_kwargs


def _validate_amr_plan(fault_injector) -> None:
    plan = getattr(fault_injector, "plan", None)
    if plan is not None and (
        plan.halo or plan.devices or plan.con2prim or plan.halo_random
    ):
        raise ConfigurationError(
            "the distributed AMR driver supports only process faults "
            "(kill_rank/hang_rank); logical halo/device/con2prim faults "
            "target the Cartesian executors"
        )


class _AMRRankWorker(_WorkerShell, DistributedAMRSolver):
    """One rank of the distributed AMR run, inside a worker process.

    Inherits the full decision logic of :class:`DistributedAMRSolver` and
    swaps the rank loop for real shm-ring exchange: halo interiors, fine
    face-flux columns, merge quarters, and checksummed block-migration
    frames travel between ranks, while flags and dt reduce through the
    communicator's exact collectives.  The process-side protocol (ring
    attachment, barrier-then-step, snapshots, rebinding) is the shared
    :class:`~repro.core.parallel._WorkerShell`.
    """

    def __init__(self, spec, board: SupervisionBoard):
        p = spec.payload
        self.n_ranks = spec.size
        self.assignment = None
        self._init_distributed_state()
        self._init_core(
            p["system"], p["root_grid"], p["config"], p["amr"],
            p["wall_bcs"], None, p["source_fn"],
        )
        self.recorder = StepRecorder(BufferSink())
        self.comm = self._attach(spec, board, self.metrics)
        #: initial :meth:`~AMRSolver.forest_state` of this rank (rank 0's
        #: also carries the prototype's ``metrics``/``timers`` baselines)
        state = p["state"]
        self.install_forest_state(state)
        if "metrics" in state:
            self.metrics.restore(state["metrics"])
            self.timers.restore(state["timers"])
        self._process_t0 = time.process_time()

    # ------------------------------------------------------------------
    # Supervision snapshot: the forest state plus the shell's
    # ------------------------------------------------------------------

    def supervision_state(self) -> dict:
        return {**self.forest_state(), **self.shell_state()}

    def restore_supervision_state(self, state: dict) -> None:
        """Roll back to a step boundary after a rank failure."""
        self.install_forest_state(state)
        self.restore_shell_state(state)

    # ------------------------------------------------------------------
    # Rank-local evolution set
    # ------------------------------------------------------------------

    def _step_keys(self) -> list[BlockKey]:
        if self._owned is None:
            self._owned = [
                k for k in self.forest.leaves
                if self.assignment[k] == self.rank
            ]
        return self._owned

    def _flags_here(self, key: BlockKey) -> bool:
        return self.assignment[key] == self.rank

    def _combine_flags(self, flags: np.ndarray) -> np.ndarray:
        out = self.comm.allreduce({self.rank: flags}, "sum")
        return out[self.rank]

    def _reduce_dt(self, local_min: float) -> float:
        out = self.comm.allreduce(
            {self.rank: np.asarray([local_min])}, "min"
        )
        return float(out[self.rank][0])

    # ------------------------------------------------------------------
    # Ghost exchange
    # ------------------------------------------------------------------

    def _fill_ghosts(self, prims: dict[BlockKey, np.ndarray]) -> None:
        plan = self._get_halo_plan()
        owned = plan.owned[self.rank]
        self.comm.begin_exchange_epoch()
        for (src, dst), keys in plan.sends.items():
            if src != self.rank:
                continue
            for key in keys:
                leaf = self.forest.leaves[key]
                self.comm.send(
                    self.rank, dst, leaf.grid.interior_of(prims[key]),
                    tag=TAG_AMR_HALO,
                )
        fields = {k: prims[k] for k in owned}
        for (src, dst), keys in plan.sends.items():
            if dst != self.rank:
                continue
            for key in keys:
                data = self.comm.recv(src, tag=TAG_AMR_HALO)
                leaf = self.forest.leaves[key]
                arr = leaf.grid.allocate(self.system.nvars)
                leaf.grid.interior_of(arr)[...] = data
                fields[key] = arr
        if owned:
            self.forest.fill_ghosts(
                fields, self.system.nvars, self.system, self.wall_bcs,
                only=owned,
            )

    def _count_halo_traffic(self, plan) -> None:
        pass  # real traffic is counted by the communicator (comm.shm.*)

    # ------------------------------------------------------------------
    # Refluxing across ranks
    # ------------------------------------------------------------------

    def _apply_reflux(self, fluxes, dU) -> None:
        plan = self._get_reflux_plan()
        B = self.layout.block_size
        for (src, dst), entries in plan.items():
            if src != self.rank:
                continue
            for child, axis in entries:
                self.comm.send(
                    self.rank, dst,
                    face_flux_column(fluxes[child], child, axis, B),
                    tag=TAG_AMR_FLUX,
                )
        remote_faces: dict = {}
        for (src, dst), entries in plan.items():
            if dst != self.rank:
                continue
            for child, axis in entries:
                remote_faces[(child, axis)] = self.comm.recv(
                    src, tag=TAG_AMR_FLUX
                )
        apply_reflux(
            self.forest, fluxes, dU,
            remote_faces=remote_faces, only=self._step_keys(),
        )

    # ------------------------------------------------------------------
    # Topology changes with remote data
    # ------------------------------------------------------------------

    def _split_leaf(self, key, from_initial_data=False, ghosted_prim=None):
        if self.assignment is not None and self.assignment[key] != self.rank:
            # Topology-only split: the block's data lives on its owner.
            self.forest.split(key, {c: None for c in key.children()})
            self._drop_pipeline(key)
            self._on_split(key)
            return
        super()._split_leaf(
            key, from_initial_data=from_initial_data,
            ghosted_prim=ghosted_prim,
        )

    def _merge_groups(self, merges: list[BlockKey]) -> None:
        if not merges:
            return
        plan = merge_plan(merges, self.assignment)
        ndim = self.layout.ndim
        half = self.layout.block_size // 2
        qshape = (self.system.nvars,) + (half,) * ndim
        for parent, child, src, dst in plan:
            if src != self.rank:
                continue
            leaf = self.forest.leaves[child]
            self.comm.send(
                self.rank, dst,
                restrict_array(leaf.grid.interior_of(leaf.cons), ndim),
                tag=TAG_AMR_MERGE,
            )
        received: dict = {}
        for parent, child, src, dst in plan:
            if dst != self.rank:
                continue
            data = np.asarray(self.comm.recv(src, tag=TAG_AMR_MERGE))
            received[(parent, child)] = check_block_payload(
                data, qshape, "merge quarter", child
            )
        for parent in merges:
            # Read before _on_merge drops the children from the assignment.
            here = self.assignment[parent.children()[0]] == self.rank
            self._merge_siblings(parent, received, here)

    # ------------------------------------------------------------------
    # Block migration
    # ------------------------------------------------------------------

    def _migrate(self, moves, new_assignment: dict[BlockKey, int]) -> None:
        """Ship departing blocks, validate every incoming frame, then
        install — a torn or corrupt frame raises
        :class:`~repro.utils.errors.BlockMigrationError` before any forest
        state changes."""
        outgoing = [m for m in moves if m[1] == self.rank]
        incoming = [m for m in moves if m[2] == self.rank]
        for key, _src, dst in outgoing:
            leaf = self.forest.leaves[key]
            p_cache = self._warm_state(key)
            header = block_frame_header(key, leaf.cons, p_cache)
            self.comm.send(self.rank, dst, header, tag=TAG_AMR_MIGRATE)
            self.comm.send(self.rank, dst, leaf.cons, tag=TAG_AMR_MIGRATE)
            if p_cache is not None:
                self.comm.send(self.rank, dst, p_cache, tag=TAG_AMR_MIGRATE)
        staged_in = []
        for key, src, _dst in incoming:
            leaf = self.forest.leaves[key]
            gshape = (self.system.nvars,) + tuple(
                n + 2 * leaf.grid.n_ghost for n in leaf.grid.shape
            )
            header = self.comm.recv(src, tag=TAG_AMR_MIGRATE)
            has_pcache = check_block_frame(header, key, gshape)
            cons = check_block_payload(
                np.asarray(self.comm.recv(src, tag=TAG_AMR_MIGRATE)),
                gshape, "cons", key,
            )
            p_cache = None
            if has_pcache:
                # The con2prim warm-start cache holds only the pressure
                # variable over the block interior.
                pshape = tuple(leaf.grid.shape)
                p_cache = check_block_payload(
                    np.asarray(self.comm.recv(src, tag=TAG_AMR_MIGRATE)),
                    pshape, "p_cache", key,
                )
            staged_in.append((key, cons, p_cache))
        # Validate-all-then-install: nothing above mutated the forest.
        for key, cons, p_cache in staged_in:
            self.forest.leaves[key].cons = cons
            self._drop_pipeline(key)
            self._pipe_state[key] = p_cache
        for key, _src, _dst in outgoing:
            self.forest.leaves[key].cons = None
            self._drop_pipeline(key)
        self.assignment = dict(new_assignment)
        self._invalidate_plans()

    def _emit_rebalance_event(self, **payload) -> None:
        pass  # the parent emits the event from the merged record delta

    # ------------------------------------------------------------------
    # Worker-process protocol surface
    # ------------------------------------------------------------------

    def interior_primitives(self) -> dict[BlockKey, np.ndarray]:
        return {
            k: self.forest.leaves[k].grid.interior_of(
                self._pipeline(k).recover_primitives(
                    self.forest.leaves[k].cons
                )
            ).copy()
            for k in self._step_keys()
        }


def _merge_forest_states(states: dict) -> dict:
    """One whole-forest state from per-rank ones (``{rank: forest_state}``):
    rank 0's topology and counters — replicated on every rank — over the
    union of every rank's blocks, in leaf order."""
    blocks = {k: b for st in states.values() for k, b in st["blocks"].items()}
    return {**states[0], "blocks": {k: blocks[k] for k in states[0]["leaves"]}}


class AMRProcessSolver(ProcessSolver):
    """Multi-process executor for :class:`DistributedAMRSolver`.

    Same step/record/supervision surface as :class:`ProcessSolver`, with a
    forest instead of a Cartesian decomposition: blocks are partitioned by
    the Morton curve, ghost and reflux data travel over all-pairs shm
    rings, and dynamic repartitioning migrates whole blocks between worker
    processes.  Results are bit-identical to the serial
    :class:`~repro.core.amr_solver.AMRSolver` (the test tier pins this at
    1/2/4 ranks, through migrations and injected process faults).
    """

    def __init__(
        self,
        system: SRHDSystem,
        root_grid: Grid,
        initial_data,
        config: SolverConfig | None = None,
        amr: AMRConfig | None = None,
        boundaries: BoundarySet | None = None,
        recorder: "StepRecorder | None" = None,
        source_fn=None,
        n_ranks: int = 2,
        fault_injector=None,
        comm_timeout_s: float = 120.0,
        step_timeout_s: float = 600.0,
        ready_timeout_s: float = 180.0,
        supervision=None,
    ):
        _validate_amr_plan(fault_injector)
        proto = DistributedAMRSolver(
            system, root_grid, initial_data,
            config=config, amr=amr, boundaries=boundaries,
            source_fn=source_fn, n_ranks=n_ranks,
        )
        self.system = system
        self.root_grid = root_grid
        self.config = proto.config
        self.amr = proto.amr
        self.layout = proto.layout
        self.n_ranks = int(n_ranks)
        self._wall_bcs = proto.wall_bcs
        self._source_fn = source_fn
        self._init_supervisor(
            recorder, supervision, fault_injector,
            comm_timeout_s, step_timeout_s, ready_timeout_s,
        )
        # Rebalance bookkeeping mirrored from the workers' step records,
        # matching the DistributedAMRSolver surface.
        self.repartitions = self.migrated_blocks = 0
        self.imbalance = proto.imbalance
        self._init_states = self._states_from_proto(proto)

        g = root_grid.n_ghost
        B = self.amr.block_size
        block_nbytes = 8 * system.nvars * (B + 2 * g) ** root_grid.ndim
        self._start_fleet(amr_channel_capacities(self.n_ranks, block_nbytes))

    def _states_from_proto(self, proto: DistributedAMRSolver) -> dict:
        """Per-rank initial install states from the prototype solver.

        Rank 0 carries the prototype's full metric/timer baselines (the
        construction-time con2prim work), so merged step records reproduce
        the serial recorder stream byte for byte.
        """
        baselines = {
            "metrics": proto.metrics.snapshot(), "timers": proto.timers.state(),
        }
        return {
            rank: {
                **proto.forest_state(
                    [k for k in proto.forest.leaves if proto.assignment[k] == rank]
                ),
                **(baselines if rank == 0 else {}),
            }
            for rank in range(self.n_ranks)
        }

    _worker_cls = _AMRRankWorker

    def _payload(self, rank: int) -> dict:
        return dict(
            system=self.system,
            root_grid=self.root_grid,
            config=self.config,
            amr=self.amr,
            wall_bcs=self._wall_bcs,
            source_fn=self._source_fn,
            state=self._init_states[rank],
        )

    @property
    def size(self) -> int:
        return self.n_ranks

    def _emit_step_record(self, merged: dict) -> None:
        amr = merged["amr"]
        if amr["repartitions"] > self.repartitions and self.recorder is not None:
            self.recorder.emit_event(
                "amr_rebalance",
                step=merged["step"],
                imbalance_after=amr["imbalance"],
                migrated_blocks=amr["migrated_blocks"] - self.migrated_blocks,
                repartitions=amr["repartitions"],
            )
        self.repartitions = amr["repartitions"]
        self.migrated_blocks = amr["migrated_blocks"]
        self.imbalance = amr["imbalance"]
        super()._emit_step_record(merged)

    def forest_state(self) -> dict:
        """The fleet's :meth:`~AMRSolver.forest_state`: rank 0's topology,
        ownership and counters (replicated on every rank) plus the union
        of every rank's blocks, in leaf order."""
        return _merge_forest_states(self._call_all("forest_state"))

    #: the serial forest archive over :meth:`forest_state`, entry for
    #: entry what the serial ``AMRSolver`` writes for the same trajectory
    #: (:func:`repro.io.checkpoint.load_amr_checkpoint` reloads it as one)
    write_checkpoint = AMRSolver.write_checkpoint

    def fold_to_serial(self, snapshot: dict) -> DistributedAMRSolver:
        """This run's serial twin carrying *snapshot*: the in-process rank
        loop, built the way ``load_amr_checkpoint`` builds its solver
        (quiescent placeholder data, no initial regrid) with the merged
        per-rank forest states installed."""
        from ..io.checkpoint import _quiescent_prim

        serial = DistributedAMRSolver(
            self.system, self.root_grid, _quiescent_prim,
            config=self.config,
            amr=self.amr.replace(initial_regrid_passes=0),
            boundaries=self._wall_bcs, source_fn=self._source_fn,
            n_ranks=self.n_ranks,
        )
        serial.install_forest_state(_merge_forest_states(snapshot["states"]))
        return serial

    def gather_blocks(self) -> dict[BlockKey, np.ndarray]:
        """Every leaf's ghosted conserved array, merged across ranks."""
        return {k: b[0] for k, b in self.forest_state()["blocks"].items()}

    gather_cons = gather_blocks

    def gather_block_primitives(self) -> dict[BlockKey, np.ndarray]:
        """Every leaf's interior primitives, merged across ranks."""
        return self._gather("interior_primitives")

    def gather_primitives(self):
        raise ConfigurationError(
            "the AMR executor gathers per-block data; use gather_blocks() "
            "or gather_block_primitives()"
        )


def make_distributed_amr_solver(
    system: SRHDSystem,
    root_grid: Grid,
    initial_data,
    config: SolverConfig | None = None,
    amr: AMRConfig | None = None,
    n_ranks: int = 1,
    **kwargs,
):
    """Build the distributed AMR solver selected by ``config.executor``.

    ``"serial"`` returns the in-process rank loop
    (:class:`DistributedAMRSolver`), ``"process"`` the multi-core
    :class:`AMRProcessSolver` — same decision sequence, bit-identical
    block bytes.  Both accept the same fault plans (process faults only;
    on the serial executor they name processes that do not exist and are
    ignored, as plans are supersets by design) and refuse the same ones.
    """
    cfg = config or SolverConfig()
    if cfg.executor == "process":
        return AMRProcessSolver(
            system, root_grid, initial_data,
            config=cfg, amr=amr, n_ranks=n_ranks, **kwargs,
        )
    kwargs = serial_factory_kwargs(kwargs)
    _validate_amr_plan(kwargs.pop("fault_injector", None))
    return DistributedAMRSolver(
        system, root_grid, initial_data,
        config=cfg, amr=amr, n_ranks=n_ranks, **kwargs,
    )
