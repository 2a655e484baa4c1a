"""Process-backend executor for the AMR driver.

:class:`AMRProcessSolver` runs one :class:`_AMRRankWorker` process per rank
in lockstep, reusing the fleet machinery of
:class:`~repro.core.parallel.ProcessSolver` (spawn/collect protocol,
supervised rank recovery, process-fault injection) with forest-shaped
workers instead of Cartesian sub-grid workers.

Bit-exactness contract, held by construction: every worker *is* an
:class:`~repro.core.amr_solver.AMRSolver` — the one AMR stepper, built over
``local_ranks=(rank,)`` and a :class:`~repro.comm.shm.ShmCommunicator`
instead of every rank and a ``SimCommunicator`` — so ghost exchange,
refluxing, the split/merge/migrate decisions and their exact reductions
are the in-process rank loop's code, not a copy of it.  The evolved block
bytes therefore match the in-process solver at every rank count, before
and after every block migration and across supervised rank failures.

Construction happens once, in the parent: an in-process prototype seeds
the forest from ``initial_data`` (which may be an unpicklable lambda), and
each worker installs its rank's slice of the prototype's ``state()`` —
its blocks plus the replicated topology, as plain arrays.  Rank 0
additionally inherits the prototype's metric and timer baselines so merged
step records reproduce the in-process stream.
"""

from __future__ import annotations

import time
from collections import Counter

from ..boundary.conditions import BoundarySet
from ..comm.shm import SupervisionBoard, amr_channel_capacities
from ..mesh.grid import Grid
from ..obs.events import BufferSink
from ..obs.metrics import MetricsRegistry
from ..obs.recorder import StepRecorder
from ..physics.srhd import SRHDSystem
from ..utils.errors import ConfigurationError
from .amr_solver import AMRConfig, AMRSolver
from .config import SolverConfig
from .parallel import ProcessSolver, _WorkerShell, serial_factory_kwargs
from .stepping import placeholder_prim


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


class _AMRRankWorker(_WorkerShell, AMRSolver):
    """One rank of the AMR run, inside a worker process.

    The AMR stepper itself, narrowed to ``local_ranks=(rank,)`` over the
    shm communicator: stepping, exchange, every regrid and rebalance
    decision and ``state()`` / ``install_state()`` are inherited.  What is
    here: construction from a shipped state, and leaving the rebalance
    event to the parent.  The process-side protocol (ring attachment,
    barrier-then-step, snapshots, rebinding) is the shared
    :class:`~repro.core.parallel._WorkerShell`.
    """

    def __init__(self, spec, board: SupervisionBoard):
        p = spec.payload
        metrics = MetricsRegistry()
        comm = self._attach(spec, board, metrics)
        self._init_core(
            p["system"], p["root_grid"], p["config"], p["amr"],
            p["wall_bcs"], StepRecorder(BufferSink()), p["source_fn"],
            (self.rank,), comm, metrics=metrics,
        )
        #: initial :meth:`~AMRSolver.state` of this rank (rank 0's also
        #: carries the prototype's ``metrics``/``timers`` baselines)
        state = p["state"]
        self.install_state(state)
        if "metrics" in state:
            self.metrics.restore(state["metrics"])
            self.timers.restore(state["timers"])
        self._process_t0 = time.process_time()

    def _emit_rebalance_event(self, **payload) -> None:
        pass  # the parent emits the event from the merged record delta


class AMRProcessSolver(ProcessSolver):
    """Multi-process executor for :class:`AMRSolver`.

    Same step/record/supervision surface as :class:`ProcessSolver`, with a
    forest instead of a Cartesian decomposition: blocks are partitioned by
    the Morton curve, ghost and reflux data travel over all-pairs shm
    rings, and dynamic repartitioning migrates whole blocks between worker
    processes.  Results are bit-identical to the in-process
    :class:`~repro.core.amr_solver.AMRSolver` at any rank count (the test
    tier pins this at 1/2/4 ranks, through migrations and injected process
    faults).
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
        proto = AMRSolver(
            system, root_grid, initial_data, config, amr, boundaries,
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
        self.t, self.steps = proto.t, proto.steps
        # Regrid and rebalance bookkeeping mirrored from the workers' step
        # records, matching the AMRSolver surface.
        self.regrids = proto.regrids
        self._leaves_by_level = proto.leaf_count_by_level()
        self.repartitions = proto.repartitions
        self.migrated_blocks = proto.migrated_blocks
        self.imbalance = proto.imbalance
        # Rank 0 carries the prototype's metric/timer baselines (the
        # construction-time con2prim work), so merged step records
        # reproduce the in-process recorder stream byte for byte.
        state = proto.state()
        self._init_states = {
            rank: self._rank_state(state, rank) for rank in range(self.n_ranks)
        }
        self._init_states[0].update(
            metrics=proto.metrics.snapshot(), timers=proto.timers.state()
        )

        g = root_grid.n_ghost
        B = self.amr.block_size
        block_nbytes = 8 * system.nvars * (B + 2 * g) ** root_grid.ndim
        self._start_fleet(amr_channel_capacities(self.n_ranks, block_nbytes))

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
        self.regrids = amr["regrids"]
        self._leaves_by_level = {int(lvl): n for lvl, n in amr["leaves_by_level"].items()}
        self.repartitions = amr["repartitions"]
        self.migrated_blocks = amr["migrated_blocks"]
        self.imbalance = amr["imbalance"]
        super()._emit_step_record(merged)

    def leaf_count_by_level(self) -> dict[int, int]:
        """Leaves per level, as of the last step (or install)."""
        return dict(self._leaves_by_level)

    def install_state(self, state: dict) -> None:
        super().install_state(state)
        self.regrids = int(state["regrids"])
        self._leaves_by_level = dict(Counter(key.level for key in state["leaves"]))
        self.repartitions = int(state.get("repartitions", 0))
        self.migrated_blocks = int(state.get("migrated_blocks", 0))
        self.imbalance = float(state.get("imbalance", self.imbalance))

    @staticmethod
    def _merge_states(states: dict) -> dict:
        """Rank 0's topology, ownership and counters — replicated on every
        rank — over the union of every rank's patches, in leaf order."""
        patches = {k: p for st in states.values() for k, p in st["patches"].items()}
        return {**states[0], "patches": {k: patches[k] for k in states[0]["leaves"]}}

    @staticmethod
    def _rank_state(state: dict, rank: int) -> dict:
        """The patches *rank* owns; a state without ownership (an
        archive's) goes whole, to be cut afresh by every rank alike."""
        owner = state.get("assignment")
        if owner is None:
            return state
        return {
            **state,
            "patches": {k: p for k, p in state["patches"].items() if owner[k] == rank},
        }

    def _serial_twin(self) -> AMRSolver:
        """The in-process rank loop of this run, on placeholder data with
        no initial regrid."""
        return AMRSolver(
            self.system, self.root_grid, placeholder_prim, self.config,
            self.amr.replace(initial_regrid_passes=0), self._wall_bcs,
            source_fn=self._source_fn, n_ranks=self.n_ranks,
        )

    def gather_primitives(self):
        raise ConfigurationError(
            "the AMR executor gathers per-block data; use state() "
            "or interior_primitives()"
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
    """Build the AMR solver selected by ``config.executor``.

    ``"serial"`` returns the in-process rank loop (:class:`AMRSolver`),
    ``"process"`` the multi-core :class:`AMRProcessSolver` — same decision
    sequence, bit-identical block bytes.  Both accept the same fault plans
    (process faults only; on the serial executor they name processes that
    do not exist and are ignored, as plans are supersets by design) and
    refuse the same ones.
    """
    cfg = config or SolverConfig()
    if cfg.executor == "process":
        return AMRProcessSolver(
            system, root_grid, initial_data,
            config=cfg, amr=amr, n_ranks=n_ranks, **kwargs,
        )
    kwargs = serial_factory_kwargs(kwargs)
    _validate_amr_plan(kwargs.pop("fault_injector", None))
    return AMRSolver(
        system, root_grid, initial_data,
        config=cfg, amr=amr, n_ranks=n_ranks, **kwargs,
    )
