"""Process-parallel execution backend: one worker process per rank.

:class:`ProcessSolver` presents the same driver surface as
:class:`~repro.core.distributed.DistributedSolver`, but each rank of the
Cartesian decomposition runs in its own persistent worker process
(spawned once, stepped in lockstep through a barrier), exchanging halos
over the :class:`~repro.comm.shm.ShmCommunicator` shared-memory rings.
Wall-clock time therefore actually drops with worker count — this is
the measured counterpart of the Hockney-priced scaling model.

Bit-exactness with the serial path is a hard invariant, held by
construction:

* every worker *is* a :class:`DistributedSolver` — the one rank stepper,
  built over ``local_ranks=(rank,)`` and a
  :class:`~repro.comm.shm.ShmCommunicator` instead of every rank and a
  ``SimCommunicator`` — so recovery, exchange, integrator and guard
  calls are the same code, not a copy kept in step with it;
* the global CFL reduction funnels through rank 0 and replays the
  serial ``np.stack`` + reduction, so dt is bitwise equal;
* fault injection and retry decisions are derived rank-locally from the
  shared seeds via :class:`~repro.resilience.oracle.FaultOracle` and
  :class:`~repro.resilience.oracle.RankStridedFaultInjector`, so seeded
  chaos plans strike the identical messages and sweeps.

Observability: each worker runs its own
:class:`~repro.obs.StepRecorder` into a buffer; the parent merges the
per-rank shards into one stream (counters summed, gauges maxed,
histograms combined) that canonicalizes byte-for-byte equal to the
serial stream, and forwards it to the caller's recorder via
:meth:`StepRecorder.emit_step`.  Real transport measurements land under
``comm.shm.*``.

Supervision: with a :class:`~repro.resilience.policies.SupervisionPolicy`
the parent becomes a supervisor.  Workers publish heartbeats into a
lock-free :class:`~repro.comm.shm.SupervisionBoard`; the parent
classifies failures (crash via ``is_alive()``/pipe EOF, hang via
heartbeat staleness), quiesces the surviving ranks at the last completed
step boundary, respawns the dead rank over freshly recreated shm rings,
and rolls *every* rank back to the last consistent in-memory snapshot —
the recovered run is bit-identical to a fault-free one, canonical
record stream included.  A bounded restart budget with exponential
backoff guards against crash loops; on exhaustion
:func:`run_supervised` can degrade gracefully to the serial
:class:`DistributedSolver` from the last snapshot.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..boundary.conditions import BoundarySet
from ..comm.halo import halo_bytes_per_step
from ..comm.shm import (
    ShmChannel,
    ShmCommunicator,
    SupervisionBoard,
    channel_capacities,
    sweep_segments,
)
from ..mesh.decomposition import CartesianDecomposition
from ..mesh.grid import Grid
from ..obs.events import BufferSink
from ..obs.metrics import MetricsRegistry, merge_histogram_summaries
from ..obs.recorder import StepRecorder
from ..physics.srhd import SRHDSystem
from ..resilience.oracle import FaultOracle, RankStridedFaultInjector
from ..utils.errors import (
    ConfigurationError,
    ReproError,
    SupervisionExhausted,
    WorkerError,
)
from .config import SolverConfig
from .distributed import DistributedSolver, decompose
from .stepping import Driver

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.recorder import StepRecorder as _StepRecorder  # noqa: F401
    from ..resilience.faults import FaultPlan
    from ..resilience.policies import HaloRetryPolicy, SupervisionPolicy


@dataclass
class _WorkerSpec:
    """Everything one worker needs to rebuild its rank (picklable)."""

    rank: int
    size: int
    system: SRHDSystem
    global_grid: Grid
    dims: tuple
    periodic: tuple
    config: SolverConfig
    wall_bcs: BoundarySet
    part: np.ndarray  # this rank's interior primitive patch
    plan: "FaultPlan | None"
    policy: "HaloRetryPolicy | None"
    source_fn: object
    channels: dict  # {(src, dest): (shm_name, capacity)} touching this rank
    comm_timeout_s: float
    barrier_timeout_s: float
    board_name: str
    heartbeat_interval_s: float
    #: respawned ranks skip the collective priming exchange — their state
    #: is installed via ``restore_full`` before they ever step.
    defer_init: bool = False

    def build(self, board: "SupervisionBoard"):
        """Construct this spec's rank worker (overridden by the AMR spec,
        which builds a forest-shaped worker from the same process shell)."""
        return _RankWorker(self, board)


class _WorkerShell:
    """What living inside a worker process adds to a serial driver.

    Mixed in ahead of the driver class (:class:`DistributedSolver`,
    :class:`~repro.core.amr_distributed.DistributedAMRSolver`), it
    contributes ring attachment, the lockstep barrier in front of
    ``step``, resource snapshots, ring rebinding after a peer respawn and
    teardown — never physics, which stays in the driver it wraps.
    """

    def _attach(self, spec, board: SupervisionBoard, metrics) -> ShmCommunicator:
        """Attach this rank's shm rings and build its communicator."""
        self.rank = spec.rank
        self._barrier = board
        self._barrier_timeout = spec.barrier_timeout_s
        writers = {}
        readers = {}
        self._channels = []
        for (src, dest), (name, cap) in spec.channels.items():
            ch = ShmChannel.attach(name, cap)
            self._channels.append(ch)
            if src == self.rank:
                writers[dest] = ch
            if dest == self.rank:
                readers[src] = ch
        return ShmCommunicator(
            self.rank, spec.size, writers, readers,
            metrics=metrics, barrier=board,
            timeout_s=spec.comm_timeout_s, board=board,
        )

    def step(self, dt: float | None = None, t_final: float | None = None):
        """Barrier, then the wrapped driver's ``step``; returns ``(dt,
        this rank's step-record shard)`` for the parent to merge."""
        self._barrier.wait(self._barrier_timeout)
        dt = super().step(dt=dt, t_final=t_final)
        record = self.recorder.sink.records.pop()
        record["rank"] = self.rank
        return dt, record

    def snapshot(self) -> dict:
        return {
            "metrics": self.metrics.snapshot(),
            "timers": {name: t.elapsed for name, t in self.timers.items()},
            "process_seconds": time.process_time() - self._process_t0,
        }

    def shell_state(self) -> dict:
        """What a supervision snapshot carries beside the driver's own
        state: metrics/timer/recorder baselines and the communicator's
        epoch + traffic accounting, so replayed steps emit the records a
        fault-free run would."""
        return {
            "metrics": self.metrics.snapshot(),
            "timers": self.timers.state(),
            "recorder": self.recorder.state(),
            "traffic": self.comm.traffic_state(),
            "epoch": self.comm._epoch,
        }

    def restore_shell_state(self, state: dict) -> None:
        """Inverse of :meth:`shell_state`; the communicator drops pending
        messages and re-baselines the supervision board."""
        self.metrics.restore(state["metrics"])
        self.timers.restore(state["timers"])
        self.recorder.restore_state(state["recorder"])
        self.comm.reset_after_failure(state["epoch"], state["traffic"])

    def rebind(self, channels: dict) -> None:
        """Attach freshly recreated shm rings (a peer was respawned)."""
        for (src, dest), (name, cap) in channels.items():
            ch = ShmChannel.attach(name, cap)
            self._channels.append(ch)
            self.comm.rebind_channel(src, dest, ch)

    def close(self) -> None:
        for ch in self._channels:
            try:
                ch.close()
            except Exception:
                pass


class _RankWorker(_WorkerShell, DistributedSolver):
    """One rank of the decomposition, living inside a worker process.

    The rank stepper itself, narrowed to ``local_ranks=(rank,)`` over the
    shm communicator: construction and stepping are inherited, the only
    physics-adjacent override is :meth:`_exchange_schedule`, which feeds
    the rank-local :class:`FaultOracle` decisions into the shared halo
    calls.  Everything else here is snapshot/rollback plumbing.
    """

    def __init__(self, spec: _WorkerSpec, board: SupervisionBoard):
        decomp = CartesianDecomposition(
            spec.global_grid, spec.dims, periodic=spec.periodic
        )
        metrics = MetricsRegistry()
        comm = self._attach(spec, board, metrics)
        plan = spec.plan
        self.oracle = (
            FaultOracle(plan, decomp, spec.policy) if plan is not None else None
        )
        #: ordered ``overlapped`` flags of every oracle consultation — the
        #: replay tape a supervised restore rewinds the oracle with.
        self._oracle_calls: list[bool] = []
        # The priming exchange is collective; a respawned rank builds
        # alone and receives its real state via ``restore_full``.
        self._init_ranks(
            spec.system, decomp, spec.config, spec.wall_bcs,
            {self.rank: spec.part}, (self.rank,), comm,
            recorder=StepRecorder(BufferSink()),
            fault_injector=(
                RankStridedFaultInjector(
                    plan, self.rank, spec.size, metrics=metrics
                )
                if plan is not None
                else None
            ),
            halo_policy=spec.policy, source_fn=spec.source_fn,
            metrics=metrics, prime=not spec.defer_init,
        )
        self._process_t0 = time.process_time()

    def _exchange_schedule(self, overlapped: bool):
        self._oracle_calls.append(overlapped)
        if self.oracle is None:
            return None
        return self.oracle.next_exchange(overlapped=overlapped)

    # -- supervision -----------------------------------------------------
    def supervision_state(self) -> dict:
        """Everything needed to roll this rank back to this step boundary.

        The snapshot is complete with respect to observable behavior —
        the rank's patch state, the shell state, and the fault-replay
        position — so a rank restored from it re-executes the following
        steps bit-identically, emitted records included.
        """
        prims = self._prims_cache
        injector = self.fault_injector
        return {
            **self.shell_state(),
            # Pickled to the parent as it is returned, so no copies here.
            "shard": self.checkpoint_shards()[self.rank],
            "prims_cache": None if prims is None else prims[self.rank],
            "t": self.t,
            "steps": self.steps,
            "traffic_prev": tuple(self._traffic_prev),
            "oracle_calls": list(self._oracle_calls),
            "injector_sweep": None if injector is None else injector._sweep,
            "overlap_log": [dict(e) for e in self.overlap_log],
        }

    def restore_supervision_state(self, state: dict) -> None:
        """Roll back to *state* (a step boundary) after a rank failure.

        Besides the patch and shell state this rewinds the fault oracle
        and the con2prim injector, so the replayed steps are
        indistinguishable from a fault-free run.
        """
        prims = state["prims_cache"]
        self.install_shards(
            state["t"], state["steps"],
            {self.rank: state["shard"]},
            prims_cache=None if prims is None else {self.rank: np.array(prims)},
        )
        self._oracle_calls = list(state["oracle_calls"])
        if self.oracle is not None:
            self.oracle.rewind(self._oracle_calls)
        injector = self.fault_injector
        if injector is not None and state["injector_sweep"] is not None:
            injector._sweep = int(state["injector_sweep"])
        self.overlap_log = [dict(e) for e in state["overlap_log"]]
        self.restore_shell_state(state)
        self._traffic_prev = tuple(state["traffic_prev"])


def _worker_main(spec: _WorkerSpec, conn) -> None:
    worker = None
    board = None
    hb_stop = threading.Event()
    hb_thread = None
    send_lock = threading.Lock()

    def _send(msg):
        with send_lock:
            conn.send(msg)

    try:
        board = SupervisionBoard.attach(spec.board_name, spec.size,
                                        rank=spec.rank)
        board.beat()

        def _heartbeat():
            try:
                while not hb_stop.wait(spec.heartbeat_interval_s):
                    board.beat()
            except Exception:  # board unmapped during teardown
                pass

        hb_thread = threading.Thread(
            target=_heartbeat, name=f"heartbeat-{spec.rank}", daemon=True
        )
        hb_thread.start()
        worker = spec.build(board)
        _send(("ready", spec.rank))
        while True:
            msg = conn.recv()
            board.beat()
            cmd = msg[0]
            if cmd == "step":
                try:
                    dt, record = worker.step(dt=msg[1], t_final=msg[2])
                except ReproError as exc:
                    # Recoverable under supervision: report the failed
                    # step and stay in the command loop so the parent can
                    # roll this rank back and retry.  Without supervision
                    # the parent maps this onto the same fatal error the
                    # pre-supervision protocol raised.
                    _send(
                        ("step_failed", spec.rank,
                         f"{type(exc).__name__}: {exc}",
                         traceback.format_exc())
                    )
                    continue
                state = worker.supervision_state() if msg[3] else None
                _send(
                    ("step_done", spec.rank, dt, worker.t, worker.steps,
                     record, state)
                )
            elif cmd == "gather_prims":
                _send(("prims", spec.rank, worker.interior_primitives()))
            elif cmd == "gather_cons":
                _send(("cons", spec.rank, dict(worker.cons)))
            elif cmd == "snapshot":
                _send(("snap", spec.rank, worker.snapshot()))
            elif cmd == "sup_state":
                _send(("sup_state_done", spec.rank, worker.supervision_state()))
            elif cmd == "rebind":
                worker.rebind(msg[1])
                _send(("rebound", spec.rank))
            elif cmd == "restore_full":
                worker.restore_supervision_state(msg[1])
                _send(("restored_full", spec.rank))
            elif cmd == "checkpoint":
                _send(("ckpt", spec.rank, worker.checkpoint_shards()))
            elif cmd == "restore":
                worker.install_shards(*msg[1:])
                _send(("restored", spec.rank))
            elif cmd == "shutdown":
                _send(("bye", spec.rank))
                return
            else:
                raise WorkerError(f"unknown worker command {cmd!r}")
    except BaseException as exc:  # forward everything; the parent decides
        try:
            _send(
                ("error", spec.rank, f"{type(exc).__name__}: {exc}",
                 traceback.format_exc())
            )
        except Exception:
            pass
    finally:
        hb_stop.set()
        if hb_thread is not None:
            hb_thread.join(timeout=1.0)
        if worker is not None:
            worker.close()
        if board is not None:
            try:
                board.close()
            except Exception:
                pass
        try:
            conn.close()
        except Exception:
            pass


def merge_step_records(shards: list[dict]) -> dict:
    """Merge per-rank step-record shards into one global step record.

    Counters and kernel seconds sum across ranks, gauges take the max
    (every canonical gauge is a running maximum), histogram summaries
    combine exactly (all canonical observations are integer-valued, so
    the float sums re-associate without rounding), and the comm block
    sums bytes/messages while collectives — counted once per rank — take
    the max.  The result is byte-identical, after canonicalization, to
    the record the serial solver would have emitted for the same step.
    """
    base = shards[0]
    for s in shards[1:]:
        if (s["step"], s["t"], s["dt"]) != (base["step"], base["t"], base["dt"]):
            raise WorkerError(
                f"worker shards diverged at step {base['step']}: "
                f"rank {s.get('rank')} reported "
                f"(step={s['step']}, t={s['t']!r}, dt={s['dt']!r})"
            )
    merged = {
        "step": base["step"],
        "t": base["t"],
        "dt": base["dt"],
        "wall_seconds": max(s.get("wall_seconds", 0.0) for s in shards),
        "kernel_seconds": {},
        **_merge_metric_snapshots(shards),
    }
    for s in shards:
        for name, seconds in s.get("kernel_seconds", {}).items():
            merged["kernel_seconds"][name] = (
                merged["kernel_seconds"].get(name, 0.0) + seconds
            )
    if any("comm" in s for s in shards):
        comms = [s["comm"] for s in shards if "comm" in s]
        merged["comm"] = {
            "halo_bytes": sum(c.get("halo_bytes", 0) for c in comms),
            "messages": sum(c.get("messages", 0) for c in comms),
            "collectives": max(c.get("collectives", 0) for c in comms),
            "halo_bytes_model_per_exchange": comms[0].get(
                "halo_bytes_model_per_exchange", 0
            ),
        }
    if "amr" in base:
        # The AMR record is replicated (forest shape and repartition state
        # are identical on every rank) — take shard 0's verbatim.
        merged["amr"] = base["amr"]
    return merged


def _merge_metric_snapshots(snaps: list[dict]) -> dict:
    counters: dict = {}
    gauges: dict = {}
    histograms: dict = {}
    for snap in snaps:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            cur = gauges.get(name)
            gauges[name] = value if cur is None else max(cur, value)
        for name, summary in snap.get("histograms", {}).items():
            histograms[name] = merge_histogram_summaries(
                histograms.get(name), summary
            )
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


class _MergedMetrics:
    """Metrics facade over the workers' registries.

    Reads merge all worker snapshots; writes (``counter``/``gauge``/
    ``histogram``) land in a small parent-side registry that is folded
    into the merged snapshot — that is where run-loop instruments like
    ``resilience.restarts`` go, since the parent has no registry of its
    own and the workers' are out of reach between steps.
    """

    def __init__(self, solver: "ProcessSolver"):
        self._solver = solver
        self._local = MetricsRegistry()

    def counter(self, name: str):
        return self._local.counter(name)

    def gauge(self, name: str):
        return self._local.gauge(name)

    def histogram(self, name: str):
        return self._local.histogram(name)

    def snapshot(self) -> dict:
        return _merge_metric_snapshots(
            [s["metrics"] for s in self._solver.worker_snapshots()]
            + [self._local.snapshot()]
        )


class _RankFailureSignal(Exception):
    """Internal: one or more ranks failed during a supervised step.

    Carries the classification the supervisor needs: ``failures`` maps
    rank to ``(kind, detail)`` with kind ``"crash"`` or ``"hang"``;
    ``step_failed`` maps rank to ``(description, traceback)`` for ranks
    that reported a :class:`ReproError` and are still alive; ``replies``
    are step replies already received; ``pending`` are commanded ranks
    that have not yet come to rest.
    """

    def __init__(self, failures, step_failed, replies, pending):
        super().__init__(f"rank failures: {sorted(failures)}")
        self.failures = dict(failures)
        self.step_failed = dict(step_failed)
        self.replies = dict(replies)
        self.pending = set(pending)


class ProcessSolver(Driver):
    """Drive one :class:`_RankWorker` process per rank in lockstep.

    Same constructor surface as :class:`DistributedSolver` (the
    ``fault_injector``'s plan is shipped to the workers and replayed
    rank-locally; the injector object itself stays untouched in the
    parent).  ``step``/``run``/``gather_primitives``/checkpointing match
    the serial driver: workers stream their shards to the parent, which
    writes the identical distributed checkpoint format.

    Pass a :class:`~repro.resilience.policies.SupervisionPolicy` as
    ``supervision`` to enable in-run rank recovery: crashed or hung
    workers are respawned and every rank rolled back to the last
    consistent snapshot, bit-identically (see the module docstring).
    """

    def __init__(
        self,
        system: SRHDSystem,
        global_grid: Grid,
        initial_prim: np.ndarray,
        dims,
        config: SolverConfig | None = None,
        boundaries: BoundarySet | None = None,
        periodic=None,
        recorder: "StepRecorder | None" = None,
        fault_injector=None,
        halo_policy: "HaloRetryPolicy | None" = None,
        source_fn=None,
        comm_timeout_s: float = 120.0,
        step_timeout_s: float = 600.0,
        ready_timeout_s: float = 180.0,
        supervision: "SupervisionPolicy | None" = None,
    ):
        self._wall_bcs, self.decomp = decompose(
            system, global_grid, dims, boundaries, periodic
        )
        self.system = system
        self.global_grid = global_grid
        self.config = config or SolverConfig()
        self.halo_policy = halo_policy
        self._source_fn = source_fn
        plan = fault_injector.plan if fault_injector is not None else None
        for fault in getattr(plan, "processes", None) or ():
            if fault.rank >= self.decomp.size:
                raise ConfigurationError(
                    f"process fault targets rank {fault.rank} but the "
                    f"decomposition has only {self.decomp.size} ranks"
                )
        self.halo_bytes_per_exchange = sum(
            halo_bytes_per_step(self.decomp, system.nvars).values()
        )
        self._init_supervisor(
            recorder, supervision, plan,
            comm_timeout_s, step_timeout_s, ready_timeout_s,
        )
        parts = self.decomp.scatter(global_grid.interior_of(initial_prim))
        self._parts = {r: np.ascontiguousarray(p) for r, p in parts.items()}
        self._start_fleet(
            channel_capacities(
                self.decomp, system.nvars, global_grid.n_ghost, policy=halo_policy
            )
        )

    def _init_supervisor(
        self, recorder, supervision, plan,
        comm_timeout_s: float, step_timeout_s: float, ready_timeout_s: float,
    ) -> None:
        """Parent-side run position, timeouts and supervision bookkeeping —
        the fields every fleet driver (Cartesian or AMR) starts from."""
        self.recorder = recorder
        self.supervision = supervision
        self._plan = plan
        self.t = 0.0
        self.steps = 0
        self.step_timeout_s = float(step_timeout_s)
        self.metrics = _MergedMetrics(self)
        self._closed = False
        self._last_record: dict | None = None
        self._comm_timeout_s = float(comm_timeout_s)
        self._ready_timeout_s = float(ready_timeout_s)
        self._heartbeat_interval_s = (
            supervision.heartbeat_interval_s if supervision is not None else 0.25
        )
        #: last consistent per-rank supervision snapshot (rollback point)
        self._snapshot: dict | None = None
        #: steps already emitted to the caller's recorder — replayed
        #: steps below this mark regenerate records but never re-emit
        self._emitted = 0
        self._restarts_used = 0
        self._restart_rounds = 0
        self._process_faults_fired: set[int] = set()
        #: parent-side counter totals already folded into step records
        self._local_prev: dict = {}

    def _start_fleet(self, caps: dict) -> None:
        """Create the shm rings and supervision board, spawn one worker per
        rank, wait for every ``ready`` and take the first supervision
        snapshot; any failure on the way tears the whole fleet down."""
        self._caps = dict(caps)
        #: every shm segment name this run ever created — swept on
        #: teardown so SIGKILL'd workers cannot leak /dev/shm entries
        self._segments: list[str] = []
        self._channels: dict = {}
        for pair, cap in caps.items():
            ch = ShmChannel.create(cap)
            self._channels[pair] = ch
            self._segments.append(ch.name)

        self._ctx = mp.get_context("spawn")
        self._board = SupervisionBoard.create(self.size)
        self._segments.append(self._board.name)
        self._procs: dict[int, mp.Process] = {}
        self._conns: dict = {}
        try:
            for rank in range(self.size):
                self._spawn(rank)
            self._collect("ready", timeout_s=self._ready_timeout_s)
            if self.supervision is not None:
                self._snapshot = self._gather_supervision_state()
        except BaseException:
            self._abort()
            raise

    def _make_spec(self, rank: int, defer_init: bool = False) -> _WorkerSpec:
        return _WorkerSpec(
            rank=rank,
            size=self.size,
            system=self.system,
            global_grid=self.global_grid,
            dims=tuple(self.decomp.dims),
            periodic=self.decomp.periodic,
            config=self.config,
            wall_bcs=self._wall_bcs,
            part=self._parts[rank],
            plan=self._plan,
            policy=self.halo_policy,
            source_fn=self._source_fn,
            channels={
                pair: (ch.name, ch.capacity)
                for pair, ch in self._channels.items()
                if rank in pair
            },
            comm_timeout_s=self._comm_timeout_s,
            barrier_timeout_s=self.step_timeout_s,
            board_name=self._board.name,
            heartbeat_interval_s=self._heartbeat_interval_s,
            defer_init=defer_init,
        )

    def _spawn(self, rank: int, defer_init: bool = False) -> None:
        spec = self._make_spec(rank, defer_init=defer_init)
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(spec, child_conn), daemon=True
        )
        proc.start()
        child_conn.close()
        self._procs[rank] = proc
        self._conns[rank] = parent_conn

    def _gather_supervision_state(self) -> dict:
        self._command_all("sup_state")
        replies = self._collect("sup_state_done")
        return {
            "t": self.t,
            "steps": self.steps,
            "states": {r: replies[r][2] for r in range(self.size)},
        }

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.decomp.size

    @property
    def restarts_used(self) -> int:
        """Rank respawns spent so far (supervised runs only)."""
        return self._restarts_used

    @property
    def steps_emitted(self) -> int:
        """Highest step number already emitted to the caller's recorder."""
        return self._emitted

    def _release_segments(self) -> None:
        """Close + unlink every shm segment this run owns, then sweep.

        SIGKILL'd workers never run their ``close()``; segments recreated
        mid-recovery may have no live parent handle either.  The sweep
        attaches purely to unlink, so nothing lingers in ``/dev/shm``.
        """
        for ch in self._channels.values():
            try:
                ch.close()
            except Exception:
                pass
        self._channels = {}
        if getattr(self, "_board", None) is not None:
            try:
                self._board.close()
            except Exception:
                pass
            self._board = None
        sweep_segments(self._segments)

    def _abort(self) -> None:
        """Tear everything down after a failure (idempotent)."""
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs.values():
            proc.join(timeout=5.0)
        for conn in self._conns.values():
            try:
                conn.close()
            except Exception:
                pass
        self._release_segments()
        self._closed = True

    def _collect(
        self,
        expect: str,
        timeout_s: float | None = None,
        ranks=None,
        mode: str = "strict",
    ) -> dict:
        """Wait for one reply of kind *expect* from every worker.

        *mode* selects the failure posture:

        - ``"strict"`` (default): any anomaly aborts the run and raises
          :class:`WorkerError` — the unsupervised behavior.
        - ``"signal"``: raise :class:`_RankFailureSignal` on the first
          detected crash, hang (heartbeat staleness), or step failure,
          leaving the solver up so :meth:`_recover` can run.
        - ``"quiesce"``: drain replies after an abort was broadcast —
          ``step_failed`` replies count as quiesced, crashes and hangs
          accumulate, and the signal is raised only at the end.
        """
        timeout = timeout_s if timeout_s is not None else self.step_timeout_s
        deadline = time.monotonic() + timeout
        replies: dict = {}
        failures: dict = {}
        step_failed: dict = {}
        pending = set(self._procs if ranks is None else ranks)
        sup = self.supervision
        while pending:
            for rank in sorted(pending):
                conn, proc = self._conns[rank], self._procs[rank]
                msg = None
                try:
                    if conn.poll(0.02):
                        msg = conn.recv()
                except (EOFError, OSError):
                    if mode != "strict":
                        failures[rank] = ("crash", "connection lost mid-run")
                        pending.discard(rank)
                        continue
                    self._abort()
                    raise WorkerError(
                        f"worker rank {rank}: connection lost mid-run"
                    ) from None
                if msg is not None:
                    if msg[0] == "error":
                        _, bad_rank, desc, tb = msg
                        if mode != "strict":
                            failures[rank] = ("crash", desc)
                            pending.discard(rank)
                            continue
                        self._abort()
                        raise WorkerError(
                            f"worker rank {bad_rank} failed: {desc}\n{tb}"
                        )
                    if msg[0] == "step_failed":
                        _, bad_rank, desc, tb = msg
                        if mode != "strict":
                            step_failed[rank] = (desc, tb)
                            pending.discard(rank)
                            continue
                        self._abort()
                        raise WorkerError(
                            f"worker rank {bad_rank} failed: {desc}\n{tb}"
                        )
                    if msg[0] != expect:
                        self._abort()
                        raise WorkerError(
                            f"worker rank {rank}: expected {expect!r} reply, "
                            f"got {msg[0]!r}"
                        )
                    replies[rank] = msg
                    pending.discard(rank)
                elif not proc.is_alive():
                    if mode != "strict":
                        failures[rank] = (
                            "crash", f"exit code {proc.exitcode}"
                        )
                        pending.discard(rank)
                    else:
                        self._abort()
                        raise WorkerError(
                            f"worker rank {rank} died unexpectedly "
                            f"(exit code {proc.exitcode})"
                        )
                elif (
                    mode != "strict"
                    and sup is not None
                    and self._board.heartbeat_age_s(rank) > sup.hang_timeout_s
                ):
                    failures[rank] = (
                        "hang",
                        f"heartbeat stale for "
                        f"{self._board.heartbeat_age_s(rank):.1f}s",
                    )
                    pending.discard(rank)
            if mode == "signal" and (failures or step_failed):
                raise _RankFailureSignal(failures, step_failed, replies, pending)
            if pending and time.monotonic() > deadline:
                if mode != "strict":
                    for rank in pending:
                        failures[rank] = (
                            "hang", f"no reply within {timeout:.1f}s"
                        )
                    raise _RankFailureSignal(
                        failures, step_failed, replies, set()
                    )
                self._abort()
                raise WorkerError(
                    f"timed out waiting for worker rank(s) {sorted(pending)}"
                )
        if mode == "quiesce" and failures:
            raise _RankFailureSignal(failures, step_failed, replies, set())
        return replies

    def _command_all(self, *msg, mode: str = "strict", per_rank=None) -> None:
        """Send one command to every rank — or, given *per_rank*
        ``{rank: payload}``, to exactly those ranks with each one's own
        payload appended.  A dead pipe aborts the run with a
        :class:`WorkerError` naming rank and command (``mode="signal"``
        hands it to the supervisor instead)."""
        if self._closed:
            raise WorkerError("process solver already shut down")
        failures: dict = {}
        sent: set = set()
        for rank in range(self.size) if per_rank is None else sorted(per_rank):
            extra = () if per_rank is None else (per_rank[rank],)
            try:
                self._conns[rank].send(tuple(msg) + extra)
                sent.add(rank)
            except (BrokenPipeError, OSError):
                if mode == "signal":
                    failures[rank] = ("crash", "cannot send command")
                    continue
                self._abort()
                raise WorkerError(
                    f"worker rank {rank}: cannot send {msg[0]!r} command "
                    f"(process {'alive' if self._procs[rank].is_alive() else 'dead'})"
                ) from None
        if failures:
            raise _RankFailureSignal(failures, {}, {}, sent)

    def _gather(self, command: str, expect: str) -> dict:
        """Merge every rank's ``{rank or block: value}`` reply to *command*."""
        self._command_all(command)
        replies = self._collect(expect)
        out: dict = {}
        for rank in range(self.size):
            out.update(replies[rank][2])
        return out

    # -- driver surface --------------------------------------------------
    def step(self, dt: float | None = None, t_final: float | None = None) -> float:
        """Advance all ranks one step, recovering failures when supervised.

        Under supervision a detected crash or hang triggers
        :meth:`_recover` — the run rolls back to the last consistent
        snapshot and replays forward; replayed steps regenerate their
        records but are not re-emitted, so the caller's recorder stream
        stays identical to a fault-free run.
        """
        if self.supervision is None:
            return self._step_once(dt, t_final)
        target = self.steps + 1
        last_dt = 0.0
        while self.steps < target:
            try:
                last_dt = self._step_once(dt, t_final)
            except _RankFailureSignal as sig:
                self._recover(sig)
        return last_dt

    def _step_once(self, dt, t_final) -> float:
        wall0 = time.perf_counter()
        sup = self.supervision
        step_no = self.steps + 1
        want_state = bool(sup is not None and step_no % sup.snapshot_every == 0)
        mode = "strict" if sup is None else "signal"
        self._command_all("step", dt, t_final, want_state, mode=mode)
        self._fire_process_faults(step_no)
        replies = self._collect("step_done", mode=mode)
        shards = []
        states: dict = {}
        dt0 = t0 = steps0 = None
        for rank in range(self.size):
            _, _r, w_dt, w_t, w_steps, record, state = replies[rank]
            if rank == 0:
                dt0, t0, steps0 = w_dt, w_t, w_steps
            elif (w_dt, w_t, w_steps) != (dt0, t0, steps0):
                self._abort()
                raise WorkerError(
                    f"worker rank {rank} diverged from rank 0: "
                    f"(dt, t, steps) = {(w_dt, w_t, w_steps)!r} "
                    f"!= {(dt0, t0, steps0)!r}"
                )
            shards.append(record)
            if state is not None:
                states[rank] = state
        self.t = t0
        self.steps = steps0
        if want_state and len(states) == self.size:
            self._snapshot = {"t": t0, "steps": steps0, "states": states}
        merged = merge_step_records(shards)
        merged["wall_seconds"] = time.perf_counter() - wall0
        self._last_record = merged
        if self.steps > self._emitted:
            if sup is not None:
                self._attach_parent_counters(merged)
            self._emitted = self.steps
            self._emit_step_record(merged)
        return dt0

    def _emit_step_record(self, merged: dict) -> None:
        """Emit one freshly merged (non-replayed) step record.  The AMR
        driver hooks in here to surface rebalance events first."""
        if self.recorder is not None:
            self.recorder.emit_step(merged)

    def _attach_parent_counters(self, merged: dict) -> None:
        """Fold parent-side counter deltas into an outgoing step record.

        Supervision counters (``resilience.worker_restarts``,
        ``supervision.*``) live in the parent's local registry — the
        workers never see them.  Folding the deltas into the next emitted
        record surfaces them in the JSONL stream and in
        ``Report.from_metrics`` exactly like worker counters; the
        canonicalizer excludes them, so bit-exactness is untouched.
        """
        totals = self.metrics._local.snapshot()["counters"]
        for name, total in totals.items():
            delta = total - self._local_prev.get(name, 0)
            if delta:
                merged["counters"][name] = (
                    merged["counters"].get(name, 0) + delta
                )
        self._local_prev = dict(totals)

    def _emit_supervision_event(self, action: str, **fields) -> None:
        if self.recorder is not None:
            self.recorder.emit_event("supervision", action=action, **fields)

    def _fire_process_faults(self, step_no: int) -> None:
        """Deliver planned ``kill_rank``/``hang_rank`` faults as signals."""
        faults = getattr(self._plan, "processes", None) if self._plan else None
        if not faults:
            return
        for idx, fault in enumerate(faults):
            if idx in self._process_faults_fired or fault.step != step_no:
                continue
            self._process_faults_fired.add(idx)
            proc = self._procs.get(fault.rank)
            if proc is None or proc.pid is None or not proc.is_alive():
                continue
            signo = (
                signal.SIGKILL if fault.kind == "kill_rank" else signal.SIGSTOP
            )
            try:
                os.kill(proc.pid, signo)
            except (ProcessLookupError, PermissionError):  # pragma: no cover
                continue
            self.metrics.counter(f"supervision.injected_{fault.kind}").inc()
            self._emit_supervision_event(
                "inject", fault=fault.kind, rank=fault.rank, step=step_no
            )

    def _reap(self, rank: int) -> None:
        """Make sure a failed rank's process is gone and its pipe closed."""
        proc = self._procs[rank]
        if proc.is_alive() and proc.pid is not None:
            try:
                # SIGKILL, not terminate(): a SIGSTOP'd process ignores
                # SIGTERM until resumed, SIGKILL it cannot.
                os.kill(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):  # pragma: no cover
                pass
        proc.join(timeout=10.0)
        try:
            self._conns[rank].close()
        except Exception:
            pass

    def _recover(self, sig: _RankFailureSignal) -> None:
        """In-run rank recovery: quiesce, respawn, roll back, replay.

        The sequence (each stage gated on the previous):

        1. publish dead ranks + bump the abort epoch on the supervision
           board, so every survivor's blocked communicator wait raises
           instead of deadlocking on a peer that will never answer;
        2. quiesce: every commanded survivor comes to rest (a late
           ``step_done`` or an abort-induced ``step_failed``) —
           non-responders escalate into the failure set;
        3. check the restart budget (raising
           :class:`SupervisionExhausted` carrying the snapshot when
           spent) and back off exponentially;
        4. recreate every shm ring touching a dead rank (it may have died
           mid-push, leaving the ring torn), respawn the dead ranks with
           deferred init, and rebind survivors to the fresh rings;
        5. roll **every** rank back to the last consistent snapshot —
           physics, caches, metrics, fault-replay position — so the
           retried steps are bit-identical to a fault-free run.
        """
        sup = self.supervision
        failures = dict(sig.failures)
        step_failed = dict(sig.step_failed)
        if not failures:
            # No crashed or hung rank: a pure logical failure (numerics,
            # exhausted retries) is deterministic and would recur on
            # replay — fatal, exactly like the unsupervised path.
            rank, (desc, tb) = sorted(step_failed.items())[0]
            self._abort()
            raise WorkerError(f"worker rank {rank} failed: {desc}\n{tb}")

        for rank in failures:
            self._board.mark_dead(rank)
        self._board.abort()
        for rank, (kind, detail) in sorted(failures.items()):
            self.metrics.counter(f"supervision.{kind}_detected").inc()
            self._emit_supervision_event(
                "detected", failure=kind, rank=rank, detail=detail,
                step=self.steps + 1,
            )
            self._reap(rank)

        owing = set(sig.pending) - set(failures)
        if owing:
            try:
                self._collect(
                    "step_done",
                    timeout_s=sup.quiesce_timeout_s,
                    ranks=owing,
                    mode="quiesce",
                )
            except _RankFailureSignal as more:
                for rank, (kind, detail) in sorted(more.failures.items()):
                    failures[rank] = (kind, detail)
                    self._board.mark_dead(rank)
                    self.metrics.counter(f"supervision.{kind}_detected").inc()
                    self._emit_supervision_event(
                        "detected", failure=kind, rank=rank, detail=detail,
                        step=self.steps + 1,
                    )
                    self._reap(rank)

        need = len(failures)
        if self._restarts_used + need > sup.max_rank_restarts:
            self.metrics.counter("supervision.budget_exhausted").inc()
            self._emit_supervision_event(
                "budget_exhausted", ranks=sorted(failures),
                restarts_used=self._restarts_used,
                max_rank_restarts=sup.max_rank_restarts,
            )
            snapshot = self._snapshot
            self._abort()
            raise SupervisionExhausted(
                f"rank restart budget exhausted: {need} respawn(s) needed "
                f"for rank(s) {sorted(failures)} with "
                f"{sup.max_rank_restarts - self._restarts_used} of "
                f"{sup.max_rank_restarts} remaining",
                snapshot=snapshot,
            )
        time.sleep(
            min(
                sup.backoff_base_s * (2.0 ** self._restart_rounds),
                sup.backoff_cap_s,
            )
        )

        affected = {
            pair
            for pair in self._caps
            if pair[0] in failures or pair[1] in failures
        }
        for pair in sorted(affected):
            try:
                self._channels[pair].close()
            except Exception:
                pass
            ch = ShmChannel.create(self._caps[pair])
            self._channels[pair] = ch
            self._segments.append(ch.name)

        for rank in sorted(failures):
            self._board.revive(rank)
            self._board.touch(rank)
            self._spawn(rank, defer_init=True)
        self._collect(
            "ready", timeout_s=self._ready_timeout_s, ranks=set(failures)
        )

        rebinds = {}
        for rank in set(range(self.size)) - set(failures):
            sub = {
                pair: (self._channels[pair].name, self._caps[pair])
                for pair in affected
                if rank in pair
            }
            if sub:
                rebinds[rank] = sub
        if rebinds:
            self._command_all("rebind", per_rank=rebinds)
            self._collect("rebound", ranks=set(rebinds))

        self._board.reset_barrier()
        self._command_all("restore_full", per_rank=self._snapshot["states"])
        self._collect("restored_full")
        self.t = float(self._snapshot["t"])
        self.steps = int(self._snapshot["steps"])

        self._restarts_used += need
        self._restart_rounds += 1
        self.metrics.counter("resilience.worker_restarts").inc(need)
        self.metrics.counter("supervision.respawns").inc(need)
        self.metrics.counter("supervision.recoveries").inc()
        self._emit_supervision_event(
            "respawned", ranks=sorted(failures),
            restarts_used=self._restarts_used,
            resumed_step=self.steps, t=self.t,
        )

    #: ``run`` is the shared :meth:`Driver.run` over this parent-side
    #: ``step``; the checkpoint writer is the serial driver's.  Workers
    #: stream their shards to the parent, which writes the same
    #: distributed checkpoint format — bit-identical entries, so a run may
    #: checkpoint under one executor and restart under the other
    #: (:func:`repro.io.checkpoint.load_distributed_checkpoint`).
    write_checkpoint = DistributedSolver.write_checkpoint

    def gather_primitives(self) -> np.ndarray:
        return self.decomp.gather(
            self._gather("gather_prims", "prims"), self.system.nvars
        )

    def gather_cons(self) -> dict[int, np.ndarray]:
        """Every rank's full ghosted conserved array (bit-exactness tests)."""
        return self._gather("gather_cons", "cons")

    def worker_snapshots(self) -> list[dict]:
        """Per-rank ``{metrics, timers, process_seconds}`` snapshots."""
        self._command_all("snapshot")
        replies = self._collect("snap")
        return [replies[rank][2] for rank in range(self.size)]

    def checkpoint_shards(self) -> dict[int, tuple]:
        """Per-rank ``(ghosted cons, p_cache, recovery stats)`` streamed
        from the workers — the payload of one distributed checkpoint."""
        return self._gather("checkpoint", "ckpt")

    def restore_state(self, t: float, steps: int, shards: dict) -> None:
        """Install checkpointed per-rank state into the workers verbatim
        (each lands in its worker's ``install_shards``)."""
        self._command_all(
            "restore", t, steps,
            per_rank={r: {r: shards[r]} for r in range(self.size)},
        )
        self._collect("restored")
        self.t = float(t)
        self.steps = int(steps)

    def close(self) -> None:
        """Shut the workers down and release the shared-memory segments."""
        if self._closed:
            return
        try:
            self._command_all("shutdown")
            self._collect("bye", timeout_s=30.0)
        except WorkerError:
            pass  # _collect already aborted
        finally:
            for proc in self._procs.values():
                proc.join(timeout=10.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)
            for conn in self._conns.values():
                try:
                    conn.close()
                except Exception:
                    pass
            self._release_segments()
            self._closed = True

    def __enter__(self) -> "ProcessSolver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _fold_to_serial(solver: ProcessSolver, snapshot: dict) -> DistributedSolver:
    """Rebuild a serial :class:`DistributedSolver` carrying *snapshot*.

    The per-rank supervision states install verbatim — ghosted conserved
    arrays, con2prim warm-start state, and (when every rank has one) the
    exchanged-primitive cache — so the serial continuation advances the
    exact bytes the process run held at its last consistent boundary.
    Logical fault plans are not resumed across the fold: the degraded
    tail runs fault-free (mirroring ``run_with_restart``'s per-run plan
    semantics).
    """
    from ..io.checkpoint import _quiescent_prim

    system = solver.system
    grid = solver.global_grid
    serial = DistributedSolver(
        system,
        grid,
        _quiescent_prim(system, grid),
        tuple(solver.decomp.dims),
        config=solver.config,
        boundaries=solver._wall_bcs,
        periodic=solver.decomp.periodic,
        halo_policy=solver.halo_policy,
        source_fn=solver._source_fn,
    )
    states = snapshot["states"]
    prims = {
        rank: np.array(st["prims_cache"])
        for rank, st in states.items()
        if st["prims_cache"] is not None
    }
    serial.install_shards(
        snapshot["t"], snapshot["steps"],
        {rank: st["shard"] for rank, st in states.items()},
        prims_cache=prims if len(prims) == serial.size else None,
    )
    return serial


def run_supervised(
    solver: ProcessSolver,
    t_final: float,
    max_steps: int | None = None,
    checkpoint_every: int = 0,
    checkpoint_path=None,
):
    """Drive a supervised :class:`ProcessSolver`, degrading on exhaustion.

    Runs ``solver.run(...)``.  When the rank-restart budget runs out and
    the solver's :class:`~repro.resilience.policies.SupervisionPolicy`
    has ``degrade=True``, the run folds down to the serial
    :class:`DistributedSolver`, restored from the last consistent
    supervision snapshot, and finishes there: the final physics state is
    bit-identical to a fault-free run.  Steps the process solver already
    emitted are replayed quietly, so the caller's recorder sees every
    step exactly once (post-fold timing/comm fields reflect the serial
    substrate; canonical physics fields are unchanged).

    Returns ``(solver, info)`` where *solver* is whichever solver
    finished the run and *info* reports ``degraded``,
    ``worker_restarts``, ``t``, and ``steps``.
    """
    sup = solver.supervision
    try:
        solver.run(
            t_final,
            max_steps=max_steps,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
        )
        return solver, {
            "degraded": False,
            "worker_restarts": solver.restarts_used,
            "t": solver.t,
            "steps": solver.steps,
        }
    except SupervisionExhausted as exc:
        if sup is None or not sup.degrade or exc.snapshot is None:
            raise
        restarts = solver.restarts_used
        emitted = solver.steps_emitted
        recorder = solver.recorder
        serial = _fold_to_serial(solver, exc.snapshot)
        solver.close()
        serial.metrics.counter("supervision.degraded").inc()
        if recorder is not None:
            recorder.emit_event(
                "supervision", action="degrade",
                step=serial.steps, t=serial.t, reason=str(exc),
            )
        # Quiet replay of steps the caller's recorder already saw.
        limit = max_steps if max_steps is not None else serial.config.max_steps
        while (
            serial.steps < min(emitted, limit)
            and serial.t < t_final * (1.0 - 1e-14)
        ):
            serial.step(t_final=t_final)
        if recorder is not None:
            # Re-baseline the recorder's delta state against the fresh
            # serial registries before attaching it.
            recorder.restore_state(
                {
                    "prev_timers": {
                        name: t.elapsed for name, t in serial.timers.items()
                    },
                    "prev_metrics": serial.metrics.snapshot(),
                    "steps_recorded": recorder.steps_recorded,
                }
            )
            serial.recorder = recorder
        serial.run(
            t_final,
            max_steps=max_steps,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
        )
        return serial, {
            "degraded": True,
            "worker_restarts": restarts,
            "t": serial.t,
            "steps": serial.steps,
        }


def make_distributed_solver(
    system: SRHDSystem,
    global_grid: Grid,
    initial_prim: np.ndarray,
    dims,
    config: SolverConfig | None = None,
    **kwargs,
):
    """Build the distributed solver selected by ``config.executor``.

    ``"serial"`` returns the in-process :class:`DistributedSolver`,
    ``"process"`` the multi-core :class:`ProcessSolver` — same surface,
    bit-identical results.
    """
    cfg = config or SolverConfig()
    if cfg.executor == "process":
        return ProcessSolver(
            system, global_grid, initial_prim, dims, config=cfg, **kwargs
        )
    kwargs.pop("comm_timeout_s", None)
    kwargs.pop("step_timeout_s", None)
    kwargs.pop("ready_timeout_s", None)
    kwargs.pop("supervision", None)
    return DistributedSolver(
        system, global_grid, initial_prim, dims, config=cfg, **kwargs
    )
