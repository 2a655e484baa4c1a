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
* halo faults are dealt by the stepper's own
  :class:`~repro.resilience.oracle.FaultOracle`, built from the shared
  plan exactly as in-process, and con2prim bursts by a
  :class:`~repro.resilience.oracle.RankStridedFaultInjector`, so seeded
  chaos plans strike the identical messages and sweeps.

Observability: each worker runs its own
:class:`~repro.obs.StepRecorder` into a buffer; the parent merges the
per-rank shards into one stream (counters summed, gauges maxed,
histograms combined) that canonicalizes byte-for-byte equal to the
serial stream, and forwards it to the caller's recorder via
:meth:`StepRecorder.emit_step`.  Real transport measurements land under
``comm.shm.*``.

Failure handling is split in two.  The transport *classifies*: workers
publish heartbeats into a lock-free
:class:`~repro.comm.shm.SupervisionBoard`, and ``_collect`` /
``_command_all`` report every anomaly the same way — a
:class:`_RankFailureSignal` naming crashed, hung and step-failed ranks
and the ranks still owing a reply.  One function,
:meth:`ProcessSolver._recover`, *decides*: fatal (one teardown, a
:class:`WorkerError` naming every rank involved), or — under a
:class:`~repro.resilience.policies.SupervisionPolicy` — quiesce the
survivors, respawn the failed ranks over fresh shm rings and roll *every*
rank back to the last consistent in-memory snapshot, bit-identical to a
fault-free run, canonical record stream included.  A bounded restart
budget with exponential backoff guards against crash loops; on exhaustion
:func:`run_supervised` can degrade to the solver's serial twin.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import TYPE_CHECKING

import numpy as np

from ..boundary.conditions import BoundarySet
from ..comm.shm import (
    ShmChannel,
    ShmCommunicator,
    SupervisionBoard,
    channel_capacities,
    sweep_segments,
)
from ..mesh.grid import Grid
from ..obs.events import BufferSink
from ..obs.metrics import MetricsRegistry, merge_histogram_summaries
from ..obs.recorder import StepRecorder
from ..physics.srhd import SRHDSystem
from ..resilience.oracle import RankStridedFaultInjector
from ..utils.errors import (
    ConfigurationError,
    ReproError,
    SupervisionExhausted,
    WorkerError,
)
from .config import MAX_STEPS, SolverConfig
from .distributed import DistributedSolver, decompose
from .stepping import Driver, placeholder_prim

if TYPE_CHECKING:  # pragma: no cover
    from ..resilience.policies import HaloRetryPolicy, SupervisionPolicy


@dataclass
class _WorkerSpec:
    """Everything one worker needs to rebuild its rank (picklable): the
    process-shell fields, the worker class, and that class's own inputs."""

    rank: int
    size: int
    channels: dict  # {(src, dest): (shm_name, capacity)} touching this rank
    comm_timeout_s: float
    barrier_timeout_s: float
    board_name: str
    heartbeat_interval_s: float
    #: ``worker_cls(spec, board)`` builds the rank; *payload* is what that
    #: class reads beside the shell fields (``ProcessSolver._payload``)
    worker_cls: type
    payload: dict
    #: respawned ranks skip the collective priming exchange — their state
    #: is installed via ``restore_supervision_state`` before they ever step.
    defer_init: bool = False


class _WorkerShell:
    """What living inside a worker process adds to a serial driver.

    Mixed in ahead of the driver class (:class:`DistributedSolver`,
    :class:`~repro.core.amr_solver.AMRSolver`), it
    contributes ring attachment, the lockstep barrier in front of
    ``step``, resource snapshots, the supervision snapshot pair (the
    driver's ``state()`` plus the shell's own), ring rebinding after a peer
    respawn and teardown — never physics, which stays in the driver it
    wraps.
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
            metrics=metrics, timeout_s=spec.comm_timeout_s, board=board,
        )

    def step(self, dt: float | None = None, t_final: float | None = None):
        """Barrier (its wait counted as ``comm.shm.barrier_wait_s``), then
        the wrapped driver's ``step``; returns this rank's step-record
        shard (``step``/``t``/``dt`` included) for the parent to merge."""
        start = time.perf_counter()
        self._barrier.wait(self._barrier_timeout)
        self.metrics.counter("comm.shm.barrier_wait_s").inc(
            time.perf_counter() - start
        )
        super().step(dt=dt, t_final=t_final)
        record = self.recorder.sink.records.pop()
        record["rank"] = self.rank
        return record

    def snapshot(self) -> dict:
        # never imported just to ask: a worker that does not run the
        # compiled target has not imported it (nor SymPy)
        cext = sys.modules.get("repro.codegen.cext")
        return {
            "metrics": self.metrics.snapshot(),
            "timers": {name: t.elapsed for name, t in self.timers.items()},
            "process_seconds": time.process_time() - self._process_t0,
            "cext_threads": None if cext is None else cext.loaded_threads(),
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
            "comm": self.comm._rollback_point(),
        }

    def supervision_state(self) -> dict:
        """Everything needed to roll this rank back to this step boundary —
        complete with respect to observable behavior, so a rank restored
        from it re-executes the following steps bit-identically, emitted
        records included.  Pickled to the parent as it is returned."""
        return {**self.state(), **self.shell_state()}

    def restore_supervision_state(self, state: dict) -> None:
        """Roll back to a :meth:`supervision_state` after a rank failure:
        the shell first (the communicator drops pending messages, restores
        its traffic log and re-baselines the supervision board), then the
        driver's ``install_state``, which reads that log."""
        self.metrics.restore(state["metrics"])
        self.timers.restore(state["timers"])
        self.recorder.restore_state(state["recorder"])
        self.comm._rollback(state["comm"])
        self.install_state(state)

    def rebind(self, channels: dict) -> None:
        """Attach freshly recreated shm rings (a peer was respawned)."""
        for (src, dest), (name, cap) in channels.items():
            ch = ShmChannel.attach(name, cap)
            self._channels.append(ch)
            self.comm._rebind_channel(src, dest, ch)

    def close(self) -> None:
        for ch in self._channels:
            try:
                ch.close()
            except Exception:
                pass


class _RankWorker(_WorkerShell, DistributedSolver):
    """One rank of the decomposition, living inside a worker process.

    The rank stepper itself, narrowed to ``local_ranks=(rank,)`` over the
    shm communicator: stepping, the fault oracle and ``state()`` /
    ``install_state()`` are inherited; only construction is here.
    """

    def __init__(self, spec: _WorkerSpec, board: SupervisionBoard):
        p = spec.payload
        metrics = MetricsRegistry()
        comm = self._attach(spec, board, metrics)
        plan = p["plan"]
        self._init_ranks(
            p["system"], p["decomp"], p["config"], p["wall_bcs"],
            {self.rank: p["part"]}, (self.rank,), comm,
            recorder=StepRecorder(BufferSink()),
            fault_injector=None if plan is None
            else RankStridedFaultInjector(plan, self.rank, spec.size, metrics=metrics),
            halo_policy=p["policy"], source_fn=p["source_fn"],
            metrics=metrics, prime=not spec.defer_init,
        )
        self._process_t0 = time.process_time()


#: worker methods the parent may invoke through the ``call`` verb
_WORKER_CALLS = frozenset({
    "interior_primitives", "state", "install_state", "snapshot",
    "supervision_state", "restore_supervision_state", "rebind",
})


def _worker_main(spec: _WorkerSpec, conn) -> None:
    """Worker process body.  Three verbs: ``step``, ``call`` (one
    allow-listed worker method) and ``shutdown``; every command is answered
    by exactly one ``done`` / ``step_failed`` / ``error`` reply.

    A worker runs its compiled kernels on one thread, pinned before its
    driver is built: the fleet already occupies one core per rank, and a
    team per worker on top would oversubscribe the host."""
    worker = None
    board = None
    hb_stop = threading.Event()
    hb_thread = None
    try:
        # Read by the OpenMP runtime when the first compiled module loads:
        # nothing here has loaded one before the driver is built.
        os.environ["OMP_NUM_THREADS"] = "1"
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
        worker = spec.worker_cls(spec, board)
        conn.send(("done", "ready"))
        while True:
            verb, *args = conn.recv()
            board.beat()
            if verb == "step":
                dt, t_final, want_state = args
                try:
                    record = worker.step(dt=dt, t_final=t_final)
                except ReproError as exc:
                    # Reported, not fatal to the process: the worker stays
                    # in the command loop so that a policy can roll this
                    # rank back and retry; what to do is the parent's call.
                    conn.send(("step_failed", f"{type(exc).__name__}: {exc}",
                               traceback.format_exc()))
                    continue
                state = worker.supervision_state() if want_state else None
                conn.send(("done", (record, state)))
            elif verb == "call" and args[0] in _WORKER_CALLS:
                method, call_args = args
                conn.send(("done", getattr(worker, method)(*call_args)))
            elif verb == "shutdown":
                conn.send(("done", None))
                return
            else:
                name = args[0] if verb == "call" else verb
                raise WorkerError(f"unknown worker command {name!r}")
    except BaseException as exc:  # forward everything; the parent decides
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}",
                       traceback.format_exc()))
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
    """Internal: what the transport saw go wrong, classified but unjudged.

    ``failures`` maps rank to ``(kind, description)`` with kind ``"crash"``
    (process gone, pipe lost, worker loop raised) or ``"hang"`` (stale
    heartbeat, deadline overrun); ``step_failed`` maps rank to
    ``(description, traceback)`` for ranks whose step raised a
    :class:`ReproError` and that are still in their command loop;
    ``pending`` are commanded ranks still owing a reply.
    """

    def __init__(self, failures, step_failed, pending):
        super().__init__(f"rank failures: {sorted(failures)}")
        self.failures = dict(failures)
        self.step_failed = dict(step_failed)
        self.pending = set(pending)


class ProcessSolver(Driver):
    """Drive one :class:`_RankWorker` process per rank in lockstep.

    Same constructor surface as :class:`DistributedSolver` (the
    ``fault_injector``'s plan is shipped to the workers, each of which
    builds its own injector and oracle from it; the injector object itself
    stays untouched in the parent).  ``step``/``run``/``gather_primitives``/
    ``state()`` match the serial driver: ``state()`` merges the workers'
    states and ``install_state`` scatters one to them, so both executors
    write and reload the identical checkpoint archive.

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
        self._init_supervisor(
            recorder, supervision, fault_injector,
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
        self, recorder, supervision, fault_injector,
        comm_timeout_s: float, step_timeout_s: float, ready_timeout_s: float,
    ) -> None:
        """Parent-side run position, timeouts and supervision bookkeeping —
        the fields every fleet driver (Cartesian or AMR) starts from.  Only
        the injector's plan is kept: it is shipped to the workers."""
        plan = getattr(fault_injector, "plan", None)
        for fault in getattr(plan, "processes", None) or ():
            if fault.rank >= self.size:
                raise ConfigurationError(
                    f"process fault targets rank {fault.rank} but the run "
                    f"has only {self.size} ranks"
                )
        self.recorder = recorder
        self.supervision = supervision
        self._plan = plan
        self.t = 0.0
        self.steps = 0
        self.step_timeout_s = float(step_timeout_s)
        self.metrics = _MergedMetrics(self)
        self._closed = False
        self._comm_timeout_s = float(comm_timeout_s)
        self._ready_timeout_s = float(ready_timeout_s)
        self._heartbeat_interval_s = (
            supervision.heartbeat_interval_s if supervision is not None else 0.25
        )
        #: last consistent per-rank supervision snapshot (rollback point)
        self._snapshot: dict | None = None
        #: highest step already emitted to the caller's recorder — replayed
        #: steps below this mark regenerate records but never re-emit
        self.steps_emitted = 0
        #: rank respawns spent so far (stays 0 without a policy)
        self.restarts_used = 0
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
            self._await_ready()
            if self.supervision is not None:
                self._take_snapshot()
        except BaseException:
            self._abort()
            raise

    #: the worker class of this fleet, built from ``_payload(rank)``
    _worker_cls = _RankWorker

    def _payload(self, rank: int) -> dict:
        """What :attr:`_worker_cls` needs beside the shell fields."""
        return dict(
            system=self.system,
            decomp=self.decomp,
            config=self.config,
            wall_bcs=self._wall_bcs,
            part=self._parts[rank],  # this rank's interior primitive patch
            plan=self._plan,
            policy=self.halo_policy,
            source_fn=self._source_fn,
        )

    def _spawn(self, rank: int, defer_init: bool = False) -> None:
        spec = _WorkerSpec(
            rank=rank,
            size=self.size,
            channels={
                pair: (ch.name, ch.capacity)
                for pair, ch in self._channels.items()
                if rank in pair
            },
            comm_timeout_s=self._comm_timeout_s,
            barrier_timeout_s=self.step_timeout_s,
            board_name=self._board.name,
            heartbeat_interval_s=self._heartbeat_interval_s,
            worker_cls=self._worker_cls,
            payload=self._payload(rank),
            defer_init=defer_init,
        )
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(spec, child_conn), daemon=True
        )
        proc.start()
        child_conn.close()
        self._procs[rank] = proc
        self._conns[rank] = parent_conn

    def _await_ready(self, ranks=None) -> None:
        try:
            self._collect(ranks, timeout_s=self._ready_timeout_s)
        except _RankFailureSignal as sig:
            self._recover(sig, in_step=False)

    def _take_snapshot(self) -> None:
        """Make the fleet's current state the supervision rollback point."""
        self._snapshot = {
            "t": self.t,
            "steps": self.steps,
            "states": self._call_all("supervision_state"),
        }

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.decomp.size

    def _stop(self, ranks, grace_s: float = 0.0) -> None:
        """Make sure these ranks' processes are gone and their pipes closed
        — the one teardown: up to *grace_s* for a voluntary exit, then
        ``terminate`` → bounded ``join`` → ``SIGKILL`` → ``join`` (a
        SIGSTOP'd process ignores SIGTERM until resumed, SIGKILL it
        cannot)."""
        procs = [self._procs[rank] for rank in ranks]
        for proc in procs:
            proc.join(timeout=grace_s)
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=10.0)
        for rank in ranks:
            try:
                self._conns[rank].close()
            except Exception:
                pass

    def _abort(self, grace_s: float = 0.0) -> None:
        """Tear the whole fleet down (idempotent): stop every worker, close
        + unlink every shm segment this run owns, then sweep.  SIGKILL'd
        workers never run their ``close()``, and segments recreated
        mid-recovery may have no live parent handle either; the sweep
        attaches purely to unlink, so nothing lingers in ``/dev/shm``."""
        self._stop(list(self._procs), grace_s)
        for seg in (*self._channels.values(), self._board):
            try:
                seg.close()
            except Exception:
                pass
        self._channels = {}
        sweep_segments(self._segments)
        self._closed = True

    def _collect(self, ranks=None, timeout_s: float | None = None,
                 hang_timeout_s: float | None = None) -> dict:
        """One reply from each of *ranks* (default: every worker), as
        ``{rank: value}`` in rank order.

        Classifies, never judges: the first sweep that sees a dead process,
        lost pipe or worker-loop error (``crash``), a step that raised
        (``step_failed``) or — given *hang_timeout_s*, i.e. under a policy
        — a stale heartbeat (``hang``) raises :class:`_RankFailureSignal`
        with the ranks still owing a reply; overrunning *timeout_s*
        (default ``step_timeout_s``) classifies every silent rank ``hang``.
        Draining after an abort is this call repeated on the ranks owing.
        """
        timeout = timeout_s if timeout_s is not None else self.step_timeout_s
        deadline = time.monotonic() + timeout
        replies: dict = {}
        failures: dict = {}
        step_failed: dict = {}
        pending = set(self._procs if ranks is None else ranks)
        age = self._board.heartbeat_age_s
        while pending:
            by_conn = {self._conns[rank]: rank for rank in pending}
            for conn in mp_connection.wait(list(by_conn), timeout=0.02):
                rank = by_conn[conn]
                pending.discard(rank)
                try:
                    kind, *body = conn.recv()
                except (EOFError, OSError):
                    failures[rank] = (
                        "crash", f"worker rank {rank}: connection lost mid-run"
                    )
                    continue
                if kind == "done":
                    replies[rank] = body[0]
                elif kind == "step_failed":
                    step_failed[rank] = tuple(body)
                else:  # "error": the worker's command loop is gone
                    failures[rank] = (
                        "crash", f"worker rank {rank} failed: {body[0]}\n{body[1]}"
                    )
            for rank in sorted(pending):
                proc = self._procs[rank]
                if not proc.is_alive():
                    if self._conns[rank].poll(0):
                        continue  # its last words are still in the pipe
                    failures[rank] = (
                        "crash",
                        f"worker rank {rank} died unexpectedly "
                        f"(exit code {proc.exitcode})",
                    )
                elif hang_timeout_s is not None and age(rank) > hang_timeout_s:
                    failures[rank] = (
                        "hang",
                        f"worker rank {rank} hung: heartbeat stale for "
                        f"{age(rank):.1f}s",
                    )
            pending -= set(failures)
            if failures or step_failed:
                raise _RankFailureSignal(failures, step_failed, pending)
            if pending and time.monotonic() > deadline:
                raise _RankFailureSignal(
                    {
                        rank: (
                            "hang",
                            f"worker rank {rank} sent no reply within "
                            f"{timeout:.1f}s (last heartbeat {age(rank):.1f}s ago)",
                        )
                        for rank in pending
                    },
                    {}, set(),
                )
        return {rank: replies[rank] for rank in sorted(replies)}

    def _command_all(self, *msg, per_rank=None) -> None:
        """Send one command to every rank — or, given *per_rank*
        ``{rank: payload}``, to exactly those ranks with each one's own
        payload appended.  A dead pipe is classified ``crash`` and
        signalled with the ranks that did take the command."""
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
                failures[rank] = (
                    "crash",
                    f"worker rank {rank}: cannot send {msg[0]!r} command (process "
                    f"{'alive' if self._procs[rank].is_alive() else 'dead'})",
                )
        if failures:
            raise _RankFailureSignal(failures, {}, sent)

    def _call_all(self, method: str, *args, per_rank=None) -> dict:
        """``worker.method(*args)`` on every rank — or, given *per_rank*
        ``{rank: args}``, on exactly those ranks with each one's own
        arguments — as ``{rank: value}``.  A between-step round trip: any
        rank anomaly here is fatal under every policy."""
        if per_rank is None:
            per_rank = dict.fromkeys(range(self.size), args)
        try:
            self._command_all("call", method, per_rank=per_rank)
            return self._collect(per_rank)
        except _RankFailureSignal as sig:
            self._recover(sig, in_step=False)

    def _gather(self, method: str) -> dict:
        """Union of every rank's ``{rank or block: value}`` from *method*."""
        out: dict = {}
        for reply in self._call_all(method).values():
            out.update(reply)
        return out

    # -- driver surface --------------------------------------------------
    def step(self, dt: float | None = None, t_final: float | None = None) -> float:
        """Advance all ranks one step.

        A rank anomaly goes to :meth:`_recover`, which either ends the run
        or rolls it back to the last consistent snapshot — then the loop
        replays forward; replayed steps regenerate their records but are
        not re-emitted, so the caller's recorder stream stays identical to
        a fault-free run.
        """
        target = self.steps + 1
        while self.steps < target:
            try:
                last_dt = self._step_once(dt, t_final)
            except _RankFailureSignal as sig:
                self._recover(sig, in_step=True)
        return last_dt

    def _step_once(self, dt, t_final) -> float:
        wall0 = time.perf_counter()
        sup = self.supervision
        step_no = self.steps + 1
        want_state = bool(sup is not None and step_no % sup.snapshot_every == 0)
        self._command_all("step", dt, t_final, want_state)
        self._fire_process_faults(step_no)
        replies = self._collect(
            hang_timeout_s=None if sup is None else sup.hang_timeout_s
        )
        try:
            # The shards carry step/t/dt: merging is the divergence check.
            merged = merge_step_records([record for record, _ in replies.values()])
        except WorkerError:
            self._abort()
            raise
        self.t = merged["t"]
        self.steps = merged["step"]
        if want_state:
            self._snapshot = {
                "t": self.t, "steps": self.steps,
                "states": {rank: state for rank, (_, state) in replies.items()},
            }
        merged["wall_seconds"] = time.perf_counter() - wall0
        if self.steps > self.steps_emitted:
            self._attach_parent_counters(merged)
            self.steps_emitted = self.steps
            self._emit_step_record(merged)
        return merged["dt"]

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
        for idx, fault in enumerate(getattr(self._plan, "processes", None) or ()):
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

    def _recover(self, sig: _RankFailureSignal, in_step: bool) -> None:
        """The one policy site: what a classified rank anomaly leads to.

        *Fatal* — tear the fleet down and raise :class:`WorkerError` naming
        every anomaly and every rank still owing a reply (with its
        heartbeat age, which tells a stopped rank from one blocked on it) —
        when there is no policy, when the anomaly struck between steps, or
        when no rank crashed or hung: a pure logical failure (numerics,
        exhausted retries) is deterministic and would recur on replay.

        Otherwise in-run recovery, each stage gated on the previous:

        1. publish dead ranks + bump the abort epoch on the supervision
           board, so every survivor's blocked communicator wait raises
           instead of deadlocking on a peer that will never answer;
        2. quiesce: every commanded survivor comes to rest (a late reply
           or an abort-induced ``step_failed``) — non-responders escalate
           into the failure set;
        3. check the restart budget (raising
           :class:`SupervisionExhausted` carrying the snapshot when
           spent) and back off exponentially;
        4. recreate every shm ring touching a dead rank (it may have died
           mid-push, leaving the ring torn), respawn the dead ranks with
           deferred init, and rebind survivors to the fresh rings;
        5. roll **every** rank back to the last consistent snapshot —
           physics, caches, metrics, fault position — so the
           retried steps are bit-identical to a fault-free run.
        """
        sup = self.supervision
        if sup is None or not in_step or not sig.failures:
            lines = [desc for _, (_kind, desc) in sorted(sig.failures.items())]
            lines += [
                f"worker rank {rank} failed: {desc}\n{tb}"
                for rank, (desc, tb) in sorted(sig.step_failed.items())
            ]
            lines += [
                f"worker rank {rank} still owed a reply (last heartbeat "
                f"{self._board.heartbeat_age_s(rank):.1f}s ago)"
                for rank in sorted(sig.pending)
            ]
            self._abort()
            raise WorkerError("\n".join(lines))

        failures: dict = {}
        while True:
            for rank in sig.failures:
                self._board.mark_dead(rank)
            self._board.abort()
            for rank, (kind, desc) in sorted(sig.failures.items()):
                self.metrics.counter(f"supervision.{kind}_detected").inc()
                self._emit_supervision_event(
                    "detected", failure=kind, rank=rank, detail=desc,
                    step=self.steps + 1,
                )
            self._stop(sig.failures)
            failures.update(sig.failures)
            owing = sig.pending - set(failures)
            if not owing:
                break
            try:
                self._collect(owing, sup.quiesce_timeout_s, sup.hang_timeout_s)
                break
            except _RankFailureSignal as more:
                sig = more

        need = len(failures)
        if self.restarts_used + need > sup.max_rank_restarts:
            self.metrics.counter("supervision.budget_exhausted").inc()
            self._emit_supervision_event(
                "budget_exhausted", ranks=sorted(failures),
                restarts_used=self.restarts_used,
                max_rank_restarts=sup.max_rank_restarts,
            )
            self._abort()
            raise SupervisionExhausted(
                f"rank restart budget exhausted: {need} respawn(s) needed "
                f"for rank(s) {sorted(failures)} with "
                f"{sup.max_rank_restarts - self.restarts_used} of "
                f"{sup.max_rank_restarts} remaining",
                snapshot=self._snapshot,
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
        self._await_ready(set(failures))

        rebinds = {
            rank: ({
                pair: (self._channels[pair].name, self._caps[pair])
                for pair in affected
                if rank in pair
            },)
            for rank in set(range(self.size)) - set(failures)
        }
        self._call_all("rebind", per_rank=rebinds)

        self._board.reset_barrier()
        self._call_all(
            "restore_supervision_state",
            per_rank={r: (st,) for r, st in self._snapshot["states"].items()},
        )
        self.t = float(self._snapshot["t"])
        self.steps = int(self._snapshot["steps"])

        self.restarts_used += need
        self._restart_rounds += 1
        self.metrics.counter("resilience.worker_restarts").inc(need)
        self.metrics.counter("supervision.respawns").inc(need)
        self.metrics.counter("supervision.recoveries").inc()
        self._emit_supervision_event(
            "respawned", ranks=sorted(failures),
            restarts_used=self.restarts_used,
            resumed_step=self.steps, t=self.t,
        )

    def gather_primitives(self) -> np.ndarray:
        return self.decomp.gather(
            self._gather("interior_primitives"), self.system.nvars
        )

    def worker_snapshots(self) -> list[dict]:
        """Per-rank ``{metrics, timers, process_seconds, cext_threads}``
        snapshots."""
        return list(self._call_all("snapshot").values())

    def state(self) -> dict:
        """The serial driver's ``state()``, merged from the workers'."""
        return self._merge_states(self._call_all("state"))

    def install_state(self, state: dict) -> None:
        """The serial driver's ``install_state`` over the fleet: each worker
        installs its own slice of *state* verbatim, and a supervised run
        moves its rollback point onto the installed state."""
        self._call_all(
            "install_state",
            per_rank={r: (self._rank_state(state, r),) for r in range(self.size)},
        )
        self.t = float(state["t"])
        self.steps = int(state["steps"])
        if self.supervision is not None:
            self._take_snapshot()

    @staticmethod
    def _merge_states(states: dict) -> dict:
        """One state from the workers' ``{rank: state}``: their patches and
        primitive caches united.  Per-worker extras (unrecorded traffic,
        fault positions) stay behind: fault plans are not resumed across a
        fold."""
        prims = [st["prims_cache"] for st in states.values()]
        return {
            "t": states[0]["t"],
            "steps": states[0]["steps"],
            "patches": {
                r: p for st in states.values() for r, p in st["patches"].items()
            },
            "prims_cache": None if None in prims
            else {r: p for cache in prims for r, p in cache.items()},
        }

    @staticmethod
    def _rank_state(state: dict, rank: int) -> dict:
        """What worker *rank* installs of a fleet-wide *state*."""
        prims = state.get("prims_cache")
        return {
            "t": state["t"],
            "steps": state["steps"],
            "patches": {rank: state["patches"][rank]},
            "prims_cache": None if prims is None else {rank: prims[rank]},
        }

    def _serial_twin(self) -> DistributedSolver:
        """The in-process driver of this run, on placeholder data."""
        return DistributedSolver(
            self.system,
            self.global_grid,
            placeholder_prim(self.system, self.global_grid),
            tuple(self.decomp.dims),
            config=self.config,
            boundaries=self._wall_bcs,
            periodic=self.decomp.periodic,
            halo_policy=self.halo_policy,
            source_fn=self._source_fn,
        )

    def close(self) -> None:
        """Shut the workers down and release the shared-memory segments."""
        if self._closed:
            return
        grace_s = 0.0
        try:
            self._command_all("shutdown")
            self._collect(timeout_s=30.0)
            grace_s = 10.0  # every rank said goodbye: let them exit themselves
        except _RankFailureSignal:
            pass  # the teardown reaps whoever did not
        finally:
            self._abort(grace_s)

    def __enter__(self) -> "ProcessSolver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def fold_to_serial(self, snapshot: dict):
        """This run's serial twin carrying *snapshot*: the workers'
        supervision states merged and installed verbatim — patches, Newton
        seeds and whatever else the family's state carries — so the serial
        continuation advances the exact bytes the process run held at its
        last consistent boundary.  Logical fault plans are not resumed
        across the fold: the degraded tail runs fault-free (mirroring
        ``run_with_restart``'s per-run plan semantics).
        """
        serial = self._serial_twin()
        serial.install_state(self._merge_states(snapshot["states"]))
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
    has ``degrade=True``, the run folds down to the solver's serial twin
    (:meth:`ProcessSolver.fold_to_serial`: a :class:`DistributedSolver`,
    or an in-process ``AMRSolver`` for the AMR fleet), restored from the
    last consistent supervision snapshot — state and merged metric
    registries — and finishes there: the final physics state and the
    canonical record stream are bit-identical to a fault-free run.  Steps
    the process solver already emitted are replayed quietly, so the
    caller's recorder sees every step exactly once (post-fold timing
    fields reflect the serial substrate).

    Returns ``(solver, info)`` where *solver* is whichever solver
    finished the run and *info* reports ``degraded``,
    ``worker_restarts``, ``t``, and ``steps``.
    """
    run_kw = dict(
        max_steps=max_steps,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
    )
    sup = solver.supervision
    finisher = solver
    try:
        solver.run(t_final, **run_kw)
    except SupervisionExhausted as exc:
        if sup is None or not sup.degrade or exc.snapshot is None:
            raise
        emitted = solver.steps_emitted
        recorder = solver.recorder
        finisher = serial = solver.fold_to_serial(exc.snapshot)
        solver.close()
        serial.metrics.restore(
            _merge_metric_snapshots(
                [st["metrics"] for st in exc.snapshot["states"].values()]
            )
        )
        serial.metrics.counter("supervision.degraded").inc()
        if recorder is not None:
            recorder.emit_event(
                "supervision", action="degrade",
                step=serial.steps, t=serial.t, reason=str(exc),
            )
        # Quiet replay of steps the caller's recorder already saw.
        limit = max_steps if max_steps is not None else MAX_STEPS
        while (
            serial.steps < min(emitted, limit)
            and serial.t < t_final * (1.0 - 1e-14)
        ):
            serial.step(t_final=t_final)
        if recorder is not None:
            # Re-baseline the recorder's delta state against the serial
            # registries before attaching it.
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
        serial.run(t_final, **run_kw)
    return finisher, {
        "degraded": finisher is not solver,
        "worker_restarts": solver.restarts_used,
        "t": finisher.t,
        "steps": finisher.steps,
    }


def serial_factory_kwargs(kwargs: dict) -> dict:
    """*kwargs* of a ``make_distributed_*`` call as the serial driver takes
    them: the three transport timeouts are dropped (they configure pipes
    that do not exist), and a supervision policy is refused rather than
    silently left unapplied."""
    if kwargs.get("supervision") is not None:
        raise ConfigurationError(
            "supervision needs worker processes to supervise; "
            "executor='serial' has none (use executor='process')"
        )
    dropped = ("comm_timeout_s", "step_timeout_s", "ready_timeout_s", "supervision")
    return {k: v for k, v in kwargs.items() if k not in dropped}


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
    bit-identical results.  A fault plan is a superset by design: its
    ``processes`` faults (like its ``devices``) name a substrate the
    serial executor does not have and are ignored there.
    """
    cfg = config or SolverConfig()
    if cfg.executor == "process":
        return ProcessSolver(
            system, global_grid, initial_prim, dims, config=cfg, **kwargs
        )
    return DistributedSolver(
        system, global_grid, initial_prim, dims, config=cfg,
        **serial_factory_kwargs(kwargs),
    )
