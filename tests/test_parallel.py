"""Serial-vs-process bit-exactness for the multi-core execution backend.

The contract of :class:`repro.core.parallel.ProcessSolver` is that every
decomposition, exchange mode, and seeded fault plan produces *bit-identical*
results to the in-process :class:`DistributedSolver` — same conserved bytes
on every rank, same dt sequence, and the same canonical metrics stream after
the per-rank shards are merged.  These tests are strict byte comparisons,
not tolerances.

The spawn-based workers re-import this module by file path, so everything
at module level must be import-safe (it is: plain defs and constants).
"""

from __future__ import annotations

import inspect
import os
import signal
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.comm.communicator import SimCommunicator
from repro.comm.shm import (
    FLAG_DATA,
    FLAG_TOMBSTONE,
    ShmChannel,
    ShmCommunicator,
    channel_capacities,
)
from repro.core.config import SolverConfig
from repro.core.amr_parallel import _AMRRankWorker
from repro.core.amr_solver import AMRSolver
from repro.core.distributed import DistributedSolver, decompose
from repro.core.parallel import (
    ProcessSolver,
    _RankWorker,
    _WorkerShell,
    make_distributed_solver,
    merge_step_records,
)
from repro.eos import IdealGasEOS
from repro.mesh.grid import Grid
from repro.obs import BufferSink, MetricsRegistry, StepRecorder, canonical_stream
from repro.physics.initial_data import SHOCK_TUBES, blast_wave_2d, shock_tube
from repro.physics.srhd import SRHDSystem
from repro.resilience.faults import (
    Con2PrimFault,
    FaultInjector,
    FaultPlan,
    HaloFault,
)
from repro.io.checkpoint import load_checkpoint, save_checkpoint
from repro.resilience.policies import (
    HaloRetryPolicy,
    RestartPolicy,
    run_with_restart,
)
from repro.utils.errors import CommunicationError, ConfigurationError, WorkerError

from .conftest import require_cext

#: every test here must leave no worker process and no shm segment behind
pytestmark = pytest.mark.usefixtures("no_fleet_leaks")


def _rp1_setup(n=32):
    system = SRHDSystem(IdealGasEOS(gamma=SHOCK_TUBES["RP1"].gamma), ndim=1)
    grid = Grid((n,), ((0.0, 1.0),))
    return system, grid, shock_tube(system, grid, SHOCK_TUBES["RP1"])


def _blast2d_setup(n=12):
    system = SRHDSystem(IdealGasEOS(), ndim=2)
    grid = Grid((n, n), ((0.0, 1.0), (0.0, 1.0)))
    return system, grid, blast_wave_2d(system, grid)


def _smooth3d_setup(n=8):
    system = SRHDSystem(IdealGasEOS(), ndim=3)
    grid = Grid((n,) * 3, ((0.0, 1.0),) * 3)
    shape = grid.shape_with_ghosts
    prim = np.empty((system.nvars,) + shape)
    x = np.linspace(0, 2 * np.pi, shape[0])[:, None, None]
    y = np.linspace(0, 2 * np.pi, shape[1])[None, :, None]
    z = np.linspace(0, 2 * np.pi, shape[2])[None, None, :]
    prim[system.RHO] = 1.0 + 0.3 * np.sin(x) * np.cos(y) * np.cos(z)
    prim[system.P] = 1.0 + 0.2 * np.cos(x + y + z)
    prim[system.V(0)] = 0.2 * np.sin(y)
    prim[system.V(1)] = 0.2 * np.sin(z)
    prim[system.V(2)] = 0.2 * np.sin(x)
    return system, grid, prim


def _run_serial(setup, dims, steps, *, plan=None, policy=None, meta=None, **cfg):
    system, grid, prim0 = setup
    sink = BufferSink()
    recorder = StepRecorder(sink, meta=meta or {})
    solver = DistributedSolver(
        system, grid, prim0.copy(), dims,
        config=SolverConfig(cfl=0.4, **cfg),
        recorder=recorder,
        fault_injector=FaultInjector(plan) if plan is not None else None,
        halo_policy=policy,
    )
    solver.run(t_final=1.0, max_steps=steps)
    recorder.finish(t_end=solver.t)
    return solver, sink


def _run_process(setup, dims, steps, *, plan=None, policy=None, meta=None, **cfg):
    """Run the process backend; returns everything needed for comparison
    (the solver is closed before returning)."""
    system, grid, prim0 = setup
    sink = BufferSink()
    recorder = StepRecorder(sink, meta=meta or {})
    with ProcessSolver(
        system, grid, prim0.copy(), dims,
        config=SolverConfig(cfl=0.4, executor="process", **cfg),
        recorder=recorder,
        fault_injector=FaultInjector(plan) if plan is not None else None,
        halo_policy=policy,
    ) as solver:
        solver.run(t_final=1.0, max_steps=steps)
        recorder.finish(t_end=solver.t)
        out = {
            "t": solver.t,
            "steps": solver.steps,
            "cons": {r: p[0] for r, p in solver.state()["patches"].items()},
            "prims": solver.gather_primitives(),
            "counters": solver.metrics.snapshot()["counters"],
            "sink": sink,
        }
    return out


def _assert_bitexact(serial, sink, proc):
    assert serial.t == proc["t"] and serial.steps == proc["steps"]
    for rank in range(serial.size):
        assert serial.cons[rank].tobytes() == proc["cons"][rank].tobytes(), (
            f"rank {rank} conserved state diverged"
        )
    assert serial.gather_primitives().tobytes() == proc["prims"].tobytes()
    a, b = canonical_stream(sink.records), canonical_stream(proc["sink"].records)
    assert a == b, "canonical metrics streams differ:\n" + "\n".join(
        f"-{x}\n+{y}" for x, y in zip(a.splitlines(), b.splitlines()) if x != y
    )


META = {"problem": "bitexact", "suite": "parallel"}


class TestBitExactness:
    """The serial-vs-process matrix: geometry x overlap x faults."""

    def test_1d_two_ranks(self):
        setup = _rp1_setup()
        serial, sink = _run_serial(setup, (2,), 4, meta=META)
        proc = _run_process(setup, (2,), 4, meta=META)
        _assert_bitexact(serial, sink, proc)

    @pytest.mark.parametrize("overlap", [False, True])
    def test_2d_four_ranks(self, overlap):
        setup = _blast2d_setup()
        kw = dict(meta=META, overlap_exchange=overlap)
        serial, sink = _run_serial(setup, (2, 2), 3, **kw)
        proc = _run_process(setup, (2, 2), 3, **kw)
        _assert_bitexact(serial, sink, proc)

    @pytest.mark.parametrize("kernel_target", ["flat", "cext"])
    def test_2d_two_ranks_per_kernel_target(self, kernel_target):
        """Each worker resolves the target for itself from the plain system
        it unpickles; the fleet is the serial run on every target."""
        if kernel_target == "cext":
            require_cext(2)
        setup = _blast2d_setup()
        kw = dict(meta=META, kernel_target=kernel_target)
        serial, sink = _run_serial(setup, (2, 1), 3, **kw)
        proc = _run_process(setup, (2, 1), 3, **kw)
        _assert_bitexact(serial, sink, proc)

    def test_3d_two_ranks(self):
        setup = _smooth3d_setup()
        serial, sink = _run_serial(setup, (2, 1, 1), 2, meta=META)
        proc = _run_process(setup, (2, 1, 1), 2, meta=META)
        _assert_bitexact(serial, sink, proc)

    def test_riemann_limiter_combo(self):
        setup = _rp1_setup()
        kw = dict(meta=META, riemann="hll", reconstruction="superbee")
        serial, sink = _run_serial(setup, (2,), 3, **kw)
        proc = _run_process(setup, (2,), 3, **kw)
        _assert_bitexact(serial, sink, proc)


def _fault_plan():
    return FaultPlan(
        seed=11,
        halo=[
            HaloFault(kind="drop", exchange=2, message=3),
            HaloFault(kind="duplicate", exchange=4, message=1),
            HaloFault(kind="corrupt", exchange=5, message=0),
        ],
        con2prim=[Con2PrimFault(sweep=3, n_cells=4)],
    )


def _axis1_retransmit_plan():
    """A corrupt strip on axis 1 (message 5 of a 2x2 walled exchange).  Both
    executors post its retransmission from the pre-exchange state; one read
    after the axis-0 ghosts landed would move ``sanitize.floored``."""
    return FaultPlan(seed=11, halo=[HaloFault(kind="corrupt", exchange=2, message=5)])


#: id prefix -> (plan, the counters the plan must drive above zero)
FAULTED_RUNS = {
    "": (_fault_plan, (
        "resilience.fault.halo_drop",
        "resilience.fault.halo_duplicate",
        "resilience.fault.halo_corrupt",
        "resilience.halo_retries",
        "resilience.failsafe_cells",
    )),
    "axis1-retransmit-": (_axis1_retransmit_plan, (
        "resilience.fault.halo_corrupt",
        "resilience.halo_retries",
        "resilience.halo_checksum_mismatch",
    )),
}


class TestFaultBitExactness:
    """Both executors post the one fault oracle's schedule: the same plan
    strikes the same logical messages and cells on both backends,
    recoveries included."""

    @pytest.mark.parametrize("plan, counters, overlap", [
        pytest.param(plan, counters, overlap, id=f"{prefix}{overlap}")
        for prefix, (plan, counters) in FAULTED_RUNS.items()
        for overlap in (False, True)
    ])
    def test_faulted_run_matches_serial(self, plan, counters, overlap):
        setup = _blast2d_setup()
        kw = dict(
            meta=META, overlap_exchange=overlap, failsafe_frac=0.2,
            plan=plan(), policy=HaloRetryPolicy(max_attempts=4),
        )
        serial, sink = _run_serial(setup, (2, 2), 4, **kw)
        proc = _run_process(setup, (2, 2), 4, **kw)
        _assert_bitexact(serial, sink, proc)
        snap = serial.metrics.snapshot()["counters"]
        for name in counters:
            assert snap[name] > 0, name
            assert proc["counters"][name] == snap[name], name

    def test_duplicate_without_policy_keeps_serial_stale_semantics(self):
        """A duplicate with no retry policy leaves a stale copy pending; the
        serial mailbox hands it to the *next* exchange in FIFO order, and
        the shm ring must reproduce exactly that (wrong-but-deterministic)
        consumption — this is what the cross-epoch FIFO exists for."""
        plan = FaultPlan(
            seed=7, halo=[HaloFault(kind="duplicate", exchange=1, message=2)]
        )
        setup = _blast2d_setup()
        serial, sink = _run_serial(setup, (2, 2), 3, meta=META, plan=plan)
        proc = _run_process(setup, (2, 2), 3, meta=META, plan=plan)
        _assert_bitexact(serial, sink, proc)
        assert proc["counters"]["resilience.fault.halo_duplicate"] == 1

    def test_policy_purges_stale_duplicate(self):
        """With a retry policy the completed exchange purges the stale
        copy — counted identically on both backends."""
        plan = FaultPlan(
            seed=7, halo=[HaloFault(kind="duplicate", exchange=1, message=2)]
        )
        setup = _blast2d_setup()
        kw = dict(meta=META, plan=plan, policy=HaloRetryPolicy(max_attempts=4))
        serial, sink = _run_serial(setup, (2, 2), 3, **kw)
        proc = _run_process(setup, (2, 2), 3, **kw)
        _assert_bitexact(serial, sink, proc)
        snap = serial.metrics.snapshot()["counters"]
        assert snap["resilience.halo_stale_discarded"] >= 1
        assert (
            proc["counters"]["resilience.halo_stale_discarded"]
            == snap["resilience.halo_stale_discarded"]
        )

    def test_fatal_drop_without_policy(self):
        """An unrecovered drop kills the run on both backends with the same
        underlying missing-message error."""
        plan = FaultPlan(
            seed=1, halo=[HaloFault(kind="drop", exchange=1, message=0)]
        )
        setup = _rp1_setup()
        with pytest.raises(CommunicationError) as serr:
            _run_serial(setup, (2,), 3, meta=META, plan=plan)
        system, grid, prim0 = setup
        with pytest.raises(WorkerError) as perr:
            with ProcessSolver(
                system, grid, prim0.copy(), (2,),
                config=SolverConfig(cfl=0.4),
                fault_injector=FaultInjector(plan),
            ) as solver:
                solver.run(t_final=1.0, max_steps=3)
        # The worker-side traceback names the identical serial error.
        assert str(serr.value) in str(perr.value)


class TestWorkerFailure:
    def test_killed_worker_raises_named_workererror(self):
        system, grid, prim0 = _rp1_setup()
        solver = ProcessSolver(
            system, grid, prim0, (2,),
            config=SolverConfig(cfl=0.4),
            step_timeout_s=60.0,
        )
        try:
            solver.step()
            victim = 1
            os.kill(solver._procs[victim].pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while solver._procs[victim].is_alive():
                assert time.monotonic() < deadline, "SIGKILL did not land"
                time.sleep(0.01)
            with pytest.raises(WorkerError, match=r"rank 1"):
                solver.step()
            # The failed step already tore the backend down; close() must
            # still be a clean no-op.
            solver.close()
        finally:
            solver.close()

    def test_stopped_worker_is_named_and_reaped(self):
        """A SIGSTOP'd rank of an *unsupervised* run: the error names it as
        the silent one (with its heartbeat age — the board beats whether
        or not a policy is set), and the one teardown escalates to SIGKILL,
        so no stopped child and no segment outlives the failed step."""
        system, grid, prim0 = _rp1_setup()
        solver = ProcessSolver(
            system, grid, prim0, (2,),
            config=SolverConfig(cfl=0.4),
            step_timeout_s=3.0,
        )
        try:
            solver.step()
            os.kill(solver._procs[1].pid, signal.SIGSTOP)
            with pytest.raises(
                WorkerError,
                match=r"rank 1 (sent no reply|still owed a reply).*"
                      r"last heartbeat \d+\.\ds ago",
            ):
                solver.step()
            assert not any(p.is_alive() for p in solver._procs.values())
            for name in solver._segments:
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)
            solver.close()  # clean no-op after the teardown
        finally:
            solver.close()

    def test_barrier_wait_is_counted(self):
        """Every worker times its wait at the step barrier."""
        system, grid, prim0 = _rp1_setup()
        with ProcessSolver(
            system, grid, prim0, (2,), config=SolverConfig(cfl=0.4)
        ) as solver:
            solver.step()
            solver.step()
            snaps = solver.worker_snapshots()
        assert len(snaps) == 2
        for snap in snaps:
            assert snap["metrics"]["counters"]["comm.shm.barrier_wait_s"] > 0.0

    def test_call_verb_is_allow_listed(self):
        """``call`` reaches only the methods the protocol names; anything
        else is an unknown command, fatal like every between-step anomaly."""
        system, grid, prim0 = _rp1_setup()
        with ProcessSolver(
            system, grid, prim0, (2,), config=SolverConfig(cfl=0.4)
        ) as solver:
            assert sorted(solver._call_all("snapshot")) == [0, 1]
            with pytest.raises(WorkerError, match="unknown worker command 'close'"):
                solver._call_all("close")
            assert not any(p.is_alive() for p in solver._procs.values())


def _npz_entries(path):
    """Every archive entry as raw bytes (meta compared as its json string)."""
    with np.load(path, allow_pickle=False) as data:
        return {
            name: str(data[name]) if name == "meta" else data[name].tobytes()
            for name in data.files
        }


class TestProcessCheckpointing:
    """executor="process" checkpoints: same format, same bytes, restartable."""

    CFG = dict(cfl=0.4, executor="process")

    def test_checkpoint_bit_identical_to_serial(self, tmp_path):
        # Same config on both solvers (DistributedSolver ignores the
        # executor field) so the checkpoint meta matches byte-for-byte too.
        setup = _blast2d_setup()
        system, grid, prim0 = setup
        serial = DistributedSolver(
            system, grid, prim0.copy(), (2, 2), config=SolverConfig(**self.CFG)
        )
        serial.run(
            t_final=1.0, max_steps=6,
            checkpoint_every=3, checkpoint_path=tmp_path / "serial.npz",
        )
        with ProcessSolver(
            system, grid, prim0.copy(), (2, 2), config=SolverConfig(**self.CFG)
        ) as proc:
            proc.run(
                t_final=1.0, max_steps=6,
                checkpoint_every=3, checkpoint_path=tmp_path / "process.npz",
            )
        a = _npz_entries(tmp_path / "serial.npz")
        b = _npz_entries(tmp_path / "process.npz")
        assert set(a) == set(b)
        for name in a:
            assert a[name] == b[name], f"checkpoint entry {name} differs"

    def test_restart_continues_bit_exactly(self, tmp_path):
        setup = _blast2d_setup()
        system, grid, prim0 = setup
        path = tmp_path / "ck.npz"
        with ProcessSolver(
            system, grid, prim0.copy(), (2, 2), config=SolverConfig(**self.CFG)
        ) as first:
            first.run(
                t_final=1.0, max_steps=4, checkpoint_every=4, checkpoint_path=path
            )
        resumed = load_checkpoint(path, system)
        assert isinstance(resumed, ProcessSolver)
        assert resumed.steps == 4
        with resumed:
            # the workers' install_state landed the archive bytes verbatim
            archive = _npz_entries(path)
            for rank, (cons, p_cache) in resumed.state()["patches"].items():
                assert cons.tobytes() == archive[f"rank_{rank}"]
                assert p_cache.tobytes() == archive[f"pcache_{rank}"]
            resumed.run(t_final=1.0, max_steps=7)
            prims = resumed.gather_primitives()
            t, steps = resumed.t, resumed.steps
        with ProcessSolver(
            system, grid, prim0.copy(), (2, 2), config=SolverConfig(**self.CFG)
        ) as clean:
            clean.run(t_final=1.0, max_steps=7)
            assert (t, steps) == (clean.t, clean.steps)
            assert prims.tobytes() == clean.gather_primitives().tobytes()

    def test_manual_save_matches_run_loop_save(self, tmp_path):
        # save_checkpoint works on a live ProcessSolver outside the run loop
        # (its state() merges the workers').
        system, grid, prim0 = _rp1_setup()
        with ProcessSolver(
            system, grid, prim0.copy(), (2,), config=SolverConfig(**self.CFG)
        ) as solver:
            solver.run(
                t_final=1.0, max_steps=2,
                checkpoint_every=2, checkpoint_path=tmp_path / "loop.npz",
            )
            save_checkpoint(solver, tmp_path / "manual.npz")
        a = _npz_entries(tmp_path / "loop.npz")
        b = _npz_entries(tmp_path / "manual.npz")
        assert a == b

    def test_chaos_restart_matches_uninterrupted(self, tmp_path):
        # An injected con2prim burst floods the failsafe budget mid-run;
        # run_with_restart reloads the last checkpoint as a fresh
        # ProcessSolver and the recovered trajectory is bit-identical to
        # one that never crashed.
        path = tmp_path / "chaos.npz"
        cfg = dict(self.CFG, failsafe_frac=0.01)
        setup = _blast2d_setup()
        system, grid, prim0 = setup
        plan = FaultPlan(con2prim=[Con2PrimFault(sweep=65, n_cells=64)])
        solver = ProcessSolver(
            system, grid, prim0.copy(), (2, 2), config=SolverConfig(**cfg),
            fault_injector=FaultInjector(plan),
        )
        registry = MetricsRegistry()
        final, restarts = run_with_restart(
            solver,
            t_final=1.0,
            policy=RestartPolicy(checkpoint_path=path, checkpoint_every=2),
            loader=lambda p: load_checkpoint(p, system),
            metrics=registry,
            max_steps=8,
        )
        assert restarts == 1
        assert isinstance(final, ProcessSolver)
        assert registry.snapshot()["counters"]["resilience.restarts"] == 1
        with final:
            prims = final.gather_primitives()
            t, steps = final.t, final.steps
        with ProcessSolver(
            system, grid, prim0.copy(), (2, 2), config=SolverConfig(**cfg)
        ) as clean:
            clean.run(t_final=1.0, max_steps=8)
            assert (t, steps) == (clean.t, clean.steps)
            assert prims.tobytes() == clean.gather_primitives().tobytes()


class TestWorkerThreads:
    """A fleet worker runs its compiled kernels on one thread: the fleet
    already holds one core per rank, and a team in every worker on top
    would oversubscribe the host (2 workers x 2 threads on 2 cores ran
    ``blast2d_proc2`` ~5x slower)."""

    def test_every_worker_runs_one_thread(self):
        from repro.core.amr_parallel import AMRProcessSolver
        from repro.core.amr_solver import AMRConfig

        require_cext(2)
        system, grid, prim0 = _blast2d_setup(16)
        config = SolverConfig(cfl=0.4, kernel_target="cext", executor="process")
        with ProcessSolver(system, grid, prim0, (2, 1), config=config) as fleet:
            fleet.step()
            assert [s["cext_threads"] for s in fleet.worker_snapshots()] == [1, 1]
        with AMRProcessSolver(
            system, Grid((32, 32), ((0.0, 1.0), (0.0, 1.0))),
            lambda s, g: blast_wave_2d(s, g), config=config,
            amr=AMRConfig(block_size=8, max_levels=2), n_ranks=2,
        ) as fleet:
            fleet.step()
            assert [s["cext_threads"] for s in fleet.worker_snapshots()] == [1, 1]

    def test_the_pin_comes_before_the_driver(self, monkeypatch):
        """``_worker_main`` pins before ``worker_cls(spec, board)`` runs:
        ``OMP_NUM_THREADS`` is 1 by then, before anything could have
        loaded a compiled module — driven in-process, with a worker class
        that records what its construction sees."""
        from repro.core import parallel

        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)

        class _Board:
            def beat(self):
                pass

            def close(self):
                pass

        class _Conn:
            def __init__(self):
                self.sent = []

            def send(self, msg):
                self.sent.append(msg)

            def close(self):
                pass

        seen = []

        class _Probe:
            def __init__(self, spec, board):
                seen.append(os.environ.get("OMP_NUM_THREADS"))
                raise RuntimeError("probe done")

        monkeypatch.setattr(parallel.SupervisionBoard, "attach", lambda *a, **k: _Board())
        spec = parallel._WorkerSpec(
            rank=0, size=1, channels={}, comm_timeout_s=1.0, barrier_timeout_s=1.0,
            board_name="unused", heartbeat_interval_s=60.0, worker_cls=_Probe,
            payload={},
        )
        conn = _Conn()
        parallel._worker_main(spec, conn)
        assert seen == ["1"]
        assert conn.sent[0][0] == "error" and "probe done" in conn.sent[0][1]


class TestMakeDistributedSolver:
    def test_dispatch(self):
        system, grid, prim0 = _rp1_setup()
        serial = make_distributed_solver(
            system, grid, prim0, (2,), config=SolverConfig(executor="serial")
        )
        assert isinstance(serial, DistributedSolver)
        proc = make_distributed_solver(
            system, grid, prim0, (2,),
            config=SolverConfig(executor="process"),
            step_timeout_s=60.0,
        )
        try:
            assert isinstance(proc, ProcessSolver)
            assert proc.size == serial.size == 2
        finally:
            proc.close()

    def test_serial_factory_refuses_supervision_and_drops_timeouts(self):
        from repro.resilience.faults import ProcessFault
        from repro.resilience.policies import SupervisionPolicy

        system, grid, prim0 = _rp1_setup()
        cfg = SolverConfig(executor="serial")
        with pytest.raises(ConfigurationError, match="executor='serial'"):
            make_distributed_solver(
                system, grid, prim0, (2,), config=cfg,
                supervision=SupervisionPolicy(),
            )
        # Transport timeouts configure pipes that do not exist; a plan's
        # process faults name processes that do not exist: both ignored.
        plan = FaultPlan(
            seed=1, processes=[ProcessFault(kind="kill_rank", rank=1, step=1)]
        )
        serial = make_distributed_solver(
            system, grid, prim0, (2,), config=cfg, supervision=None,
            comm_timeout_s=1.0, step_timeout_s=1.0, ready_timeout_s=1.0,
            fault_injector=FaultInjector(plan),
        )
        assert isinstance(serial, DistributedSolver)
        serial.step()


class TestOneRankStepper:
    """The worker is the serial stepper, not a mirror of it."""

    STEPPER = (
        "_rhs", "_divergences", "_record_overlap", "compute_dt",
        "_integrate", "_patches", "_after_step", "_record_extras",
        "_check_finite", "_traffic_delta", "_recover_and_exchange",
        "_exchange", "_exchange_schedule", "_set_stage_time", "run",
        "write_checkpoint", "state", "install_state",
    )
    SHELL = (
        "_attach", "step", "snapshot", "supervision_state",
        "restore_supervision_state", "rebind", "close",
    )
    #: the AMR exchange and decision surface — one implementation, over
    #: whichever communicator the stepper was built on
    AMR_STEPPER = (
        "_fill_ghosts", "_apply_reflux", "_split_leaf", "_merge_groups",
        "_migrate", "_step_keys", "_flags_here", "_combine_flags",
        "_reduce_dt", "compute_dt", "regrid", "step", "_count_halo_traffic",
    )

    def test_rank_worker_inherits_the_stepper(self):
        assert issubclass(_RankWorker, DistributedSolver)
        assert issubclass(_RankWorker, _WorkerShell)
        own = set(vars(_RankWorker))
        assert not own & set(self.STEPPER), "the mirror is growing back"
        assert not own & set(self.SHELL)
        # The worker adds nothing but its construction: the fault oracle,
        # its schedules and the state pair are the stepper's, the
        # supervision snapshot pair the shell's.
        assert {n for n in own if not n.startswith("__")} == set()
        for name in ("step", "compute_dt"):  # bench/trace.py patches these
            assert name in vars(DistributedSolver)

    def test_communicators_share_one_surface(self):
        """The halo layer and the steppers cannot tell the communicators
        apart: the same public methods, the same ``send`` parameters."""

        def public(cls):
            return {n for n in dir(cls) if not n.startswith("_")}

        assert public(SimCommunicator) == public(ShmCommunicator)
        sim, shm = (
            list(inspect.signature(cls.send).parameters)
            for cls in (SimCommunicator, ShmCommunicator)
        )
        assert sim == shm == ["self", "src", "dest", "data", "tag", "fault"]

    def test_amr_worker_inherits_the_shell(self):
        assert issubclass(_AMRRankWorker, AMRSolver)
        assert issubclass(_AMRRankWorker, _WorkerShell)
        assert not set(vars(_AMRRankWorker)) & set(self.SHELL)

    def test_amr_worker_is_the_stepper_not_a_mirror(self):
        own = set(vars(_AMRRankWorker))
        assert not own & set(self.AMR_STEPPER), "the mirror is growing back"
        for name in self.AMR_STEPPER:
            assert callable(getattr(AMRSolver, name)), name
        # What the worker adds: its construction from a shipped state and
        # leaving the rebalance event to the parent.
        assert {n for n in own if not n.startswith("__")} == {
            "_emit_rebalance_event",
        }
        for name in ("step", "compute_dt", "regrid"):  # bench/trace.py patches these
            assert name in vars(AMRSolver)

    @staticmethod
    def _subset_stepper(prime):
        """Rank 0 of a 2-rank decomposition against a communicator that
        expects both ranks — a mis-wired fleet."""
        system, grid, prim0 = _rp1_setup()
        wall_bcs, decomp = decompose(system, grid, (2,), None, None)
        parts = decomp.scatter(grid.interior_of(prim0))
        stepper = DistributedSolver.__new__(DistributedSolver)
        stepper._init_ranks(
            system, decomp, SolverConfig(cfl=0.4), wall_bcs,
            {0: parts[0]}, (0,), SimCommunicator(decomp.size), prime=prime,
        )
        return stepper

    def test_subset_of_ranks_fails_named_at_construction(self):
        with pytest.raises(CommunicationError, match="no pending message"):
            self._subset_stepper(prime=True)

    def test_subset_of_ranks_fails_named_at_first_step(self):
        stepper = self._subset_stepper(prime=False)
        assert stepper.local_ranks == (0,)
        with pytest.raises(CommunicationError, match="allreduce needs"):
            stepper.step()
        assert stepper.steps == 0


class TestShmChannel:
    """Unit tests for the SPSC ring under the communicator."""

    def test_push_pop_roundtrip_and_wraparound(self):
        payload = np.arange(6, dtype=np.float64)
        ch = ShmChannel.create(capacity=4096)
        try:
            for epoch in range(50):  # ~50 records through a 4 KiB ring
                ch.ring.push(epoch, tag=epoch % 5, flag=FLAG_DATA,
                             payload=payload * epoch, timeout_s=1.0)
                rec = ch.ring.pop()
                assert rec is not None
                got_epoch, tag, flag, data = rec
                assert (got_epoch, tag, flag) == (epoch, epoch % 5, FLAG_DATA)
                np.testing.assert_array_equal(data, payload * epoch)
            assert ch.ring.pop() is None
        finally:
            ch.close()

    def test_tombstone_flag_carries_no_payload_semantics(self):
        ch = ShmChannel.create(capacity=1024)
        try:
            ch.ring.push(3, tag=7, flag=FLAG_TOMBSTONE,
                         payload=np.zeros(1), timeout_s=1.0)
            epoch, tag, flag, _ = ch.ring.pop()
            assert (epoch, tag, flag) == (3, 7, FLAG_TOMBSTONE)
        finally:
            ch.close()

    def test_full_ring_times_out(self):
        ch = ShmChannel.create(capacity=256)
        payload = np.zeros(16)  # one 192-byte record; two exceed the ring
        try:
            ch.ring.push(0, tag=0, flag=FLAG_DATA, payload=payload,
                         timeout_s=1.0)
            with pytest.raises(CommunicationError, match="full"):
                ch.ring.push(1, tag=0, flag=FLAG_DATA, payload=payload,
                             timeout_s=0.05)
            # Draining frees the space again.
            assert ch.ring.pop() is not None
            ch.ring.push(1, tag=0, flag=FLAG_DATA, payload=payload,
                         timeout_s=1.0)
        finally:
            ch.close()

    def test_channel_capacities_cover_every_neighbour_pair(self):
        from repro.mesh.decomposition import CartesianDecomposition

        grid = Grid((12, 12), ((0.0, 1.0), (0.0, 1.0)))
        decomp = CartesianDecomposition(grid, (2, 2))
        caps = channel_capacities(decomp, nvars=5, n_ghost=3)
        # Directed channels: both orientations of every adjacent pair.
        for src, dest in caps:
            assert (dest, src) in caps
        assert all(cap > 0 for cap in caps.values())


class TestMergeStepRecords:
    def _shard(self, rank, counters, gauges=None, hist_count=1):
        return {
            "schema": 1,
            "event": "step",
            "source": "measured",
            "rank": rank,
            "step": 5,
            "t": 0.25,
            "dt": 0.05,
            "wall_seconds": 0.1 * (rank + 1),
            "kernel_seconds": {"rhs": 1.0, "con2prim": 0.5},
            "counters": counters,
            "gauges": gauges or {},
            "histograms": {
                "con2prim.newton_iters_max": {
                    "count": hist_count, "sum": 4.0 * hist_count,
                    "min": 4.0, "max": 4.0, "mean": 4.0,
                }
            },
            "comm": {"halo_bytes": 100, "messages": 2, "collectives": 3,
                     "halo_bytes_model_per_exchange": 100},
        }

    def test_merge_sums_counters_and_maxes_gauges(self):
        merged = merge_step_records([
            self._shard(0, {"con2prim.cells": 10.0},
                        gauges={"con2prim.max_newton_iters": 3.0}),
            self._shard(1, {"con2prim.cells": 14.0},
                        gauges={"con2prim.max_newton_iters": 7.0}),
        ])
        assert merged["counters"]["con2prim.cells"] == 24.0
        assert merged["gauges"]["con2prim.max_newton_iters"] == 7.0
        assert merged["kernel_seconds"]["rhs"] == 2.0
        assert merged["comm"]["halo_bytes"] == 200
        assert merged["comm"]["messages"] == 4
        assert merged["comm"]["collectives"] == 3  # max, not sum
        assert merged["comm"]["halo_bytes_model_per_exchange"] == 100
        hist = merged["histograms"]["con2prim.newton_iters_max"]
        assert hist["count"] == 2 and hist["mean"] == 4.0
        assert "rank" not in merged

    def test_merge_rejects_diverged_shards(self):
        a = self._shard(0, {})
        b = self._shard(1, {})
        b["dt"] = 0.06
        with pytest.raises(WorkerError, match="diverg"):
            merge_step_records([a, b])
