"""Supervised process execution: in-run rank recovery and degradation.

The contract under test: with a :class:`SupervisionPolicy`, a worker rank
SIGKILL'd (crash) or SIGSTOP'd (hang) mid-run is respawned in-run and the
whole run rolled back to the last consistent snapshot — and the final
state, the dt sequence, *and* the canonical metrics stream are
bit-identical to a fault-free run.  When the restart budget is exhausted,
the run either fails with :class:`SupervisionExhausted` or — with
``degrade=True`` — folds down to the serial executor from the last
snapshot, still finishing with bit-identical physics.

The spawn-based workers re-import this module by file path, so everything
at module level must be import-safe.
"""

from __future__ import annotations

import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.comm.shm import ShmChannel, ShmCommunicator, SupervisionBoard
from repro.core.amr_parallel import AMRProcessSolver
from repro.core.amr_solver import AMRConfig, AMRSolver
from repro.core.config import SolverConfig
from repro.core.distributed import DistributedSolver
from repro.core.parallel import ProcessSolver, run_supervised
from repro.eos import IdealGasEOS
from repro.harness.report import Report
from repro.io.checkpoint import load_checkpoint
from repro.mesh.grid import Grid
from repro.obs import (
    BufferSink,
    JsonlEventSink,
    StepRecorder,
    canonical_stream,
    read_events,
)
from repro.obs.events import steps_of
from repro.physics.initial_data import SHOCK_TUBES, blast_wave_2d, shock_tube
from repro.physics.srhd import SRHDSystem
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    HaloFault,
    ProcessFault,
)
from repro.resilience.policies import (
    HaloRetryPolicy,
    RestartPolicy,
    SupervisionPolicy,
    run_with_restart,
)
from repro.utils.errors import (
    CommunicationError,
    ConfigurationError,
    SupervisionExhausted,
    WorkerError,
)

#: every test here must leave no worker process and no shm segment behind
pytestmark = pytest.mark.usefixtures("no_fleet_leaks")

META = {"suite": "supervision"}

#: fast-recovery knobs for tests (production defaults are far laxer)
FAST = dict(backoff_base_s=0.01, backoff_cap_s=0.05,
            heartbeat_interval_s=0.05)


def _rp1_setup(n=32):
    system = SRHDSystem(IdealGasEOS(gamma=SHOCK_TUBES["RP1"].gamma), ndim=1)
    grid = Grid((n,), ((0.0, 1.0),))
    return system, grid, shock_tube(system, grid, SHOCK_TUBES["RP1"])


def _blast2d_setup(n=12):
    system = SRHDSystem(IdealGasEOS(), ndim=2)
    grid = Grid((n, n), ((0.0, 1.0), (0.0, 1.0)))
    return system, grid, blast_wave_2d(system, grid)


def _run_serial(setup, dims, steps, *, plan=None, policy=None):
    """Fault-free-equivalent serial reference (process faults are ignored
    by the serial executor; logical faults replay identically)."""
    system, grid, prim0 = setup
    sink = BufferSink()
    recorder = StepRecorder(sink, meta=META)
    solver = DistributedSolver(
        system, grid, prim0.copy(), dims,
        config=SolverConfig(cfl=0.4),
        recorder=recorder,
        fault_injector=FaultInjector(plan) if plan is not None else None,
        halo_policy=policy,
    )
    solver.run(t_final=1.0, max_steps=steps)
    recorder.finish(t_end=solver.t)
    return solver, sink


def _run_supervised_process(
    setup, dims, steps, *, plan, supervision, policy=None, sink=None
):
    system, grid, prim0 = setup
    sink = sink if sink is not None else BufferSink()
    recorder = StepRecorder(sink, meta=META)
    with ProcessSolver(
        system, grid, prim0.copy(), dims,
        config=SolverConfig(cfl=0.4, executor="process"),
        recorder=recorder,
        fault_injector=FaultInjector(plan) if plan is not None else None,
        halo_policy=policy,
        supervision=supervision,
    ) as solver:
        solver.run(t_final=1.0, max_steps=steps)
        recorder.finish(t_end=solver.t)
        out = {
            "t": solver.t,
            "steps": solver.steps,
            "cons": {r: p[0] for r, p in solver.state()["patches"].items()},
            "prims": solver.gather_primitives(),
            "counters": solver.metrics.snapshot()["counters"],
            "restarts": solver.restarts_used,
            "segments": list(solver._segments),
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


class TestPlanAndPolicy:
    def test_process_fault_roundtrip(self):
        plan = FaultPlan(
            seed=3,
            processes=[
                ProcessFault(kind="kill_rank", rank=2, step=3),
                ProcessFault(kind="hang_rank", rank=0, step=5),
            ],
        )
        again = FaultPlan.from_dict(plan.to_dict())
        assert again.processes == plan.processes
        assert again.to_dict() == plan.to_dict()

    def test_process_fault_validation(self):
        with pytest.raises(ConfigurationError):
            ProcessFault(kind="segfault", rank=0, step=1)
        with pytest.raises(ConfigurationError):
            ProcessFault(kind="kill_rank", rank=-1, step=1)
        with pytest.raises(ConfigurationError):
            ProcessFault(kind="kill_rank", rank=0, step=0)

    def test_supervision_policy_validation(self):
        with pytest.raises(ConfigurationError):
            SupervisionPolicy(max_rank_restarts=-1)
        with pytest.raises(ConfigurationError):
            SupervisionPolicy(hang_timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            SupervisionPolicy(snapshot_every=0)

    def test_fault_rank_beyond_decomposition_rejected(self):
        system, grid, prim0 = _rp1_setup()
        plan = FaultPlan(
            seed=1, processes=[ProcessFault(kind="kill_rank", rank=7, step=1)]
        )
        with pytest.raises(ConfigurationError):
            ProcessSolver(
                system, grid, prim0.copy(), (2,),
                config=SolverConfig(cfl=0.4),
                fault_injector=FaultInjector(plan),
            )


class TestSupervisionBoard:
    def test_abort_breaks_barrier_wait(self):
        parent = SupervisionBoard.create(2)
        w0 = SupervisionBoard.attach(parent.name, 2, rank=0)
        caught = []

        def waiter():
            try:
                w0.wait(timeout=30.0)
            except CommunicationError as exc:
                caught.append(exc)

        th = threading.Thread(target=waiter)
        th.start()
        time.sleep(0.1)
        parent.abort()
        th.join(timeout=5.0)
        assert not th.is_alive() and caught, "abort did not break the wait"
        w0.close()
        parent.close()

    def test_dead_peer_check_names_rank(self):
        parent = SupervisionBoard.create(2)
        w0 = SupervisionBoard.attach(parent.name, 2, rank=0)
        parent.mark_dead(1)
        with pytest.raises(CommunicationError, match="rank 1"):
            w0.check(peer=1)
        w0.close()
        parent.close()

    def test_fastfail_recv_names_dead_rank(self):
        """A recv on a dead peer raises promptly (fast-fail probing), long
        before the communicator's own blocking timeout."""
        parent = SupervisionBoard.create(2)
        w0 = SupervisionBoard.attach(parent.name, 2, rank=0)
        ch = ShmChannel.create(capacity=4096)
        rd = ShmChannel.attach(ch.name, ch.capacity)
        comm = ShmCommunicator(
            0, 2, writers={}, readers={1: rd}, timeout_s=60.0, board=w0
        )
        parent.mark_dead(1)
        start = time.perf_counter()
        with pytest.raises(CommunicationError, match="rank 1"):
            comm.recv(src=1)
        assert time.perf_counter() - start < 5.0, "fast-fail was not fast"
        rd.close()
        ch.close()
        w0.close()
        parent.close()


@pytest.mark.chaos
class TestKillRecovery:
    def test_kill_rank_recovery_bitexact(self, tmp_path):
        """Acceptance: SIGKILL one rank of a 4-worker 2-D run mid-step; the
        run completes via in-run respawn, bit-identical to the fault-free
        serial run — canonical stream included — with the supervision
        counters and events in the JSONL and in Report.from_metrics."""
        setup = _blast2d_setup()
        serial, sink = _run_serial(setup, (2, 2), 6)
        plan = FaultPlan(
            seed=7, processes=[ProcessFault(kind="kill_rank", rank=2, step=3)]
        )
        path = tmp_path / "supervised.jsonl"
        jsink = JsonlEventSink(path)
        proc = _run_supervised_process(
            setup, (2, 2), 6, plan=plan,
            supervision=SupervisionPolicy(max_rank_restarts=3, **FAST),
            sink=jsink,
        )
        jsink.close()
        records = read_events(path)
        proc["sink"] = BufferSink()
        proc["sink"].records = records
        _assert_bitexact(serial, sink, proc)
        assert proc["restarts"] == 1
        assert proc["counters"]["resilience.worker_restarts"] == 1
        assert proc["counters"]["supervision.crash_detected"] == 1
        assert proc["counters"]["supervision.respawns"] == 1
        assert proc["counters"]["supervision.injected_kill_rank"] == 1
        # the JSONL stream carries the supervision events and counters
        events = [r for r in records if r.get("event") == "supervision"]
        actions = {e["action"] for e in events}
        assert {"inject", "detected", "respawned"} <= actions
        step_counters = [
            r.get("counters", {}) for r in records if r.get("event") == "step"
        ]
        assert any(
            "resilience.worker_restarts" in c for c in step_counters
        ), "worker_restarts never surfaced in the step stream"
        report = str(Report.from_metrics(records))
        assert "counter.resilience.worker_restarts" in report
        assert "counter.supervision.respawns" in report

    def test_repeated_kills_within_budget(self):
        setup = _blast2d_setup()
        serial, sink = _run_serial(setup, (2, 2), 6)
        plan = FaultPlan(
            seed=7,
            processes=[
                ProcessFault(kind="kill_rank", rank=1, step=2),
                ProcessFault(kind="kill_rank", rank=3, step=5),
            ],
        )
        proc = _run_supervised_process(
            setup, (2, 2), 6, plan=plan,
            supervision=SupervisionPolicy(max_rank_restarts=3, **FAST),
        )
        _assert_bitexact(serial, sink, proc)
        assert proc["restarts"] == 2
        assert proc["counters"]["resilience.worker_restarts"] == 2

    def test_kill_combined_with_logical_faults(self):
        """A crash recovery must restore the fault oracle too: a seeded
        halo-fault plan keeps striking the identical messages after the
        respawn (serial reference runs the same logical plan)."""
        plan_logical = [
            HaloFault(kind="duplicate", exchange=1, message=2),
            HaloFault(kind="corrupt", exchange=3, message=0),
        ]
        setup = _rp1_setup()
        policy = HaloRetryPolicy()
        serial, sink = _run_serial(
            setup, (2,), 5, plan=FaultPlan(seed=11, halo=list(plan_logical)),
            policy=policy,
        )
        plan = FaultPlan(
            seed=11, halo=list(plan_logical),
            processes=[ProcessFault(kind="kill_rank", rank=1, step=4)],
        )
        proc = _run_supervised_process(
            setup, (2,), 5, plan=plan, policy=policy,
            supervision=SupervisionPolicy(max_rank_restarts=2, **FAST),
        )
        _assert_bitexact(serial, sink, proc)
        assert proc["restarts"] == 1

    def test_shm_segments_swept_after_recovery_and_close(self):
        setup = _rp1_setup()
        plan = FaultPlan(
            seed=5, processes=[ProcessFault(kind="kill_rank", rank=1, step=1)]
        )
        proc = _run_supervised_process(
            setup, (2,), 2, plan=plan,
            supervision=SupervisionPolicy(max_rank_restarts=1, **FAST),
        )
        assert proc["restarts"] == 1
        # recovery recreated rings, so there are more names than live
        # segments ever at once — every single one must be unlinked now
        assert len(proc["segments"]) > 3
        for name in proc["segments"]:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


@pytest.mark.chaos
class TestHangRecovery:
    def test_hang_rank_recovery_bitexact(self):
        """SIGSTOP (not a crash: the process stays alive) is classified as
        a hang via heartbeat staleness and recovered identically."""
        setup = _rp1_setup()
        serial, sink = _run_serial(setup, (2,), 4)
        plan = FaultPlan(
            seed=9, processes=[ProcessFault(kind="hang_rank", rank=1, step=2)]
        )
        proc = _run_supervised_process(
            setup, (2,), 4, plan=plan,
            supervision=SupervisionPolicy(
                max_rank_restarts=2, hang_timeout_s=1.5, **FAST
            ),
        )
        _assert_bitexact(serial, sink, proc)
        assert proc["restarts"] == 1
        assert proc["counters"]["supervision.hang_detected"] >= 1
        assert proc["counters"]["supervision.injected_hang_rank"] == 1


@pytest.mark.chaos
class TestBudgetAndDegradation:
    def test_budget_exhaustion_raises_with_snapshot(self):
        setup = _rp1_setup()
        system, grid, prim0 = setup
        plan = FaultPlan(
            seed=5, processes=[ProcessFault(kind="kill_rank", rank=1, step=2)]
        )
        solver = ProcessSolver(
            system, grid, prim0.copy(), (2,),
            config=SolverConfig(cfl=0.4, executor="process"),
            fault_injector=FaultInjector(plan),
            supervision=SupervisionPolicy(max_rank_restarts=0, **FAST),
        )
        with pytest.raises(SupervisionExhausted) as err:
            solver.run(t_final=1.0, max_steps=4)
        assert isinstance(err.value, WorkerError)  # callers catching the
        # pre-supervision error type keep working
        snapshot = err.value.snapshot
        assert snapshot is not None
        assert snapshot["steps"] >= 1
        # The fold that degrade=True performs installs exactly the workers'
        # last consistent bytes into the serial stepper.
        folded = solver.fold_to_serial(snapshot)
        assert (folded.t, folded.steps) == (snapshot["t"], snapshot["steps"])
        for rank, (cons, p_cache) in folded.state()["patches"].items():
            snap_cons, snap_p_cache = snapshot["states"][rank]["patches"][rank]
            assert cons.tobytes() == snap_cons.tobytes()
            assert p_cache.tobytes() == snap_p_cache.tobytes()

    def test_degrade_to_serial_bitexact(self):
        """Budget 0 + degrade=True: the run folds down to the serial
        executor from the last snapshot and finishes with physics
        bit-identical to a fault-free run."""
        setup = _blast2d_setup()
        serial, serial_sink = _run_serial(setup, (2, 2), 6)
        ref = serial.gather_primitives()
        system, grid, prim0 = setup
        plan = FaultPlan(
            seed=7, processes=[ProcessFault(kind="kill_rank", rank=2, step=3)]
        )
        sink = BufferSink()
        recorder = StepRecorder(sink, meta=META)
        solver = ProcessSolver(
            system, grid, prim0.copy(), (2, 2),
            config=SolverConfig(cfl=0.4, executor="process"),
            recorder=recorder,
            fault_injector=FaultInjector(plan),
            supervision=SupervisionPolicy(
                max_rank_restarts=0, degrade=True, **FAST
            ),
        )
        finisher, info = run_supervised(solver, 1.0, max_steps=6)
        recorder.finish(t_end=finisher.t)
        assert info["degraded"] is True
        assert isinstance(finisher, DistributedSolver)
        assert finisher.steps == serial.steps and finisher.t == serial.t
        assert finisher.gather_primitives().tobytes() == ref.tobytes()
        snap = finisher.metrics.snapshot()["counters"]
        assert snap["supervision.degraded"] == 1
        # every step appears exactly once in the caller's stream
        steps_seen = [
            r["step"] for r in sink.records if r.get("event") == "step"
        ]
        assert steps_seen == sorted(set(steps_seen))
        assert max(steps_seen) == serial.steps
        # the twin continues the fleet's merged registries, so the stream
        # stays canonical across the fold
        assert canonical_stream(sink.records) == canonical_stream(
            serial_sink.records
        )

    def test_exhaustion_without_degrade_propagates_via_run_supervised(self):
        setup = _rp1_setup()
        system, grid, prim0 = setup
        plan = FaultPlan(
            seed=5, processes=[ProcessFault(kind="kill_rank", rank=0, step=1)]
        )
        solver = ProcessSolver(
            system, grid, prim0.copy(), (2,),
            config=SolverConfig(cfl=0.4, executor="process"),
            fault_injector=FaultInjector(plan),
            supervision=SupervisionPolicy(max_rank_restarts=0, **FAST),
        )
        with pytest.raises(SupervisionExhausted):
            run_supervised(solver, 1.0, max_steps=3)


#: canonical distributed-AMR scenario (matches amr_rp1_stream_golden.jsonl):
#: the first Morton repartition fires at the step-36 regrid, migrating at
#: least one block between ranks — the faults below strike exactly there.
AMR_STEPS = 40
AMR_FAULT_STEP = 36


def _amr_scenario():
    system = SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=1)
    grid = Grid((64,), ((0.0, 1.0),))
    config = SolverConfig(cfl=0.4)
    amr = AMRConfig(
        block_size=8, max_levels=3, refine_threshold=0.05,
        coarsen_threshold=0.02, regrid_interval=4, rebalance_threshold=1.05,
    )
    init = lambda sys, g: shock_tube(sys, g, SHOCK_TUBES["RP1"])  # noqa: E731
    return system, grid, init, config, amr


def _amr_serial_blocks():
    system, grid, init, config, amr = _amr_scenario()
    solver = AMRSolver(system, grid, init, config, amr)
    for _ in range(AMR_STEPS):
        solver.step()
    return solver, {k: leaf.cons.copy() for k, leaf in solver.forest.leaves.items()}


def _amr_supervised_run(plan, supervision, n_ranks=2):
    system, grid, init, config, amr = _amr_scenario()
    sink = BufferSink()
    solver = AMRProcessSolver(
        system, grid, init, config=config, amr=amr,
        recorder=StepRecorder(sink, meta=META), n_ranks=n_ranks,
        fault_injector=FaultInjector(plan), supervision=supervision,
    )
    try:
        for _ in range(AMR_STEPS):
            solver.step()
        return {
            "blocks": {k: p[0] for k, p in solver.state()["patches"].items()},
            "t": solver.t, "steps": solver.steps,
            "restarts": solver.restarts_used,
            "records": sink.records,
        }
    finally:
        solver.close()


def _amr_serial_reference(config=None, n_ranks=1, **run_kw):
    """The uninterrupted in-process forest, driven through ``run`` with a
    recorder (what the degrade and checkpoint tests compare against)."""
    system, grid, init, default, amr = _amr_scenario()
    sink = BufferSink()
    solver = AMRSolver(
        system, grid, init, config or default, amr,
        recorder=StepRecorder(sink, meta=META), n_ranks=n_ranks,
    )
    solver.run(1.0, max_steps=AMR_STEPS, **run_kw)
    return solver, sink


def _assert_same_forest(solver, serial):
    assert (solver.t, solver.steps) == (serial.t, serial.steps)
    assert list(solver.forest.leaves) == list(serial.forest.leaves)
    assert solver.forest.refined == serial.forest.refined
    for key, leaf in serial.forest.leaves.items():
        assert solver.forest.leaves[key].cons.tobytes() == leaf.cons.tobytes(), (
            f"block {key} diverged from the serial forest"
        )


def _npz_entries(path):
    """Every archive entry as raw bytes (meta compared as its json string)."""
    with np.load(path, allow_pickle=False) as data:
        return {
            name: str(data[name]) if name == "meta" else data[name].tobytes()
            for name in data.files
        }


def _assert_amr_bitexact(serial, blocks, proc):
    assert proc["t"] == serial.t and proc["steps"] == serial.steps
    assert set(proc["blocks"]) == set(blocks), "leaf sets diverged"
    for key, ref in blocks.items():
        assert proc["blocks"][key].tobytes() == ref.tobytes(), (
            f"block {key} diverged after recovery"
        )
    # Recovery replayed the repartition: the migration really happened.
    amr_last = [r for r in proc["records"] if r.get("event") == "step"][-1]["amr"]
    assert amr_last["repartitions"] >= 1
    assert amr_last["migrated_blocks"] >= 1


@pytest.mark.chaos
class TestAMRSupervision:
    """Distributed-AMR process backend under injected rank faults: the
    recovery must replay regrids, Morton repartitions and cross-process
    block migrations bit-exactly against the serial forest."""

    def test_kill_rank_mid_migration_bitexact(self):
        """SIGKILL a rank on the exact step whose regrid triggers the first
        repartition; the respawned rank re-executes the migration and the
        final forest matches the serial run byte for byte."""
        serial, blocks = _amr_serial_blocks()
        plan = FaultPlan(
            seed=7,
            processes=[
                ProcessFault(kind="kill_rank", rank=1, step=AMR_FAULT_STEP)
            ],
        )
        proc = _amr_supervised_run(
            plan, SupervisionPolicy(max_rank_restarts=3, **FAST)
        )
        _assert_amr_bitexact(serial, blocks, proc)
        assert proc["restarts"] == 1

    def test_hang_rank_during_repartition_bitexact(self):
        """SIGSTOP (hang, not crash) across the repartition step: heartbeat
        staleness classifies it, the rank is replaced, and the replayed
        migration still produces the identical forest."""
        serial, blocks = _amr_serial_blocks()
        plan = FaultPlan(
            seed=9,
            processes=[
                ProcessFault(kind="hang_rank", rank=1, step=AMR_FAULT_STEP)
            ],
        )
        proc = _amr_supervised_run(
            plan,
            SupervisionPolicy(max_rank_restarts=2, hang_timeout_s=1.5, **FAST),
        )
        _assert_amr_bitexact(serial, blocks, proc)
        assert proc["restarts"] == 1

    KILL_MID_MIGRATION = FaultPlan(
        seed=7,
        processes=[ProcessFault(kind="kill_rank", rank=1, step=AMR_FAULT_STEP)],
    )

    def test_degrade_finishes_on_the_serial_twin_bitexact(self):
        """Budget 0 + degrade=True, killed on the migration step: the run
        folds onto the in-process rank loop from the merged per-rank forest
        snapshot and finishes there — leaf bytes, topology and canonical
        stream equal the serial forest's, every step emitted once."""
        serial, serial_sink = _amr_serial_reference()
        system, grid, init, config, amr = _amr_scenario()
        sink = BufferSink()
        recorder = StepRecorder(sink, meta=META)
        solver = AMRProcessSolver(
            system, grid, init, config=config, amr=amr, n_ranks=2,
            recorder=recorder,
            fault_injector=FaultInjector(self.KILL_MID_MIGRATION),
            supervision=SupervisionPolicy(
                max_rank_restarts=0, degrade=True, **FAST
            ),
        )
        finisher, info = run_supervised(solver, 1.0, max_steps=AMR_STEPS)
        assert info["degraded"] is True
        assert isinstance(finisher, AMRSolver)
        assert not isinstance(finisher, AMRProcessSolver)
        _assert_same_forest(finisher, serial)
        assert finisher.repartitions >= 1  # the migration replayed on the twin
        records = steps_of(sink.records)
        assert [r["step"] for r in records] == list(range(1, AMR_STEPS + 1))
        assert canonical_stream(records) == canonical_stream(
            steps_of(serial_sink.records)
        )

    def test_inrun_checkpoints_match_serial_under_kill(self, tmp_path):
        """``checkpoint_every`` on the fleet, killed mid-migration within
        budget: every archive is entry-for-entry the in-process AMRSolver's
        at the same step (same SolverConfig and rank count on both, so
        ``meta`` matches)."""
        cfg = SolverConfig(cfl=0.4, executor="process")
        archives = {"serial": {}, "fleet": {}}

        def keep(tag):
            def callback(solver):
                if solver.steps % 2 == 0:
                    archives[tag][solver.steps] = _npz_entries(
                        tmp_path / f"{tag}.npz"
                    )
            return callback

        _amr_serial_reference(
            cfg, n_ranks=2, checkpoint_every=2, checkpoint_path=tmp_path / "serial.npz",
            callback=keep("serial"),
        )
        system, grid, init, _, amr = _amr_scenario()
        with AMRProcessSolver(
            system, grid, init, config=cfg, amr=amr, n_ranks=2,
            fault_injector=FaultInjector(self.KILL_MID_MIGRATION),
            supervision=SupervisionPolicy(max_rank_restarts=2, **FAST),
        ) as fleet:
            fleet.run(
                1.0, max_steps=AMR_STEPS, checkpoint_every=2,
                checkpoint_path=tmp_path / "fleet.npz", callback=keep("fleet"),
            )
            assert fleet.restarts_used == 1
        assert sorted(archives["fleet"]) == list(range(2, AMR_STEPS + 1, 2))
        for step, ref in archives["serial"].items():
            got = archives["fleet"][step]
            assert set(got) == set(ref), f"step {step}: entry names differ"
            for name in ref:
                assert got[name] == ref[name], f"step {step}: entry {name} differs"

    def test_run_with_restart_resumes_from_a_fleet_checkpoint(self, tmp_path):
        """Budget 0, no degrade: the fleet dies on the migration step and
        ``run_with_restart`` reloads the last archive *it* wrote — under
        the executor and rank count that wrote it, as a fresh 2-worker
        fleet — onto the uninterrupted run's bytes."""
        serial, _ = _amr_serial_reference()
        system, grid, init, config, amr = _amr_scenario()
        fleet = AMRProcessSolver(
            system, grid, init,
            config=SolverConfig(cfl=0.4, executor="process"), amr=amr,
            n_ranks=2, fault_injector=FaultInjector(self.KILL_MID_MIGRATION),
            supervision=SupervisionPolicy(max_rank_restarts=0, **FAST),
        )
        final, restarts = run_with_restart(
            fleet, 1.0,
            RestartPolicy(checkpoint_path=tmp_path / "amr.npz", checkpoint_every=2),
            loader=lambda p: load_checkpoint(p, system),
            max_steps=AMR_STEPS,
        )
        assert restarts == 1
        assert type(final) is AMRProcessSolver
        with final:
            assert (final.n_ranks, final.t, final.steps) == (2, serial.t, serial.steps)
            state = final.state()
        assert state["leaves"] == list(serial.forest.leaves)
        assert set(state["refined"]) == serial.forest.refined
        for key, leaf in serial.forest.leaves.items():
            assert state["patches"][key][0].tobytes() == leaf.cons.tobytes(), (
                f"block {key} diverged from the serial forest"
            )

    def test_budget_exhaustion_surfaces_snapshot(self):
        system, grid, init, config, amr = _amr_scenario()
        plan = FaultPlan(
            seed=5,
            processes=[ProcessFault(kind="kill_rank", rank=1, step=2)],
        )
        solver = AMRProcessSolver(
            system, grid, init, config=config, amr=amr, n_ranks=2,
            fault_injector=FaultInjector(plan),
            supervision=SupervisionPolicy(max_rank_restarts=0, **FAST),
        )
        try:
            with pytest.raises(SupervisionExhausted) as err:
                for _ in range(4):
                    solver.step()
            assert err.value.snapshot is not None
            assert err.value.snapshot["steps"] >= 1
        finally:
            solver.close()


#: the three anomalies the transport classifies, struck at step 2 of the
#: 2-rank RP1 run: a crash, a hang, and a worker-raised ReproError (an
#: unrecovered halo drop — deterministic, so never worth a retry)
MATRIX_ANOMALIES = {
    "kill_rank": FaultPlan(
        seed=5, processes=[ProcessFault(kind="kill_rank", rank=1, step=2)]
    ),
    "hang_rank": FaultPlan(
        seed=5, processes=[ProcessFault(kind="hang_rank", rank=1, step=2)]
    ),
    "logical": FaultPlan(
        seed=1, halo=[HaloFault(kind="drop", exchange=4, message=0)]
    ),
}
MATRIX_POLICIES = {"none": None, "budget0": 0, "budget2": 2}
MATRIX_STEPS = 4


@pytest.mark.chaos
class TestFailureMatrix:
    """Anomaly x policy on one small run: the one policy site decides every
    cell, and whatever it decides, no worker process and no shm segment
    survives it (``no_fleet_leaks`` asserts that after every cell)."""

    @pytest.fixture(scope="class")
    def fault_free(self):
        return _run_serial(_rp1_setup(), (2,), MATRIX_STEPS)

    @pytest.mark.parametrize("policy", list(MATRIX_POLICIES))
    @pytest.mark.parametrize("anomaly", list(MATRIX_ANOMALIES))
    def test_cell(self, anomaly, policy, fault_free):
        budget = MATRIX_POLICIES[policy]
        supervision = None if budget is None else SupervisionPolicy(
            max_rank_restarts=budget, hang_timeout_s=1.5, **FAST
        )
        system, grid, prim0 = _rp1_setup()
        sink = BufferSink()
        recorder = StepRecorder(sink, meta=META)
        solver = ProcessSolver(
            system, grid, prim0.copy(), (2,),
            config=SolverConfig(cfl=0.4, executor="process"),
            recorder=recorder,
            fault_injector=FaultInjector(MATRIX_ANOMALIES[anomaly]),
            supervision=supervision,
            # unsupervised, only the deadline finds a stopped rank
            step_timeout_s=3.0 if supervision is None else 600.0,
        )
        with solver:
            if anomaly == "logical":
                # fatal under every policy, and never retried
                with pytest.raises(WorkerError, match="CommunicationError") as err:
                    solver.run(t_final=1.0, max_steps=MATRIX_STEPS)
                assert not isinstance(err.value, SupervisionExhausted)
                assert solver.restarts_used == 0
            elif budget is None:
                with pytest.raises(WorkerError, match="rank 1") as err:
                    solver.run(t_final=1.0, max_steps=MATRIX_STEPS)
                assert not isinstance(err.value, SupervisionExhausted)
            elif budget == 0:
                with pytest.raises(SupervisionExhausted, match=r"rank\(s\) \[1\]") as err:
                    solver.run(t_final=1.0, max_steps=MATRIX_STEPS)
                assert err.value.snapshot["steps"] == 1
            else:
                solver.run(t_final=1.0, max_steps=MATRIX_STEPS)
                recorder.finish(t_end=solver.t)
                serial, serial_sink = fault_free
                proc = {
                    "t": solver.t, "steps": solver.steps,
                    "cons": {r: p[0] for r, p in solver.state()["patches"].items()},
                    "prims": solver.gather_primitives(), "sink": sink,
                }
                _assert_bitexact(serial, serial_sink, proc)
                assert solver.restarts_used == 1
        assert not any(p.is_alive() for p in solver._procs.values())
        for name in solver._segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
