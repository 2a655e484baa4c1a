"""Tests for the fault-injection & recovery subsystem (repro.resilience).

Fast, deterministic unit/integration coverage; the end-to-end chaos
scenarios live in test_chaos.py behind the ``chaos`` marker.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.boundary import make_boundaries
from repro.core import Solver, SolverConfig
from repro.core.amr_solver import AMRConfig, AMRSolver
from repro.core.distributed import DistributedSolver
from repro.comm.communicator import SimCommunicator
from repro.comm.halo import (
    CHECKSUM_TAG_OFFSET,
    _crc,
    complete_halos,
    exchange_halos,
    face_table,
    post_halos,
)
from repro.eos import IdealGasEOS
from repro.io import load_checkpoint, save_checkpoint
from repro.mesh.decomposition import CartesianDecomposition
from repro.mesh.grid import Grid
from repro.obs import MetricsRegistry
from repro.physics.con2prim import RecoveryStats, con_to_prim
from repro.physics.initial_data import RP1, shock_tube, smooth_wave
from repro.physics.srhd import SRHDSystem
from repro.resilience import (
    Con2PrimFault,
    DeviceFault,
    FaultInjector,
    FaultOracle,
    FaultPlan,
    HaloFault,
    HaloRetryPolicy,
    RestartPolicy,
    run_with_restart,
)
from repro.runtime.dag import TaskGraph
from repro.runtime.device import make_cpu
from repro.runtime.scheduler import SchedulerContext, make_scheduler
from repro.runtime.simulator import ClusterSimulator
from repro.runtime.task import Task
from repro.utils.errors import (
    CommunicationError,
    ConfigurationError,
    NumericsError,
    RecoveryError,
    ReproError,
    SchedulerError,
)


def _solver_1d(n=64, **config_kw):
    system = SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1)
    grid = Grid((n,), ((0.0, 1.0),))
    prim0 = shock_tube(system, grid, RP1)
    return Solver(
        system, grid, prim0, SolverConfig(**config_kw), make_boundaries("outflow")
    )


# ---------------------------------------------------------------------------
# Fault plans


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            seed=7,
            halo=[HaloFault(kind="drop", exchange=1, message=2, times=3)],
            devices=[DeviceFault(device="gpu0", kind="fail", at_s=0.5)],
            con2prim=[Con2PrimFault(sweep=4, n_cells=2)],
            halo_random={"p_drop": 0.1},
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = FaultPlan.load(path)
        assert loaded == plan

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict({"seed": 0, "bogus": []})
        with pytest.raises(ConfigurationError):
            FaultPlan(halo_random={"p_typo": 0.1})

    def test_rejects_bad_fault_fields(self):
        with pytest.raises(ConfigurationError):
            HaloFault(kind="vaporize", exchange=0, message=0)
        with pytest.raises(ConfigurationError):
            DeviceFault(device="d", kind="straggle", at_s=0.0, factor=0.5)
        with pytest.raises(ConfigurationError):
            Con2PrimFault(sweep=0, n_cells=0)

    def test_rejects_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            FaultPlan.load(tmp_path / "missing.json")

    def test_random_faults_deterministic(self):
        plan = FaultPlan(seed=42, halo_random={"p_drop": 0.3})

        def actions():
            inj = FaultInjector(plan)
            inj.begin_exchange()
            return [inj.decide(0, 1, 0)[0] for _ in range(50)]

        first = actions()
        assert first == actions()
        assert "drop" in first  # p=0.3 over 50 draws


# ---------------------------------------------------------------------------
# Communicator-level injection


class TestCommunicatorInjection:
    """A send's pre-decided fate, applied by the mailbox (the same
    ``fault=`` the shared-memory communicator takes)."""

    def test_drop_loses_message(self):
        comm = SimCommunicator(2)
        comm.send(0, 1, np.arange(3.0), fault=("drop", 10.0))
        with pytest.raises(CommunicationError):
            comm.recv(0, 1)

    def test_dropped_attempt_costs_one_receive(self):
        """A drop leaves a tombstone, not a gap: the retransmission posted
        behind it is only reached by the next receive, and the tombstone
        is no pending message."""
        comm = SimCommunicator(2)
        comm.send(0, 1, np.zeros(3), fault=("drop", 10.0))
        comm.send(0, 1, np.arange(3.0))
        assert comm.pending() == 1
        with pytest.raises(CommunicationError, match="no pending message"):
            comm.recv(0, 1)
        assert np.array_equal(comm.recv(0, 1), np.arange(3.0))

    def test_duplicate_delivers_twice(self):
        comm = SimCommunicator(2)
        comm.send(0, 1, np.arange(3.0), fault=("duplicate", 10.0))
        assert np.array_equal(comm.recv(0, 1), np.arange(3.0))
        assert np.array_equal(comm.recv(0, 1), np.arange(3.0))

    def test_corrupt_perturbs_payload(self):
        comm = SimCommunicator(2)
        original = np.ones(8)
        comm.send(0, 1, original, fault=("corrupt", 10.0))
        received = comm.recv(0, 1)
        assert not np.array_equal(received, original)
        assert np.array_equal(original, np.ones(8))  # sender copy untouched

    def test_non_injectable_messages_immune(self):
        """Checksums are never dealt a fate: with every data strip of the
        exchange dropped, every checksum still arrives intact."""
        decomp, states = _decomp_states()
        policy = HaloRetryPolicy(max_attempts=1)
        plan = FaultPlan(halo_random={"p_drop": 1.0})
        schedule = FaultOracle(plan, decomp, policy).next_exchange()
        assert all(tag < CHECKSUM_TAG_OFFSET for _, _, tag in schedule.attempts)
        comm = SimCommunicator(decomp.size)
        post_halos(decomp, comm, states, policy=policy, schedule=schedule)
        for face in face_table(decomp).by_face.values():
            with pytest.raises(CommunicationError):
                comm.recv(face.rank, face.nbr, face.send_tag)
            crc = comm.recv(face.rank, face.nbr, face.send_tag + CHECKSUM_TAG_OFFSET)
            assert int(crc[0]) == _crc(states[face.rank][face.send])

    def test_traffic_logged_even_for_drops(self):
        comm = SimCommunicator(2)
        comm.send(0, 1, np.zeros(4), fault=("drop", 10.0))
        assert comm.traffic.n_messages == 1
        assert comm.traffic.n_bytes == 32

    def test_discard_pending_counts(self):
        comm = SimCommunicator(2)
        comm.send(0, 1, np.zeros(2))
        comm.send(1, 0, np.zeros(2), tag=3)
        assert comm.discard_pending() == 2
        assert comm.pending() == 0


# ---------------------------------------------------------------------------
# Resilient halo exchange


def _decomp_states(n=32, nranks=2, seed=0):
    grid = Grid((n,), ((0.0, 1.0),))
    decomp = CartesianDecomposition(grid, (nranks,))
    rng = np.random.default_rng(seed)
    states = {
        r: rng.random((3,) + decomp.subgrid(r).shape_with_ghosts)
        for r in range(decomp.size)
    }
    return decomp, states


def _faulted_exchange(decomp, states, plan, policy, metrics=None):
    """One exchange over a fresh communicator, its faults dealt by the
    oracle for *plan* (exchange 0)."""
    schedule = FaultOracle(plan, decomp, policy).next_exchange()
    exchange_halos(
        decomp, SimCommunicator(decomp.size), states,
        policy=policy, metrics=metrics, schedule=schedule,
    )


def _oracle_problem():
    """A 2x2 decomposition periodic along x (8 + 4 faces per exchange) and
    a plan with a drop, a duplicate and a corrupt that hits its retry."""
    grid = Grid((12, 12), ((0.0, 1.0), (0.0, 1.0)))
    decomp = CartesianDecomposition(grid, (2, 2), periodic=(True, False))
    plan = FaultPlan(
        seed=5,
        halo=[
            HaloFault(kind="drop", exchange=0, message=1),
            HaloFault(kind="duplicate", exchange=0, message=6),
            HaloFault(kind="corrupt", exchange=1, message=2, times=2),
        ],
    )
    return decomp, plan


class TestResilientExchange:
    @pytest.mark.parametrize("kind", ["drop", "corrupt", "duplicate"])
    def test_recovers_bitwise_identical_ghosts(self, kind):
        decomp, states = _decomp_states()
        clean = {r: s.copy() for r, s in states.items()}
        exchange_halos(decomp, SimCommunicator(decomp.size), clean)

        plan = FaultPlan(halo=[HaloFault(kind=kind, exchange=0, message=0)])
        metrics = MetricsRegistry()
        _faulted_exchange(decomp, states, plan, HaloRetryPolicy(), metrics)
        for r in range(decomp.size):
            assert np.array_equal(states[r], clean[r])
        counters = metrics.snapshot()["counters"]
        assert counters[f"resilience.fault.halo_{kind}"] == 1
        if kind in ("drop", "corrupt"):
            assert counters["resilience.halo_retries"] >= 1
        if kind == "corrupt":
            assert counters["resilience.halo_checksum_mismatch"] >= 1
        if kind == "duplicate":
            assert counters["resilience.halo_stale_discarded"] >= 1

    def test_backoff_latency_recorded(self):
        decomp, states = _decomp_states()
        plan = FaultPlan(halo=[HaloFault(kind="drop", exchange=0, message=0)])
        metrics = MetricsRegistry()
        policy = HaloRetryPolicy(backoff_base_s=1e-3, backoff_cap_s=1.0)
        _faulted_exchange(decomp, states, plan, policy, metrics)
        hist = metrics.snapshot()["histograms"]["resilience.halo_retry_backoff_s"]
        assert hist["count"] >= 1
        assert hist["min"] >= 1e-3

    def test_budget_exhaustion_raises(self):
        decomp, states = _decomp_states()
        # times covers the original send plus every retransmission.
        plan = FaultPlan(
            halo=[HaloFault(kind="drop", exchange=0, message=0, times=10)]
        )
        with pytest.raises(CommunicationError, match="after 3 attempts"):
            _faulted_exchange(decomp, states, plan, HaloRetryPolicy(max_attempts=3))

    def test_exponential_backoff_schedule(self):
        policy = HaloRetryPolicy(max_attempts=5, backoff_base_s=0.1, backoff_cap_s=0.3)
        assert [policy.backoff_s(i) for i in range(4)] == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.3),
            pytest.approx(0.3),
        ]

    def test_plain_exchange_unchanged_without_policy(self):
        decomp, states = _decomp_states()
        comm = SimCommunicator(decomp.size)
        before = comm.traffic.n_bytes
        exchange_halos(decomp, comm, states)
        # No checksum traffic without a policy.
        from repro.comm.halo import halo_bytes_per_step

        expected = sum(halo_bytes_per_step(decomp, 3).values())
        assert comm.traffic.n_bytes - before == expected

    @pytest.mark.parametrize("overlapped", [False, True])
    def test_in_process_exchange_consumes_its_schedule(self, overlapped):
        """The oracle's dry run and the real exchange walk one face table:
        in-process, where every rank is held, each exchange posts every
        slot the oracle dealt — retransmissions included — and counts
        exactly the faults it was dealt."""
        decomp, plan = _oracle_problem()
        policy = HaloRetryPolicy(max_attempts=4)
        oracle = FaultOracle(plan, decomp, policy)
        comm, metrics = SimCommunicator(decomp.size), MetricsRegistry()
        rng = np.random.default_rng(0)
        states = {
            r: rng.random((3,) + decomp.subgrid(r).shape_with_ghosts)
            for r in range(decomp.size)
        }
        kw = dict(policy=policy, metrics=metrics)
        for _ in range(3):
            schedule = oracle.next_exchange(overlapped=overlapped)
            if overlapped:
                complete_halos(post_halos(decomp, comm, states, schedule=schedule, **kw))
            else:
                exchange_halos(decomp, comm, states, schedule=schedule, **kw)
            assert schedule.attempts == {}
        n_faces = 3 * 12  # 3 exchanges x (8 periodic-axis + 4 walled-axis)
        # 1 drop + 2 corrupt retransmits; every attempt carries a checksum
        assert comm.traffic.n_messages == 2 * (n_faces + 3)
        counters = metrics.snapshot()["counters"]
        assert [
            counters.get(f"resilience.fault.halo_{kind}", 0)
            for kind in ("drop", "duplicate", "corrupt")
        ] == [1, 1, 2]
        assert counters["resilience.halo_retries"] == 3


class TestFaultOracleState:
    def test_state_is_bounded_and_resumes_the_decisions(self):
        """No replay tape: the oracle's state pickles to the same size after
        5 exchanges as after 50, and an oracle restored from it deals the
        next schedules an uninterrupted one deals, RNG draws included."""
        decomp, plan = _oracle_problem()
        policy = HaloRetryPolicy(max_attempts=4)

        def after(plan, n):
            oracle = FaultOracle(plan, decomp, policy)
            for i in range(n):
                oracle.next_exchange(overlapped=i % 3 == 0)
            return oracle

        # (without random draws, so that the RNG's own integers keep their
        # width and any growth would be a tape)
        assert len(pickle.dumps(after(plan, 5).state())) == len(
            pickle.dumps(after(plan, 50).state())
        )
        plan = dataclasses.replace(
            plan, halo_random={"p_drop": 0.05, "p_duplicate": 0.05, "p_corrupt": 0.05}
        )
        uninterrupted = after(plan, 50)
        resumed = FaultOracle(plan, decomp, policy)
        resumed.restore(pickle.loads(pickle.dumps(after(plan, 50).state())))
        dealt = 0
        for i in range(20):
            a = resumed.next_exchange(overlapped=i % 2 == 0)
            b = uninterrupted.next_exchange(overlapped=i % 2 == 0)
            assert a.attempts == b.attempts
            dealt += sum(f is not None for slot in a.attempts.values() for f in slot)
        assert dealt > 0  # the resumed stretch does deal faults


# ---------------------------------------------------------------------------
# Con2prim failsafe


def _failing_cons(system, n=16, n_bad=1):
    """A smooth recoverable state with *n_bad* analytically unrecoverable
    cells (tau ~ -D: eps clamps to 0 and the residual f(p) = -p never
    crosses zero)."""
    grid = Grid((n,), ((0.0, 1.0),))
    prim = smooth_wave(system, grid)
    cons = system.prim_to_con(grid.interior_of(prim)).copy()
    for i in range(n_bad):
        cons[system.D, i] = 1.0
        cons[system.S(0), i] = 0.0
        cons[system.TAU, i] = -0.999
    return cons


class TestCon2PrimFailsafe:
    def test_unrecoverable_raises_without_failsafe(self, system1d):
        cons = _failing_cons(system1d)
        with pytest.raises(RecoveryError):
            con_to_prim(system1d, cons)

    def test_failsafe_resets_within_budget(self, system1d):
        cons = _failing_cons(system1d, n=16, n_bad=1)
        stats = RecoveryStats()
        prim = con_to_prim(
            system1d, cons, stats=stats, failsafe_frac=0.1, atmosphere=(1e-10, 1e-12)
        )
        assert stats.n_failed == 1
        assert stats.n_failsafe == 1
        # Partition invariant still holds on the failsafe path.
        assert (
            stats.n_newton_converged + stats.n_bisection + stats.n_failed
            == stats.n_cells
        )
        # The bad cell is now exactly atmosphere, cons/prim consistent.
        assert prim[system1d.RHO, 0] == pytest.approx(1e-10)
        assert prim[system1d.P, 0] == pytest.approx(1e-12)
        assert prim[system1d.V(0), 0] == 0.0
        expected_cons = system1d.prim_to_con(prim[:, :1])
        assert np.allclose(cons[:, 0], expected_cons[:, 0])

    def test_failsafe_over_budget_raises(self, system1d):
        cons = _failing_cons(system1d, n=16, n_bad=4)
        with pytest.raises(RecoveryError):
            con_to_prim(
                system1d, cons, failsafe_frac=0.1, atmosphere=(1e-10, 1e-12)
            )

    def test_injected_burst_within_budget(self):
        plan = FaultPlan(con2prim=[Con2PrimFault(sweep=0, n_cells=2)])
        injector = FaultInjector(plan)
        solver = _solver_1d(failsafe_frac=0.1)
        solver.pipeline.fault_injector = injector
        injector.metrics = solver.metrics
        solver.step(dt=1e-4)
        counters = solver.metrics.snapshot()["counters"]
        assert counters["resilience.failsafe_cells"] == 2
        assert counters["resilience.fault.con2prim_burst"] == 1

    def test_injected_burst_over_budget_raises(self):
        plan = FaultPlan(con2prim=[Con2PrimFault(sweep=0, n_cells=50)])
        system = SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1)
        grid = Grid((64,), ((0.0, 1.0),))
        solver = Solver(
            system,
            grid,
            shock_tube(system, grid, RP1),
            SolverConfig(failsafe_frac=0.05),
            make_boundaries("outflow"),
            fault_injector=FaultInjector(plan),
        )
        with pytest.raises(RecoveryError, match="exceeds the failsafe budget"):
            solver.step(dt=1e-4)

    def test_failsafe_frac_config_validated(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(failsafe_frac=1.5)


# ---------------------------------------------------------------------------
# Scheduler capability filtering & device blacklisting


class TestSchedulerEligibility:
    def _devices(self):
        return [make_cpu("cpu0"), make_cpu("cpu1")]

    def test_failed_devices_filtered(self):
        devices = self._devices()
        ctx = SchedulerContext(devices, lambda t, d: 1.0)
        task = Task(id="t0", kernel="riemann", n_cells=10)
        assert len(ctx.eligible_devices(task)) == 2
        ctx.mark_failed("cpu0")
        eligible = ctx.eligible_devices(task)
        assert [d.name for d in eligible] == ["cpu1"]
        assert "cpu0" not in ctx.device_free

    def test_no_eligible_device_names_task(self):
        ctx = SchedulerContext(self._devices(), lambda t, d: 1.0)
        ctx.mark_failed("cpu0")
        ctx.mark_failed("cpu1")
        with pytest.raises(SchedulerError, match="'t0'"):
            ctx.eligible_devices(Task(id="t0", kernel="riemann", n_cells=10))

    def test_unknown_kernel_names_task(self):
        ctx = SchedulerContext(self._devices(), lambda t, d: 1.0)
        with pytest.raises(SchedulerError, match="'warp'"):
            ctx.eligible_devices(Task(id="t1", kernel="warp", n_cells=10))

    def test_fixed_cost_tasks_run_anywhere(self):
        ctx = SchedulerContext(self._devices(), lambda t, d: 1.0)
        task = Task(id="comm", kernel="comm", n_cells=0, fixed_cost_s=1e-3)
        assert len(ctx.eligible_devices(task)) == 2

    def test_pinned_to_failed_device_raises(self):
        ctx = SchedulerContext(self._devices(), lambda t, d: 1.0)
        ctx.mark_failed("cpu0")
        task = Task(id="t2", kernel="riemann", n_cells=10, pinned_device="cpu0")
        with pytest.raises(SchedulerError, match="failed device"):
            ctx.eligible_devices(task)


def _chain_graph(n_tasks=8, n_cells=1000):
    tasks = [Task(id="t0", kernel="riemann", n_cells=n_cells, block=0)]
    for i in range(1, n_tasks):
        tasks.append(
            Task(
                id=f"t{i}",
                kernel="riemann",
                n_cells=n_cells,
                deps=(f"t{i-1}",),
                block=i,
            )
        )
    return TaskGraph(tasks)


class TestSimulatorFailover:
    def _cost(self, task, device):
        return device.kernel_time(task.kernel, task.n_cells)

    @pytest.mark.parametrize("policy", ["static", "dynamic", "work-stealing"])
    def test_failed_device_work_reexecuted(self, policy):
        devices = [make_cpu("cpu0"), make_cpu("cpu1")]
        graph = _chain_graph()
        baseline = ClusterSimulator(devices, self._cost, make_scheduler(policy)).run(
            graph
        )
        t_fail = baseline.makespan / 2
        plan = FaultPlan(devices=[DeviceFault(device="cpu0", kind="fail", at_s=t_fail)])
        metrics = MetricsRegistry()
        sim = ClusterSimulator(
            [make_cpu("cpu0"), make_cpu("cpu1")],
            self._cost,
            make_scheduler(policy),
            fault_injector=FaultInjector(plan),
            metrics=metrics,
        )
        timeline = sim.run(_chain_graph())
        timeline.validate_dependencies()
        assert len(timeline.records) == 8  # every task completed exactly once
        counters = metrics.snapshot()["counters"]
        assert counters["resilience.device_failed"] == 1
        assert counters["resilience.tasks_reexecuted"] >= 1
        # Nothing runs on the dead device after its failure time.
        for r in timeline.records:
            if r.device == "cpu0":
                assert r.end <= t_fail

    def test_reexec_delay_histogram(self):
        plan = FaultPlan(devices=[DeviceFault(device="cpu0", kind="fail", at_s=1e-4)])
        metrics = MetricsRegistry()
        sim = ClusterSimulator(
            [make_cpu("cpu0"), make_cpu("cpu1")],
            self._cost,
            make_scheduler("dynamic"),
            fault_injector=FaultInjector(plan),
            metrics=metrics,
        )
        sim.run(_chain_graph())
        hist = metrics.snapshot()["histograms"]["resilience.task_reexec_delay_s"]
        assert hist["count"] >= 1
        assert hist["max"] >= 0.0

    def test_straggler_slows_tasks_after_onset(self):
        devices = [make_cpu("cpu0")]
        graph = _chain_graph(n_tasks=4)
        clean = ClusterSimulator(devices, self._cost, make_scheduler("static")).run(
            graph
        )
        plan = FaultPlan(
            devices=[DeviceFault(device="cpu0", kind="straggle", at_s=0.0, factor=5.0)]
        )
        metrics = MetricsRegistry()
        sim = ClusterSimulator(
            [make_cpu("cpu0")],
            self._cost,
            make_scheduler("static"),
            fault_injector=FaultInjector(plan),
            metrics=metrics,
        )
        slow = sim.run(_chain_graph(n_tasks=4))
        assert slow.makespan == pytest.approx(5.0 * clean.makespan)
        assert metrics.snapshot()["counters"]["resilience.task_straggled"] == 4

    def test_only_device_failing_raises_named_error(self):
        plan = FaultPlan(devices=[DeviceFault(device="cpu0", kind="fail", at_s=0.0)])
        sim = ClusterSimulator(
            [make_cpu("cpu0")],
            self._cost,
            make_scheduler("dynamic"),
            fault_injector=FaultInjector(plan),
        )
        with pytest.raises(SchedulerError):
            sim.run(_chain_graph(n_tasks=2))


# ---------------------------------------------------------------------------
# Solver step guards (satellite: dt / NaN validation)


class TestStepGuards:
    @pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan"), float("inf")])
    def test_unigrid_rejects_bad_dt(self, dt):
        solver = _solver_1d()
        with pytest.raises(NumericsError, match="invalid time step"):
            solver.step(dt=dt)

    def test_unigrid_nan_state_names_cell(self):
        # The guard runs right after the integrator update, before anything
        # downstream consumes the state; exercise it directly.
        solver = _solver_1d()
        solver.step(dt=1e-4)
        solver.cons[0, 7] = np.nan
        with pytest.raises(NumericsError, match=r"variable 0, cell \(7,\)"):
            solver._check_finite()

    def test_distributed_nan_names_rank_and_cell(self):
        system = SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1)
        grid = Grid((32,), ((0.0, 1.0),))
        dsolver = DistributedSolver(
            system, grid, shock_tube(system, grid, RP1), (2,)
        )
        dsolver.step(dt=1e-4)
        dsolver.cons[1][2, 5] = np.inf
        with pytest.raises(NumericsError, match=r"rank 1, variable 2, cell \(5,\)"):
            dsolver._check_finite()

    @staticmethod
    def _amr(n_ranks=None, config=None, **amr_kw):
        system = SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1)
        grid = Grid((64,), ((0.0, 1.0),))
        amr = AMRConfig(block_size=8, max_levels=2, **amr_kw)
        ic = lambda sys_, g: shock_tube(sys_, g, RP1)
        if n_ranks is None:
            return AMRSolver(system, grid, ic, config=config, amr=amr)
        return AMRSolver(system, grid, ic, amr=amr, n_ranks=n_ranks)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan"), float("inf")])
    def test_amr_rejects_bad_dt(self, dt):
        solver = self._amr()
        with pytest.raises(NumericsError, match=r"invalid time step .*\(step 1\)"):
            solver.step(dt=dt)
        assert solver.steps == 0

    def test_amr_nan_state_names_block_before_regrid(self):
        # regrid_interval=1: without the guard the NaN update would be
        # marched straight into regrid (a RecoveryError from deep inside
        # its ghosted snapshot, naming no block).
        solver = self._amr(regrid_interval=1, config=SolverConfig(integrator="euler"))
        key = list(solver.forest.leaves)[2]
        grid = solver.forest.leaves[key].grid
        real_rhs = solver._rhs

        def poisoned_rhs(parts):
            dU = real_rhs(parts)
            grid.interior_of(dU[key])[1, 3] = np.nan
            return dU

        solver._rhs = poisoned_rhs
        regrids = solver.regrids
        with pytest.raises(NumericsError, match="non-finite conserved state") as err:
            solver.step(dt=1e-4)
        assert "after step 1" in str(err.value)
        assert f"block {key}, variable 1, interior cell (3,)" in str(err.value)
        assert solver.regrids == regrids

    def test_distributed_amr_nan_names_rank_and_block(self):
        solver = self._amr(n_ranks=2)
        solver.step(dt=1e-4)
        key = list(solver.forest.leaves)[-1]
        leaf = solver.forest.leaves[key]
        leaf.grid.interior_of(leaf.cons)[0, 0] = np.inf
        rank = solver.assignment[key]
        assert rank == 1
        with pytest.raises(NumericsError, match=f"rank {rank}, block") as err:
            solver._check_finite()
        assert f"block {key}, variable 0, interior cell (0,)" in str(err.value)

    def test_dt_and_newton_histograms_observed(self):
        solver = _solver_1d()
        solver.step(dt=1e-4)
        solver.step(dt=2e-4)
        hists = solver.metrics.snapshot()["histograms"]
        assert hists["solver.dt"]["count"] == 2
        assert hists["solver.dt"]["max"] == pytest.approx(2e-4)
        assert hists["con2prim.newton_iters_max"]["count"] >= 1
        assert hists["con2prim.newton_iters_max"]["max"] >= 1


# ---------------------------------------------------------------------------
# Checkpoint / auto-restart


class TestCheckpointRestart:
    def test_periodic_checkpoint_written(self, tmp_path):
        path = tmp_path / "ck.npz"
        solver = _solver_1d()
        solver.run(t_final=1.0, max_steps=4, checkpoint_every=2, checkpoint_path=path)
        assert path.exists()

    def test_checkpoint_every_requires_path(self):
        solver = _solver_1d()
        with pytest.raises(ConfigurationError):
            solver.run(t_final=1.0, max_steps=2, checkpoint_every=2)

    def test_resume_then_continue_bit_identical(self, tmp_path):
        path = tmp_path / "ck.npz"
        uninterrupted = _solver_1d()
        uninterrupted.run(t_final=1.0, max_steps=10)

        first = _solver_1d()
        first.run(t_final=1.0, max_steps=6, checkpoint_every=6, checkpoint_path=path)
        resumed = load_checkpoint(path, first.system, make_boundaries("outflow"))
        resumed.run(t_final=1.0, max_steps=10)
        assert resumed.summary.steps == uninterrupted.summary.steps
        assert resumed.t == uninterrupted.t
        assert np.array_equal(resumed.cons, uninterrupted.cons)

    def test_run_with_restart_recovers(self, tmp_path):
        path = tmp_path / "ck.npz"
        system = SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1)
        # A burst far over the failsafe budget kills the run after a few
        # steps; the restarted run (fresh injector-free solver) completes.
        plan = FaultPlan(con2prim=[Con2PrimFault(sweep=40, n_cells=64)])

        def build(injector):
            grid = Grid((64,), ((0.0, 1.0),))
            return Solver(
                system,
                grid,
                shock_tube(system, grid, RP1),
                SolverConfig(failsafe_frac=0.05),
                make_boundaries("outflow"),
                fault_injector=injector,
            )

        metrics = MetricsRegistry()
        solver, restarts = run_with_restart(
            build(FaultInjector(plan)),
            t_final=1.0,
            policy=RestartPolicy(checkpoint_path=path, checkpoint_every=2),
            loader=lambda p: load_checkpoint(p, system, make_boundaries("outflow")),
            metrics=metrics,
            max_steps=20,
        )
        assert restarts == 1
        assert solver.summary.steps == 20
        assert metrics.snapshot()["counters"]["resilience.restarts"] == 1
        # Physics matches a run that never crashed: restart is bit-exact.
        clean = _solver_1d()
        clean.run(t_final=1.0, max_steps=20)
        assert np.array_equal(solver.cons, clean.cons)

    def test_run_with_restart_budget_exhausted(self, tmp_path):
        path = tmp_path / "ck.npz"
        system = SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1)
        plan = FaultPlan(
            con2prim=[Con2PrimFault(sweep=s, n_cells=64) for s in (10, 50, 90, 130)]
        )

        def build(injector):
            grid = Grid((64,), ((0.0, 1.0),))
            return Solver(
                system,
                grid,
                shock_tube(system, grid, RP1),
                SolverConfig(failsafe_frac=0.05),
                make_boundaries("outflow"),
                fault_injector=injector,
            )

        with pytest.raises(RecoveryError):
            run_with_restart(
                build(FaultInjector(plan)),
                t_final=1.0,
                policy=RestartPolicy(
                    checkpoint_path=path, checkpoint_every=1, max_restarts=1
                ),
                # Reload WITH a fresh injector: the replayed plan keeps
                # killing the run until the restart budget runs out.
                loader=lambda p: (
                    s := load_checkpoint(p, system, make_boundaries("outflow")),
                    setattr(s.pipeline, "fault_injector", FaultInjector(plan)),
                )[0],
                max_steps=200,
            )

    def test_distributed_checkpoint_round_trip(self, tmp_path):
        path = tmp_path / "dck.npz"
        system = SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1)
        grid = Grid((64,), ((0.0, 1.0),))

        def build():
            return DistributedSolver(
                system, grid, shock_tube(system, grid, RP1), (2,),
                SolverConfig(), make_boundaries("outflow"),
            )

        uninterrupted = build()
        uninterrupted.run(t_final=1.0, max_steps=10)

        first = build()
        first.run(t_final=1.0, max_steps=6)
        save_checkpoint(first, path)
        resumed = load_checkpoint(path, system, make_boundaries("outflow"))
        assert resumed.steps == 6
        assert resumed.t == first.t
        # install_state landed the saved bytes verbatim
        for rank, (cons, p_cache) in first.state()["patches"].items():
            got_cons, got_p_cache = resumed.state()["patches"][rank]
            assert got_cons.tobytes() == cons.tobytes()
            assert got_p_cache.tobytes() == p_cache.tobytes()
        resumed.run(t_final=1.0, max_steps=10)
        assert resumed.steps == uninterrupted.steps
        for rank in range(uninterrupted.size):
            assert np.array_equal(resumed.cons[rank], uninterrupted.cons[rank])
        assert np.array_equal(
            resumed.gather_primitives(), uninterrupted.gather_primitives()
        )

    def test_distributed_periodic_checkpoint_in_run(self, tmp_path):
        path = tmp_path / "dck.npz"
        system = SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1)
        grid = Grid((32,), ((0.0, 1.0),))
        dsolver = DistributedSolver(
            system, grid, shock_tube(system, grid, RP1), (2,)
        )
        dsolver.run(t_final=1.0, max_steps=4, checkpoint_every=2, checkpoint_path=path)
        resumed = load_checkpoint(path, system, make_boundaries("outflow"))
        assert isinstance(resumed, DistributedSolver)
        assert resumed.steps == 4

    def test_distributed_checkpoint_kind_mismatch(self, tmp_path):
        """The archive's kind, not the caller, picks the driver: a unigrid
        archive reloads as the unigrid Solver."""
        path = tmp_path / "uni.npz"
        solver = _solver_1d()
        solver.run(t_final=1.0, max_steps=2, checkpoint_every=2, checkpoint_path=path)
        resumed = load_checkpoint(path, solver.system)
        assert type(resumed) is type(solver)
        assert resumed.cons.tobytes() == solver.cons.tobytes()

    def test_amr_run_with_restart_recovers(self, tmp_path):
        """The shared run gives AMRSolver ``checkpoint_every`` too, so
        ``run_with_restart`` drives it: a run failed mid-way restarts from
        its last forest checkpoint onto the uninterrupted run's bytes."""
        path = tmp_path / "amr.npz"
        solver = TestStepGuards._amr(regrid_interval=2)
        system = solver.system
        real_rhs, calls = solver._rhs, {"n": 0}

        def failing_rhs(parts):
            calls["n"] += 1
            if calls["n"] == 3 * 5 + 2:  # mid-way through step 6
                raise ReproError("injected mid-step failure")
            return real_rhs(parts)

        solver._rhs = failing_rhs
        metrics = MetricsRegistry()
        solver, restarts = run_with_restart(
            solver,
            t_final=1.0,
            policy=RestartPolicy(checkpoint_path=path, checkpoint_every=2),
            loader=lambda p: load_checkpoint(p, system),
            metrics=metrics,
            max_steps=9,
        )
        assert restarts == 1
        assert metrics.snapshot()["counters"]["resilience.restarts"] == 1
        clean = TestStepGuards._amr(regrid_interval=2)
        clean.run(t_final=1.0, max_steps=9)
        assert (solver.steps, solver.t) == (9, clean.t)
        assert solver.regrids == clean.regrids > 0
        assert list(solver.forest.leaves) == list(clean.forest.leaves)
        assert solver.forest.refined == clean.forest.refined
        for key, leaf in clean.forest.leaves.items():
            assert solver.forest.leaves[key].cons.tobytes() == leaf.cons.tobytes()
