"""Overlapped halo-exchange tests: bit-exactness, faults, byte accounting.

The overlapped mode (``SolverConfig(overlap_exchange=True)``) must be
*bit-identical* to the blocking mode — same states, same dt sequence — for
every decomposition, scheme, and fault scenario.  These tests are strict
``np.array_equal`` comparisons, not tolerances: the interior/strip split
reuses the exact elementwise kernels of the full sweep, and any drift here
means the region decomposition (or its floating-point accumulation order)
is wrong.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.costs import halo_exchange_time
from repro.comm.halo import halo_bytes_per_exchange, post_halos
from repro.core.config import SolverConfig
from repro.core.distributed import DistributedSolver
from repro.eos import IdealGasEOS
from repro.mesh.grid import Grid
from repro.obs import BufferSink, StepRecorder
from repro.physics.initial_data import SHOCK_TUBES, blast_wave_2d, shock_tube
from repro.physics.srhd import SRHDSystem
from repro.resilience.faults import FaultInjector, FaultPlan, HaloFault
from repro.resilience.policies import HaloRetryPolicy


def _blast2d_setup(n=16):
    system = SRHDSystem(IdealGasEOS(), ndim=2)
    grid = Grid((n, n), ((0.0, 1.0), (0.0, 1.0)))
    return system, grid, blast_wave_2d(system, grid)


def _rp1_setup(n=32):
    system = SRHDSystem(IdealGasEOS(gamma=SHOCK_TUBES["RP1"].gamma), ndim=1)
    grid = Grid((n,), ((0.0, 1.0),))
    return system, grid, shock_tube(system, grid, SHOCK_TUBES["RP1"])


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


def _run(system, grid, prim0, dims, overlap, *, steps=6, t_final=0.05, **kw):
    solver_kw = {
        k: kw.pop(k)
        for k in ("periodic", "fault_injector", "halo_policy", "recorder")
        if k in kw
    }
    config = SolverConfig(cfl=0.4, overlap_exchange=overlap, **kw)
    solver = DistributedSolver(
        system, grid, prim0.copy(), dims, config=config, **solver_kw
    )
    solver.run(t_final=t_final, max_steps=steps)
    return solver


def _assert_identical(a: DistributedSolver, b: DistributedSolver):
    """Blocking (a) and overlapped (b) runs match bitwise, rank by rank."""
    assert a.t == b.t and a.steps == b.steps
    for rank in range(a.size):
        np.testing.assert_array_equal(a.cons[rank], b.cons[rank])
    np.testing.assert_array_equal(a.gather_primitives(), b.gather_primitives())


class TestBitExactness:
    @pytest.mark.parametrize("riemann", ["llf", "hll", "hllc"])
    @pytest.mark.parametrize("limiter", ["minmod", "mc", "vanleer", "superbee"])
    def test_blast2d_all_combos(self, riemann, limiter):
        system, grid, prim0 = _blast2d_setup()
        kw = dict(riemann=riemann, reconstruction=limiter)
        blocking = _run(system, grid, prim0, (2, 2), False, **kw)
        overlapped = _run(system, grid, prim0, (2, 2), True, **kw)
        _assert_identical(blocking, overlapped)

    @pytest.mark.parametrize("dims", [(2,), (4,)])
    def test_1d_decompositions(self, dims):
        system, grid, prim0 = _rp1_setup()
        _assert_identical(
            _run(system, grid, prim0, dims, False, t_final=0.1),
            _run(system, grid, prim0, dims, True, t_final=0.1),
        )

    def test_1d_thin_patches_use_merged_strips(self):
        """Local patches narrower than 2*n_ghost collapse to one merged
        strip (no core); the split must not double-update any cell."""
        system, grid, prim0 = _rp1_setup(n=16)  # 4 cells/rank < 2*3 ghosts
        overlapped = _run(system, grid, prim0, (4,), True, t_final=0.1)
        _assert_identical(
            _run(system, grid, prim0, (4,), False, t_final=0.1), overlapped
        )
        interior_cells, strip_cells = overlapped.overlap_cell_counts
        # End ranks keep a 1-cell core next to the wall; the two middle
        # ranks (4 cells, neighbours both sides) are all strip.
        assert (interior_cells, strip_cells) == (2, 14)

    @pytest.mark.parametrize("dims", [(4, 1), (1, 4), (4, 2)])
    def test_2d_asymmetric_decompositions(self, dims):
        system, grid, prim0 = _blast2d_setup()
        _assert_identical(
            _run(system, grid, prim0, dims, False),
            _run(system, grid, prim0, dims, True),
        )

    def test_2d_periodic(self):
        from repro.boundary import make_boundaries

        system, grid, prim0 = _blast2d_setup()
        runs = []
        for overlap in (False, True):
            config = SolverConfig(cfl=0.4, overlap_exchange=overlap)
            s = DistributedSolver(
                system, grid, prim0.copy(), (2, 2), config=config,
                boundaries=make_boundaries("periodic"),
            )
            s.run(t_final=0.05, max_steps=6)
            runs.append(s)
        _assert_identical(*runs)

    def test_3d_locks_accumulation_order(self):
        """In 3-D a cell's dU sums three axis terms; the overlapped path
        must replay the blocking sweep's accumulation order bitwise."""
        system, grid, prim0 = _smooth3d_setup()
        kw = dict(periodic=(True, True, True), steps=4)
        _assert_identical(
            _run(system, grid, prim0, (2, 1, 2), False, **kw),
            _run(system, grid, prim0, (2, 1, 2), True, **kw),
        )

    @pytest.mark.parametrize(
        "scheme,target",
        [
            pytest.param("ppm", "numpy", id="ppm"),
            pytest.param("weno5", "numpy", id="weno5"),
            pytest.param("ppm", "cext", id="ppm-cext"),
            pytest.param("weno5", "cext", id="weno5-cext"),
        ],
    )
    def test_higher_order_schemes(self, scheme, target):
        system, grid, prim0 = _blast2d_setup()
        kw = dict(reconstruction=scheme, steps=3, kernel_target=target)
        blocking = _run(system, grid, prim0, (2, 2), False, **kw)
        _assert_identical(blocking, _run(system, grid, prim0, (2, 2), True, **kw))
        if target == "cext":
            # The fused wide-stencil sweep, full and region-split, is the
            # interpreted flat sweep byte for byte.
            kw["kernel_target"] = "flat"
            _assert_identical(_run(system, grid, prim0, (2, 2), False, **kw), blocking)


class TestFaultBehaviour:
    """Overlapped exchanges under the retry policy recover every injected
    fault bitwise — including stale-duplicate discard with early posts."""

    def _plan(self):
        return FaultPlan(
            seed=11,
            halo=[
                HaloFault(kind="drop", exchange=2, message=3),
                HaloFault(kind="duplicate", exchange=4, message=1),
                HaloFault(kind="corrupt", exchange=5, message=0),
            ],
        )

    def _faulted(self, overlap):
        system, grid, prim0 = _blast2d_setup()
        return _run(
            system, grid, prim0, (2, 2), overlap,
            fault_injector=FaultInjector(self._plan()),
            halo_policy=HaloRetryPolicy(max_attempts=4),
        )

    def test_faulted_overlap_matches_fault_free_blocking(self):
        system, grid, prim0 = _blast2d_setup()
        clean = _run(system, grid, prim0, (2, 2), False)
        faulted = self._faulted(True)
        _assert_identical(clean, faulted)
        snap = faulted.metrics.snapshot()["counters"]
        assert snap["resilience.fault.halo_drop"] == 1
        assert snap["resilience.fault.halo_duplicate"] == 1
        assert snap["resilience.fault.halo_corrupt"] == 1
        assert snap["resilience.halo_retries"] >= 2
        # The duplicated message's stale copy was posted before any compute
        # ran; the completed exchange still purges it.
        assert snap["resilience.halo_stale_discarded"] >= 1

    def test_same_fault_plan_same_behaviour_both_modes(self):
        """post_halos posts strips in the blocking sweep's (axis, rank,
        side) order, so a FaultPlan strikes the same logical message in
        either mode."""
        _assert_identical(self._faulted(False), self._faulted(True))

    def test_overlap_without_policy_dies_on_drop(self):
        from repro.utils.errors import CommunicationError

        system, grid, prim0 = _blast2d_setup()
        with pytest.raises(CommunicationError):
            _run(
                system, grid, prim0, (2, 2), True,
                fault_injector=FaultInjector(
                    FaultPlan(seed=1, halo=[HaloFault(kind="drop", exchange=1, message=0)])
                ),
            )


class TestByteAccounting:
    """`halo_bytes_per_exchange` model vs measured `comm.halo_bytes` must agree
    exactly in the overlapped path (regression: early-posted sends must not
    double-count retransmissions)."""

    def _solver(self, overlap, **kw):
        system, grid, prim0 = _blast2d_setup()
        config = SolverConfig(cfl=0.4, overlap_exchange=overlap)
        return DistributedSolver(system, grid, prim0, (2, 2), config=config, **kw)

    @pytest.mark.parametrize("overlap", [False, True])
    def test_explicit_dt_step_matches_model_exactly(self, overlap):
        solver = self._solver(overlap)
        model = solver.halo_bytes_per_exchange
        before = solver.comm.traffic.n_bytes
        for _ in range(3):
            solver.step(dt=1e-4)  # explicit dt: no CFL exchange, 3 RK stages
        measured = solver.comm.traffic.n_bytes - before
        assert measured == 3 * 3 * model

    @pytest.mark.parametrize("dims", [(2, 2), (4, 4)])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_recorded_cfl_step_is_the_scaling_model(self, dims, overlap):
        """A recorded CFL step sends what ``harness.scaling`` prices:
        ``rk_stages`` exchanges of the per-exchange model (compute_dt's
        exchange serves RK stage 1), first step and later steps alike."""
        from inspect import signature

        from repro.harness.scaling import simulate_step

        rk_stages = signature(simulate_step).parameters["rk_stages"].default
        system, grid, prim0 = _blast2d_setup(32)
        sink = BufferSink()
        solver = _run(
            system, grid, prim0, dims, overlap, steps=3, t_final=1.0,
            recorder=StepRecorder(sink),
        )
        assert solver.integrator.stages == rk_stages
        model = sum(halo_bytes_per_exchange(solver.decomp, system.nvars).values())
        steps = [r for r in sink.records if r["event"] == "step"]
        assert [r["comm"]["halo_bytes"] for r in steps] == [rk_stages * model] * 3

    def test_handle_posted_bytes_match_model(self):
        solver = self._solver(True)
        prims = solver._prims()
        before = solver.comm.traffic.n_bytes
        handle = post_halos(solver.decomp, solver.comm, prims)
        assert handle.posted_bytes == solver.halo_bytes_per_exchange
        assert solver.comm.traffic.n_bytes - before == handle.posted_bytes
        from repro.comm.halo import complete_halos

        complete_halos(handle)

    def test_resilient_drops_reconcile_exactly(self):
        """measured = exchanges*(model + checksums) + retransmissions, to
        the byte."""
        plan = FaultPlan(
            seed=3,
            halo=[
                HaloFault(kind="drop", exchange=1, message=2),
                HaloFault(kind="drop", exchange=3, message=5),
            ],
        )
        solver = self._solver(
            True,
            fault_injector=FaultInjector(plan),
            halo_policy=HaloRetryPolicy(max_attempts=4),
        )
        model = solver.halo_bytes_per_exchange
        decomp = solver.decomp
        n_msgs = sum(
            1
            for rank in range(decomp.size)
            for axis in range(decomp.global_grid.ndim)
            for side in (0, 1)
            if decomp.neighbor(rank, axis, side) is not None
        )
        before_bytes = solver.comm.traffic.n_bytes
        before_snap = solver.metrics.snapshot()["counters"]
        for _ in range(3):
            solver.step(dt=1e-4)
        snap = solver.metrics.snapshot()["counters"]
        measured = solver.comm.traffic.n_bytes - before_bytes
        retransmit = snap.get("resilience.halo_retransmit_bytes", 0) - before_snap.get(
            "resilience.halo_retransmit_bytes", 0
        )
        n_exchanges = 3 * 3  # 3 explicit-dt steps x 3 RK stages
        assert retransmit > 0  # the drops really forced retransmissions
        assert measured == n_exchanges * (model + 8 * n_msgs) + retransmit


def _overlapped_exchanges(stages: int, steps: int) -> int:
    """Overlapped RHS exchanges of *steps* CFL steps: one per RK stage,
    except stage 1 from step 2 on — it steps from compute_dt's (blocking)
    exchanged primitives."""
    return stages * steps - (steps - 1)


class TestOverlapMetrics:
    def _run_recorded(self):
        system, grid, prim0 = _blast2d_setup()
        sink = BufferSink()
        recorder = StepRecorder(sink, meta={"problem": "blast2d"})
        solver = _run(system, grid, prim0, (2, 2), True, recorder=recorder)
        recorder.finish(t_end=solver.t)
        return solver, sink.records

    def test_counters_are_consistent(self):
        solver, _ = self._run_recorded()
        snap = solver.metrics.snapshot()
        c = snap["counters"]
        # RK3 + CFL dt: the dt path keeps the blocking exchange, which RK
        # stage 1 reuses from step 2 on.
        assert c["comm.overlap.exchanges"] == _overlapped_exchanges(3, solver.steps)
        assert c["comm.overlap.hidden_s"] + c["comm.overlap.exposed_s"] == pytest.approx(
            c["comm.overlap.modeled_comm_s"]
        )
        assert 0.0 <= snap["gauges"]["comm.overlap.hidden_frac"] <= 1.0
        # Each exchange's core+strip regions tile every axis sweep of every
        # rank: ndim * total interior cells per exchange.
        per_exchange = sum(solver.overlap_cell_counts)
        assert per_exchange == solver.global_grid.ndim * int(
            np.prod(solver.global_grid.shape)
        )
        assert c["comm.overlap.interior_cells"] == (
            solver.overlap_cell_counts[0] * c["comm.overlap.exchanges"]
        )

    def test_recorder_carries_overlap_counters(self):
        _, records = self._run_recorded()
        steps = [r for r in records if r["event"] == "step"]
        assert steps
        summed = sum(s["counters"].get("comm.overlap.exchanges", 0) for s in steps)
        assert summed == _overlapped_exchanges(3, len(steps))

    def test_report_derives_hidden_frac(self):
        from repro.harness.report import Report

        _, records = self._run_recorded()
        report = Report.from_metrics(records)
        metrics = report.column("metric")
        assert "comm.overlap.hidden_frac" in metrics
        frac = report.rows[metrics.index("comm.overlap.hidden_frac")][1]
        assert 0.0 <= frac <= 1.0

    def test_modeled_time_matches_cost_helper(self):
        from repro.comm.halo import complete_halos
        from repro.core.distributed import _OVERLAP_LINK

        solver, records = self._run_recorded()
        # Re-post one exchange and re-price it: an exchange's modeled time
        # is exactly halo_exchange_time over its posted message list (the
        # same strips every exchange), so the first step's modeled_comm_s
        # delta is its three exchanges' worth.
        prims = solver._prims()
        handle = post_halos(solver.decomp, solver.comm, prims)
        expected = halo_exchange_time(_OVERLAP_LINK, handle.posted)
        complete_halos(handle)
        assert expected > 0
        first = next(r for r in records if r["event"] == "step")
        assert first["counters"]["comm.overlap.modeled_comm_s"] == 3 * expected
        total = solver.metrics.snapshot()["counters"]["comm.overlap.modeled_comm_s"]
        assert total == pytest.approx(_overlapped_exchanges(3, solver.steps) * expected)


class TestModelConsistency:
    def test_posted_bytes_equal_model_for_all_decomps(self, monkeypatch):
        import repro.core.distributed as distributed

        handles = []
        real_post = distributed.post_halos

        def recording_post(*args, **kwargs):
            handles.append(real_post(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(distributed, "post_halos", recording_post)
        for dims, setup in [
            ((2,), _rp1_setup),
            ((4, 1), _blast2d_setup),
            ((2, 2), _blast2d_setup),
        ]:
            system, grid, prim0 = setup()
            config = SolverConfig(overlap_exchange=True)
            solver = DistributedSolver(system, grid, prim0, dims, config=config)
            model = sum(halo_bytes_per_exchange(solver.decomp, system.nvars).values())
            del handles[:]
            solver.step(dt=1e-4)
            assert [h.posted_bytes for h in handles] == [model] * 3
