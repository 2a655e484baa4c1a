"""Overlapped halo-exchange tests: faults, byte accounting, metrics.

The overlapped mode (``SolverConfig(overlap_exchange=True)``) must be
*bit-identical* to the blocking mode — same states, same dt sequence — for
every decomposition, scheme, and fault scenario; the equivalence lattice
(``tests/lattice.py``) asserts that byte for byte.  This file keeps what
only the overlapped path has: its byte accounting and its metrics.
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

from .lattice import legacy


def _blast2d_setup(n=16):
    system = SRHDSystem(IdealGasEOS(), ndim=2)
    grid = Grid((n, n), ((0.0, 1.0), (0.0, 1.0)))
    return system, grid, blast_wave_2d(system, grid)


def _rp1_setup(n=32):
    system = SRHDSystem(IdealGasEOS(gamma=SHOCK_TUBES["RP1"].gamma), ndim=1)
    grid = Grid((n,), ((0.0, 1.0),))
    return system, grid, shock_tube(system, grid, SHOCK_TUBES["RP1"])


def _run(system, grid, prim0, dims, overlap, *, steps=6, t_final=0.05, **kw):
    solver_kw = {
        k: kw.pop(k)
        for k in ("fault_injector", "halo_policy", "recorder")
        if k in kw
    }
    config = SolverConfig(cfl=0.4, overlap_exchange=overlap, **kw)
    solver = DistributedSolver(
        system, grid, prim0.copy(), dims, config=config, **solver_kw
    )
    solver.run(t_final=t_final, max_steps=steps)
    return solver


@legacy("test_overlap.py::TestBitExactness")
class TestBitExactness:
    """Blocking vs overlapped whole runs: cells of the equivalence lattice
    (``tests/lattice.py``)."""


@legacy("test_overlap.py::TestFaultBehaviour")
class TestFaultBehaviour:
    """Overlapped exchanges under the retry policy recover every injected
    fault bitwise: the faulted cells of the lattice; here, the one run
    that must die."""

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
    """Overlapped RHS exchanges of *steps* CFL steps: one per RK stage but
    stage 1 — it steps from compute_dt's (blocking) exchanged primitives."""
    return (stages - 1) * steps


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
        # stage 1 reuses on every step.
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

    def test_thin_patches_are_one_merged_strip(self):
        """Local patches narrower than 2*n_ghost have no core: the end ranks
        keep a 1-cell core next to the wall, the two middle ranks (4 cells,
        neighbours both sides) are all strip."""
        system, grid, prim0 = _rp1_setup(n=16)
        solver = _run(system, grid, prim0, (4,), True, t_final=0.1)
        assert solver.overlap_cell_counts == (2, 14)

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
        # delta is its two overlapped exchanges' worth.
        prims = solver._prims()
        handle = post_halos(solver.decomp, solver.comm, prims)
        expected = halo_exchange_time(_OVERLAP_LINK, handle.posted)
        complete_halos(handle)
        assert expected > 0
        first = next(r for r in records if r["event"] == "step")
        assert first["counters"]["comm.overlap.modeled_comm_s"] == 2 * expected
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
