"""End-to-end chaos tests (``pytest -m chaos``).

Each test runs a full distributed shock-tube (or a modelled cluster step)
under a seeded :class:`FaultPlan` and asserts the three-part contract of the
resilience layer:

1. recovery actually happened (``resilience.*`` counters advanced and
   appear in the JSONL event stream);
2. the same plan twice yields the identical run — metrics stream, counters,
   and final fields (chaos runs are reproducible experiments);
3. the recovered physics matches the fault-free reference: bit-identical
   when every fault is absorbed losslessly (halo retransmission,
   checkpoint/restart), and within the documented locality bound when
   burst cells were atmosphere-reset.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.boundary import make_boundaries
from repro.core import SolverConfig
from repro.core.distributed import DistributedSolver
from repro.eos import IdealGasEOS
from repro.io import load_checkpoint
from repro.mesh.grid import Grid
from repro.obs import read_events
from repro.obs.events import steps_of
from repro.physics.initial_data import RP1, shock_tube
from repro.physics.srhd import SRHDSystem
from repro.resilience import (
    Con2PrimFault,
    FaultInjector,
    FaultPlan,
    HaloFault,
    HaloRetryPolicy,
    RestartPolicy,
    run_chaos_shocktube,
    run_modelled_failover,
    run_with_restart,
)

pytestmark = pytest.mark.chaos


class TestChaosShocktube:
    def test_mixed_plan_completes_with_all_recoveries(self, tmp_path):
        events = tmp_path / "chaos.jsonl"
        result = run_chaos_shocktube(
            t_final=0.05, max_steps=20, events_path=events
        )
        counters = result["metrics"]["counters"]
        # Every targeted recovery mechanism fired.
        assert counters["resilience.halo_retries"] > 0
        assert counters["resilience.failsafe_cells"] > 0
        assert counters["resilience.fault.halo_drop"] > 0
        assert counters["resilience.fault.halo_corrupt"] > 0
        assert counters["resilience.halo_checksum_mismatch"] > 0
        assert counters["resilience.halo_stale_discarded"] > 0
        # ... and surfaced through the JSONL stream.
        steps = steps_of(read_events(events))
        assert steps, "no step records in the event stream"
        streamed = {}
        for s in steps:
            for name, delta in s["counters"].items():
                streamed[name] = streamed.get(name, 0.0) + delta
        assert streamed["resilience.halo_retries"] == counters["resilience.halo_retries"]
        assert streamed["resilience.failsafe_cells"] == counters[
            "resilience.failsafe_cells"
        ]
        assert steps[-1]["histograms"]["resilience.halo_retry_backoff_s"]["count"] > 0
        assert steps[-1]["histograms"]["solver.dt"]["count"] == len(steps)

    def test_same_plan_is_deterministic(self):
        a = run_chaos_shocktube(t_final=0.05, max_steps=12, reference=False)
        b = run_chaos_shocktube(t_final=0.05, max_steps=12, reference=False)
        assert a["metrics"]["counters"] == b["metrics"]["counters"]
        assert np.array_equal(a["primitives"], b["primitives"])
        # Step-by-step metric streams match row for row, apart from the
        # wall-clock timing fields (the only nondeterministic quantities).
        assert len(a["records"]) == len(b["records"])
        for ra, rb in zip(a["records"], b["records"]):
            assert {k: v for k, v in ra.items() if "seconds" not in k} == {
                k: v for k, v in rb.items() if "seconds" not in k
            }

    def test_halo_faults_only_are_bitwise_lossless(self):
        """Retransmission delivers the exact payload: a plan with only
        communication faults reproduces the fault-free run bit for bit."""
        plan = FaultPlan(
            seed=3,
            halo=[
                HaloFault(kind="drop", exchange=2, message=0),
                HaloFault(kind="corrupt", exchange=4, message=1),
                HaloFault(kind="duplicate", exchange=6, message=0),
                HaloFault(kind="drop", exchange=9, message=1, times=2),
            ],
        )
        result = run_chaos_shocktube(plan=plan, t_final=0.05, max_steps=15)
        assert result["metrics"]["counters"]["resilience.halo_retries"] > 0
        assert result["max_abs_diff"] == 0.0

    def test_failsafe_burst_deviation_is_bounded_and_local(self):
        """Atmosphere-reset burst cells perturb the physics; the deviation
        must stay bounded (documented tolerance: rel-L1(rho) < 5% for the
        default 3-cell burst) and localized (finite signal speed)."""
        result = run_chaos_shocktube(t_final=0.05, max_steps=20)
        assert result["metrics"]["counters"]["resilience.failsafe_cells"] == 3
        prim, ref = result["primitives"], result["reference"]
        rel_l1 = np.abs(prim[0] - ref[0]).sum() / np.abs(ref[0]).sum()
        assert rel_l1 < 0.05
        n_deviating = int((np.abs(prim - ref).max(axis=0) > 1e-8).sum())
        assert n_deviating < prim.shape[1] // 2

    def test_random_drop_plan_survives(self):
        plan = FaultPlan(seed=99, halo_random={"p_drop": 0.05})
        result = run_chaos_shocktube(plan=plan, t_final=0.05, max_steps=15)
        assert result["metrics"]["counters"]["resilience.fault.halo_drop"] > 0
        assert result["max_abs_diff"] == 0.0  # drops are lossless after retry


class TestChaosFailover:
    def test_device_failure_reexecutes_and_completes(self):
        result = run_modelled_failover()
        counters = result["metrics"]["counters"]
        assert counters["resilience.device_failed"] == 1
        assert counters["resilience.tasks_reexecuted"] > 0
        result["timeline"].validate_dependencies()

    def test_failover_deterministic(self):
        a = run_modelled_failover()
        b = run_modelled_failover()
        assert a["makespan"] == b["makespan"]
        assert a["metrics"]["counters"] == b["metrics"]["counters"]


class TestChaosRestart:
    def test_distributed_restart_matches_fault_free_within_1e8(self, tmp_path):
        """A run killed by an over-budget con2prim burst restarts from its
        periodic checkpoint and finishes; because restart is bit-exact the
        final primitives match the fault-free run to well below 1e-8."""
        path = tmp_path / "chaos-ck.npz"
        system = SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1)
        grid = Grid((128,), ((0.0, 1.0),))
        bcs = make_boundaries("outflow")
        config = SolverConfig(failsafe_frac=0.05)

        def build(injector, policy):
            return DistributedSolver(
                system,
                grid,
                shock_tube(system, grid, RP1),
                (2,),
                config,
                bcs,
                fault_injector=injector,
                halo_policy=policy,
            )

        # The burst floods a whole rank sweep (64 interior cells >> budget),
        # so the first run dies mid-way; the reloaded run carries no
        # injector and completes.
        plan = FaultPlan(con2prim=[Con2PrimFault(sweep=60, n_cells=64)])
        solver, restarts = run_with_restart(
            build(FaultInjector(plan), HaloRetryPolicy()),
            t_final=1.0,
            policy=RestartPolicy(checkpoint_path=path, checkpoint_every=2),
            loader=lambda p: load_checkpoint(p, system, bcs),
            max_steps=24,
        )
        assert restarts == 1
        assert solver.steps == 24

        reference = build(None, None)
        reference.run(t_final=1.0, max_steps=24)
        diff = np.abs(
            solver.gather_primitives() - reference.gather_primitives()
        ).max()
        assert diff < 1e-8
