"""Tests for the SoA-batched pipeline (repro.core.batch).

The load-bearing property is degeneracy: a batch member is *bit-identical*
to the unbatched :class:`Solver` in any slot — the lattice's batch cells.
Per-request isolation is the other contract: one scenario's con2prim
failure evicts that scenario only.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.pipeline as pipeline_mod
from repro.core import BatchGrid, BatchSolver, SolverConfig
from repro.mesh.grid import Grid
from repro.eos import IdealGasEOS
from repro.physics.initial_data import RP1, shock_tube
from repro.physics.srhd import SRHDSystem
from repro.utils.errors import ConfigurationError, RecoveryError

from .lattice import legacy


def _system(ndim=1, gamma=RP1.gamma):
    return SRHDSystem(IdealGasEOS(gamma=gamma), ndim=ndim)


def _grid_1d(nx=64):
    return Grid((nx,), ((0.0, 1.0),))


class TestBatchGrid:
    def test_trailing_batch_axis(self):
        base = _grid_1d(32)
        bg = BatchGrid(base, 5)
        assert bg.shape == (32, 5)
        assert bg.batch_axis == 1
        assert bg.phys_ndim == 1
        assert bg.n_ghost == base.n_ghost

    def test_scenario_attribution_is_mod_n(self):
        bg = BatchGrid(_grid_1d(32), 5)
        # Interior flat order is C order over (nx, n_batch): the batch
        # slot is the fastest-varying index.
        assert [bg.scenario_index(i) for i in range(7)] == [0, 1, 2, 3, 4, 0, 1]

    def test_rejects_empty_batch(self):
        with pytest.raises(ConfigurationError):
            BatchGrid(_grid_1d(), 0)


@legacy("test_batch.py::TestBitIdentity")
class TestBitIdentity:
    """A batch member is the unbatched :class:`Solver` run bit for bit, in
    any slot and on every target: cells of the equivalence lattice
    (``tests/lattice.py``)."""


class TestBatchSolverValidation:
    def test_shape_mismatch_names_scenario(self):
        system = _system()
        grid = _grid_1d(64)
        good = shock_tube(system, grid, RP1)
        bad = np.zeros((system.nvars, 10))
        with pytest.raises(ConfigurationError, match="scenario 1"):
            BatchSolver(system, grid, [good, bad])

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            BatchSolver(_system(), _grid_1d(), [])

    def test_state_is_refused(self):
        solver = BatchSolver(_system(), _grid_1d(), [shock_tube(_system(), _grid_1d(), RP1)])
        with pytest.raises(ConfigurationError, match="BatchSolver has no state pair"):
            solver.state()

    def test_install_state_is_refused(self):
        solver = BatchSolver(_system(), _grid_1d(), [shock_tube(_system(), _grid_1d(), RP1)])
        with pytest.raises(ConfigurationError, match="BatchSolver has no state pair"):
            solver.install_state({"t": 0.0, "steps": 0, "patches": {}})


class _FailOnce:
    """Wrap con_to_prim: call *at* (the first by default) raises
    RecoveryError at chosen interior cells, every other call delegates to
    the real kernel."""

    def __init__(self, indices, at=1):
        self.indices = np.asarray(indices)
        self.at = at
        self.calls = 0
        self.real = pipeline_mod.con_to_prim

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.calls == self.at:
            raise RecoveryError(
                "injected failure", n_failed=len(self.indices), indices=self.indices
            )
        return self.real(*args, **kwargs)


class TestPerScenarioIsolation:
    def test_failure_evicts_only_owning_scenario(self, monkeypatch):
        system = _system()
        grid = _grid_1d(64)
        prims = [shock_tube(system, grid, RP1) for _ in range(3)]
        bat = BatchSolver(system, grid, prims, SolverConfig())
        # Interior flat order over (nx, 3): cells owned by scenario 1.
        failer = _FailOnce([1, 4, 7])
        monkeypatch.setattr(pipeline_mod, "con_to_prim", failer)
        out = bat.run(t_final=0.05)
        assert out["status"] == ["ok", "failed", "ok"]
        assert list(out["failures"]) == [1]
        assert "injected failure" in out["failures"][1]
        # Survivors completed the full run with finite state.
        for i in (0, 2):
            assert np.isfinite(bat.scenario_interior_primitives(i)).all()
        assert bat.metrics.snapshot()["counters"]["batch.scenarios_failed"] == 1

    def test_survivors_match_clean_run_count(self, monkeypatch):
        # Eviction parks the failed column on a benign state, so the
        # surviving scenarios keep stepping (same number of steps as a
        # clean batch would take, up to the shared-dt change from the
        # parked column, which is strictly slower).
        system = _system()
        grid = _grid_1d(64)
        prims = [shock_tube(system, grid, RP1) for _ in range(2)]
        bat = BatchSolver(system, grid, prims, SolverConfig())
        failer = _FailOnce([1])  # scenario 1 cells only
        monkeypatch.setattr(pipeline_mod, "con_to_prim", failer)
        out = bat.run(t_final=0.05)
        assert out["status"] == ["ok", "failed"]
        assert out["t"] == pytest.approx(0.05)
        assert out["steps"] > 0

    @pytest.mark.parametrize("driver", ["BatchSolver", "BatchService"])
    @pytest.mark.parametrize("at", [1, 2, 4])
    def test_any_recovery_of_a_step_evicts_only_its_scenario(self, monkeypatch, at, driver):
        """Calls 1 and 4 are steps 1 and 2's ``compute_dt`` recoveries, call 2
        is step 1's RK stage 2: each evicts scenario 1 alone."""
        failer = _FailOnce([1, 4, 7], at=at)
        monkeypatch.setattr(pipeline_mod, "con_to_prim", failer)
        if driver == "BatchService":
            from repro.serve import BatchService, ScenarioSpec

            spec = ScenarioSpec(kind="shock_tube", problem="RP1", nx=64, t_final=0.05)
            reqs = BatchService().sweep([spec] * 3)
            status = [r.status for r in reqs]
            assert "injected failure" in reqs[1].error
        else:
            system, grid = _system(), _grid_1d(64)
            prims = [shock_tube(system, grid, RP1) for _ in range(3)]
            out = BatchSolver(system, grid, prims, SolverConfig()).run(t_final=0.05)
            status = out["status"]
            assert "injected failure" in out["failures"][1]
        assert failer.calls > at
        assert status == ["ok", "failed", "ok"]

    def test_indexless_failure_fails_all_active(self, monkeypatch):
        system = _system()
        grid = _grid_1d(64)
        prims = [shock_tube(system, grid, RP1) for _ in range(2)]
        bat = BatchSolver(system, grid, prims, SolverConfig())

        class FailAllOnce(_FailOnce):
            def __call__(self, *args, **kwargs):
                self.calls += 1
                if self.calls == 1:
                    raise RecoveryError("total loss", n_failed=128, indices=None)
                return self.real(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "con_to_prim", FailAllOnce([]))
        out = bat.run(t_final=0.05)
        assert out["status"] == ["failed", "failed"]
