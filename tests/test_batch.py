"""Tests for the SoA-batched pipeline (repro.core.batch).

The load-bearing property is degeneracy: an N=1 batch must be
*bit-identical* to the unbatched :class:`Solver` — same dt sequence, same
kernels, same flatten order — and a batch of identical scenarios must give
every member that same bit-identical result.  Per-request isolation is
the other contract: one scenario's con2prim failure evicts that scenario
only.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.pipeline as pipeline_mod
from repro.boundary import make_boundaries
from repro.core import BatchGrid, BatchSolver, Solver, SolverConfig
from repro.mesh.grid import Grid
from repro.eos import IdealGasEOS
from repro.physics.initial_data import (
    RP1,
    RP2,
    blast_wave_2d,
    shock_tube,
    smooth_wave,
)
from repro.physics.srhd import SRHDSystem
from repro.utils.errors import ConfigurationError, RecoveryError

from .conftest import require_cext


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


class TestBitIdentity:
    @pytest.mark.parametrize("kernel_target", ["numpy", "flat", "cext"])
    def test_n1_matches_unbatched_solver_1d(self, kernel_target):
        if kernel_target == "cext":
            require_cext(1)
        system = _system()
        grid = _grid_1d(96)
        prim0 = shock_tube(system, grid, RP1)
        cfg = SolverConfig(kernel_target=kernel_target)
        ref = Solver(system, grid, prim0.copy(), cfg, make_boundaries("outflow"))
        ref.run(t_final=0.1)
        bat = BatchSolver(system, grid, [prim0.copy()], cfg, make_boundaries("outflow"))
        out = bat.run(t_final=0.1)
        assert out["steps"] == ref.summary.steps
        assert out["status"] == ["ok"]
        assert (
            bat.scenario_interior_primitives(0).tobytes()
            == ref.interior_primitives().tobytes()
        )

    def test_n1_matches_unbatched_solver_2d(self):
        system = _system(ndim=2, gamma=4.0 / 3.0)
        grid = Grid((24, 24), ((0.0, 1.0), (0.0, 1.0)))
        prim0 = blast_wave_2d(system, grid, p_in=50.0)
        cfg = SolverConfig()
        ref = Solver(system, grid, prim0.copy(), cfg, make_boundaries("outflow"))
        ref.run(t_final=0.02)
        bat = BatchSolver(system, grid, [prim0.copy()], cfg, make_boundaries("outflow"))
        bat.run(t_final=0.02)
        assert (
            bat.scenario_interior_primitives(0).tobytes()
            == ref.interior_primitives().tobytes()
        )

    @pytest.mark.parametrize(
        "ndim,recon,riemann,n_ghost",
        [(1, "mc", "hllc", 2), (1, "ppm", "hll", 3), (2, "mc", "hllc", 2)],
    )
    def test_cext_batch_is_the_flat_batch(self, ndim, recon, riemann, n_ghost):
        """The batch layout (scenarios on a trailing axis, so stencil rows
        are strided) on the compiled sweep: every member's bytes and every
        counter the numerics drive equal the interpreted flat batch's."""
        require_cext(ndim)
        if ndim == 1:
            system, t_final = _system(), 0.05
            grid = Grid((96,), ((0.0, 1.0),), n_ghost=n_ghost)
            prims = [
                shock_tube(system, grid, RP1),
                shock_tube(system, grid, RP2),
                smooth_wave(system, grid, amplitude=0.1),
            ]
        else:
            system, t_final = _system(ndim=2, gamma=4.0 / 3.0), 0.02
            grid = Grid((16, 16), ((0.0, 1.0), (0.0, 1.0)), n_ghost=n_ghost)
            prims = [blast_wave_2d(system, grid, p_in=p) for p in (20.0, 50.0, 35.0)]
        runs = {}
        for target in ("flat", "cext"):
            bat = BatchSolver(
                system, grid, [p.copy() for p in prims],
                SolverConfig(
                    kernel_target=target, reconstruction=recon, riemann=riemann
                ),
                make_boundaries("outflow"),
            )
            out = bat.run(t_final=t_final)
            assert out["status"] == ["ok"] * len(prims)
            counters = {
                name: value
                for name, value in bat.metrics.snapshot()["counters"].items()
                if name.startswith(("sanitize.", "con2prim.", "atmo."))
            }
            assert counters["con2prim.cells"] > 0
            runs[target] = bat, (out["steps"], counters)
        (flat, flat_record), (cext, cext_record) = runs["flat"], runs["cext"]
        assert "face_flux" in cext.timers and "reconstruct" not in cext.timers
        assert "reconstruct" in flat.timers
        assert cext_record == flat_record
        for i in range(len(prims)):
            assert (
                cext.scenario_interior_primitives(i).tobytes()
                == flat.scenario_interior_primitives(i).tobytes()
            ), f"scenario {i}"

    def test_replicated_batch_members_all_match_solo(self):
        # N identical scenarios share the solo run's dt sequence, so every
        # column must reproduce the unbatched result bit-for-bit.
        system = _system()
        grid = _grid_1d(64)
        prim0 = shock_tube(system, grid, RP2)
        cfg = SolverConfig()
        ref = Solver(system, grid, prim0.copy(), cfg, make_boundaries("outflow"))
        ref.run(t_final=0.05)
        bat = BatchSolver(
            system, grid, [prim0.copy() for _ in range(4)],
            cfg, make_boundaries("outflow"),
        )
        bat.run(t_final=0.05)
        expected = ref.interior_primitives().tobytes()
        for i in range(4):
            assert bat.scenario_interior_primitives(i).tobytes() == expected

    def test_batch_order_invariance(self):
        # Scenario results must not depend on their slot in the batch.
        system = _system()
        grid = _grid_1d(64)
        a = shock_tube(system, grid, RP1)
        b = smooth_wave(system, grid, amplitude=0.1)
        cfg = SolverConfig()
        fwd = BatchSolver(system, grid, [a.copy(), b.copy()], cfg)
        rev = BatchSolver(system, grid, [b.copy(), a.copy()], cfg)
        fwd.run(t_final=0.05)
        rev.run(t_final=0.05)
        assert (
            fwd.scenario_interior_primitives(0).tobytes()
            == rev.scenario_interior_primitives(1).tobytes()
        )
        assert (
            fwd.scenario_interior_primitives(1).tobytes()
            == rev.scenario_interior_primitives(0).tobytes()
        )


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


class _FailOnce:
    """Wrap con_to_prim: first call raises RecoveryError at chosen interior
    cells, later calls delegate to the real kernel."""

    def __init__(self, indices):
        self.indices = np.asarray(indices)
        self.calls = 0
        self.real = pipeline_mod.con_to_prim

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.calls == 1:
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
