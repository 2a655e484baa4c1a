"""Scratch-workspace tests: buffer pool semantics and reuse.

Every pipeline runs its hot path in its scratch workspace: a reused
workspace buffer never leaks state between rhs evaluations, and what
outlives a stage is never workspace memory.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Grid, IdealGasEOS, Solver, SolverConfig, SRHDSystem
from repro.boundary import make_boundaries
from repro.core.pipeline import HydroPipeline
from repro.core.workspace import ScratchWorkspace, scratch_buf
from repro.physics.initial_data import blast_wave_2d


class TestScratchBuf:
    def test_none_scratch_allocates_fresh(self):
        a = scratch_buf(None, "x", (4,))
        b = scratch_buf(None, "x", (4,))
        assert a.shape == (4,)
        assert a is not b

    def test_workspace_caches_by_key_shape_dtype(self, grid1d, system1d):
        ws = ScratchWorkspace(grid1d, system1d.nvars)
        a = scratch_buf(ws, "x", (4,))
        assert scratch_buf(ws, "x", (4,)) is a
        assert scratch_buf(ws, "x", (5,)) is not a
        assert scratch_buf(ws, "x", (4,), dtype=bool) is not a
        assert scratch_buf(ws, "y", (4,)) is not a

    def test_tuple_keys_coexist_per_axis(self, grid2d, system2d):
        """Per-axis keys (the pipeline's convention) never thrash."""
        ws = ScratchWorkspace(grid2d, system2d.nvars)
        f0 = scratch_buf(ws, ("flux", 0), ws.face_shape(0))
        f1 = scratch_buf(ws, ("flux", 1), ws.face_shape(1))
        assert f0 is not f1
        assert scratch_buf(ws, ("flux", 0), ws.face_shape(0)) is f0

    def test_face_shape(self, grid2d, system2d):
        ws = ScratchWorkspace(grid2d, system2d.nvars)
        n = grid2d.shape  # the interior rows: transverse ghosts are never swept
        assert ws.face_shape(0) == (system2d.nvars, n[0] + 1, n[1])
        assert ws.face_shape(1) == (system2d.nvars, n[0], n[1] + 1)

    def test_accounting(self, grid1d, system1d):
        ws = ScratchWorkspace(grid1d, system1d.nvars)
        structural = ws.nbytes
        assert ws.n_buffers == 2  # dU + prim
        scratch_buf(ws, "x", (8,))
        assert ws.n_buffers == 3
        assert ws.nbytes == structural + 8 * 8
        assert "ScratchWorkspace" in repr(ws)


class TestWorkspaceReuse:
    def _pipeline(self):
        system = SRHDSystem(IdealGasEOS(), ndim=2)
        grid = Grid((24, 24), ((0.0, 1.0), (0.0, 1.0)))
        pipe = HydroPipeline(
            system, grid, make_boundaries("outflow"), SolverConfig()
        )
        prim0 = blast_wave_2d(system, grid)
        return pipe, system.prim_to_con(prim0)[None]

    def test_rhs_reuse_is_stable(self):
        """Repeated reusing rhs calls see no state leak between evaluations."""
        pipe, cons = self._pipeline()
        first = pipe.rhs(cons.copy()).copy()
        again = pipe.rhs(cons.copy())
        np.testing.assert_array_equal(first, again)

    def test_momentum_cap_reuse_matches_fresh(self):
        """The interpreted cap's temporaries ride the workspace: nothing
        leaks from one reusing call into the next, and every call counts
        its own ``limiter.momentum_rescaled``."""
        pipe, (cons,) = self._pipeline()  # one patch: the cap is per patch
        hot = cons.copy()
        hot[1, 5:9, 7:20] = -1e3  # |S| far above the W_max cap
        first, second = hot.copy(), hot.copy()
        for state in (first, cons.copy(), second):
            pipe._limit_momentum(state, pipe.workspace)
        assert first.tobytes() == second.tobytes() != hot.tobytes()
        assert pipe.metrics.counter("limiter.momentum_rescaled").value == 2 * 4 * 13

    def test_reuse_returns_workspace_buffers(self):
        pipe, cons = self._pipeline()
        dU = pipe.rhs(cons.copy())
        assert dU is pipe.workspace.dU
        prim = pipe.recover_primitives(cons.copy(), reuse=True)
        assert prim is pipe.workspace.prim
        # A fresh recovery hands back a caller-owned array.
        assert pipe.recover_primitives(cons.copy()) is not pipe.workspace.prim

    def test_amr_reflux_fluxes_survive_reuse(self):
        """last_face_fluxes must stay valid after the buffers are reused."""
        pipe, cons = self._pipeline()
        pipe.store_fluxes = True
        prim = pipe.recover_primitives(cons.copy(), reuse=True)
        pipe.flux_divergence(prim)
        ws = pipe.workspace
        pool = [ws.dU, ws.prim, *ws._bufs.values()]
        for F in pipe.last_face_fluxes.values():
            # Stored as copies, never as views of reused workspace memory.
            assert not any(np.shares_memory(F, b) for b in pool)


class TestSteadyState:
    """What a steady-state step allocates (the workspace docstring's claim):
    the buffer pool stops growing after the first step on every driver, and
    a ``cext`` ``Solver`` step allocates one state-sized array — the state
    it returns — plus, when it computes its own dt, the primitive array
    the driver's primitive cache holds."""

    @staticmethod
    def _workspaces(driver):
        return [pipe.workspace for _label, pipe, _arr in driver._patches()]

    @pytest.mark.parametrize("target", ["numpy", "flat", "cext"])
    @pytest.mark.parametrize("driver", ["solver", "ranks", "ranks-overlap", "amr"])
    def test_pool_is_constant_from_step_two(self, driver, target):
        from repro.core.amr_solver import AMRConfig, AMRSolver
        from repro.core.distributed import DistributedSolver

        system = SRHDSystem(IdealGasEOS(), ndim=2)
        grid = Grid((16, 16), ((0.0, 1.0), (0.0, 1.0)))
        blast = dict(p_in=10.0, p_out=1.0, radius=0.2)
        config = SolverConfig(
            kernel_target=target, cfl=0.4, overlap_exchange=driver == "ranks-overlap"
        )
        if driver == "solver":
            d = Solver(system, grid, blast_wave_2d(system, grid, **blast), config,
                       make_boundaries("periodic"))
        elif driver == "amr":
            # regrid_interval beyond the run: the forest (and so the set of
            # pipelines) is fixed between regrids.
            d = AMRSolver(
                system, grid, lambda s, g: blast_wave_2d(s, g, **blast), config,
                AMRConfig(block_size=8, max_levels=2, regrid_interval=100),
            )
        else:
            d = DistributedSolver(
                system, grid, blast_wave_2d(system, grid, **blast), (2, 2),
                config=config, boundaries=make_boundaries("periodic"),
            )
        d.step()
        pool = [(ws.n_buffers, ws.nbytes) for ws in self._workspaces(d)]
        for _ in range(3):
            d.step()
        workspaces = self._workspaces(d)
        assert [(ws.n_buffers, ws.nbytes) for ws in workspaces] == pool
        fused = [k for ws in workspaces for k, *_ in ws._bufs if k[0] == "fused_flux"]
        assert not fused  # the sweep differences in-tile, with or without reflux

    def test_cext_step_allocates_the_state_it_returns(self):
        import tracemalloc

        from repro.codegen import cext_available

        if not cext_available(2):
            pytest.skip("no C toolchain")
        system = SRHDSystem(IdealGasEOS(), ndim=2)
        grid = Grid((64, 64), ((0.0, 1.0), (0.0, 1.0)))
        prim0 = blast_wave_2d(system, grid, p_in=10.0, p_out=1.0)
        peaks = {}
        for target in ("cext", "flat"):
            solver = Solver(
                system, grid, prim0.copy(), SolverConfig(kernel_target=target, cfl=0.4),
                make_boundaries("periodic"),
            )
            for _ in range(2):
                solver.step()
            for dt in (None, 1e-4):
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    solver.step(dt=dt)
                    peak = tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()
                peaks[target, dt] = peak / solver.cons.nbytes
        # The new state (plus the finite guard's byte mask and small change),
        # and compute_dt's primitive cache; the interpreted combination
        # holds several state-sized temporaries at once.
        assert 1.0 <= peaks["cext", 1e-4] < 1.5, peaks
        assert 2.0 <= peaks["cext", None] < 2.5, peaks
        assert peaks["flat", 1e-4] > 3.0, peaks
