"""Scratch-workspace tests: buffer pool semantics and bit-exactness.

The workspace optimization must be *invisible*: a run through the
pipeline's scratch workspace produces bit-identical conserved states to
the allocate-per-call path (``pipeline.workspace = None``), and a reused
workspace buffer never leaks state between rhs evaluations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Grid, IdealGasEOS, Solver, SolverConfig, SRHDSystem
from repro.boundary import make_boundaries
from repro.core.pipeline import HydroPipeline
from repro.core.workspace import ScratchWorkspace, scratch_buf
from repro.physics.initial_data import RP1, blast_wave_2d, shock_tube


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
        ng = grid2d.shape_with_ghosts
        assert ws.face_shape(0) == (system2d.nvars, grid2d.shape[0] + 1, ng[1])
        assert ws.face_shape(1) == (system2d.nvars, ng[0], grid2d.shape[1] + 1)

    def test_accounting(self, grid1d, system1d):
        ws = ScratchWorkspace(grid1d, system1d.nvars)
        structural = ws.nbytes
        assert ws.n_buffers == 2  # dU + prim
        scratch_buf(ws, "x", (8,))
        assert ws.n_buffers == 3
        assert ws.nbytes == structural + 8 * 8
        assert "ScratchWorkspace" in repr(ws)


def _advance(make_system, make_prim, grid_args, config, n_steps, workspace=True):
    system = make_system()
    grid = Grid(*grid_args)
    solver = Solver(
        system, grid, make_prim(system, grid), config, make_boundaries("outflow")
    )
    if not workspace:
        solver.pipeline.workspace = None
    for _ in range(n_steps):
        solver.step()
    return grid.interior_of(solver.cons).copy(), solver.t


class TestWorkspaceBitExact:
    """Workspace path vs fresh-allocation path: identical to the last bit."""

    @pytest.mark.parametrize(
        "riemann,recon",
        [("hllc", "mc"), ("llf", "minmod"), ("hll", "weno5")],
    )
    def test_rp1_shock_tube(self, riemann, recon):
        results = []
        for ws in (True, False):
            cfg = SolverConfig(riemann=riemann, reconstruction=recon)
            state, t = _advance(
                lambda: SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1),
                lambda s, g: shock_tube(s, g, RP1),
                (((100,), ((0.0, 1.0),))),
                cfg,
                10,
                workspace=ws,
            )
            results.append((state, t))
        assert results[0][1] == results[1][1]
        np.testing.assert_array_equal(results[0][0], results[1][0])

    def test_blast2d(self):
        results = []
        for ws in (True, False):
            state, t = _advance(
                lambda: SRHDSystem(IdealGasEOS(), ndim=2),
                blast_wave_2d,
                (((32, 32), ((0.0, 1.0), (0.0, 1.0)))),
                SolverConfig(),
                5,
                workspace=ws,
            )
            results.append((state, t))
        assert results[0][1] == results[1][1]
        np.testing.assert_array_equal(results[0][0], results[1][0])


class TestWorkspaceReuse:
    def _pipeline(self, ws=True):
        system = SRHDSystem(IdealGasEOS(), ndim=2)
        grid = Grid((24, 24), ((0.0, 1.0), (0.0, 1.0)))
        pipe = HydroPipeline(
            system, grid, make_boundaries("outflow"), SolverConfig()
        )
        if not ws:
            pipe.workspace = None
        prim0 = blast_wave_2d(system, grid)
        return pipe, system.prim_to_con(prim0)

    def test_rhs_reuse_is_stable(self):
        """Repeated reusing rhs calls see no state leak between evaluations."""
        pipe, cons = self._pipeline()
        first = pipe.rhs(cons.copy()).copy()
        again = pipe.rhs(cons.copy())
        np.testing.assert_array_equal(first, again)

    def test_reuse_matches_fresh(self):
        pipe, cons = self._pipeline()
        reused = pipe.rhs(cons.copy(), reuse=True).copy()
        fresh = pipe.rhs(cons.copy(), reuse=False)
        np.testing.assert_array_equal(reused, fresh)

    def test_momentum_cap_reuse_matches_fresh(self):
        """The interpreted cap's temporaries ride the workspace: same bytes
        and same ``limiter.momentum_rescaled`` as the allocating call, and
        nothing leaks from one reusing call into the next."""
        results = {}
        for ws in (True, False):
            pipe, cons = self._pipeline(ws=ws)
            hot = cons.copy()
            hot[1, 5:9, 7:20] = -1e3  # |S| far above the W_max cap
            first, second = hot.copy(), hot.copy()
            for state in (first, cons.copy(), second):
                pipe._limit_momentum(state, pipe.workspace)
            assert first.tobytes() == second.tobytes() != hot.tobytes()
            results[ws] = (
                first.tobytes(),
                pipe.metrics.counter("limiter.momentum_rescaled").value,
            )
        assert pipe.workspace is None  # the second arm allocated per call
        assert results[True] == results[False]
        assert results[True][1] == 2 * 4 * 13

    def test_reuse_returns_workspace_buffers(self):
        pipe, cons = self._pipeline()
        dU = pipe.rhs(cons.copy(), reuse=True)
        assert dU is pipe.workspace.dU
        prim = pipe.recover_primitives(cons.copy(), reuse=True)
        assert prim is pipe.workspace.prim
        # The opt-out hands back caller-owned arrays.
        assert pipe.rhs(cons.copy(), reuse=False) is not pipe.workspace.dU

    def test_disabled_workspace(self):
        pipe, cons = self._pipeline(ws=False)
        assert pipe.workspace is None
        dU = pipe.rhs(cons.copy())  # reuse=True falls back to fresh arrays
        assert isinstance(dU, np.ndarray)

    def test_amr_reflux_fluxes_survive_reuse(self):
        """last_face_fluxes must stay valid after the buffers are reused."""
        pipe, cons = self._pipeline()
        pipe.store_fluxes = True
        prim = pipe.recover_primitives(cons.copy(), reuse=True)
        pipe.flux_divergence(prim, reuse=True)
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
    ``Solver.primitives()`` caches for its callers."""

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
