"""Integration tests: the distributed solver must reproduce the single-grid
solver exactly (the property that validates the whole comm substrate)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Grid, IdealGasEOS, Solver, SolverConfig, SRHDSystem
from repro.boundary import make_boundaries
from repro.core import DistributedSolver
from repro.core.pipeline import HydroPipeline
from repro.obs import BufferSink, StepRecorder, canonical_stream
from repro.physics.initial_data import RP1, blast_wave_2d, shock_tube, smooth_wave
from repro.resilience.faults import Con2PrimFault, FaultInjector, FaultPlan
from repro.utils.errors import ConfigurationError, RecoveryError

from .conftest import require_cext


class TestEquivalence:
    @pytest.mark.parametrize("dims", [(2,), (4,)])
    def test_1d_shock_tube_matches_single_grid(self, dims):
        eos = IdealGasEOS(gamma=RP1.gamma)
        system = SRHDSystem(eos, ndim=1)
        grid = Grid((64,), ((0.0, 1.0),))
        prim0 = shock_tube(system, grid, RP1)
        single = Solver(system, grid, prim0.copy())
        single.run(t_final=0.1)
        dist = DistributedSolver(system, grid, prim0.copy(), dims=dims)
        dist.run(t_final=0.1)
        np.testing.assert_allclose(
            dist.gather_primitives(), single.interior_primitives(), atol=1e-13
        )
        assert dist.steps == single.summary.steps

    def test_2d_blast_matches_single_grid(self, system2d):
        grid = Grid((16, 16), ((0, 1), (0, 1)))
        prim0 = blast_wave_2d(system2d, grid, p_in=10.0, radius=0.2)
        cfg = SolverConfig(cfl=0.4)
        single = Solver(system2d, grid, prim0.copy(), cfg)
        single.run(t_final=0.05)
        dist = DistributedSolver(system2d, grid, prim0.copy(), dims=(2, 2), config=cfg)
        dist.run(t_final=0.05)
        np.testing.assert_allclose(
            dist.gather_primitives(), single.interior_primitives(), atol=1e-12
        )

    def test_kernel_target_resolved_once_for_all_ranks(
        self, system2d, compiled_system_inits
    ):
        """Sixteen rank pipelines, one resolution: each holds the same
        compiled system, the driver keeps the plain one, and the ranks
        still reproduce the single-grid cext run byte for byte."""
        grid = Grid((32, 32), ((0, 1), (0, 1)))
        prim0 = blast_wave_2d(system2d, grid, p_in=10.0, radius=0.2)
        cfg = SolverConfig(cfl=0.4, kernel_target="cext")
        dist = DistributedSolver(system2d, grid, prim0.copy(), dims=(4, 4), config=cfg)
        assert len(compiled_system_inits) == 1
        assert len({id(p.system) for p in dist.pipelines.values()}) == 1
        assert dist.system is system2d
        dist.run(t_final=1.0, max_steps=3)
        assert "face_flux" in dist.timers and "reconstruct" not in dist.timers
        single = Solver(system2d, grid, prim0.copy(), cfg)
        single.run(t_final=1.0, max_steps=3)
        assert (
            dist.gather_primitives().tobytes()
            == single.interior_primitives().tobytes()
        )

    def test_periodic_1d_matches(self, system1d):
        grid = Grid((32,), ((0.0, 1.0),))
        prim0 = smooth_wave(system1d, grid, amplitude=0.2, velocity=0.4)
        bcs = make_boundaries("periodic")
        single = Solver(system1d, grid, prim0.copy(), boundaries=bcs)
        single.run(t_final=0.2)
        dist = DistributedSolver(
            system1d, grid, prim0.copy(), dims=(4,), boundaries=bcs
        )
        dist.run(t_final=0.2)
        np.testing.assert_allclose(
            dist.gather_primitives(), single.interior_primitives(), atol=1e-13
        )

    @pytest.mark.parametrize("integrator", ["euler", "ssprk2", "ssprk3"])
    def test_all_integrators_supported(self, system1d, integrator):
        grid = Grid((32,), ((0.0, 1.0),))
        prim0 = smooth_wave(system1d, grid)
        cfg = SolverConfig(integrator=integrator, cfl=0.3)
        single = Solver(system1d, grid, prim0.copy(), cfg)
        single.run(t_final=0.05)
        dist = DistributedSolver(system1d, grid, prim0.copy(), dims=(2,), config=cfg)
        dist.run(t_final=0.05)
        np.testing.assert_allclose(
            dist.gather_primitives(), single.interior_primitives(), atol=1e-13
        )


class TestCommunicationPattern:
    def test_traffic_logged(self, system1d):
        grid = Grid((32,), ((0.0, 1.0),))
        prim0 = smooth_wave(system1d, grid)
        dist = DistributedSolver(system1d, grid, prim0, dims=(4,))
        dist.run(t_final=0.02)
        assert dist.comm.traffic.n_messages > 0
        # One allreduce (dt) per step.
        assert dist.comm.traffic.n_collectives == dist.steps

    def test_message_count_per_step(self, system1d):
        """With an explicit dt, an RK3 step does exactly 3 stage exchanges;
        the single 1-D interior face carries 2 messages per exchange."""
        grid = Grid((32,), ((0.0, 1.0),))
        prim0 = smooth_wave(system1d, grid)
        dist = DistributedSolver(system1d, grid, prim0, dims=(2,))
        base = dist.comm.traffic.n_messages
        dist.step(dt=1e-4)
        per_step = dist.comm.traffic.n_messages - base
        assert per_step == 6
        # Letting the solver pick dt adds the CFL-reduction exchange.
        base = dist.comm.traffic.n_messages
        colls = dist.comm.traffic.n_collectives
        dist.step()
        assert dist.comm.traffic.n_messages - base == 8
        assert dist.comm.traffic.n_collectives - colls == 1

    def test_no_stranded_messages(self, system1d):
        grid = Grid((32,), ((0.0, 1.0),))
        prim0 = smooth_wave(system1d, grid)
        dist = DistributedSolver(system1d, grid, prim0, dims=(4,))
        dist.run(t_final=0.05)
        assert dist.comm.pending() == 0

    @pytest.mark.parametrize("overlap", [False, True])
    def test_protocol_is_derived_once_not_per_message(
        self, system2d, monkeypatch, overlap
    ):
        """Sub-grids, neighbours and the halo face table are fixed when the
        decomposition is: stepping constructs no Grid, converts no rank to
        coordinates and never rebuilds the table."""
        import repro.comm.halo as halo
        from repro.mesh.decomposition import CartesianDecomposition

        grid = Grid((32, 32), ((0, 1), (0, 1)))
        prim0 = blast_wave_2d(system2d, grid, p_in=10.0, radius=0.2)
        dist = DistributedSolver(
            system2d, grid, prim0, dims=(4, 4),
            config=SolverConfig(cfl=0.4, overlap_exchange=overlap),
            boundaries=make_boundaries("periodic"),
        )
        calls = []
        for owner, name in [
            (Grid, "__init__"),
            (CartesianDecomposition, "rank_coords"),
            (halo, "_build_face_table"),
        ]:
            real = getattr(owner, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        for _ in range(3):
            dist.step()
        assert calls == []


class TestValidation:
    def test_dimension_mismatch(self, system2d):
        grid = Grid((16,), ((0, 1),))
        with pytest.raises(ConfigurationError):
            DistributedSolver(system2d, grid, np.zeros((4, 22)), dims=(2,))


def _numerics(snapshot: dict) -> dict:
    """A metrics snapshot without its wall-clock readings (the names the
    canonical stream drops: ``*_s``, ``*_seconds``, ``*_frac``)."""
    return {
        kind: {k: v for k, v in values.items() if not k.endswith(("_s", "_seconds", "_frac"))}
        for kind, values in snapshot.items()
    }


def _cons_bytes(solver) -> bytes:
    return b"".join(solver.cons[rank].tobytes() for rank in range(solver.size))


def _smooth3d(system, grid):
    shape = grid.shape_with_ghosts
    x, y, z = np.meshgrid(*(np.linspace(0, 2 * np.pi, n) for n in shape), indexing="ij")
    prim = np.empty((system.nvars,) + shape)
    prim[system.RHO] = 1.0 + 0.3 * np.sin(x) * np.cos(y) * np.cos(z)
    prim[system.P] = 1.0 + 0.2 * np.cos(x + y + z)
    for ax, w in enumerate((y, z, x)):
        prim[system.V(ax)] = 0.2 * np.sin(w)
    return prim


#: name -> (grid shape, bounds, dims, walls, overlap, stacks).  Every dx is a
#: power of two, so each sub-grid's dx is the global one and the ranks are
#: the single-grid solver bit for bit.  2 x 3 on 13 x 11: shapes (7|6, 4|4|3)
#: in row-major rank order, i.e. stacks {0, 1}, {2}, {3, 4}, {5}.
_STACK_CASES = {
    "4x4-periodic": ((32, 32), ((0, 1), (0, 1)), (4, 4), "periodic", False, 1),
    "4x4-periodic-overlap": ((32, 32), ((0, 1), (0, 1)), (4, 4), "periodic", True, 1),
    "2x2-outflow-overlap": ((32, 16), ((0, 1), (0, 1)), (2, 2), "outflow", True, 4),
    "2x3-13x11": ((13, 11), ((0, 0.8125), (0, 0.6875)), (2, 3), "outflow", False, 4),
    "2x2x2-overlap": ((8, 8, 8), ((0, 1),) * 3, (2, 2, 2), "periodic", True, 1),
}


class TestStacks:
    """Same-shape ranks step as one ``(P, nvars, *ghosted)`` stack through
    one pipeline: one kernel call per stage for all P, every per-rank
    observable as it was rank by rank."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """HydroPipeline constructions (the benchmark's ``pipeline.builds``)."""
        made = []
        real = HydroPipeline.__init__

        def counting(self, *args, **kwargs):
            made.append(1)
            real(self, *args, **kwargs)

        monkeypatch.setattr(HydroPipeline, "__init__", counting)
        return made

    @pytest.mark.parametrize("integrator", ["euler", "ssprk3"])
    @pytest.mark.parametrize("case", sorted(_STACK_CASES))
    def test_stacks_step_as_their_ranks(self, case, integrator, builds):
        """``cext`` == ``flat`` (state, metrics by name) == the single-grid
        solver, with one pipeline per stack and one recovery histogram
        observation per patch per sweep."""
        shape, bounds, dims, walls, overlap, n_stacks = _STACK_CASES[case]
        require_cext(len(shape))
        system = SRHDSystem(IdealGasEOS(), ndim=len(shape))
        grid = Grid(shape, bounds)
        prim0 = (
            _smooth3d(system, grid) if len(shape) == 3
            else blast_wave_2d(system, grid, p_in=10.0, p_out=1.0, radius=0.2)
        )
        n_steps, stages = 4, {"euler": 1, "ssprk3": 3}[integrator]

        def run(target):
            config = SolverConfig(
                kernel_target=target, integrator=integrator, cfl=0.4,
                overlap_exchange=overlap,
            )
            builds.clear()
            solver = DistributedSolver(
                system, grid, prim0.copy(), dims, config, make_boundaries(walls)
            )
            assert len(builds) == len({id(p) for p in solver.pipelines.values()}) == n_stacks
            for _ in range(n_steps):
                solver.step()
            # The first dt reads the constructor's primitives: no sweep.
            sweeps = n_steps * stages + n_steps - 1
            hist = solver.metrics.snapshot()["histograms"]["con2prim.newton_iters_max"]
            assert hist["count"] == solver.size * sweeps
            return solver

        cext, flat = run("cext"), run("flat")
        assert _cons_bytes(cext) == _cons_bytes(flat)
        assert _numerics(cext.metrics.snapshot()) == _numerics(flat.metrics.snapshot())
        single = Solver(
            system, grid, prim0.copy(),
            SolverConfig(kernel_target="cext", integrator=integrator, cfl=0.4),
            make_boundaries(walls),
        )
        for _ in range(n_steps):
            single.step()
        assert cext.t == single.t
        assert cext.gather_primitives().tobytes() == single.interior_primitives().tobytes()

    @pytest.mark.parametrize("target", ["numpy", "cext"])
    def test_a_burst_on_one_rank_of_a_stack_raises_as_it_always_did(self, target):
        """Sweep 21 is rank 5 of the first step's second stage recovery; the
        text, the cell indices and how far the injector got are the ones
        the rank-by-rank solver produced (captured before stacking)."""
        if target == "cext":
            require_cext(2)
        system = SRHDSystem(IdealGasEOS(), ndim=2)
        grid = Grid((128, 128), ((0, 1), (0, 1)))
        injector = FaultInjector(FaultPlan(con2prim=[Con2PrimFault(sweep=21, n_cells=500)]))
        solver = DistributedSolver(
            system, grid, blast_wave_2d(system, grid, p_in=10.0, p_out=1.0), (4, 4),
            SolverConfig(kernel_target=target, cfl=0.4), make_boundaries("periodic"),
            fault_injector=injector,
        )
        assert len({id(p) for p in solver.pipelines.values()}) == 1
        with pytest.raises(RecoveryError) as info:
            solver.step()
        assert str(info.value) == (
            "injected con2prim burst of 500 cells exceeds the failsafe budget "
            "(0.0 of 1024)"
        )
        assert info.value.n_failed == 500
        assert np.asarray(info.value.indices)[:5].tolist() == [0, 2, 4, 6, 8]
        assert injector._sweep == 21

    def _periodic16(self, target="cext"):
        require_cext(2)
        system = SRHDSystem(IdealGasEOS(), ndim=2)
        grid = Grid((32, 32), ((0, 1), (0, 1)))
        return DistributedSolver(
            system, grid, blast_wave_2d(system, grid, p_in=10.0, p_out=1.0, radius=0.2),
            (4, 4), SolverConfig(kernel_target=target, cfl=0.4),
            make_boundaries("periodic"),
        )

    def test_install_shards_builds_the_stack_and_leaves_shards_alone(self):
        """A shard handed out is a view of the state it was taken from; a
        step commits a fresh stack, so it keeps its bytes, and installing
        it into a fresh solver restarts bit for bit."""
        solver = self._periodic16()
        for _ in range(2):
            solver.step()
        state = solver.state()
        shards = state["patches"]
        held = {rank: (c.tobytes(), p.tobytes()) for rank, (c, p) in shards.items()}
        for _ in range(2):
            solver.step()
        assert {rank: (c.tobytes(), p.tobytes()) for rank, (c, p) in shards.items()} == held
        resumed = self._periodic16()
        resumed.install_state(state)
        assert [s.shape for s in resumed.cons.stacks] == [(16, 4, 14, 14)]
        for _ in range(2):
            resumed.step()
        assert _cons_bytes(resumed) == _cons_bytes(solver)
        assert resumed.metrics.snapshot()["counters"]["con2prim.cells"] > 0

    def test_warm_and_cold_patches_of_one_stack_keep_their_own_start(self):
        """Shards with and without a Newton seed (what a fold to serial can
        install): each patch starts as it would alone — ``cext`` is the
        patch-by-patch interpreted ``flat`` byte for byte."""
        out = {}
        for target in ("cext", "flat"):
            solver = self._periodic16(target)
            solver.step()
            shards = {
                rank: (c.copy(), p if rank % 3 else None)
                for rank, (c, p) in solver.state()["patches"].items()
            }
            resumed = self._periodic16(target)
            resumed.install_state(
                {"t": solver.t, "steps": solver.steps, "patches": shards}
            )
            for _ in range(2):
                resumed.step()
            out[target] = (_cons_bytes(resumed), _numerics(resumed.metrics.snapshot()))
        assert out["cext"] == out["flat"]


class TestDiagnosticRead:
    """Reading the primitives between steps is the recovery and exchange
    the next ``compute_dt`` would have done, not an extra one: the step
    records (``comm`` block included) and the metrics are a run's without
    the read."""

    @pytest.mark.usefixtures("no_fleet_leaks")
    @pytest.mark.parametrize("executor", ["blocking", "overlapped", "process"])
    def test_a_read_between_steps_moves_no_record(self, executor):
        from repro.core.parallel import ProcessSolver

        system = SRHDSystem(IdealGasEOS(), ndim=2)
        grid = Grid((16, 16), ((0, 1), (0, 1)))
        prim0 = blast_wave_2d(system, grid, p_in=10.0, p_out=1.0, radius=0.2)
        config = SolverConfig(
            cfl=0.4, overlap_exchange=executor != "blocking",
            executor="process" if executor == "process" else "serial",
        )
        driver = ProcessSolver if executor == "process" else DistributedSolver

        def run(read):
            sink = BufferSink()
            solver = driver(
                system, grid, prim0.copy(), (2, 1), config=config,
                recorder=StepRecorder(sink),
            )
            try:
                solver.step()
                if read:
                    solver.gather_primitives()
                for _ in range(2):
                    solver.step()
                cons = solver.state()["patches"]
                return (
                    canonical_stream(sink.records),
                    [r["comm"] for r in sink.records if r["event"] == "step"],
                    _numerics(solver.metrics.snapshot()),
                    b"".join(cons[rank][0].tobytes() for rank in sorted(cons)),
                )
            finally:
                if executor == "process":
                    solver.close()

        assert run(read=True) == run(read=False)
