"""Integration tests: the distributed solver must reproduce the single-grid
solver exactly (the property that validates the whole comm substrate)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Grid, IdealGasEOS, Solver, SolverConfig, SRHDSystem
from repro.boundary import make_boundaries
from repro.core import DistributedSolver
from repro.physics.initial_data import RP1, blast_wave_2d, shock_tube, smooth_wave
from repro.utils.errors import ConfigurationError


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
