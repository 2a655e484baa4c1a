"""Tests for AMR flux correction (refluxing)."""

from __future__ import annotations

import pytest

from repro import Grid, IdealGasEOS, SolverConfig, SRHDSystem
from repro.core.amr_solver import AMRConfig, AMRSolver
from repro.core.pipeline import PatchViews
from repro.mesh.amr.reflux import apply_reflux, fine_face_flux
from repro.physics.initial_data import RP1, blast_wave_2d, shock_tube


def leaf_mass(amr):
    """Volume integral of D over all leaves."""
    return sum(
        leaf.grid.interior_of(leaf.cons)[0].sum() * leaf.grid.cell_volume
        for leaf in amr.forest.leaves.values()
    )


def leaf_energy(amr):
    return sum(
        (
            leaf.grid.interior_of(leaf.cons)[0]
            + leaf.grid.interior_of(leaf.cons)[-1]
        ).sum()
        * leaf.grid.cell_volume
        for leaf in amr.forest.leaves.values()
    )


def make_amr_1d(system, reflux, regrid_interval=1000):
    grid = Grid((64,), ((0.0, 1.0),))
    return AMRSolver(
        system,
        grid,
        lambda s, g: shock_tube(s, g, RP1),
        SolverConfig(cfl=0.4),
        AMRConfig(
            block_size=16,
            max_levels=3,
            refine_threshold=0.05,
            regrid_interval=regrid_interval,
            reflux=reflux,
        ),
    )


class TestConservation:
    def test_1d_mass_conserved_with_reflux(self, system1d):
        """Frozen topology, waves away from walls: conservative to
        round-off with refluxing, visibly leaky without."""
        eos = IdealGasEOS(gamma=RP1.gamma)
        system = SRHDSystem(eos, ndim=1)

        with_reflux = make_amr_1d(system, reflux=True)
        m0 = leaf_mass(with_reflux)
        e0 = leaf_energy(with_reflux)
        with_reflux.run(t_final=0.15)
        assert abs(leaf_mass(with_reflux) - m0) / m0 < 1e-13
        assert abs(leaf_energy(with_reflux) - e0) / e0 < 1e-13

        without = make_amr_1d(system, reflux=False)
        m0 = leaf_mass(without)
        without.run(t_final=0.15)
        assert abs(leaf_mass(without) - m0) / m0 > 1e-5  # the leak is real

    def test_2d_mass_conserved_with_reflux(self, system2d):
        grid = Grid((64, 64), ((0, 1), (0, 1)))
        amr = AMRSolver(
            system2d,
            grid,
            lambda s, g: blast_wave_2d(s, g, p_in=10.0, radius=0.12),
            SolverConfig(cfl=0.4),
            AMRConfig(
                block_size=16,
                max_levels=2,
                refine_threshold=0.2,
                regrid_interval=1000,
                reflux=True,
            ),
        )
        # Only conservative if the mesh actually has mixed levels.
        levels = set(amr.leaf_count_by_level())
        if len(levels) < 2:
            pytest.skip("initial data refined uniformly; no coarse-fine faces")
        m0 = leaf_mass(amr)
        amr.run(t_final=0.05)
        assert abs(leaf_mass(amr) - m0) / m0 < 1e-12

    def test_reflux_does_not_degrade_accuracy(self, system1d):
        """Refluxing corrects conservation without hurting the error."""
        from repro.analysis import relative_l1_error
        from repro.physics.exact_riemann import ExactRiemannSolver

        eos = IdealGasEOS(gamma=RP1.gamma)
        system = SRHDSystem(eos, ndim=1)
        errs = {}
        for reflux in (False, True):
            amr = make_amr_1d(system, reflux=reflux, regrid_interval=5)
            amr.run(t_final=RP1.t_final)
            grid_f, prim_f = amr.composite_primitives()
            ex = ExactRiemannSolver(RP1.left, RP1.right, RP1.gamma)
            rho_e, _, _ = ex.solution_on_grid(grid_f.coords(0), RP1.t_final, RP1.x0)
            errs[reflux] = relative_l1_error(prim_f[0], rho_e)
        assert errs[True] < errs[False] * 1.2


class TestFineFaceFlux:
    def test_no_correction_at_same_level_faces(self, system1d):
        eos = IdealGasEOS(gamma=RP1.gamma)
        system = SRHDSystem(eos, ndim=1)
        amr = AMRSolver(
            system,
            Grid((64,), ((0.0, 1.0),)),
            lambda s, g: shock_tube(s, g, RP1),
            SolverConfig(cfl=0.4),
            AMRConfig(block_size=16, max_levels=1, reflux=True),
        )
        amr.step(dt=1e-4)
        fluxes = {
            k: pipe.face_fluxes(i)
            for k in amr.forest.leaves
            for pipe, i in [amr.leaf_pipeline(k)]
        }
        for key in amr.forest.leaves:
            for side in (0, 1):
                assert fine_face_flux(amr.forest, fluxes, key, 0, side) is None

    def test_correction_count_matches_topology(self, system1d):
        """Every coarse leaf face shared with a refined neighbour gets one
        correction, applied symmetrically around the fine region."""
        eos = IdealGasEOS(gamma=RP1.gamma)
        system = SRHDSystem(eos, ndim=1)
        amr = make_amr_1d(system, reflux=True)
        # Topology: {0: 2, 1: 2, 2: 4} -> coarse-fine faces exist.
        prims = amr._recover_leaf_prims()  # per-leaf views of one array per stack
        amr.forest.fill_ghosts(prims, system.nvars, system, amr.wall_bcs)
        dU = PatchViews.of(amr._stacks, [
            st.pipeline.flux_divergence(prim)
            for st, prim in zip(amr._stacks, prims.stacks)
        ])
        fluxes = {
            k: pipe.face_fluxes(i)
            for k in amr.forest.leaves
            for pipe, i in [amr.leaf_pipeline(k)]
        }
        n = apply_reflux(amr.forest, fluxes, dU)
        # Count expected coarse-fine faces directly from the topology.
        expected = 0
        for key in amr.forest.leaves:
            for side in (0, 1):
                nbr = key.neighbor(0, side)
                if amr.layout.in_domain(nbr) and nbr in amr.forest.refined:
                    expected += 1
        assert n == expected > 0
