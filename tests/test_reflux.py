"""Tests for AMR flux correction (refluxing)."""

from __future__ import annotations

import pytest

from repro import Grid, IdealGasEOS, SolverConfig, SRHDSystem
from repro.boundary import make_boundaries
from repro.core.amr_solver import AMRConfig, AMRSolver
from repro.core.pipeline import PatchViews
from repro.mesh.amr.reflux import apply_reflux
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
    """The compiled reflux plan finds exactly the coarse-fine faces."""

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
        _sends, plan = amr._get_reflux_plan()
        assert plan.groups == [] and plan.faces == 0

    def test_correction_count_matches_topology(self, system1d):
        """Every coarse leaf face shared with a refined neighbour gets one
        correction, applied symmetrically around the fine region."""
        eos = IdealGasEOS(gamma=RP1.gamma)
        system = SRHDSystem(eos, ndim=1)
        amr = make_amr_1d(system, reflux=True)
        # Topology: {0: 2, 1: 2, 2: 4} -> coarse-fine faces exist.
        prims = amr._ghosted_snapshot()  # per-leaf views of one array per stack
        dU = PatchViews.of(amr._stacks, [
            st.pipeline.flux_divergence(prim)
            for st, prim in zip(amr._stacks, prims.stacks)
        ])
        _sends, plan = amr._get_reflux_plan()
        n = apply_reflux(
            plan, [st.pipeline.last_face_fluxes for st in amr._stacks], dU.stacks
        )
        # Count expected coarse-fine faces directly from the topology.
        expected = 0
        for key in amr.forest.leaves:
            for side in (0, 1):
                nbr = key.neighbor(0, side)
                if amr.layout.in_domain(nbr) and nbr in amr.forest.refined:
                    expected += 1
        assert n == expected > 0


class TestPeriodicWrap:
    """Coarse-fine faces across a periodic wall are refluxed, and 2:1
    balance holds across it, through the one wrapped-neighbour rule."""

    @staticmethod
    def _totals(amr):
        nvars = amr.system.nvars
        return sum(
            leaf.grid.interior_of(leaf.cons).reshape(nvars, -1).sum(axis=1)
            * leaf.grid.cell_volume
            for leaf in amr.forest.leaves.values()
        )

    def test_refined_region_on_the_wrap_conserves(self, system2d):
        amr = AMRSolver(
            system2d,
            Grid((32, 32), ((0, 1), (0, 1))),
            lambda s, g: blast_wave_2d(
                s, g, center=(0.13, 0.5), radius=0.1, p_in=10.0, p_out=0.1
            ),
            SolverConfig(cfl=0.4),
            AMRConfig(block_size=8, max_levels=2, regrid_interval=2),
            make_boundaries("periodic"),
        )
        # The fine region touches the low x wall: its wrapped neighbours
        # are coarse leaves at the high x wall.
        assert any(k.level == 1 and k.idx[0] == 0 for k in amr.forest.leaves)
        assert any(k.level == 0 and k.idx[0] == 3 for k in amr.forest.leaves)
        before = self._totals(amr)
        for _ in range(12):
            amr.step()
            assert amr.forest.is_balanced()
        after = self._totals(amr)
        for var in (system2d.D, system2d.TAU):
            assert abs(after[var] / before[var] - 1.0) <= 1e-13, var

    def test_balance_looks_across_the_wrap(self):
        from repro.mesh.amr import AMRForest, BlockKey, BlockLayout

        layout = BlockLayout(Grid((64,), ((0.0, 1.0),)), block_size=16)
        forests = {}
        for periodic in (False, True):
            forest = AMRForest(layout, max_levels=3, periodic=(periodic,))
            for key in layout.root_keys():
                forest.add_leaf(key, None)
            # Refine block 0 twice at the low wall; block 3 sits across
            # the wrap from it.
            forest.split(BlockKey(0, (0,)), dict.fromkeys(BlockKey(0, (0,)).children()))
            forest.split(BlockKey(1, (0,)), dict.fromkeys(BlockKey(1, (0,)).children()))
            forests[periodic] = forest
        assert forests[False].neighbor(BlockKey(0, (3,)), 0, 1) is None
        assert forests[True].neighbor(BlockKey(0, (3,)), 0, 1) == BlockKey(0, (0,))
        assert BlockKey(0, (3,)) not in forests[False].unbalanced_leaves()
        assert BlockKey(0, (3,)) in forests[True].unbalanced_leaves()
