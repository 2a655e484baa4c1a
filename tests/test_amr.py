"""Tests for the block-structured AMR: addressing, transfer operators,
criteria, forest topology, and full AMR evolutions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Grid, IdealGasEOS, Solver, SolverConfig, SRHDSystem
from repro.analysis import relative_l1_error
from repro.boundary import make_boundaries
from repro.core.amr_solver import AMRConfig, AMRSolver
from repro.core.pipeline import HydroPipeline, PatchViews
from repro.mesh.amr import (
    AMRForest,
    BlockKey,
    BlockLayout,
    GradientCriterion,
    conservation_check,
    prolong_array,
    restrict_array,
    scaled_gradient,
)
from repro.physics.exact_riemann import ExactRiemannSolver
from repro.physics.initial_data import RP1, blast_wave_2d, shock_tube
from repro.utils.errors import ConfigurationError, MeshError

from .conftest import require_cext


class TestBlockKey:
    def test_children_count(self):
        assert len(BlockKey(0, (0,)).children()) == 2
        assert len(BlockKey(0, (0, 0)).children()) == 4
        assert len(BlockKey(0, (0, 0, 0)).children()) == 8

    def test_parent_child_round_trip(self):
        key = BlockKey(1, (3, 2))
        for child in key.children():
            assert child.parent() == key
            assert child.level == 2

    def test_root_has_no_parent(self):
        with pytest.raises(MeshError):
            BlockKey(0, (0,)).parent()

    def test_child_offset(self):
        key = BlockKey(1, (3, 2))
        assert key.child_offset() == (1, 0)

    def test_neighbor(self):
        key = BlockKey(1, (3, 2))
        assert key.neighbor(0, 1) == BlockKey(1, (4, 2))
        assert key.neighbor(1, 0) == BlockKey(1, (3, 1))


class TestBlockLayout:
    def test_root_tiling(self):
        layout = BlockLayout(Grid((64, 32), ((0, 2), (0, 1))), block_size=16)
        assert layout.root_blocks == (4, 2)
        assert len(layout.root_keys()) == 8

    def test_indivisible_shape_rejected(self):
        with pytest.raises(MeshError):
            BlockLayout(Grid((60,), ((0, 1),)), block_size=16)

    def test_block_too_small_rejected(self):
        with pytest.raises(MeshError):
            BlockLayout(Grid((32,), ((0, 1),), n_ghost=3), block_size=4)

    def test_grid_for_level1_halves_spacing(self):
        layout = BlockLayout(Grid((32,), ((0.0, 1.0),)), block_size=16)
        g0 = layout.grid_for(BlockKey(0, (0,)))
        g1 = layout.grid_for(BlockKey(1, (0,)))
        assert g1.dx[0] == pytest.approx(g0.dx[0] / 2)
        assert g1.bounds[0] == (0.0, 0.25)

    def test_out_of_domain_rejected(self):
        layout = BlockLayout(Grid((32,), ((0, 1),)), block_size=16)
        assert not layout.in_domain(BlockKey(0, (5,)))
        with pytest.raises(MeshError):
            layout.grid_for(BlockKey(0, (5,)))


class TestTransferOperators:
    def test_restrict_averages(self):
        fine = np.array([1.0, 3.0, 5.0, 7.0])
        np.testing.assert_allclose(restrict_array(fine, 1), [2.0, 6.0])

    def test_restrict_2d(self):
        fine = np.arange(16.0).reshape(4, 4)
        coarse = restrict_array(fine, 2)
        assert coarse.shape == (2, 2)
        assert coarse[0, 0] == pytest.approx(fine[:2, :2].mean())

    def test_restrict_odd_extent_rejected(self):
        with pytest.raises(MeshError):
            restrict_array(np.zeros(5), 1)

    def test_prolong_shape(self):
        coarse = np.arange(6.0)
        fine = prolong_array(coarse, 1)
        assert fine.shape == (8,)  # 2 * (6 - 2)

    def test_prolong_needs_ring(self):
        with pytest.raises(MeshError):
            prolong_array(np.zeros(2), 1)

    def test_prolong_exact_on_linear_data(self):
        coarse = np.arange(8.0)
        fine = prolong_array(coarse, 1)
        # Children of cell i sit at i -+ 1/4 in coarse coordinates.
        expected = np.repeat(np.arange(1.0, 7.0), 2) + np.tile([-0.25, 0.25], 6)
        np.testing.assert_allclose(fine, expected)

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=4,
            max_size=20,
        )
    )
    def test_property_prolong_restrict_conservative(self, data):
        """restrict(prolong(q)) == q on the interior, for any data."""
        coarse = np.asarray(data)
        fine = prolong_array(coarse, 1)
        assert conservation_check(coarse, fine, 1) < 1e-12

    def test_conservative_2d(self):
        rng = np.random.default_rng(5)
        coarse = rng.normal(size=(3, 8, 8))
        fine = prolong_array(coarse, 2)
        assert fine.shape == (3, 12, 12)
        assert conservation_check(coarse, fine, 2) < 1e-12

    def test_prolong_monotone_at_jump(self):
        """Limited slopes: no new extrema across a discontinuity."""
        coarse = np.array([1.0, 1.0, 1.0, 10.0, 10.0, 10.0])
        fine = prolong_array(coarse, 1)
        assert fine.min() >= 1.0 - 1e-12
        assert fine.max() <= 10.0 + 1e-12


class TestCriterion:
    def test_scaled_gradient_flags_jump(self):
        field = np.array([1.0, 1.0, 1.0, 10.0, 10.0])
        ind = scaled_gradient(field, 0)
        assert ind[2] > 0.5 and ind[3] > 0.5
        assert ind[0] == 0.0

    def test_smooth_field_unflagged(self, system1d):
        crit = GradientCriterion(refine_threshold=0.1)
        prim = np.empty((3, 32))
        prim[0] = 1.0 + 0.001 * np.sin(np.linspace(0, 2 * np.pi, 32))
        prim[1] = 0.0
        prim[2] = 1.0
        assert not crit.needs_refinement(system1d, prim)
        assert crit.allows_coarsening(system1d, prim)

    def test_shock_flagged(self, system1d):
        crit = GradientCriterion(refine_threshold=0.1)
        prim = np.ones((3, 32))
        prim[0, 16:] = 10.0
        prim[1] = 0.0
        assert crit.needs_refinement(system1d, prim)

    def test_hysteresis_band(self, system1d):
        crit = GradientCriterion(refine_threshold=0.5, coarsen_threshold=0.01)
        prim = np.ones((3, 16))
        prim[0, 8:] = 1.2  # moderate gradient: neither refine nor coarsen
        prim[1] = 0.0
        assert not crit.needs_refinement(system1d, prim)
        assert not crit.allows_coarsening(system1d, prim)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GradientCriterion(refine_threshold=-1)
        with pytest.raises(ConfigurationError):
            GradientCriterion(refine_threshold=0.1, coarsen_threshold=0.5)


class TestForestTopology:
    def _forest(self, n_blocks=4, max_levels=3):
        layout = BlockLayout(Grid((16 * n_blocks,), ((0.0, 1.0),)), block_size=16)
        forest = AMRForest(layout, max_levels=max_levels)
        for key in layout.root_keys():
            forest.add_leaf(key, layout.grid_for(key).allocate(3))
        return layout, forest

    def test_initial_leaves(self):
        _, forest = self._forest()
        assert len(forest.leaves) == 4
        assert forest.finest_level() == 0

    def test_split_replaces_leaf(self):
        layout, forest = self._forest()
        key = BlockKey(0, (1,))
        children = {c: layout.grid_for(c).allocate(3) for c in key.children()}
        forest.split(key, children)
        assert not forest.is_leaf(key)
        assert all(forest.is_leaf(c) for c in key.children())
        assert forest.finest_level() == 1

    def test_merge_restores_leaf(self):
        layout, forest = self._forest()
        key = BlockKey(0, (1,))
        children = {c: layout.grid_for(c).allocate(3) for c in key.children()}
        forest.split(key, children)
        forest.merge(key, layout.grid_for(key).allocate(3))
        assert forest.is_leaf(key)

    def test_split_validation(self):
        layout, forest = self._forest()
        with pytest.raises(MeshError):
            forest.split(BlockKey(0, (9,)), {})

    def test_balance_detection(self):
        layout, forest = self._forest(max_levels=4)
        # Refine block 1 twice (to level 2) while block 0 stays at level 0:
        key = BlockKey(0, (1,))
        forest.split(key, {c: layout.grid_for(c).allocate(3) for c in key.children()})
        left_child = BlockKey(1, (2,))
        forest.split(
            left_child,
            {c: layout.grid_for(c).allocate(3) for c in left_child.children()},
        )
        assert not forest.is_balanced()
        assert BlockKey(0, (0,)) in forest.unbalanced_leaves()

    def test_max_adjacent_level(self):
        layout, forest = self._forest()
        key = BlockKey(0, (1,))
        forest.split(key, {c: layout.grid_for(c).allocate(3) for c in key.children()})
        assert max_adjacent_level(forest, BlockKey(0, (0,)), 0, 1) == 1
        assert max_adjacent_level(forest, BlockKey(0, (0,)), 0, 0) is None  # wall

    @settings(max_examples=60, deadline=None)
    @given(
        ndim=st.sampled_from([1, 2]),
        periodic=st.booleans(),
        picks=st.lists(st.integers(0, 10**6), max_size=12),
    )
    def test_unbalanced_leaves_is_the_face_walk(self, ndim, periodic, picks):
        """The array form of 2:1 detection returns the face walk's keys in
        the walk's (leaf) order, on random forests — balanced or not, with
        walls and across periodic wraps."""
        layout = BlockLayout(Grid((32,) * ndim, ((0.0, 1.0),) * ndim), block_size=8)
        forest = AMRForest(layout, max_levels=4, periodic=(periodic,) * ndim)
        for key in layout.root_keys():
            forest.add_leaf(key, None)
        for pick in picks:
            splittable = [k for k in forest.leaves if k.level + 1 < forest.max_levels]
            if splittable:
                key = splittable[pick % len(splittable)]
                forest.split(key, dict.fromkeys(key.children()))
        want = [
            key for key in forest.leaves
            if any(
                (adj := max_adjacent_level(forest, key, axis, side)) is not None
                and adj > key.level + 1
                for axis in range(ndim) for side in (0, 1)
            )
        ]
        assert forest.unbalanced_leaves() == want


def max_adjacent_level(forest, key, axis, side):
    """Finest leaf level touching face (axis, side) of *key*, or None at a
    non-periodic wall: the leaf-by-leaf walk ``unbalanced_leaves`` is
    checked against."""
    nbr = forest.neighbor(key, axis, side)
    if nbr is None:
        return None
    probe = nbr
    while probe.level > 0 and probe not in forest.leaves and probe not in forest.refined:
        probe = probe.parent()
    if probe in forest.leaves:
        return probe.level
    level, frontier = probe.level, [probe]
    while frontier:
        nxt = []
        for blk in frontier:
            for child in blk.children():
                if child.child_offset()[axis] != 1 - side:
                    continue
                if child in forest.leaves:
                    level = max(level, child.level)
                elif child in forest.refined:
                    nxt.append(child)
        frontier = nxt
    return level


class TestAMREvolution:
    def test_1d_shock_tube_accuracy_and_efficiency(self):
        """AMR must reach near-fine-unigrid error with fewer cell updates."""
        eos = IdealGasEOS(gamma=RP1.gamma)
        system = SRHDSystem(eos, ndim=1)
        root = Grid((64,), ((0.0, 1.0),))
        amr = AMRSolver(
            system,
            root,
            lambda s, g: shock_tube(s, g, RP1),
            SolverConfig(cfl=0.4),
            AMRConfig(block_size=16, max_levels=3, refine_threshold=0.05),
        )
        assert amr.forest.finest_level() == 2  # initial data refined
        amr.run(t_final=RP1.t_final)
        grid_f, prim_f = amr.composite_primitives()
        ex = ExactRiemannSolver(RP1.left, RP1.right, RP1.gamma)
        rho_e, _, _ = ex.solution_on_grid(grid_f.coords(0), RP1.t_final, RP1.x0)
        err_amr = relative_l1_error(prim_f[0], rho_e)

        fine = Grid((256,), ((0.0, 1.0),))
        uni = Solver(system, fine, shock_tube(system, fine, RP1), SolverConfig(cfl=0.4))
        uni.run(t_final=RP1.t_final)
        rho_e_f, _, _ = ex.solution_on_grid(fine.coords(0), RP1.t_final, RP1.x0)
        err_uni = relative_l1_error(uni.interior_primitives()[0], rho_e_f)
        cells_uni = fine.n_cells * uni.summary.steps * 3

        assert err_amr < 1.5 * err_uni  # near-unigrid accuracy
        assert amr.cells_updated < 0.8 * cells_uni  # with less work

    def test_forest_stays_balanced(self):
        eos = IdealGasEOS(gamma=RP1.gamma)
        system = SRHDSystem(eos, ndim=1)
        root = Grid((64,), ((0.0, 1.0),))
        amr = AMRSolver(
            system,
            root,
            lambda s, g: shock_tube(s, g, RP1),
            SolverConfig(cfl=0.4),
            AMRConfig(block_size=16, max_levels=3),
        )
        amr.run(t_final=0.1)
        assert amr.forest.is_balanced()
        assert amr.regrids > 0

    def test_2d_blast_symmetry_preserved(self, system2d):
        root = Grid((32, 32), ((0, 1), (0, 1)))
        amr = AMRSolver(
            system2d,
            root,
            lambda s, g: blast_wave_2d(s, g, p_in=10.0, radius=0.15),
            SolverConfig(cfl=0.4),
            AMRConfig(block_size=16, max_levels=2, refine_threshold=0.08),
        )
        amr.run(t_final=0.05)
        _, prim = amr.composite_primitives()
        rho = prim[0]
        np.testing.assert_allclose(rho, rho[::-1, :], rtol=1e-10)
        np.testing.assert_allclose(rho, rho.T, rtol=1e-10)

    def test_kernel_target_resolved_once_and_cext_is_flat(
        self, system2d, compiled_system_inits
    ):
        """The forest resolves its kernel target once — every block
        pipeline, regrid-born ones included, holds that one system — and a
        ``cext`` forest is the ``flat`` forest, leaf for leaf, byte for
        byte."""
        forests = {}
        for target in ("cext", "flat"):
            amr = AMRSolver(
                system2d,
                Grid((32, 32), ((0, 1), (0, 1))),
                lambda s, g: blast_wave_2d(s, g, p_in=50.0, p_out=1.0, radius=0.2),
                SolverConfig(cfl=0.4, kernel_target=target),
                AMRConfig(block_size=8, max_levels=2, regrid_interval=2),
            )
            n0 = len(amr.forest.leaves)
            amr.run(t_final=1.0, max_steps=4)
            assert amr.regrids == 2 and len(amr.forest.leaves) > n0
            forests[target] = amr
        assert len(compiled_system_inits) == 1
        cext, flat = forests["cext"], forests["flat"]
        assert {id(cext.leaf_pipeline(k)[0].system) for k in cext.forest.leaves} == {
            id(cext._kernel_system)
        }
        assert "face_flux" in cext.timers and "reconstruct" not in cext.timers
        assert cext.system is system2d
        assert sorted(cext.forest.leaves) == sorted(flat.forest.leaves)
        for key, leaf in cext.forest.leaves.items():
            assert leaf.cons.tobytes() == flat.forest.leaves[key].cons.tobytes(), key

    def test_smooth_data_stays_coarse(self, system1d):
        root = Grid((64,), ((0.0, 1.0),))

        def smooth_ic(system, grid):
            from repro.physics.initial_data import smooth_wave

            return smooth_wave(system, grid, amplitude=0.01)

        amr = AMRSolver(
            system1d,
            root,
            smooth_ic,
            SolverConfig(cfl=0.4),
            AMRConfig(block_size=16, max_levels=3, refine_threshold=0.1),
            boundaries=make_boundaries("periodic"),
        )
        assert amr.forest.finest_level() == 0
        amr.run(t_final=0.05)
        assert amr.forest.finest_level() == 0  # nothing to refine

    def test_single_level_amr_is_exactly_unigrid(self, system1d):
        """With max_levels=1 the AMR machinery (blocks, composite ghost
        fill, leaf stacks) must reproduce the unigrid solver
        bit-for-bit — the strongest correctness anchor for the forest."""
        grid = Grid((64,), ((0.0, 1.0),))
        cfg = SolverConfig(cfl=0.4)
        uni = Solver(system1d, grid, shock_tube(system1d, grid, RP1), cfg)
        uni.run(t_final=0.1)
        amr = AMRSolver(
            system1d,
            grid,
            lambda s, g: shock_tube(s, g, RP1),
            cfg,
            AMRConfig(block_size=16, max_levels=1),
        )
        amr.run(t_final=0.1)
        _, prim = amr.composite_primitives(level=0)
        np.testing.assert_array_equal(prim, uni.interior_primitives())
        assert amr.steps == uni.summary.steps

    def test_cells_updated_accounting(self, system1d):
        root = Grid((32,), ((0.0, 1.0),))
        amr = AMRSolver(
            system1d,
            root,
            lambda s, g: shock_tube(s, g, RP1),
            SolverConfig(cfl=0.4),
            AMRConfig(block_size=16, max_levels=1),
        )
        amr.step(dt=1e-4)
        assert amr.cells_updated == 32 * 3  # 2 blocks x 16 cells x 3 stages


class TestLeafStacks:
    """Leaves step in stacks (``patch_stacks``' rule, the distributed
    solver's): pipeline builds and kernel calls scale with the stacks, not
    with the leaves, and a stack call large enough for the OpenMP team gives
    the 1-thread bytes."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """HydroPipeline constructions (the benchmark's ``pipeline.builds``),
        recovery sweeps and divergence sweeps, counted."""
        made = {"builds": 0, "recover_primitives": 0, "flux_divergence_region": 0}
        real_init = HydroPipeline.__init__

        def counting_init(self, *args, **kwargs):
            made["builds"] += 1
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(HydroPipeline, "__init__", counting_init)
        for name in ("recover_primitives", "flux_divergence_region"):
            real = getattr(HydroPipeline, name)

            def counting(self, *args, _real=real, _name=name, **kwargs):
                made[_name] += 1
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(HydroPipeline, name, counting)
        return made

    @pytest.fixture
    def plan_calls(self, monkeypatch):
        """The calls the ghost and reflux programs make — restrictions and
        prolongations of the NumPy mirror, compiled program calls on
        ``cext`` — tallied per ``_fill_ghosts`` / ``_apply_reflux`` call by
        :meth:`_per_call`."""
        from repro.codegen.system import CompiledSRHDSystem
        from repro.mesh.amr import forest

        made = {"restrict_array": 0, "prolong_array": 0, "run_program": 0}
        for owner, name in ((forest, "restrict_array"), (forest, "prolong_array"),
                            (CompiledSRHDSystem, "run_program")):
            real = getattr(owner, name)

            def counting(*args, _real=real, _name=name):
                made[_name] += 1
                return _real(*args)

            monkeypatch.setattr(owner, name, counting)
        return made

    @staticmethod
    def _per_call(amr, made, method, log):
        """Log each *method* call's program calls with the bound it must
        keep: on ``cext`` one compiled call and no mirror call; otherwise
        at most one restriction and one prolongation per level for a fill,
        one restriction per (axis, side, coarse stack) group for a
        reflux."""
        real = getattr(amr, method)
        compiled = hasattr(amr._kernel_system, "run_program")

        def counting(*args):
            before = dict(made)
            real(*args)
            n_stacks = len(amr._stacks)
            if method == "_fill_ghosts":
                levels = amr.forest.finest_level() + 1
                bound = {"restrict_array": levels, "prolong_array": levels, "run_program": 0}
            else:
                groups = len(amr._get_reflux_plan()[1].groups)
                bound = {"restrict_array": groups, "prolong_array": 0, "run_program": 0}
                assert groups <= 2 * amr.layout.ndim * n_stacks  # per (axis, side, stack)
            if compiled:
                bound = {"restrict_array": 0, "prolong_array": 0, "run_program": 1}
            log.append(({k: made[k] - before[k] for k in made}, bound, len(amr.forest.leaves)))

        setattr(amr, method, counting)

    @pytest.mark.parametrize(
        "n_ranks, target", [(1, "numpy"), (2, "numpy"), (1, "cext")], ids=["1", "2", "cext"]
    )
    def test_builds_and_calls_scale_with_the_stacks(
        self, system2d, calls, plan_calls, n_ranks, target
    ):
        """Regrids every third step (and, at two ranks, migrations): a step
        that changes no topology builds no pipeline and sweeps once per
        stack per recovery (one per RK stage: compute_dt's serves stage 1)
        and per axis and stage; a regrid, with its migration, builds at most one pipeline
        per stack of the forest it leaves.  A ghost fill is one compiled
        program call on ``cext``, and on ``numpy`` at most one restriction
        and one prolongation per level; a reflux one compiled call, or one
        restriction per (axis, side, stack) — whatever the leaf count."""
        if target == "cext":
            require_cext(2)
        amr = AMRSolver(
            system2d,
            Grid((32, 32), ((0, 1), (0, 1))),
            lambda s, g: blast_wave_2d(s, g, p_in=10.0, p_out=1.0, radius=0.2,
                                       center=(0.4, 0.45)),
            SolverConfig(cfl=0.4, kernel_target=target),
            AMRConfig(block_size=8, max_levels=2, regrid_interval=3,
                      refine_threshold=0.2, coarsen_threshold=0.05,
                      rebalance_threshold=1.02),
            make_boundaries("periodic"),
            n_ranks=n_ranks,
        )
        stages = amr.integrator.stages
        fills, refluxes = [], []
        self._per_call(amr, plan_calls, "_fill_ghosts", fills)
        self._per_call(amr, plan_calls, "_apply_reflux", refluxes)
        topologies, rebuilt = set(), 0
        for name in calls:
            calls[name] = 0
        for step in range(1, 13):
            if step % 3 != 1:  # a regrid's builds land in the next step
                for name in calls:
                    calls[name] = 0
            amr.step()
            n_stacks = len(amr._stacks_now())
            assert n_stacks < len(amr.forest.leaves)
            topologies.add((tuple(amr.forest.leaves), tuple(amr.assignment.values())))
            if step % 3 == 2:  # neither regridded nor re-keyed
                assert calls == {
                    "builds": 0,
                    "recover_primitives": stages * n_stacks,
                    "flux_divergence_region": stages * 2 * n_stacks,
                }, step
            elif step % 3 == 1:  # re-keyed after the regrid (or construction)
                assert calls["builds"] <= n_stacks, step
                rebuilt += calls["builds"]
        assert fills and refluxes
        for made, bound, n_leaves in fills + refluxes:
            for name, n in made.items():
                assert n <= bound[name] < n_leaves, (made, bound, n_leaves)
        if target == "cext":
            assert all(made["run_program"] == 1 for made, _, _ in fills)
        assert max(sum(made.values()) for made, _, _ in refluxes) > 0
        assert amr.regrids == 4 and len(topologies) > 1 and rebuilt > 0
        assert (amr.repartitions > 0) == (n_ranks > 1)

    def test_a_stack_on_a_team_is_the_one_thread_run(self, system2d):
        """A stack of >= 16 leaves of 16^2 (>= 4096 interior cells, the team
        threshold) steps through a regrid on 1, 2 and 4 threads: every
        leaf's bytes are the 1-thread run's."""
        from repro.codegen import cext as cext_mod
        from repro.codegen.generator import TEAM_MIN_WORK

        from .test_codegen import _set_team

        require_cext(2)

        def run():
            amr = AMRSolver(
                system2d,
                # Blocks 1/8 wide: every level-0 leaf has the one exact dx.
                Grid((96, 96), ((0, 0.75), (0, 0.75))),
                lambda s, g: blast_wave_2d(s, g, p_in=10.0, p_out=1.0, radius=0.1,
                                           center=(0.375, 0.375)),
                SolverConfig(kernel_target="cext", cfl=0.4),
                # Coarse at t = 0: the regrid at step 2 refines the blast.
                AMRConfig(block_size=16, max_levels=2, regrid_interval=2,
                          initial_regrid_passes=0),
            )
            leaves = list(amr.forest.leaves)
            biggest = max(len(st.idents) for st in amr._stacks_now())
            assert biggest * 16**2 >= TEAM_MIN_WORK
            for _ in range(3):
                amr.step()
            assert amr.regrids == 1 and list(amr.forest.leaves) != leaves
            return {k: leaf.cons.tobytes() for k, leaf in amr.forest.leaves.items()}

        before = cext_mod.threads(2)
        try:
            _set_team(1)
            want = run()
            for n in (2, 4):
                _set_team(n)
                assert run() == want, n
        finally:
            cext_mod.threads(2, before)

    def test_the_ghost_program_on_a_team_is_the_one_thread_run(self, system2d):
        """The compiled ghost fill and reflux on 1, 2 and 4 threads: the
        program kernel is one serial call whatever the team, so every
        ghost and every corrected ``dU`` byte is the 1-thread run's."""
        from repro.codegen import cext as cext_mod

        from .test_codegen import _set_team

        require_cext(2)
        amr = _blob_amr(2, make_boundaries("periodic"), 1, "cext")

        def run():
            prims = amr._ghosted_snapshot()
            dU = PatchViews.of(amr._stacks, [
                st.pipeline.flux_divergence(prim) for st, prim in zip(amr._stacks, prims.stacks)
            ])
            amr._apply_reflux(dU)
            return [a.tobytes() for a in prims.stacks + dU.stacks]

        before = cext_mod.threads(2)
        try:
            _set_team(1)
            want = run()
            for n in (2, 4):
                _set_team(n)
                assert run() == want, n
        finally:
            cext_mod.threads(2, before)


def _blob(system, grid):
    """A dense off-centre blob in a sheared flow, in any ndim: a jump to
    refine on, and velocities whose sign a reflecting wall flips."""
    ndim = grid.ndim
    x = np.meshgrid(*(grid.coords_with_ghosts(ax) for ax in range(ndim)), indexing="ij")
    r2 = sum((xi - c) ** 2 for xi, c in zip(x, (0.3, 0.35, 0.4)))
    prim = grid.allocate(system.nvars)
    prim[system.RHO] = np.where(r2 < 0.04, 10.0, 1.0)
    prim[system.P] = np.where(r2 < 0.04, 5.0, 1.0)
    for ax in range(ndim):
        prim[system.V(ax)] = 0.2 * np.sin(2 * np.pi * x[(ax + 1) % ndim] + ax) / ndim
    return prim


def _blob_amr(ndim, boundaries, n_ranks, target):
    """An AMR run over :func:`_blob`: 64 cells of 16-cell blocks on three
    levels in 1-D, 32^2 of 8^2 on two in 2-D, 24^3 of 8^3 on two in 3-D."""
    system = SRHDSystem(IdealGasEOS(), ndim=ndim)
    n, block, levels = {1: (64, 16, 3), 2: (32, 8, 2), 3: (24, 8, 2)}[ndim]
    return AMRSolver(
        system, Grid((n,) * ndim, ((0.0, 1.0),) * ndim), _blob,
        SolverConfig(cfl=0.4, kernel_target=target),
        AMRConfig(block_size=block, max_levels=levels),
        boundaries, n_ranks=n_ranks,
    )


def dense_composites(amr, interiors):
    """Every level's composite, ``(nvars, *ghosted)``, built densely from
    the leaf *interiors* as the ghost fill defines it: prolongation of the
    level below over the whole interior, every leaf footprint deposited
    (restricted to coarser levels), then the walls — the reference the
    ghost program is checked against."""
    layout, system = amr.layout, amr.system
    ndim, g, B = layout.ndim, layout.n_ghost, layout.block_size
    root, lead = layout.root_grid, (slice(None),)
    out = []
    for level in range(amr.forest.finest_level() + 1):
        grid = root.refined(2**level) if level else root
        comp = np.zeros((system.nvars,) + grid.shape_with_ghosts)
        if level:
            prev = root.refined(2 ** (level - 1)) if level > 1 else root
            pad = lead + tuple(slice(g - 1, g + n + 1) for n in prev.shape)
            inner = lead + tuple(slice(g, g + n) for n in grid.shape)
            comp[inner] = prolong_array(out[-1][pad], ndim)
        for key, data in interiors.items():
            if key.level < level:
                continue
            for _ in range(key.level - level):
                data = restrict_array(data, ndim)
            size = B >> (key.level - level)
            comp[lead + tuple(slice(g + i * size, g + (i + 1) * size) for i in key.idx)] = data
        amr.wall_bcs.apply(system, grid, comp)
        out.append(comp)
    return out


def _wall_sets(ndim):
    from repro.boundary.conditions import (
        BoundarySet,
        FixedState,
        JetInflowBC,
        Outflow,
        Reflecting,
    )
    from repro.physics.initial_data import JetInflow

    fixed = [1.5, *(0.1 * (ax + 1) for ax in range(ndim)), 0.7]
    sets = {
        "outflow": make_boundaries("outflow"),
        "periodic": make_boundaries("periodic"),
        "reflecting": make_boundaries("reflecting"),
        "fixed": BoundarySet(FixedState(fixed)),
        "mixed": BoundarySet(Outflow(), {
            (0, 0): Reflecting(), (0, 1): FixedState(fixed),
            **({(1, 1): Reflecting()} if ndim > 1 else {}),
        }),
    }
    if ndim == 2:
        sets["jet"] = BoundarySet(Outflow(), {(0, 0): JetInflowBC(JetInflow(radius=0.2), 0.4)})
    return sets


_GHOST_CASES = [
    pytest.param(ndim, name, n_ranks, id=f"{ndim}d-{name}-ranks{n_ranks}")
    for ndim in (1, 2) for name in _wall_sets(ndim) for n_ranks in (1, 2)
] + [pytest.param(3, "periodic", n_ranks, id=f"3d-periodic-ranks{n_ranks}") for n_ranks in (1, 2)]


class TestGhostProgram:
    """The compiled ghost fill writes every ghost byte the dense composite
    construction (:func:`dense_composites`) defines — walls of every kind,
    coarse-fine faces and corners, at one rank and from partial composites
    at two — on the NumPy mirror and in the compiled kernel."""

    @staticmethod
    def _check(ndim, name, n_ranks, target):
        amr = _blob_amr(ndim, _wall_sets(ndim)[name], n_ranks, target)
        assert len(amr.leaf_count_by_level()) > 1  # coarse-fine faces
        prims = amr._ghosted_snapshot()
        leaves = amr.forest.leaves
        interiors = {key: leaves[key].grid.interior_of(view) for key, view in prims.items()}
        comps = dense_composites(amr, interiors)
        G = amr.layout.block_size + 2 * amr.layout.n_ghost
        B = amr.layout.block_size
        for key, view in prims.items():
            window = (slice(None),) + tuple(slice(i * B, i * B + G) for i in key.idx)
            assert view.tobytes() == comps[key.level][window].tobytes(), key

    @pytest.mark.parametrize("ndim, name, n_ranks", _GHOST_CASES)
    def test_numpy_ghosts_are_the_dense_composites(self, ndim, name, n_ranks):
        self._check(ndim, name, n_ranks, "numpy")

    @pytest.mark.parametrize("ndim, name, n_ranks", _GHOST_CASES)
    def test_cext_ghosts_are_the_dense_composites(self, ndim, name, n_ranks):
        require_cext(ndim)
        self._check(ndim, name, n_ranks, "cext")

    def test_a_wall_that_is_no_copy_or_constant_is_refused_at_build(self, system1d):
        """Linear extrapolation passes a doubling probe (it is linear) but
        reads no interior cell's id: the build refuses it, naming the
        face."""
        from repro.boundary.conditions import BoundaryCondition, BoundarySet

        class Extrapolate(BoundaryCondition):
            name = "extrapolate"

            def apply(self, system, grid, prim, axis, side):
                g, n = grid.n_ghost, grid.shape[0]
                for k in range(g):
                    if side == 0:
                        prim[:, g - 1 - k] = 2 * prim[:, g - k] - prim[:, g - k + 1]
                    else:
                        prim[:, g + n + k] = 2 * prim[:, g + n + k - 1] - prim[:, g + n + k - 2]

        with pytest.raises(ConfigurationError, match=r"'extrapolate'.*axis 0, side 0"):
            AMRSolver(
                system1d, Grid((32,), ((0.0, 1.0),)), lambda s, g: shock_tube(s, g, RP1),
                SolverConfig(cfl=0.4), AMRConfig(block_size=16, max_levels=1),
                BoundarySet(Extrapolate()),
            )

    def test_a_read_no_source_covers_raises_naming_the_leaf(self, system1d):
        """A plan whose sources omit a leaf a target's ghosts read refuses
        to build (the dense construction read the 0.0 of its zeros)."""
        layout = BlockLayout(Grid((64,), ((0.0, 1.0),)), block_size=16)
        forest = AMRForest(layout, max_levels=2)
        for key in layout.root_keys():
            forest.add_leaf(key, None)
        forest.split(BlockKey(0, (2,)), dict.fromkeys(BlockKey(0, (2,)).children()))
        walls = make_boundaries("outflow")
        held = [BlockKey(0, (0,)), BlockKey(0, (1,))]
        # Block 1's ghosts reach into level-1 leaf (1, (4,)), held nowhere.
        with pytest.raises(MeshError, match=r"BlockKey\(level=0, idx=\(1,\)\)"):
            forest.ghost_plan([[(k, 0) for k in held]], [], 1, 3, system1d, walls)
        fine = [BlockKey(1, (4,)), BlockKey(1, (5,))]
        forest.ghost_plan([[(k, 0) for k in held]], [[(k, 0) for k in fine]], 1, 3, system1d, walls)


def _import_case(ndim, walls, n_ranks):
    """The 1-D RP1 tube (64 cells, 8-cell blocks) or the 2-D blast (32^2,
    8^2 blocks), three levels, on *walls* over *n_ranks* in-process ranks,
    stepped through its first regrid."""
    system = SRHDSystem(IdealGasEOS(), ndim=ndim)
    if ndim == 1:
        grid, init = Grid((64,), ((0.0, 1.0),)), lambda s, g: shock_tube(s, g, RP1)
        amr = AMRConfig(block_size=8, max_levels=3, refine_threshold=0.05,
                        coarsen_threshold=0.02, regrid_interval=2)
    else:
        grid = Grid((32, 32), ((0.0, 1.0), (0.0, 1.0)))

        def init(s, g):
            return blast_wave_2d(s, g, p_in=10.0, p_out=1.0, radius=0.15, center=(0.45, 0.4))

        amr = AMRConfig(block_size=8, max_levels=3, regrid_interval=2,
                        refine_threshold=0.2, coarsen_threshold=0.05)
    args = (system, grid, init, SolverConfig(cfl=0.4), amr, make_boundaries(walls))
    solver = AMRSolver(*args, n_ranks=n_ranks)
    for _ in range(amr.regrid_interval):
        solver.step()
    assert len(solver.leaf_count_by_level()) > 1  # coarse-fine faces
    return solver, args


def _sends(solver):
    """``(src, dst) -> keys`` of the ghost plan's imports, in plan order."""
    sends = {}
    for key, dst in solver._get_ghost_plan()[1]:
        sends.setdefault((solver.assignment[key], dst), []).append(key)
    return sends


_IMPORT_CASES = [
    pytest.param(ndim, walls, n_ranks, id=f"{ndim}d-{walls}-ranks{n_ranks}")
    for ndim in (1, 2) for walls in ("outflow", "periodic") for n_ranks in (2, 3, 4)
]


class TestExactImports:
    """A rank imports exactly the leaf interiors its ghost program loads:
    the imports come out of the program's own walk, one slot per rank, and
    every stepper derives the same ones, whichever ranks it holds."""

    @pytest.mark.parametrize("ndim, walls, n_ranks", _IMPORT_CASES)
    def test_every_import_is_loaded_and_every_load_is_held_or_imported(
        self, ndim, walls, n_ranks
    ):
        from repro.mesh.amr.forest import LOAD

        amr, _ = _import_case(ndim, walls, n_ranks)
        plan, imports = amr._get_ghost_plan()
        owner, stacks = amr.assignment, amr._stacks
        nvars, nd = amr.system.nvars, amr.layout.ndim
        B, G = amr.layout.block_size, amr.layout.block_size + 2 * amr.layout.n_ghost
        rows = [(key, rank) for key, rank in imports if rank in amr.local_ranks]
        loaded = set()  # (leaf, the rank whose program loads it)
        for op, a, _, _, _, record in plan.segments:
            if op == LOAD and a < len(stacks):
                idents = stacks[a].idents
                loaded |= {(idents[p], owner[idents[p]])
                           for p in np.unique(record[:, 0] // (nvars * G**nd))}
            elif op == LOAD:
                loaded |= {rows[i] for i in np.unique(record[:, 0] // (nvars * B**nd))}
        assert rows and len(set(rows)) == len(rows) == len(imports)
        assert all(owner[key] != rank for key, rank in imports)
        assert {(key, rank) for key, rank in loaded if owner[key] != rank} == set(imports)

    @pytest.mark.parametrize("ndim, walls, n_ranks", _IMPORT_CASES)
    def test_a_stepper_holding_one_rank_derives_the_same_sends(self, ndim, walls, n_ranks):
        from repro.comm.communicator import SimCommunicator

        amr, args = _import_case(ndim, walls, n_ranks)
        want = _sends(amr)
        assert want
        for rank in range(n_ranks):
            one = AMRSolver.__new__(AMRSolver)
            system, grid, _, config, policy, walls_set = args
            one._init_core(system, grid, config, policy, walls_set, None, None,
                           (rank,), SimCommunicator(n_ranks))
            one.install_state(amr.state())
            one._stacks_now()
            assert _sends(one) == want, rank
