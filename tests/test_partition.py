"""Tests for Morton-order (SFC) partitioning of AMR leaves."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Grid, IdealGasEOS, SolverConfig, SRHDSystem
from repro.core.amr_solver import AMRConfig, AMRSolver
from repro.mesh.amr import BlockKey, BlockLayout, AMRForest
from repro.mesh.amr.partition import (
    PARTITIONERS,
    _measure,
    morton_key,
    partition_random,
    partition_round_robin,
    partition_sfc,
    sfc_order,
)
from repro.physics.initial_data import RP1, blast_wave_2d, shock_tube
from repro.utils.errors import MeshError

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402


@pytest.fixture(scope="module")
def adapted_forest():
    eos = IdealGasEOS()
    system = SRHDSystem(eos, ndim=2)
    grid = Grid((64, 64), ((0, 1), (0, 1)))
    amr = AMRSolver(
        system,
        grid,
        lambda s, g: blast_wave_2d(s, g, p_in=50.0, radius=0.15, smoothing=0.02),
        SolverConfig(cfl=0.3),
        AMRConfig(block_size=16, max_levels=3, refine_threshold=0.1),
    )
    return amr.forest


class TestMortonKey:
    def test_z_order_2d_level0(self):
        """At one level, Morton order follows the Z pattern."""
        keys = [BlockKey(0, (x, y)) for x in range(2) for y in range(2)]
        ordered = sfc_order(keys, max_level=0)
        assert [k.idx for k in ordered] == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_children_follow_parent(self):
        """A parent's Morton key sorts immediately before its children."""
        parent = BlockKey(0, (1, 1))
        other = BlockKey(0, (0, 1))
        keys = [other, parent, *parent.children()]
        ordered = sfc_order(keys, max_level=1)
        pos = {k: i for i, k in enumerate(ordered)}
        for child in parent.children():
            assert pos[child] > pos[parent]
            # No foreign block interleaves the family.
            assert pos[child] <= pos[parent] + 4

    def test_level_exceeds_max_rejected(self):
        with pytest.raises(MeshError):
            morton_key(BlockKey(2, (0, 0)), max_level=1)

    def test_keys_unique(self, adapted_forest):
        ml = adapted_forest.finest_level()
        codes = [morton_key(k, ml) for k in adapted_forest.leaves]
        assert len(set(codes)) == len(codes)

    def test_sfc_locality(self):
        """Consecutive leaves along the curve are spatially close: mean
        Manhattan distance well below random ordering."""
        layout_keys = [BlockKey(2, (x, y)) for x in range(8) for y in range(8)]
        ordered = sfc_order(layout_keys, max_level=2)
        dist = np.mean(
            [
                abs(a.idx[0] - b.idx[0]) + abs(a.idx[1] - b.idx[1])
                for a, b in zip(ordered, ordered[1:])
            ]
        )
        assert dist < 2.0  # Z-order: mostly unit steps


class TestPartitioners:
    @pytest.mark.parametrize("name", sorted(PARTITIONERS))
    def test_every_leaf_assigned(self, adapted_forest, name):
        part = PARTITIONERS[name](adapted_forest, 8)
        assert set(part.assignment) == set(adapted_forest.leaves)
        assert set(part.assignment.values()) <= set(range(8))

    def test_sfc_balanced(self, adapted_forest):
        part = partition_sfc(adapted_forest, 8)
        assert part.imbalance < 1.15

    def test_sfc_beats_scattered_on_comm(self, adapted_forest):
        sfc = partition_sfc(adapted_forest, 8)
        rr = partition_round_robin(adapted_forest, 8)
        rnd = partition_random(adapted_forest, 8)
        assert sfc.comm_volume < 0.5 * rr.comm_volume
        assert sfc.comm_volume < 0.5 * rnd.comm_volume
        assert sfc.edge_cut < rr.edge_cut

    def test_single_rank_no_cut(self, adapted_forest):
        part = partition_sfc(adapted_forest, 1)
        assert part.edge_cut == 0
        assert part.imbalance == pytest.approx(1.0)

    def test_weighted_work(self, adapted_forest):
        """Level-weighted work (finer blocks cost more per step in a
        subcycled code) still balances along the curve."""
        work = {
            k: adapted_forest.layout.cells_per_block() * 2**k.level
            for k in adapted_forest.leaves
        }
        part = partition_sfc(adapted_forest, 4, work=work)
        assert part.imbalance < 1.25

    def test_invalid_rank_count(self, adapted_forest):
        with pytest.raises(MeshError):
            partition_sfc(adapted_forest, 0)

    def test_mixed_level_adjacency_counted(self):
        """A coarse leaf next to fine leaves contributes one edge per fine
        neighbour when they land on different ranks."""
        layout = BlockLayout(Grid((32,), ((0.0, 1.0),)), block_size=16)
        forest = AMRForest(layout, max_levels=2)
        left = BlockKey(0, (0,))
        right = BlockKey(0, (1,))
        forest.add_leaf(left, layout.grid_for(left).allocate(3))
        forest.add_leaf(right, layout.grid_for(right).allocate(3))
        # Refine the right block.
        children = {c: layout.grid_for(c).allocate(3) for c in right.children()}
        forest.split(right, children)
        part = partition_sfc(forest, 2)
        # The curve puts [left | right-children] -> one cut at the c-f face.
        assert part.edge_cut >= 1


    @pytest.mark.parametrize("periodic, faces", [((True, True), 64), ((False, False), 48)])
    def test_periodic_faces_wrap(self, periodic, faces):
        """A 4x4 root of 8^2 blocks, one leaf per rank: every leaf face is
        cut, each wall face too where the forest wraps across it (64 faces,
        32 adjacencies), none where it ends there (48, 24)."""
        layout = BlockLayout(Grid((32, 32), ((0.0, 1.0), (0.0, 1.0))), block_size=8)
        forest = AMRForest(layout, max_levels=1, periodic=periodic)
        for key in layout.root_keys():
            forest.add_leaf(key, layout.grid_for(key).allocate(4))
        part = _measure(forest, {key: i for i, key in enumerate(forest.leaves)}, 16)
        assert part.edge_cut == faces // 2
        assert part.comm_volume == faces // 2 * 8


MAX_LEVELS = 3


def _refined_forest(ndim: int, split_seeds) -> AMRForest:
    """A deterministic forest refined by a seed-driven split sequence.

    Leaves carry ``cons=None`` (topology only): the partitioners consume
    the forest shape, never the block payloads.
    """
    grid = Grid((16,) * ndim, tuple(((0.0, 1.0),) * ndim))
    layout = BlockLayout(grid, block_size=8)
    forest = AMRForest(layout, max_levels=MAX_LEVELS)
    for key in layout.root_keys():
        forest.add_leaf(key, None)
    for seed in split_seeds:
        splittable = sorted(
            (k for k in forest.leaves if k.level < MAX_LEVELS - 1),
            key=lambda k: (k.level, k.idx),
        )
        if not splittable:
            break
        target = splittable[seed % len(splittable)]
        forest.split(target, {c: None for c in target.children()})
    return forest


forests = st.builds(
    _refined_forest,
    st.sampled_from([1, 2]),
    st.lists(st.integers(min_value=0, max_value=10**6), max_size=10),
)


class TestPartitionProperties:
    """Hypothesis properties of the Morton keys and the SFC cut."""

    @given(forest=forests)
    @settings(max_examples=30, deadline=None, database=None)
    def test_keys_unique_and_total_order(self, forest):
        ml = forest.finest_level()
        codes = [morton_key(k, ml) for k in forest.leaves]
        assert len(set(codes)) == len(codes)
        # sfc_order is a permutation of the leaves, stable across calls.
        ordered = sfc_order(forest.leaves)
        assert sorted(ordered, key=lambda k: (k.level, k.idx)) == sorted(
            forest.leaves, key=lambda k: (k.level, k.idx)
        )
        assert ordered == sfc_order(list(forest.leaves))

    @given(forest=forests, pick=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None, database=None)
    def test_refinement_preserves_curve_order(self, forest, pick):
        """Splitting a leaf replaces it *in place* on the Morton curve:
        its children occupy a contiguous segment at the parent's old
        position and every other leaf keeps its relative order."""
        before = sfc_order(forest.leaves)
        splittable = [k for k in before if k.level < MAX_LEVELS - 1]
        assume(splittable)
        target = splittable[pick % len(splittable)]
        forest.split(target, {c: None for c in target.children()})
        after = sfc_order(forest.leaves)
        i = before.index(target)
        nchild = len(target.children())
        assert after[:i] == before[:i]
        assert set(after[i : i + nchild]) == set(target.children())
        assert after[i + nchild :] == before[i + 1 :]

    @given(
        forest=forests,
        n_ranks=st.integers(min_value=1, max_value=8),
        name=st.sampled_from(sorted(PARTITIONERS)),
    )
    @settings(max_examples=30, deadline=None, database=None)
    def test_every_leaf_assigned_exactly_once(self, forest, n_ranks, name):
        part = PARTITIONERS[name](forest, n_ranks)
        assert set(part.assignment) == set(forest.leaves)
        assert all(0 <= r < n_ranks for r in part.assignment.values())

    @given(
        forest=forests,
        n_ranks=st.integers(min_value=1, max_value=8),
        weight_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None, database=None)
    def test_imbalance_bounded_by_max_block_work(self, forest, n_ranks, weight_seed):
        """The greedy curve cut never loads a rank beyond its quota plus
        one block: imbalance <= 1 + max(work)/mean(rank work)."""
        rng = np.random.default_rng(weight_seed)
        keys = sorted(forest.leaves, key=lambda k: (k.level, k.idx))
        work = {k: float(rng.integers(1, 65)) for k in keys}
        part = partition_sfc(forest, n_ranks, work=work)
        mean_rank_work = sum(work.values()) / n_ranks
        bound = 1.0 + max(work.values()) / mean_rank_work
        assert part.imbalance <= bound + 1e-9

    @given(
        forest=forests,
        n_ranks=st.integers(min_value=1, max_value=6),
        perm_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None, database=None)
    def test_quality_invariant_under_rank_permutation(
        self, forest, n_ranks, perm_seed
    ):
        """edge_cut/comm_volume/imbalance depend on the *shape* of the
        cut, not on which rank id each segment got."""
        base = partition_sfc(forest, n_ranks)
        perm = list(np.random.default_rng(perm_seed).permutation(n_ranks))
        relabeled = {k: int(perm[r]) for k, r in base.assignment.items()}
        again = _measure(forest, relabeled, n_ranks)
        assert again.edge_cut == base.edge_cut
        assert again.comm_volume == base.comm_volume
        assert again.imbalance == pytest.approx(base.imbalance)


class TestExperimentE14:
    def test_report_shape(self):
        from repro.harness.experiments_partition import experiment_e14_partitioning

        report = experiment_e14_partitioning(
            root_n=64, rank_counts=(4, 16)
        )
        assert len(report.rows) == 6
        by = {(r[0], r[1]): r for r in report.rows}
        for ranks in (4, 16):
            assert by[(ranks, "sfc")][4] < by[(ranks, "round-robin")][4]
