"""Unit tests for Cartesian domain decomposition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mesh.decomposition import (
    CartesianDecomposition,
    balanced_split,
    choose_dims,
)
from repro.mesh.grid import Grid
from repro.utils.errors import ConfigurationError, MeshError


class TestBalancedSplit:
    def test_even(self):
        assert balanced_split(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_distributed_first(self):
        assert balanced_split(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_covers_exactly(self):
        ranges = balanced_split(17, 5)
        assert ranges[0][0] == 0 and ranges[-1][1] == 17
        for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
            assert a1 == b0

    def test_too_many_parts(self):
        with pytest.raises(MeshError):
            balanced_split(3, 4)


class TestChooseDims:
    def test_perfect_square(self):
        assert sorted(choose_dims(16, 2)) == [4, 4]

    def test_prime(self):
        assert sorted(choose_dims(7, 2)) == [1, 7]

    @pytest.mark.parametrize("n_ranks", [0, -2])
    def test_non_positive_rank_count_is_refused(self, n_ranks):
        with pytest.raises(ConfigurationError, match="n_ranks must be >= 1"):
            choose_dims(n_ranks, 2)

    def test_product_preserved(self):
        for n in (1, 2, 6, 12, 64, 100):
            for ndim in (1, 2, 3):
                assert int(np.prod(choose_dims(n, ndim))) == n


class TestDecomposition:
    @pytest.fixture
    def decomp(self):
        return CartesianDecomposition(
            Grid((16, 12), ((0, 1), (0, 1))), dims=(2, 3)
        )

    def test_size(self, decomp):
        assert decomp.size == 6

    def test_rank_coords_round_trip(self, decomp):
        for rank in range(decomp.size):
            assert decomp.coords_rank(decomp.rank_coords(rank)) == rank

    def test_subgrids_tile_domain(self, decomp):
        total = sum(decomp.local_cells(r) for r in range(decomp.size))
        assert total == decomp.global_grid.n_cells

    def test_subgrid_geometry(self, decomp):
        sub = decomp.subgrid(0)
        assert sub.shape == (8, 4)
        assert sub.dx == decomp.global_grid.dx

    def test_neighbor_walls(self, decomp):
        # Rank 0 is the (0, 0) corner: no low neighbours.
        assert decomp.neighbor(0, 0, 0) is None
        assert decomp.neighbor(0, 1, 0) is None
        assert decomp.neighbor(0, 0, 1) is not None

    def test_neighbor_symmetry(self, decomp):
        for rank in range(decomp.size):
            for axis in range(2):
                for side in (0, 1):
                    nbr = decomp.neighbor(rank, axis, side)
                    if nbr is not None:
                        assert decomp.neighbor(nbr, axis, 1 - side) == rank

    def test_periodic_wraps(self):
        d = CartesianDecomposition(
            Grid((8,), ((0, 1),)), dims=(4,), periodic=(True,)
        )
        assert d.neighbor(0, 0, 0) == 3
        assert d.neighbor(3, 0, 1) == 0

    def test_scatter_gather_round_trip(self, decomp):
        rng = np.random.default_rng(3)
        field = rng.normal(size=(3,) + decomp.global_grid.shape)
        parts = decomp.scatter(field)
        assert len(parts) == decomp.size
        back = decomp.gather(parts, nvars=3)
        np.testing.assert_array_equal(back, field)

    def test_scatter_shape_checked(self, decomp):
        with pytest.raises(MeshError):
            decomp.scatter(np.zeros((3, 5, 5)))

    def test_dims_rank_mismatch(self):
        with pytest.raises(MeshError):
            CartesianDecomposition(Grid((8,), ((0, 1),)), dims=(2, 2))

    def test_rank_out_of_range(self, decomp):
        with pytest.raises(MeshError):
            decomp.rank_coords(99)
