"""Cartesian domain decomposition of a global grid across ranks.

Mirrors the MPI Cartesian-topology pattern (``MPI_Cart_create``): ranks are
laid out on a process grid, each owns a contiguous interior block of the
global grid (with its own ghost layers), and neighbour lookup follows the
torus/boundary rules per axis.
"""

from __future__ import annotations

import numpy as np

from ..utils.errors import ConfigurationError, MeshError
from .grid import Grid


def balanced_split(n_cells: int, n_parts: int) -> list[tuple[int, int]]:
    """Split ``n_cells`` into ``n_parts`` contiguous near-equal ranges.

    The first ``n_cells % n_parts`` parts get one extra cell — the standard
    balanced block distribution.
    """
    if n_parts < 1 or n_cells < n_parts:
        raise MeshError(f"cannot split {n_cells} cells into {n_parts} parts")
    base, extra = divmod(n_cells, n_parts)
    ranges = []
    start = 0
    for p in range(n_parts):
        size = base + (1 if p < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def choose_dims(n_ranks: int, ndim: int) -> tuple[int, ...]:
    """Near-cubic process-grid dimensions for *n_ranks* (MPI_Dims_create)."""
    if n_ranks < 1:
        raise ConfigurationError(f"n_ranks must be >= 1, got {n_ranks}")
    dims = [1] * ndim
    remaining = n_ranks
    # Greedily peel off the largest factor for the least-loaded axis.
    factor = 2
    factors = []
    while remaining > 1:
        while remaining % factor == 0:
            factors.append(factor)
            remaining //= factor
        factor += 1
    for f in sorted(factors, reverse=True):
        dims[int(np.argmin(dims))] *= f
    return tuple(sorted(dims, reverse=True))


class CartesianDecomposition:
    """Block decomposition of a global :class:`Grid` over a process grid.

    Parameters
    ----------
    global_grid:
        The full-domain grid (its ghost count is inherited by every rank).
    dims:
        Process-grid shape, e.g. ``(4, 2)`` for 8 ranks in 2-D. Use
        :func:`choose_dims` for an automatic near-cubic layout.
    periodic:
        Per-axis periodicity flags for neighbour lookup.
    """

    def __init__(self, global_grid: Grid, dims, periodic=None):
        dims = tuple(int(d) for d in np.atleast_1d(dims))
        if len(dims) != global_grid.ndim:
            raise MeshError(
                f"dims rank {len(dims)} != grid rank {global_grid.ndim}"
            )
        self.global_grid = global_grid
        self.dims = dims
        self.size = int(np.prod(dims))
        self.periodic = tuple(
            bool(p) for p in (periodic if periodic is not None else [False] * len(dims))
        )
        self._splits = [
            balanced_split(n, d) for n, d in zip(global_grid.shape, dims)
        ]
        # Blocks, sub-grids and neighbours are fixed by (grid, dims,
        # periodic): computed once here so every accessor below is a lookup
        # (the halo protocol and the rank steppers read them per message).
        coords = [self.rank_coords(rank) for rank in range(self.size)]
        self._blocks = [
            tuple(self._splits[ax][c] for ax, c in enumerate(cs)) for cs in coords
        ]
        self._subgrids = [
            global_grid.subgrid(*zip(*block)) for block in self._blocks
        ]
        self._neighbors = [
            tuple(
                self._across(cs, axis, side)
                for axis in range(len(dims))
                for side in (0, 1)
            )
            for cs in coords
        ]
        #: halo face table, built on first use by repro.comm.halo.face_table
        #: and kept here so it pickles to workers with the decomposition
        self._face_table = None
        #: the face table compiled per layout of exchanged states, built on
        #: first use by repro.comm.halo.halo_plan
        self._halo_plans: dict = {}

    # -- rank <-> coordinates ----------------------------------------------

    def rank_coords(self, rank: int) -> tuple[int, ...]:
        """Process-grid coordinates of *rank* (row-major order)."""
        if not 0 <= rank < self.size:
            raise MeshError(f"rank {rank} out of range [0, {self.size})")
        return tuple(int(c) for c in np.unravel_index(rank, self.dims))

    def coords_rank(self, coords) -> int:
        return int(np.ravel_multi_index(tuple(coords), self.dims))

    def _across(self, coords, axis: int, side: int) -> int | None:
        """Rank across face (axis, side) of the block at *coords*."""
        coords = list(coords)
        coords[axis] += 1 if side == 1 else -1
        if not 0 <= coords[axis] < self.dims[axis]:
            if not self.periodic[axis]:
                return None
            coords[axis] %= self.dims[axis]
        return self.coords_rank(coords)

    # -- geometry -----------------------------------------------------------

    def cell_range(self, rank: int, axis: int) -> tuple[int, int]:
        """Global interior cell range [lo, hi) owned by *rank* along *axis*."""
        return self._blocks[rank][axis]

    def subgrid(self, rank: int) -> Grid:
        """The local grid patch (with ghosts) owned by *rank*."""
        return self._subgrids[rank]

    def local_cells(self, rank: int) -> int:
        return self._subgrids[rank].n_cells

    def neighbor(self, rank: int, axis: int, side: int) -> int | None:
        """Neighbouring rank across face (axis, side), or None at a wall."""
        return self._neighbors[rank][2 * axis + side]

    # -- global assembly ------------------------------------------------------

    def _block_index(self, rank: int) -> tuple:
        """Index of *rank*'s block in a global interior field (nvars, *shape)."""
        return (slice(None),) + tuple(slice(*r) for r in self._blocks[rank])

    def scatter(self, global_field: np.ndarray) -> dict[int, np.ndarray]:
        """Split a global interior field (nvars, *shape) into per-rank interiors."""
        if global_field.shape[1:] != self.global_grid.shape:
            raise MeshError(
                f"field shape {global_field.shape[1:]} != "
                f"{self.global_grid.shape}"
            )
        return {
            rank: global_field[self._block_index(rank)].copy()
            for rank in range(self.size)
        }

    def gather(self, parts: dict[int, np.ndarray], nvars: int) -> np.ndarray:
        """Reassemble per-rank interior fields into the global interior."""
        out = np.empty((nvars,) + self.global_grid.shape)
        for rank in range(self.size):
            out[self._block_index(rank)] = parts[rank]
        return out

    def __repr__(self):
        return (
            f"CartesianDecomposition(dims={self.dims}, "
            f"global={self.global_grid.shape}, periodic={self.periodic})"
        )
