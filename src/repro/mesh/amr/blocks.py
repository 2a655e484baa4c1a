"""Block addressing for the octree-style AMR mesh.

The domain is tiled by fixed-size blocks organized as a 2^d-tree (binary
tree in 1-D, quadtree in 2-D, octree in 3-D — the Dendro-family layout): a
block at ``(level, idx)`` either is a *leaf* (it owns evolved data) or is
refined into the 2^d children ``(level+1, 2*idx + offset)``. Leaf grids at
level ``l`` have cell spacing ``root_dx / 2^l`` and a fixed per-block cell
count.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

import numpy as np

from ...utils.errors import MeshError
from ..grid import Grid


class BlockKey(NamedTuple):
    """Address of one block in the 2^d-tree."""

    level: int
    idx: tuple[int, ...]

    def children(self) -> list["BlockKey"]:
        """The 2^d children of this block at the next finer level."""
        ndim = len(self.idx)
        return [
            BlockKey(self.level + 1, tuple(2 * i + o for i, o in zip(self.idx, off)))
            for off in product((0, 1), repeat=ndim)
        ]

    def parent(self) -> "BlockKey":
        if self.level == 0:
            raise MeshError("root blocks have no parent")
        return BlockKey(self.level - 1, tuple(i // 2 for i in self.idx))

    def child_offset(self) -> tuple[int, ...]:
        """This block's position (0/1 per axis) within its parent."""
        return tuple(i % 2 for i in self.idx)

    def neighbor(self, axis: int, side: int) -> "BlockKey":
        """Same-level neighbour across face (axis, side) — may be outside
        the domain; validity is checked by the forest."""
        delta = 1 if side == 1 else -1
        idx = list(self.idx)
        idx[axis] += delta
        return BlockKey(self.level, tuple(idx))


class BlockLayout:
    """Geometry shared by every block: domain bounds, per-block cell count,
    root tiling, and the map from keys to physical grids."""

    def __init__(self, root_grid: Grid, block_size: int = 16):
        if block_size < 2 * root_grid.n_ghost:
            raise MeshError(
                f"block_size {block_size} too small for {root_grid.n_ghost} ghosts"
            )
        for n in root_grid.shape:
            if n % block_size != 0:
                raise MeshError(
                    f"root shape {root_grid.shape} not divisible by "
                    f"block_size {block_size}"
                )
        self.root_grid = root_grid
        self.block_size = block_size
        self.ndim = root_grid.ndim
        self.n_ghost = root_grid.n_ghost
        #: blocks per axis at level 0
        self.root_blocks = tuple(n // block_size for n in root_grid.shape)

    def level_blocks(self, level: int) -> tuple[int, ...]:
        """Block-grid extent at a given level."""
        return tuple(rb * 2**level for rb in self.root_blocks)

    def in_domain(self, key: BlockKey) -> bool:
        extent = self.level_blocks(key.level)
        return all(0 <= i < e for i, e in zip(key.idx, extent))

    def grid_for(self, key: BlockKey) -> Grid:
        """The ghosted grid patch of one block."""
        if not self.in_domain(key):
            raise MeshError(f"block {key} outside the domain")
        bounds = []
        for ax, (b0, b1) in enumerate(self.root_grid.bounds):
            width = (b1 - b0) / self.level_blocks(key.level)[ax]
            lo = b0 + key.idx[ax] * width
            bounds.append((lo, lo + width))
        grid = Grid((self.block_size,) * self.ndim, tuple(bounds), n_ghost=self.n_ghost)
        # The root's spacing halved per level, bit for bit, as Grid.subgrid
        # keeps it: the rounded bounds may give another last bit.
        grid.dx = tuple(d / 2**key.level for d in self.root_grid.dx)
        return grid

    def root_keys(self) -> list[BlockKey]:
        return [
            BlockKey(0, idx)
            for idx in product(*(range(rb) for rb in self.root_blocks))
        ]

    def cells_per_block(self) -> int:
        return self.block_size**self.ndim


class LeafBlock:
    """One evolved leaf: its grid plus the conserved state array — its own,
    or, once a driver steps it (:attr:`view`), the driver's current view."""

    __slots__ = ("key", "grid", "_cons", "view")

    def __init__(self, key: BlockKey, grid: Grid, cons: np.ndarray):
        self.key, self.grid, self.cons = key, grid, cons

    @property
    def cons(self) -> np.ndarray:
        return self._cons if self.view is None else self.view(self.key)

    @cons.setter
    def cons(self, value) -> None:
        self._cons, self.view = value, None

    def __repr__(self):
        return f"LeafBlock({self.key})"
