"""Uniform cell-centered grids with ghost zones (1-D/2-D/3-D).

A :class:`Grid` describes the index space only; field data lives in plain
NumPy arrays of shape ``(nvars, *grid.shape_with_ghosts)`` so kernels stay
vectorized and allocation-free (views, not copies — per the hpc-parallel
guides).
"""

from __future__ import annotations

import numpy as np

from ..utils.errors import MeshError


class Grid:
    """A uniform cell-centered grid patch with ghost cells on every face.

    Parameters
    ----------
    shape:
        Interior cells per dimension, e.g. ``(400,)`` or ``(128, 128)``.
    bounds:
        Physical extents per dimension, ``((x0, x1), (y0, y1), ...)``.
    n_ghost:
        Ghost-cell layers on each face (must cover the reconstruction
        stencil: 1 for PC, 2 for TVD, 3 for PPM/WENO5).
    """

    def __init__(self, shape, bounds, n_ghost: int = 3):
        shape = tuple(int(n) for n in np.atleast_1d(shape))
        bounds = tuple(tuple(map(float, b)) for b in np.atleast_2d(bounds))
        if len(shape) != len(bounds):
            raise MeshError(f"shape {shape} and bounds {bounds} rank mismatch")
        if any(n < 1 for n in shape):
            raise MeshError(f"grid shape must be positive, got {shape}")
        if any(b1 <= b0 for b0, b1 in bounds):
            raise MeshError(f"degenerate bounds {bounds}")
        if n_ghost < 1:
            raise MeshError("need at least one ghost layer")
        self.shape = shape
        self.bounds = bounds
        self.n_ghost = int(n_ghost)
        self.ndim = len(shape)
        self.dx = tuple((b1 - b0) / n for (b0, b1), n in zip(bounds, shape))

    # -- derived geometry ----------------------------------------------------

    @property
    def shape_with_ghosts(self) -> tuple[int, ...]:
        return tuple(n + 2 * self.n_ghost for n in self.shape)

    @property
    def n_cells(self) -> int:
        """Number of interior cells."""
        return int(np.prod(self.shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.dx))

    @property
    def min_dx(self) -> float:
        return min(self.dx)

    def coords(self, axis: int) -> np.ndarray:
        """Interior cell-center coordinates along *axis*."""
        b0, _ = self.bounds[axis]
        n = self.shape[axis]
        return b0 + (np.arange(n) + 0.5) * self.dx[axis]

    def coords_with_ghosts(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along *axis*, including ghost cells."""
        b0, _ = self.bounds[axis]
        g = self.n_ghost
        n = self.shape[axis]
        return b0 + (np.arange(-g, n + g) + 0.5) * self.dx[axis]

    def face_coords(self, axis: int) -> np.ndarray:
        """Interior face coordinates along *axis* (n+1 values)."""
        b0, _ = self.bounds[axis]
        return b0 + np.arange(self.shape[axis] + 1) * self.dx[axis]

    # -- slicing helpers -------------------------------------------------------

    @property
    def interior(self) -> tuple[slice, ...]:
        """Slices selecting interior cells of a ghosted array."""
        g = self.n_ghost
        return tuple(slice(g, g + n) for n in self.shape)

    def interior_of(self, array: np.ndarray) -> np.ndarray:
        """View of the interior cells of a (nvars, ...) or plain ghosted array."""
        extra = array.ndim - self.ndim
        if extra not in (0, 1):
            raise MeshError(
                f"array rank {array.ndim} incompatible with grid rank {self.ndim}"
            )
        idx = (slice(None),) * extra + self.interior
        return array[idx]

    def allocate(self, nvars: int, fill: float = 0.0) -> np.ndarray:
        """Allocate a ghosted state array of shape (nvars, *shape_with_ghosts)."""
        arr = np.empty((nvars,) + self.shape_with_ghosts, dtype=float)
        arr.fill(fill)
        return arr

    # -- refinement -------------------------------------------------------------

    def refined(self, factor: int = 2) -> "Grid":
        """A grid covering the same region with *factor*x cells per dimension."""
        return Grid(
            tuple(n * factor for n in self.shape), self.bounds, self.n_ghost
        )

    def subgrid(self, lo_idx, hi_idx) -> "Grid":
        """Grid covering interior index block [lo, hi) of this grid, with
        this grid's ``dx`` bit for bit (its rounded bounds may give another
        last bit)."""
        lo_idx = tuple(int(i) for i in np.atleast_1d(lo_idx))
        hi_idx = tuple(int(i) for i in np.atleast_1d(hi_idx))
        if len(lo_idx) != self.ndim or len(hi_idx) != self.ndim:
            raise MeshError("index rank mismatch")
        for lo, hi, n in zip(lo_idx, hi_idx, self.shape):
            if not 0 <= lo < hi <= n:
                raise MeshError(f"index block [{lo_idx}, {hi_idx}) outside grid")
        bounds = tuple(
            (b0 + lo * dx, b0 + hi * dx)
            for (b0, _), dx, lo, hi in zip(self.bounds, self.dx, lo_idx, hi_idx)
        )
        shape = tuple(hi - lo for lo, hi in zip(lo_idx, hi_idx))
        sub = Grid(shape, bounds, self.n_ghost)
        sub.dx = self.dx
        return sub

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.shape == other.shape
            and self.bounds == other.bounds
            and self.n_ghost == other.n_ghost
        )

    def __hash__(self):
        return hash((self.shape, self.bounds, self.n_ghost))

    def __repr__(self):
        return f"Grid(shape={self.shape}, bounds={self.bounds}, n_ghost={self.n_ghost})"
