"""Ghost-zone boundary conditions.

A :class:`BoundaryCondition` fills the ghost layers of one face of a ghosted
primitive array; a :class:`BoundarySet` maps every ``(axis, side)`` face of a
grid to a condition and applies them all. Sides are 0 (low) and 1 (high).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..mesh.grid import Grid
from ..physics.initial_data import JetInflow
from ..physics.srhd import SRHDSystem
from ..utils.errors import ConfigurationError


def _along(grid: Grid, axis: int, sl) -> tuple:
    """Index of *sl* along *axis* of a ghosted array, variable axis first."""
    idx = [slice(None)] * (grid.ndim + 1)
    idx[axis + 1] = sl
    return tuple(idx)


def _ghosts(grid: Grid, axis: int, side: int) -> tuple:
    """Index of the ghost layers of face (axis, side)."""
    g, n = grid.n_ghost, grid.shape[axis]
    return _along(grid, axis, slice(0, g) if side == 0 else slice(g + n, 2 * g + n))


class BoundaryCondition(ABC):
    """Fills ghost zones on one face of a ghosted primitive array."""

    name = "abstract"

    @abstractmethod
    def apply(
        self, system: SRHDSystem, grid: Grid, prim: np.ndarray, axis: int, side: int
    ) -> None:
        """Fill the ghost layers of face (axis, side) in place."""


class InteriorFace(BoundaryCondition):
    """No-op placeholder for faces whose ghosts are filled by halo exchange
    (distributed runs) or fine-coarse prolongation (AMR)."""

    name = "interior"

    def apply(self, system, grid, prim, axis, side):
        return None


class Outflow(BoundaryCondition):
    """Zero-gradient: copy the outermost interior cell into every ghost layer."""

    name = "outflow"

    def apply(self, system, grid, prim, axis, side):
        g, n = grid.n_ghost, grid.shape[axis]
        edge = slice(g, g + 1) if side == 0 else slice(g + n - 1, g + n)
        prim[_ghosts(grid, axis, side)] = prim[_along(grid, axis, edge)]


class Periodic(BoundaryCondition):
    """Wrap-around ghost fill."""

    name = "periodic"

    def apply(self, system, grid, prim, axis, side):
        g, n = grid.n_ghost, grid.shape[axis]
        if n < g:
            raise ConfigurationError(
                f"periodic BC needs at least {g} interior cells along axis {axis}"
            )
        src = slice(n, n + g) if side == 0 else slice(g, 2 * g)
        prim[_ghosts(grid, axis, side)] = prim[_along(grid, axis, src)]


class Reflecting(BoundaryCondition):
    """Mirror the interior and flip the normal velocity component."""

    name = "reflecting"

    def apply(self, system, grid, prim, axis, side):
        g, n = grid.n_ghost, grid.shape[axis]
        # ghost layer k out from the face mirrors interior layer k in
        src = slice(2 * g - 1, g - 1, -1) if side == 0 else slice(g + n - 1, n - 1, -1)
        ghosts = _ghosts(grid, axis, side)
        prim[ghosts] = prim[_along(grid, axis, src)]
        prim[(system.V(axis),) + ghosts[1:]] *= -1.0


class FixedState(BoundaryCondition):
    """Dirichlet: ghost zones pinned to a constant primitive state."""

    name = "fixed"

    def __init__(self, state):
        self.state = np.asarray(state, dtype=float)

    def apply(self, system, grid, prim, axis, side):
        if self.state.shape != (system.nvars,):
            raise ConfigurationError(
                f"fixed state has shape {self.state.shape}, "
                f"expected ({system.nvars},)"
            )
        prim[_ghosts(grid, axis, side)] = self.state.reshape((-1,) + (1,) * grid.ndim)


class JetInflowBC(BoundaryCondition):
    """Jet nozzle on the low-x face: beam state inside the nozzle radius,
    outflow elsewhere. 2-D only; the transverse coordinate is axis 1."""

    name = "jet-inflow"

    def __init__(self, jet: JetInflow, center: float = 0.5, tracer_value: float = 1.0):
        self.jet = jet
        self.center = float(center)
        self.tracer_value = float(tracer_value)
        self._outflow = Outflow()

    def apply(self, system, grid, prim, axis, side):
        if grid.ndim != 2 or axis != 0 or side != 0:
            raise ConfigurationError("JetInflowBC applies to the low-x face of a 2-D grid")
        self._outflow.apply(system, grid, prim, axis, side)
        y = grid.coords_with_ghosts(1)
        nozzle = np.abs(y - self.center) <= self.jet.radius
        g = grid.n_ghost
        region = prim[:, 0:g, :]  # (nvars, g, ny_tot)
        region[system.RHO][:, nozzle] = self.jet.rho_beam
        region[system.V(0)][:, nozzle] = self.jet.v_beam
        region[system.V(1)][:, nozzle] = 0.0
        region[system.P][:, nozzle] = self.jet.p_beam
        # Mark beam material when the system carries tracers.
        if hasattr(system, "Y"):
            for m in range(system.n_tracers):
                region[system.Y(m)][:, nozzle] = self.tracer_value


class BoundarySet:
    """Per-face boundary conditions for a grid.

    Construct with a single condition for all faces, or a mapping
    ``{(axis, side): BoundaryCondition}`` (missing faces default to
    *default*).
    """

    def __init__(self, default: BoundaryCondition | None = None, faces: dict | None = None):
        self.default = default or Outflow()
        self.faces = dict(faces or {})

    def condition(self, axis: int, side: int) -> BoundaryCondition:
        return self.faces.get((axis, side), self.default)

    def walls(self, ndim: int) -> list:
        """``(axis, side, condition)`` of every face :meth:`apply` fills, in
        its order: all but the :class:`InteriorFace` ones, which another
        layer (a halo exchange, the AMR ghost fill) fills."""
        return [
            (axis, side, cond)
            for axis in range(ndim)
            for side in (0, 1)
            if not isinstance(cond := self.condition(axis, side), InteriorFace)
        ]

    def apply(self, system: SRHDSystem, grid: Grid, prim: np.ndarray) -> None:
        """Fill all ghost zones of *prim* in place."""
        for axis in range(grid.ndim):
            for side in (0, 1):
                self.condition(axis, side).apply(system, grid, prim, axis, side)


def make_boundaries(name: str = "outflow", **kwargs) -> BoundarySet:
    """Uniform boundary set by name: outflow, periodic, or reflecting."""
    table = {"outflow": Outflow, "periodic": Periodic, "reflecting": Reflecting}
    if name not in table:
        raise ConfigurationError(
            f"unknown boundary {name!r}; choose from {sorted(table)}"
        )
    return BoundarySet(default=table[name](**kwargs))
