"""Unit tests for ghost-zone boundary conditions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.boundary import (
    BoundarySet,
    FixedState,
    JetInflowBC,
    Outflow,
    Periodic,
    Reflecting,
    make_boundaries,
)
from repro.mesh.grid import Grid
from repro.physics.initial_data import JetInflow
from repro.utils.errors import ConfigurationError


@pytest.fixture
def grid(request):
    return Grid((6,), ((0.0, 1.0),), n_ghost=2)


def ramp(system, grid):
    """Primitive array whose interior is a recognizable ramp."""
    prim = grid.allocate(system.nvars, fill=-1.0)
    interior = grid.interior_of(prim)
    for var in range(system.nvars):
        interior[var] = np.arange(grid.shape[0]) + 10 * var
    return prim


class TestOutflow:
    def test_copies_edge_cells(self, system1d, grid):
        prim = ramp(system1d, grid)
        Outflow().apply(system1d, grid, prim, 0, 0)
        Outflow().apply(system1d, grid, prim, 0, 1)
        np.testing.assert_array_equal(prim[0, :2], [0.0, 0.0])
        np.testing.assert_array_equal(prim[0, -2:], [5.0, 5.0])


class TestPeriodic:
    def test_wraps(self, system1d, grid):
        prim = ramp(system1d, grid)
        Periodic().apply(system1d, grid, prim, 0, 0)
        Periodic().apply(system1d, grid, prim, 0, 1)
        np.testing.assert_array_equal(prim[0, :2], [4.0, 5.0])
        np.testing.assert_array_equal(prim[0, -2:], [0.0, 1.0])

    def test_too_few_cells_rejected(self, system1d):
        grid = Grid((2,), ((0, 1),), n_ghost=3)
        prim = grid.allocate(system1d.nvars)
        with pytest.raises(ConfigurationError):
            Periodic().apply(system1d, grid, prim, 0, 0)


class TestReflecting:
    def test_mirrors_and_flips_normal_velocity(self, system1d, grid):
        prim = ramp(system1d, grid)
        Reflecting().apply(system1d, grid, prim, 0, 0)
        # rho mirrored without sign change
        np.testing.assert_array_equal(prim[0, :2], [1.0, 0.0])
        # vx mirrored with sign flip (interior vx = 10, 11, ...)
        np.testing.assert_array_equal(prim[1, :2], [-11.0, -10.0])
        # pressure mirrored without sign change
        np.testing.assert_array_equal(prim[2, :2], [21.0, 20.0])

    def test_high_side(self, system1d, grid):
        prim = ramp(system1d, grid)
        Reflecting().apply(system1d, grid, prim, 0, 1)
        np.testing.assert_array_equal(prim[1, -2:], [-15.0, -14.0])


class TestFixedState:
    def test_pins_ghosts(self, system1d, grid):
        prim = ramp(system1d, grid)
        FixedState([9.0, 0.5, 2.0]).apply(system1d, grid, prim, 0, 0)
        np.testing.assert_array_equal(prim[0, :2], [9.0, 9.0])
        np.testing.assert_array_equal(prim[1, :2], [0.5, 0.5])
        assert prim[0, 2] == 0.0  # interior untouched

    def test_shape_validated(self, system1d, grid):
        prim = ramp(system1d, grid)
        with pytest.raises(ConfigurationError):
            FixedState([1.0, 2.0]).apply(system1d, grid, prim, 0, 0)


class TestJetInflow:
    def test_nozzle_and_ambient(self, system2d):
        grid = Grid((8, 8), ((0, 1), (0, 1)), n_ghost=2)
        prim = grid.allocate(system2d.nvars, fill=0.3)
        jet = JetInflow(rho_beam=0.1, lorentz=5.0, p_beam=0.01, radius=0.2)
        JetInflowBC(jet, center=0.5).apply(system2d, grid, prim, 0, 0)
        y = grid.coords_with_ghosts(1)
        inside = np.abs(y - 0.5) <= 0.2
        # Beam velocity in the nozzle ghost cells.
        assert np.all(prim[1, 0, inside] == pytest.approx(jet.v_beam))
        # Outflow (copied interior value 0.3) outside the nozzle.
        assert np.all(prim[1, 0, ~inside] == pytest.approx(0.3))

    def test_only_low_x_face(self, system2d):
        grid = Grid((8, 8), ((0, 1), (0, 1)), n_ghost=2)
        prim = grid.allocate(system2d.nvars)
        bc = JetInflowBC(JetInflow())
        with pytest.raises(ConfigurationError):
            bc.apply(system2d, grid, prim, 1, 0)


class TestBoundarySet:
    def test_default_everywhere(self, system1d, grid):
        prim = ramp(system1d, grid)
        make_boundaries("outflow").apply(system1d, grid, prim)
        assert prim[0, 0] == 0.0 and prim[0, -1] == 5.0

    def test_mixed_faces(self, system1d, grid):
        bs = BoundarySet(default=Outflow(), faces={(0, 0): Reflecting()})
        prim = ramp(system1d, grid)
        bs.apply(system1d, grid, prim)
        assert prim[1, 1] == -10.0  # reflected low side
        assert prim[1, -1] == 15.0  # outflow high side

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_boundaries("weird")

    def test_2d_all_faces_filled(self, system2d):
        grid = Grid((4, 4), ((0, 1), (0, 1)), n_ghost=2)
        prim = grid.allocate(system2d.nvars, fill=np.nan)
        grid.interior_of(prim)[...] = 1.0
        make_boundaries("outflow").apply(system2d, grid, prim)
        assert np.all(np.isfinite(prim))


def _layer_by_layer(kind, system, grid, prim, axis, side):
    """The wall fills one ghost layer per assignment: the reference the
    slab copies must match byte for byte."""
    g, n = grid.n_ghost, grid.shape[axis]

    def at(i):
        idx = [slice(None)] * (grid.ndim + 1)
        idx[axis + 1] = i
        return tuple(idx)

    for k in range(g):
        ghost = g - 1 - k if side == 0 else g + n + k
        if kind == "outflow":
            prim[at(ghost)] = prim[at(g if side == 0 else g + n - 1)]
        else:
            prim[at(ghost)] = prim[at(g + k if side == 0 else g + n - 1 - k)]
            prim[(system.V(axis),) + at(ghost)[1:]] *= -1.0


class TestSlabFills:
    @pytest.mark.parametrize("kind", ["outflow", "reflecting"])
    @pytest.mark.parametrize("n_ghost", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(5,), (1,), (5, 3), (2, 4), (3, 1, 4)])
    def test_one_slab_copy_is_the_layer_by_layer_fill(self, kind, n_ghost, shape):
        from repro.eos import IdealGasEOS
        from repro.physics.srhd import SRHDSystem

        system = SRHDSystem(IdealGasEOS(), ndim=len(shape))
        grid = Grid(shape, tuple((0.0, 1.0) for _ in shape), n_ghost=n_ghost)
        condition = {"outflow": Outflow(), "reflecting": Reflecting()}[kind]
        rng = np.random.default_rng(n_ghost)
        for axis in range(grid.ndim):
            for side in (0, 1):
                prim = rng.normal(size=(system.nvars,) + grid.shape_with_ghosts)
                prim.flat[::7] = -0.0
                prim.flat[::11] = np.nan
                want = prim.copy()
                _layer_by_layer(kind, system, grid, want, axis, side)
                condition.apply(system, grid, prim, axis, side)
                assert prim.tobytes() == want.tobytes(), (axis, side)
