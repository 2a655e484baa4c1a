"""Cross-cutting property-based tests (hypothesis).

These target invariants that span modules: halo exchange must reproduce
global-array neighbourhoods for any decomposition; recovery must invert
conversion for any EOS; the exact Riemann solver's star state must respect
ordering constraints for any admissible inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.comm import SimCommunicator, exchange_halos
from repro.eos import HybridEOS, IdealGasEOS, make_synthetic_table
from repro.mesh.decomposition import CartesianDecomposition, choose_dims
from repro.mesh.grid import Grid
from repro.physics.con2prim import con_to_prim
from repro.physics.exact_riemann import ExactRiemannSolver, RiemannState
from repro.physics.srhd import SRHDSystem
from repro.utils.errors import ConfigurationError


class TestHaloExchangeProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        n_per_rank=st.integers(min_value=4, max_value=10),
        ranks_x=st.integers(min_value=1, max_value=3),
        ranks_y=st.integers(min_value=1, max_value=3),
        periodic=st.tuples(st.booleans(), st.booleans()),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_global_array(self, n_per_rank, ranks_x, ranks_y, periodic, seed):
        """After exchange, every interior ghost cell equals the value the
        same location holds in the assembled global array."""
        g = 2
        shape = (n_per_rank * ranks_x, n_per_rank * ranks_y)
        grid = Grid(shape, ((0, 1), (0, 1)), n_ghost=g)
        decomp = CartesianDecomposition(grid, (ranks_x, ranks_y), periodic=periodic)
        comm = SimCommunicator(decomp.size)
        rng = np.random.default_rng(seed)
        global_field = rng.normal(size=(2,) + shape)

        parts = decomp.scatter(global_field)
        states = {}
        for rank in range(decomp.size):
            sub = decomp.subgrid(rank)
            arr = sub.allocate(2, fill=np.nan)
            sub.interior_of(arr)[...] = parts[rank]
            states[rank] = arr
        exchange_halos(decomp, comm, states)

        # Build the periodic/padded global reference.
        padded = np.full((2, shape[0] + 2 * g, shape[1] + 2 * g), np.nan)
        padded[:, g:-g, g:-g] = global_field
        if periodic[0]:
            padded[:, :g, g:-g] = global_field[:, -g:, :]
            padded[:, -g:, g:-g] = global_field[:, :g, :]
        if periodic[1]:
            padded[:, g:-g, :g] = global_field[:, :, -g:]
            padded[:, g:-g, -g:] = global_field[:, :, :g]

        for rank in range(decomp.size):
            (x0, x1) = decomp.cell_range(rank, 0)
            (y0, y1) = decomp.cell_range(rank, 1)
            ref = padded[:, x0 : x1 + 2 * g, y0 : y1 + 2 * g]
            got = states[rank]
            mask = ~np.isnan(ref)
            np.testing.assert_array_equal(got[mask], ref[mask])

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=12, max_value=64),
        parts=st.integers(min_value=2, max_value=6),
    )
    def test_1d_double_exchange_idempotent(self, n, parts):
        assume(n >= parts * 4)
        grid = Grid((n,), ((0, 1),), n_ghost=2)
        decomp = CartesianDecomposition(grid, (parts,), periodic=(True,))
        comm = SimCommunicator(parts)
        rng = np.random.default_rng(1)
        states = {}
        for rank in range(parts):
            sub = decomp.subgrid(rank)
            arr = sub.allocate(1)
            sub.interior_of(arr)[...] = rng.normal(size=sub.shape)
            states[rank] = arr
        exchange_halos(decomp, comm, states)
        snapshot = {r: a.copy() for r, a in states.items()}
        exchange_halos(decomp, comm, states)
        for rank in range(parts):
            np.testing.assert_array_equal(states[rank], snapshot[rank])


class TestFaceStripSlicing:
    """Properties of the halo face-strip geometry used by the overlapped
    exchange: posted strips tile the ghost region exactly, region splits
    tile the interior, and a single-rank periodic exchange reproduces
    wrap-around (np.roll) neighbourhoods."""

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        g=st.integers(min_value=1, max_value=3),
        low=st.booleans(),
        high=st.booleans(),
    )
    def test_axis_regions_tile_interior(self, n, g, low, high):
        from repro.comm.halo import split_axis_regions

        core, strips = split_axis_regions(n, g, low, high)
        ranges = sorted([core, *strips])
        covered = []
        for lo, hi in ranges:
            assert 0 <= lo <= hi <= n
            covered.extend(range(lo, hi))
        # No gap, no overlap: together the ranges are exactly [0, n).
        assert covered == list(range(n))
        if low and high and n - 2 * g <= 0:
            assert core == (0, 0) and strips == [(0, n)]

    @settings(max_examples=25, deadline=None)
    @given(
        ndim=st.integers(min_value=1, max_value=3),
        g=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_strips_tile_ghost_region_exactly(self, ndim, g, seed):
        from repro.comm.halo import face_slices

        rng = np.random.default_rng(seed)
        # A patch must hold at least n_ghost cells per axis to source its
        # face strips from interior data (any valid decomposition does).
        shape = tuple(int(n) for n in rng.integers(g, g + 8, size=ndim))
        ghosted = tuple(n + 2 * g for n in shape)
        count = np.zeros((1,) + ghosted, dtype=int)
        for axis in range(ndim):
            for side in (0, 1):
                send, recv = face_slices(ndim, axis, side, g, shape[axis])
                # Posted strips are interior cells only.
                lo = send[axis + 1].start
                hi = send[axis + 1].stop
                assert g <= lo and hi <= shape[axis] + g
                count[recv] += 1
        # A cell is covered once per axis on which its coordinate lies in
        # a ghost range — faces once, edges twice, corners ndim times —
        # and interior cells are never touched: exact tiling per axis.
        idx = np.indices(ghosted)
        expected = np.zeros(ghosted, dtype=int)
        for axis in range(ndim):
            coord = idx[axis]
            expected += ((coord < g) | (coord >= shape[axis] + g)).astype(int)
        np.testing.assert_array_equal(count[0], expected)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        ndim=st.integers(min_value=1, max_value=3),
        g=st.integers(min_value=1, max_value=3),
    )
    def test_face_table_is_the_protocol(self, data, ndim, g):
        """The face table lists every neighboured face once, in the
        exchange's (axis, rank, side) order; its two ends of each message
        agree on tag and shape; and its strip sizes are the byte model and
        the measured traffic."""
        from repro.comm.halo import face_table, halo_bytes_per_step

        dims = tuple(data.draw(st.integers(1, 3)) for _ in range(ndim))
        periodic = tuple(data.draw(st.booleans()) for _ in range(ndim))
        # At least n_ghost cells per rank, so strips are interior data.
        shape = tuple(d * g + data.draw(st.integers(0, 3)) for d in dims)
        grid = Grid(shape, ((0.0, 1.0),) * ndim, n_ghost=g)
        decomp = CartesianDecomposition(grid, dims, periodic=periodic)
        table = face_table(decomp)
        faces = [f for axis_faces in table.axes for f in axis_faces]
        assert [(f.axis, f.rank, f.side) for f in faces] == [
            (axis, rank, side)
            for axis in range(ndim)
            for rank in range(decomp.size)
            for side in (0, 1)
            if decomp.neighbor(rank, axis, side) is not None
        ]
        nvars = 2
        states = {r: decomp.subgrid(r).allocate(nvars) for r in range(decomp.size)}
        for f in faces:
            assert f.nbr == decomp.neighbor(f.rank, f.axis, f.side)
            mirror = table.mirror(f)
            assert (mirror.rank, mirror.nbr) == (f.nbr, f.rank)
            assert f.send_tag == mirror.recv_tag
            strip = states[f.rank][f.send]
            assert strip.shape == states[f.nbr][mirror.recv].shape
            assert strip[0].size == f.cells
        comm = SimCommunicator(decomp.size)
        exchange_halos(decomp, comm, states)
        assert (
            sum(f.cells for f in faces) * nvars * 8
            == sum(halo_bytes_per_step(decomp, nvars).values())
            == comm.traffic.n_bytes
        )

    @settings(max_examples=25, deadline=None)
    @given(
        ndim=st.integers(min_value=1, max_value=2),
        n=st.integers(min_value=3, max_value=10),
        g=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_single_rank_periodic_equals_roll(self, ndim, n, g, seed):
        """On one periodic rank the blocking exchange fills every ghost
        (corners included) with the wrap-around value — equivalently
        np.roll / np.pad(mode="wrap") of the interior. The overlapped
        exchange guarantees the same on the plus-shaped region only (the
        part the RHS reads); corners deliberately carry pre-exchange data."""
        from repro.comm.halo import complete_halos, post_halos

        assume(n >= g)
        shape = (n,) * ndim
        grid = Grid(shape, ((0.0, 1.0),) * ndim, n_ghost=g)
        decomp = CartesianDecomposition(grid, (1,) * ndim, periodic=(True,) * ndim)
        rng = np.random.default_rng(seed)
        interior = rng.normal(size=(1,) + shape)
        wrapped = np.pad(interior, [(0, 0)] + [(g, g)] * ndim, mode="wrap")

        def fresh_state():
            arr = grid.allocate(1)
            grid.interior_of(arr)[...] = interior
            return {0: arr}

        states = fresh_state()
        exchange_halos(decomp, SimCommunicator(1), states)
        np.testing.assert_array_equal(states[0], wrapped)

        states = fresh_state()
        comm = SimCommunicator(1)
        handle = post_halos(decomp, comm, states)
        complete_halos(handle)
        idx = np.indices(wrapped.shape[1:])
        ghost_axes = sum(
            ((idx[ax] < g) | (idx[ax] >= n + g)).astype(int) for ax in range(ndim)
        )
        plus = ghost_axes <= 1  # interior + face ghosts, corners excluded
        np.testing.assert_array_equal(states[0][:, plus], wrapped[:, plus])


class TestRecoveryAcrossEOS:
    @settings(max_examples=30, deadline=None)
    @given(
        rho=st.floats(min_value=1e-3, max_value=1.0),
        v=st.floats(min_value=-0.9, max_value=0.9),
        deps=st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_hybrid_eos_round_trip(self, rho, v, deps):
        eos = HybridEOS(K=1.0, gamma=2.0, gamma_th=5.0 / 3.0)
        system = SRHDSystem(eos, ndim=1)
        eps = float(eos.cold.eps_from_rho(rho)) + deps
        p = float(eos.pressure(rho, eps))
        prim = np.array([[rho], [v], [p]])
        cons = system.prim_to_con(prim)
        recovered = con_to_prim(system, cons)
        np.testing.assert_allclose(recovered, prim, rtol=1e-6, atol=1e-12)

    def test_tabulated_eos_recovery(self, rng):
        """Recovery through table interpolation converges (looser tol)."""
        table = make_synthetic_table(
            IdealGasEOS(gamma=5.0 / 3.0),
            rho_range=(1e-4, 1e2),
            eps_range=(1e-4, 1e2),
            n_rho=256,
            n_eps=256,
        )
        system = SRHDSystem(table, ndim=1)
        prim = np.empty((3, 32))
        prim[0] = rng.uniform(0.1, 5.0, 32)
        prim[1] = rng.uniform(-0.7, 0.7, 32)
        eps = rng.uniform(0.1, 5.0, 32)
        prim[2] = table.pressure(prim[0], eps)
        cons = system.prim_to_con(prim)
        recovered = con_to_prim(system, cons, tol=1e-10)
        np.testing.assert_allclose(recovered, prim, rtol=1e-4)


class TestExactRiemannProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        rho_l=st.floats(min_value=0.1, max_value=10.0),
        rho_r=st.floats(min_value=0.1, max_value=10.0),
        p_l=st.floats(min_value=0.01, max_value=100.0),
        p_r=st.floats(min_value=0.01, max_value=100.0),
        v_l=st.floats(min_value=-0.5, max_value=0.5),
        v_r=st.floats(min_value=-0.5, max_value=0.5),
    )
    def test_star_state_invariants(self, rho_l, rho_r, p_l, p_r, v_l, v_r):
        """For any admissible problem: p* > 0, v* subluminal, v* between
        the wave-frame bounds, and waves ordered left-to-right."""
        left = RiemannState(rho_l, v_l, p_l)
        right = RiemannState(rho_r, v_r, p_r)
        try:
            ex = ExactRiemannSolver(left, right)
        except ConfigurationError as err:
            # Receding low-pressure states can form vacuum (e.g. cold
            # fast-separating inputs), which the exact solver documents
            # as out of scope — not an admissible problem, so skip it.
            assume("vacuum" not in str(err))
            raise
        assert ex.p_star > 0
        assert abs(ex.v_star) < 1.0
        lkind, lhead, ltail = ex._left_wave
        rkind, rhead, rtail = ex._right_wave
        assert lhead <= ltail + 1e-12
        assert rtail <= rhead + 1e-12
        assert ltail <= ex.v_star + 1e-9
        assert ex.v_star <= rtail + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(
        rho=st.floats(min_value=0.1, max_value=5.0),
        p=st.floats(min_value=0.05, max_value=50.0),
        v=st.floats(min_value=-0.5, max_value=0.5),
    )
    def test_identical_states_produce_no_waves(self, rho, p, v):
        stt = RiemannState(rho, v, p)
        ex = ExactRiemannSolver(stt, stt)
        xi = np.linspace(-0.95, 0.95, 21)
        rho_s, v_s, p_s = ex.sample(xi)
        np.testing.assert_allclose(rho_s, rho, rtol=1e-7)
        np.testing.assert_allclose(v_s, v, atol=1e-8)
        np.testing.assert_allclose(p_s, p, rtol=1e-7)


class TestSolverPositivityProperty:
    @settings(max_examples=10, deadline=None)
    @given(
        p_ratio=st.floats(min_value=10.0, max_value=1e4),
        rho_ratio=st.floats(min_value=0.1, max_value=10.0),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_random_shock_tubes_stay_physical(self, p_ratio, rho_ratio, seed):
        """Any two-state problem in this range must evolve with positive
        density/pressure and subluminal speeds."""
        from repro.core import Solver, SolverConfig
        from repro.physics.initial_data import ShockTubeProblem, shock_tube

        problem = ShockTubeProblem(
            name="random",
            left=RiemannState(rho_ratio, 0.0, p_ratio * 0.01),
            right=RiemannState(1.0, 0.0, 0.01),
            gamma=5.0 / 3.0,
            t_final=0.2,
        )
        system = SRHDSystem(IdealGasEOS(), ndim=1)
        grid = Grid((64,), ((0.0, 1.0),))
        solver = Solver(
            system, grid, shock_tube(system, grid, problem), SolverConfig(cfl=0.4)
        )
        solver.run(t_final=0.2)
        prim = solver.interior_primitives()
        assert np.all(prim[0] > 0)
        assert np.all(prim[2] > 0)
        assert np.all(np.abs(prim[1]) < 1.0)
