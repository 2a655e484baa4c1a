"""Unit tests for the simulated communicator, halo exchange, cost models."""

from __future__ import annotations

import cProfile
import itertools
import pstats

import numpy as np
import pytest

from repro.boundary import make_boundaries
from repro.comm import (
    LinkModel,
    SimCommunicator,
    complete_halos,
    exchange_halos,
    halo_bytes_per_step,
    make_link,
    post_halos,
)
from repro.comm.halo import face_table
from repro.core import SolverConfig
from repro.core.distributed import DistributedSolver
from repro.eos import IdealGasEOS
from repro.mesh.decomposition import CartesianDecomposition
from repro.mesh.grid import Grid
from repro.physics.initial_data import blast_wave_2d
from repro.physics.srhd import SRHDSystem
from repro.utils.errors import CommunicationError, ConfigurationError


class TestLinkModel:
    def test_transfer_time_formula(self):
        link = LinkModel(latency_s=1e-6, bandwidth_Bps=1e9)
        assert link.transfer_time(1e9) == pytest.approx(1.0 + 1e-6)
        assert link.transfer_time(0) == pytest.approx(1e-6)

    def test_latency_dominates_small_messages(self):
        link = make_link("infiniband-fdr")
        t_small = link.transfer_time(8)
        assert t_small < 2 * link.latency_s

    def test_allreduce_scales_logarithmically(self):
        link = LinkModel(latency_s=1e-6, bandwidth_Bps=1e12)
        t4 = link.allreduce_time(8, 4)
        t16 = link.allreduce_time(8, 16)
        assert t16 == pytest.approx(2 * t4)
        assert link.allreduce_time(8, 1) == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            LinkModel(latency_s=-1)
        with pytest.raises(ConfigurationError):
            LinkModel(bandwidth_Bps=0)
        with pytest.raises(ConfigurationError):
            make_link("carrier-pigeon")
        with pytest.raises(ConfigurationError):
            LinkModel().transfer_time(-5)


class TestSimCommunicator:
    def test_send_recv_fifo(self):
        comm = SimCommunicator(2)
        comm.send(0, 1, np.array([1.0]))
        comm.send(0, 1, np.array([2.0]))
        assert comm.recv(0, 1)[0] == 1.0
        assert comm.recv(0, 1)[0] == 2.0

    def test_value_semantics(self):
        comm = SimCommunicator(2)
        data = np.array([1.0, 2.0])
        comm.send(0, 1, data)
        data[0] = 99.0  # mutating after send must not affect the message
        assert comm.recv(0, 1)[0] == 1.0

    def test_tags_separate_streams(self):
        comm = SimCommunicator(2)
        comm.send(0, 1, np.array([1.0]), tag=7)
        comm.send(0, 1, np.array([2.0]), tag=9)
        assert comm.recv(0, 1, tag=9)[0] == 2.0
        assert comm.recv(0, 1, tag=7)[0] == 1.0

    def test_recv_without_send_raises(self):
        comm = SimCommunicator(2)
        with pytest.raises(CommunicationError):
            comm.recv(0, 1)

    def test_rank_bounds_checked(self):
        comm = SimCommunicator(2)
        with pytest.raises(CommunicationError):
            comm.send(0, 5, np.zeros(1))
        with pytest.raises(CommunicationError):
            SimCommunicator(0)

    def test_traffic_accounting(self):
        comm = SimCommunicator(3)
        comm.send(0, 1, np.zeros(10))  # 80 bytes
        comm.send(1, 2, np.zeros(5))  # 40 bytes
        assert comm.traffic.n_messages == 2
        assert comm.traffic.n_bytes == 120
        assert comm.traffic.by_pair[(0, 1)] == 80

    def test_allreduce_ops(self):
        comm = SimCommunicator(3)
        contribs = {0: 1.0, 1: 5.0, 2: 3.0}
        assert comm.allreduce(contribs, "sum")[0] == 9.0
        assert comm.allreduce(contribs, "max")[1] == 5.0
        assert comm.allreduce(contribs, "min")[2] == 1.0

    def test_allreduce_requires_all_ranks(self):
        comm = SimCommunicator(3)
        with pytest.raises(CommunicationError):
            comm.allreduce({0: 1.0}, "sum")
        with pytest.raises(CommunicationError):
            comm.allreduce({0: 1.0, 1: 1.0, 2: 1.0}, "median")


class TestHaloExchange:
    def _setup(self, shape, dims, periodic=None, nvars=3, n_ghost=2):
        grid = Grid(shape, tuple((0.0, 1.0) for _ in shape), n_ghost=n_ghost)
        decomp = CartesianDecomposition(grid, dims, periodic=periodic)
        comm = SimCommunicator(decomp.size)
        return grid, decomp, comm

    def test_1d_matches_global_field(self):
        grid, decomp, comm = self._setup((12,), (3,))
        rng = np.random.default_rng(0)
        global_field = rng.normal(size=(3,) + grid.shape)
        parts = decomp.scatter(global_field)
        states = {}
        for rank in range(decomp.size):
            sub = decomp.subgrid(rank)
            arr = sub.allocate(3, fill=np.nan)
            sub.interior_of(arr)[...] = parts[rank]
            states[rank] = arr
        exchange_halos(decomp, comm, states)
        # Rank 1's low ghosts must equal rank 0's last interior cells.
        g = grid.n_ghost
        np.testing.assert_array_equal(
            states[1][:, :g], states[0][:, -2 * g : -g]
        )
        np.testing.assert_array_equal(
            states[0][:, -g:], states[1][:, g : 2 * g]
        )
        assert comm.pending() == 0

    def test_2d_interior_ghosts_match_neighbors(self):
        grid, decomp, comm = self._setup((8, 8), (2, 2))
        states = {}
        for rank in range(decomp.size):
            sub = decomp.subgrid(rank)
            arr = sub.allocate(2, fill=np.nan)
            sub.interior_of(arr)[...] = float(rank)
            states[rank] = arr
        exchange_halos(decomp, comm, states)
        g = grid.n_ghost
        # Rank 0 (block 0,0): high-x ghosts from rank 2 ((1,0) in row-major).
        assert np.all(states[0][0, -g:, g:-g] == 2.0)
        # high-y ghosts come from rank 1.
        assert np.all(states[0][0, g:-g, -g:] == 1.0)
        # Corner ghosts (high-x, high-y) hold the diagonal rank's value.
        assert np.all(states[0][0, -g:, -g:] == 3.0)

    def test_periodic_wraps_values(self):
        grid, decomp, comm = self._setup((8,), (2,), periodic=(True,))
        states = {}
        for rank in range(2):
            sub = decomp.subgrid(rank)
            arr = sub.allocate(1, fill=np.nan)
            sub.interior_of(arr)[...] = float(rank + 1)
            states[rank] = arr
        exchange_halos(decomp, comm, states)
        g = grid.n_ghost
        assert np.all(states[0][0, :g] == 2.0)  # wrapped from rank 1

    def test_wall_ghosts_untouched(self):
        grid, decomp, comm = self._setup((8,), (2,))
        states = {}
        for rank in range(2):
            sub = decomp.subgrid(rank)
            arr = sub.allocate(1, fill=-7.0)
            sub.interior_of(arr)[...] = 1.0
            states[rank] = arr
        exchange_halos(decomp, comm, states)
        assert np.all(states[0][0, : grid.n_ghost] == -7.0)

    def test_size_mismatch_rejected(self):
        grid, decomp, _ = self._setup((8,), (2,))
        with pytest.raises(CommunicationError):
            exchange_halos(decomp, SimCommunicator(3), {})

    def test_analytic_byte_count_matches_traffic(self):
        """halo_bytes_per_step must predict exactly what exchange sends, and
        the log must hold one message per face of the face table, with each
        rank pair's bytes the sum over its faces — blocking and overlapped."""
        for (shape, dims, periodic), overlapped in itertools.product([
            ((12,), (3,), None),
            ((8, 8), (2, 2), None),
            ((8, 8), (2, 2), (True, True)),
            ((8, 8), (1, 1), (True, True)),  # every face its own neighbour
            ((8, 8), (2, 1), (True, True)),
            ((12, 8), (3, 1), None),
            ((16, 16), (4, 4), (True, True)),
            ((8, 8, 8), (2, 2, 2), None),
        ], (False, True)):
            grid, decomp, comm = self._setup(shape, dims, periodic, nvars=4)
            states = {}
            for rank in range(decomp.size):
                sub = decomp.subgrid(rank)
                arr = sub.allocate(4)
                states[rank] = arr
            if overlapped:
                complete_halos(post_halos(decomp, comm, states))
            else:
                exchange_halos(decomp, comm, states)
            predicted = sum(halo_bytes_per_step(decomp, nvars=4).values())
            assert comm.traffic.n_bytes == predicted
            faces = face_table(decomp).by_face.values()
            assert comm.traffic.n_messages == len(faces)
            pairs = {}
            for f in faces:
                pairs[f.rank, f.nbr] = pairs.get((f.rank, f.nbr), 0) + f.cells * 4 * 8
            assert dict(comm.traffic.by_pair) == pairs

    def test_a_state_of_another_shape_is_refused(self):
        """A rank's state must be (nvars, *its ghosted shape): one with the
        neighbour's row count would post and fill the wrong rows."""
        grid, decomp, comm = self._setup((16, 16), (2, 1), n_ghost=3)
        states = {r: decomp.subgrid(r).allocate(4) for r in range(decomp.size)}
        assert states[0].shape == (4, 14, 22)
        states[0] = np.zeros((4, 20, 22))
        with pytest.raises(CommunicationError, match=r"rank 0.*\(4, 20, 22\).*\(4, 14, 22\)"):
            exchange_halos(decomp, comm, states)
        assert comm.traffic.n_messages == 0

    def test_a_refused_state_posts_nothing(self):
        """The shapes are checked before the first strip is posted: no
        message is left behind in the mailboxes."""
        grid, decomp, comm = self._setup((16, 16), (2, 2), (True, True), n_ghost=3)
        states = {r: decomp.subgrid(r).allocate(4) for r in range(decomp.size)}
        states[2] = np.zeros((4, 16, 16))
        with pytest.raises(CommunicationError, match=r"rank 2.*\(4, 16, 16\).*\(4, 14, 14\)"):
            exchange_halos(decomp, comm, states)
        assert comm.pending() == 0
        assert comm.traffic.n_messages == 0

    def test_a_key_that_is_no_rank_is_refused(self):
        grid, decomp, comm = self._setup((16, 16), (2, 2))
        states = {r: decomp.subgrid(r).allocate(4) for r in range(decomp.size)}
        states[7] = states[3]
        with pytest.raises(CommunicationError, match="7 is no rank of the 4-rank"):
            exchange_halos(decomp, comm, states)
        assert comm.traffic.n_messages == 0

    @pytest.mark.parametrize("overlapped", [False, True])
    def test_clean_exchange_work_is_independent_of_the_rank_count(self, overlapped):
        """A fault-free exchange of a rank stack is one gather, one
        communicator post/receive and one scatter per axis: 4 and 16
        in-process ranks make the same number of Python calls."""
        system = SRHDSystem(IdealGasEOS(), ndim=2)
        grid = Grid((32, 32), ((0.0, 1.0), (0.0, 1.0)))
        calls = []
        for dims in ((2, 2), (4, 4)):
            solver = DistributedSolver(
                system, grid, blast_wave_2d(system, grid, p_in=10.0, p_out=1.0),
                dims, SolverConfig(overlap_exchange=overlapped),
                make_boundaries("periodic"),
            )
            prims = solver._prims()

            def exchange():
                if overlapped:
                    complete_halos(post_halos(solver.decomp, solver.comm, prims))
                else:
                    exchange_halos(solver.decomp, solver.comm, prims)

            exchange()  # the layout's plan is built once, before this
            profile = cProfile.Profile()
            profile.runcall(exchange)
            calls.append(pstats.Stats(profile).total_calls)
        assert calls[0] == calls[1]
