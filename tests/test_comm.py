"""Unit tests for the simulated communicator, halo exchange, cost models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import (
    LinkModel,
    SimCommunicator,
    exchange_halos,
    halo_bytes_per_step,
    make_link,
)
from repro.mesh.decomposition import CartesianDecomposition
from repro.mesh.grid import Grid
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
        """halo_bytes_per_step must predict exactly what exchange sends."""
        for shape, dims, periodic in [
            ((12,), (3,), None),
            ((8, 8), (2, 2), None),
            ((8, 8), (2, 2), (True, True)),
        ]:
            grid, decomp, comm = self._setup(shape, dims, periodic, nvars=4)
            states = {}
            for rank in range(decomp.size):
                sub = decomp.subgrid(rank)
                arr = sub.allocate(4)
                states[rank] = arr
            exchange_halos(decomp, comm, states)
            predicted = sum(halo_bytes_per_step(decomp, nvars=4).values())
            assert comm.traffic.n_bytes == predicted
