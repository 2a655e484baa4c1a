"""E10 (Fig. 7): communication/computation overlap benefit."""

import pytest

from repro.comm import SimCommunicator, exchange_halos
from repro.harness import experiment_e10_overlap
from repro.mesh.decomposition import CartesianDecomposition
from repro.mesh.grid import Grid

from .conftest import emit

NODES = (16, 64, 256, 1024, 4096)


@pytest.fixture(scope="module")
def report():
    return experiment_e10_overlap(node_counts=NODES, grid_shape=(2048, 2048))


def test_bench_halo_exchange(benchmark, report):
    """Benchmark the real (in-process) halo exchange the model prices."""
    emit(report)
    grid = Grid((128, 128), ((0, 1), (0, 1)))
    decomp = CartesianDecomposition(grid, (2, 2))

    def exchange():
        comm = SimCommunicator(4)
        states = {
            r: decomp.subgrid(r).allocate(4) for r in range(4)
        }
        exchange_halos(decomp, comm, states)
        return comm

    comm = benchmark(exchange)
    assert comm.pending() == 0


def test_overlap_shape(report):
    """Overlap must never hurt, must help meaningfully while compute still
    dominates, and the halo fraction must grow with node count."""
    savings = report.column("saving_pct")
    halo_frac = report.column("halo_frac_pct")
    assert all(s >= -1e-9 for s in savings)
    assert max(savings) > 1.0  # visible benefit somewhere in the sweep
    assert halo_frac[-1] > halo_frac[0]  # surface-to-volume grows
