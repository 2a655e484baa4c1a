"""Analytic scaling model for the strong/weak scaling experiments.

One hydro step on a decomposed domain decomposes into, per RK stage:

- compute: every kernel stage over the rank's local cells (device model);
- halo exchange: the rank's ghost strips over the interconnect (Hockney);

plus one allreduce (the CFL reduction) per step. The per-step simulated
time is ``rk_stages * (compute [overlapped with] halo) + allreduce``, where
the non-overlapped variant serializes compute and communication and the
overlapped variant hides the exchange behind interior-cell compute
(experiment E10 measures the difference).  A recorded
:class:`~repro.core.distributed.DistributedSolver` step sends exactly these
``rk_stages`` exchanges (tested): its CFL exchange serves RK stage 1.

The decomposition, ghost widths, and message sizes are the *real* ones from
:mod:`repro.mesh.decomposition` / :mod:`repro.comm.halo` — the same code
the bit-exact distributed solver uses — so the surface-to-volume behaviour
in the curves is genuine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..comm.costs import LinkModel
from ..comm.halo import halo_bytes_per_exchange
from ..mesh.decomposition import CartesianDecomposition, choose_dims
from ..mesh.grid import Grid
from ..runtime.cluster import Cluster
from ..runtime.device import KERNELS, Device
from ..runtime.perfmodel import KernelCostModel
from ..utils.errors import ConfigurationError


@dataclass(frozen=True)
class StepCost:
    """Breakdown of one simulated hydro step on one cluster configuration."""

    n_nodes: int
    local_cells_max: int
    compute_s: float
    halo_s: float
    allreduce_s: float
    total_s: float


def _node_device(cluster: Cluster, node_idx: int, prefer_gpu: bool) -> Device:
    node = cluster.node(node_idx)
    if prefer_gpu and node.gpus:
        return node.gpus[0]
    return node.devices[0]


def simulate_step(
    global_grid: Grid,
    cluster: Cluster,
    model: KernelCostModel,
    nvars: int = 4,
    rk_stages: int = 3,
    overlap: bool = False,
    prefer_gpu: bool = True,
) -> StepCost:
    """Simulated wall time of one distributed hydro step.

    One rank per node, the fastest device on each node doing the hydro
    kernels. The slowest rank (compute + halo) sets the step time — the
    bulk-synchronous model that matches the RK-stage barrier structure.
    """
    n_nodes = cluster.size
    dims = choose_dims(n_nodes, global_grid.ndim)
    decomp = CartesianDecomposition(global_grid, dims)
    halo_bytes = halo_bytes_per_exchange(decomp, nvars=nvars)

    worst_total = 0.0
    worst = None
    for rank in range(n_nodes):
        device = _node_device(cluster, rank, prefer_gpu)
        local = decomp.local_cells(rank)
        compute = sum(device.kernel_time(k, local) for k in KERNELS)
        # Host staging for accelerators: ghost strips cross PCIe too.
        halo = cluster.interconnect.transfer_time(halo_bytes[rank]) if halo_bytes[
            rank
        ] else 0.0
        if device.host_link is not None and halo_bytes[rank]:
            halo += device.host_link.transfer_time(halo_bytes[rank])
        if overlap:
            # Exchange hidden behind interior compute; only the boundary-strip
            # update (the halo-dependent fraction of cells) serializes.
            sub = decomp.subgrid(rank)
            boundary_cells = local - _interior_cells(sub)
            boundary_compute = sum(
                device.kernel_time(k, boundary_cells) for k in KERNELS
            )
            stage = max(compute - boundary_compute, halo) + boundary_compute
        else:
            stage = compute + halo
        total = rk_stages * stage
        if total > worst_total:
            worst_total = total
            worst = (rank, device, local, rk_stages * compute, rk_stages * halo)

    assert worst is not None
    allreduce = cluster.interconnect.allreduce_time(8, n_nodes)
    _, _, local, compute_s, halo_s = worst
    return StepCost(
        n_nodes=n_nodes,
        local_cells_max=local,
        compute_s=compute_s,
        halo_s=halo_s,
        allreduce_s=allreduce,
        total_s=worst_total + allreduce,
    )


def _interior_cells(sub: Grid) -> int:
    """Cells not adjacent to any face (updatable before halos arrive)."""
    g = sub.n_ghost
    inner = 1
    for n in sub.shape:
        inner *= max(n - 2 * g, 0)
    return inner


def strong_scaling(
    global_grid: Grid,
    node_counts,
    make_cluster,
    model: KernelCostModel,
    **kwargs,
) -> list[StepCost]:
    """Fixed problem, growing cluster: returns one StepCost per count."""
    out = []
    for n in node_counts:
        dims = choose_dims(n, global_grid.ndim)
        for d, s in zip(dims, global_grid.shape):
            if s % d != 0 and s < d:
                raise ConfigurationError(
                    f"{n} nodes cannot tile grid {global_grid.shape}"
                )
        out.append(simulate_step(global_grid, make_cluster(n), model, **kwargs))
    return out


def weak_scaling(
    cells_per_node_axis: int,
    node_counts,
    make_cluster,
    model: KernelCostModel,
    ndim: int = 2,
    **kwargs,
) -> list[StepCost]:
    """Fixed per-node work, growing cluster and domain together."""
    out = []
    for n in node_counts:
        dims = choose_dims(n, ndim)
        shape = tuple(d * cells_per_node_axis for d in dims)
        grid = Grid(shape, tuple((0.0, 1.0) for _ in shape))
        out.append(simulate_step(grid, make_cluster(n), model, **kwargs))
    return out


def speedups(costs: list[StepCost]) -> list[float]:
    """Speedup of each entry relative to the first."""
    return [costs[0].total_s / c.total_s for c in costs]


def efficiencies(costs: list[StepCost], mode: str = "strong") -> list[float]:
    """Parallel efficiency per entry (strong: speedup/nodes; weak: t0/t)."""
    if mode == "strong":
        base = costs[0]
        return [
            (base.total_s / c.total_s) / (c.n_nodes / base.n_nodes) for c in costs
        ]
    if mode == "weak":
        return [costs[0].total_s / c.total_s for c in costs]
    raise ConfigurationError(f"unknown efficiency mode {mode!r}")
