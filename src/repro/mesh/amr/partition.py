"""Space-filling-curve partitioning of AMR leaves across ranks.

The Dendro-family frameworks owe their scalability to Morton (Z-order)
traversal of the octree: sorting leaves along the curve and cutting it into
equal-work segments yields partitions that are simultaneously
load-balanced and *spatially compact* (small surface area => small halo
traffic). This module implements Morton keys for :class:`BlockKey`
addresses, the SFC partitioner, and the two baselines the comparison
experiment (E14) evaluates against: round-robin and random assignment.

Partition quality metrics:

- ``imbalance`` — max rank work / mean rank work (1.0 is perfect);
- ``edge_cut`` — leaf-face adjacencies whose endpoints live on different
  ranks (each is a halo message per exchange);
- ``comm_volume`` — total cells crossing rank boundaries per exchange.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...utils.errors import MeshError
from .blocks import BlockKey
from .forest import AMRForest


def morton_key(key: BlockKey, max_level: int) -> int:
    """Z-order index of a block, comparable across levels.

    Coordinates are normalized to the finest level (each block is mapped to
    the position of its first descendant at ``max_level``), then bits are
    interleaved; the level is appended as a tiebreaker so ancestors sort
    immediately before their descendants.
    """
    shift = max_level - key.level
    if shift < 0:
        raise MeshError(f"block level {key.level} exceeds max_level {max_level}")
    coords = [i << shift for i in key.idx]
    nbits = max_level + max(int(np.ceil(np.log2(max(max(coords), 1) + 1))), 1)
    code = 0
    ndim = len(coords)
    for bit in range(nbits):
        for d, c in enumerate(coords):
            code |= ((c >> bit) & 1) << (bit * ndim + d)
    return (code << 6) | key.level  # 6 bits of level tiebreak


def sfc_order(keys, max_level: int | None = None) -> list[BlockKey]:
    """Leaves sorted along the Morton curve."""
    keys = list(keys)
    if not keys:
        return []
    ml = max_level if max_level is not None else max(k.level for k in keys)
    return sorted(keys, key=lambda k: morton_key(k, ml))


@dataclass(frozen=True)
class Partition:
    """An assignment of leaves to ranks plus its quality metrics."""

    assignment: dict  # BlockKey -> rank
    n_ranks: int
    imbalance: float
    edge_cut: int
    comm_volume: int


def _measure(forest: AMRForest, assignment: dict, n_ranks: int,
             work: dict | None = None) -> Partition:
    cells = forest.layout.cells_per_block()
    work = work or {k: cells for k in forest.leaves}
    loads = np.zeros(n_ranks)
    for key, rank in assignment.items():
        loads[rank] += work[key]
    imbalance = float(loads.max() / loads.mean()) if loads.mean() > 0 else 1.0

    edge_cut = 0
    comm_volume = 0
    B = forest.layout.block_size
    face_cells = B ** (forest.layout.ndim - 1)
    for key in forest.leaves:
        for axis in range(forest.layout.ndim):
            for side in (0, 1):
                for nbr in _adjacent_leaves(forest, key, axis, side):
                    if assignment[nbr] != assignment[key]:
                        edge_cut += 1
                        comm_volume += face_cells
    # Each adjacency was visited from both endpoints.
    return Partition(
        assignment=assignment,
        n_ranks=n_ranks,
        imbalance=imbalance,
        edge_cut=edge_cut // 2,
        comm_volume=comm_volume // 2,
    )


def _adjacent_leaves(forest: AMRForest, key: BlockKey, axis: int, side: int):
    """Leaves sharing face (axis, side) with *key* (any level)."""
    nbr = key.neighbor(axis, side)
    if not forest.layout.in_domain(nbr):
        return
    probe = nbr
    while probe.level > 0 and probe not in forest.leaves and probe not in forest.refined:
        probe = probe.parent()
    if probe in forest.leaves:
        yield probe
        return
    if probe not in forest.refined:
        raise MeshError(f"no block covers {nbr}")
    touching = 1 - side
    frontier = [probe]
    while frontier:
        nxt = []
        for blk in frontier:
            for child in blk.children():
                if child.child_offset()[axis] != touching:
                    continue
                if child in forest.leaves:
                    yield child
                elif child in forest.refined:
                    nxt.append(child)
        frontier = nxt


def partition_sfc(forest: AMRForest, n_ranks: int, work: dict | None = None) -> Partition:
    """Morton-order partition: cut the curve into equal-work segments."""
    if n_ranks < 1:
        raise MeshError("need at least one rank")
    cells = forest.layout.cells_per_block()
    work = work or {k: cells for k in forest.leaves}
    ordered = sfc_order(forest.leaves)
    total = sum(work[k] for k in ordered)
    target = total / n_ranks
    assignment = {}
    rank, acc = 0, 0.0
    for key in ordered:
        assignment[key] = rank
        acc += work[key]
        # Advance to the next rank once its quota fills (keep the last rank
        # open so every leaf lands somewhere).
        if acc >= target * (rank + 1) and rank < n_ranks - 1:
            rank += 1
    return _measure(forest, assignment, n_ranks, work)


def partition_round_robin(forest: AMRForest, n_ranks: int) -> Partition:
    """Leaves dealt to ranks in dictionary order — balanced but scattered."""
    if n_ranks < 1:
        raise MeshError("need at least one rank")
    assignment = {
        key: i % n_ranks
        for i, key in enumerate(sorted(forest.leaves, key=lambda k: (k.level, k.idx)))
    }
    return _measure(forest, assignment, n_ranks)


def partition_random(forest: AMRForest, n_ranks: int, seed: int = 0) -> Partition:
    """Uniform random assignment — the no-structure baseline."""
    if n_ranks < 1:
        raise MeshError("need at least one rank")
    rng = np.random.default_rng(seed)
    keys = sorted(forest.leaves, key=lambda k: (k.level, k.idx))
    assignment = {key: int(rng.integers(0, n_ranks)) for key in keys}
    return _measure(forest, assignment, n_ranks)


PARTITIONERS = {
    "sfc": partition_sfc,
    "round-robin": lambda forest, n: partition_round_robin(forest, n),
    "random": lambda forest, n: partition_random(forest, n),
}
