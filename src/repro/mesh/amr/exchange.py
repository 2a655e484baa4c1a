"""Inter-rank exchange planning for distributed AMR.

Every rank holds the full (replicated) forest *topology* but evolves only
the leaves assigned to it.  Which leaf interiors a rank imports for its
ghost fill is not decided here: the ghost program's own walk
(:meth:`AMRForest.ghost_plan <repro.mesh.amr.forest.AMRForest.ghost_plan>`)
walks one composite slot per rank and imports exactly the leaves it loads.
This module plans the rest of the traffic — fine face-flux columns for
refluxing, merge quarters, block migrations — as deterministic send lists:
pure functions of the topology and assignment, identical on every rank, so
message schedules never need negotiation.

Also here: the block-migration wire format used by dynamic rebalancing.  A
migrating block travels as a fixed int64 header frame followed by its full
ghosted conserved array and (optionally) its Newton seed ``p_cache``;
:func:`check_block_frame` validates the frame *before* any forest state is
touched and raises :class:`~repro.utils.errors.BlockMigrationError` on torn
or corrupt messages.
"""

from __future__ import annotations

import numpy as np

from ...utils.errors import BlockMigrationError
from .blocks import BlockKey
from .forest import AMRForest

#: tag block for AMR payload traffic on the shm rings (must stay below the
#: communicator's CONTROL_TAG_BASE = 2000)
TAG_AMR_HALO = 1500
TAG_AMR_FLUX = 1501
TAG_AMR_MERGE = 1502
TAG_AMR_MIGRATE = 1503

MIGRATION_MAGIC = 0x4D494752  # "MIGR"


# ---------------------------------------------------------------------------
# Deterministic exchange plans
# ---------------------------------------------------------------------------


def reflux_plan(
    forest: AMRForest,
    assignment: dict[BlockKey, int],
) -> dict[tuple[int, int], list[tuple[BlockKey, int]]]:
    """(src, dst) -> ``(fine_child, axis)`` face fluxes dst's refluxing
    needs from src, in :meth:`~AMRForest.coarse_fine_faces` order: the
    face-flux column of each child touching a coarse leaf's face, which a
    ``(child, axis)`` pair identifies (which of the child's two faces is
    shared follows from its offset within the parent)."""
    plan: dict[tuple[int, int], list[tuple[BlockKey, int]]] = {}
    for (key, axis, _side), children in forest.coarse_fine_faces().items():
        for child in children:
            src, dst = assignment[child], assignment[key]
            if src != dst:
                plan.setdefault((src, dst), []).append((child, axis))
    return plan


def merge_plan(
    merges,
    assignment: dict[BlockKey, int],
) -> list[tuple[BlockKey, BlockKey, int, int]]:
    """(parent, child, src, dst) transfers needed to assemble merged
    parents whose children live on other ranks.  The merged parent is owned
    by its first child's rank."""
    plan = []
    for parent in merges:
        children = parent.children()
        dst = assignment[children[0]]
        for child in children:
            src = assignment[child]
            if src != dst:
                plan.append((parent, child, src, dst))
    return plan


def migration_plan(
    forest: AMRForest,
    old: dict[BlockKey, int],
    new: dict[BlockKey, int],
) -> list[tuple[BlockKey, int, int]]:
    """(key, src, dst) moves in forest order for a repartition."""
    return [
        (key, old[key], new[key])
        for key in forest.leaves
        if new[key] != old[key]
    ]


# ---------------------------------------------------------------------------
# Rank-work accounting
# ---------------------------------------------------------------------------


def rank_loads(
    forest: AMRForest,
    assignment: dict[BlockKey, int],
    n_ranks: int,
    work: dict[BlockKey, float] | None = None,
) -> np.ndarray:
    cells = forest.layout.cells_per_block()
    loads = np.zeros(n_ranks)
    for key in forest.leaves:
        loads[assignment[key]] += cells if work is None else work[key]
    return loads


def measured_imbalance(loads: np.ndarray) -> float:
    mean = loads.mean()
    return float(loads.max() / mean) if mean > 0 else 1.0


# ---------------------------------------------------------------------------
# Block-migration wire format
# ---------------------------------------------------------------------------


def block_frame_header(
    key: BlockKey, cons: np.ndarray, p_cache: np.ndarray | None
) -> np.ndarray:
    """Fixed-layout int64 frame announcing one migrating block:
    ``[magic, level, ndim, idx..., has_pcache, cons_shape...]``."""
    head = [MIGRATION_MAGIC, key.level, len(key.idx), *key.idx,
            1 if p_cache is not None else 0, *cons.shape]
    return np.asarray(head, dtype=np.int64)


def check_block_frame(
    header: np.ndarray,
    expected_key: BlockKey,
    expected_shape: tuple[int, ...],
) -> bool:
    """Validate a migration frame against the (replicated) plan entry and
    return ``has_pcache``, the one word the plan does not fix; any other
    mismatch raises :class:`~repro.utils.errors.BlockMigrationError`, so a
    torn or corrupt message is rejected before forest state changes."""
    header = np.asarray(header)
    ndim = len(expected_key.idx)
    want_len = 3 + ndim + 1 + len(expected_shape)
    if header.ndim != 1 or header.size != want_len:
        raise BlockMigrationError(
            f"torn migration frame for {expected_key}: "
            f"{header.size} header words, expected {want_len}"
        )
    head = [int(v) for v in header]
    if head[0] != MIGRATION_MAGIC:
        raise BlockMigrationError(
            f"bad migration frame magic {head[0]:#x} for {expected_key}"
        )
    level, got_ndim = head[1], head[2]
    idx = tuple(head[3:3 + ndim])
    if got_ndim != ndim or BlockKey(level, idx) != expected_key:
        raise BlockMigrationError(
            f"migration frame addresses block {BlockKey(level, idx)}, "
            f"expected {expected_key}"
        )
    shape = tuple(head[4 + ndim:])
    if shape != tuple(expected_shape):
        raise BlockMigrationError(
            f"migration frame for {expected_key} announces cons shape "
            f"{shape}, expected {tuple(expected_shape)}"
        )
    return bool(head[3 + ndim])


def check_block_payload(
    arr: np.ndarray,
    expected_shape: tuple[int, ...],
    what: str,
    key: BlockKey,
) -> np.ndarray:
    """*arr*, a received AMR payload — a migrating block's ``cons`` or
    ``p_cache``, a merge quarter, a ghost import, a reflux column — if it
    has the shape the replicated plan fixes; otherwise
    :class:`~repro.utils.errors.BlockMigrationError` naming *what* and
    *key*, raised before the receiver writes anything (a payload NumPy
    could broadcast would fill the rows silently)."""
    if tuple(arr.shape) != tuple(expected_shape):
        raise BlockMigrationError(
            f"{what} payload for {key} has shape {tuple(arr.shape)}, "
            f"expected {tuple(expected_shape)}"
        )
    return arr
