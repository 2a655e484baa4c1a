"""Inter-rank exchange planning for distributed AMR.

Every rank holds the full (replicated) forest *topology* but evolves only
the leaves assigned to it.  Ghost zones are still filled through the
composite-level construction of :meth:`AMRForest.fill_ghosts`, which
consumes **only the interiors** of the input arrays — so a rank can rebuild
the exact ghost bytes of its own leaves from a *partial* composite, as long
as it holds the interiors of every leaf whose data can reach its blocks'
ghost windows.  This module computes that dependency set and turns it into
deterministic send/recv plans; each imported interior travels as its own
message and lands in a row of an import buffer, one per level, that the
compiled :class:`~repro.mesh.amr.forest.GhostPlan` deposits from like a
stack (:func:`import_rows`).

The dependency computation is conservative (a superset is always safe — the
partial composite then matches the full composite on a larger region), and
purely topological: given the same forest and assignment, every rank
computes identical plans, so message schedules never need negotiation.

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
# Ghost dependencies
# ---------------------------------------------------------------------------


def _owned_boxes(layout, owned, top_level):
    """Per-level cell boxes (one tuple of per-axis [lo, hi) intervals per
    box) that cover every composite cell the owned leaves' ghost fill can
    read, with a safety margin.

    Level ``l`` boxes are the owned windows at ``l`` plus the prolongation
    preimages of the level ``l+1`` boxes: fine cells ``[a, b)`` read coarse
    cells ``[floor(a/2) - 1, ceil(b/2) + 1)`` (minmod stencil), and a
    composite's own ghosts derive from up to ``n_ghost`` interior cells at
    the walls — the margin ``n_ghost + 2`` covers both with room to spare.
    """
    B = layout.block_size
    m = layout.n_ghost + 2
    boxes: list[list[tuple]] = [[] for _ in range(top_level + 1)]
    for key in owned:
        boxes[key.level].append(
            tuple((i * B - m, i * B + B + m) for i in key.idx)
        )
    for level in range(top_level, 0, -1):
        for box in boxes[level]:
            boxes[level - 1].append(
                tuple((a // 2 - m, -(-b // 2) + m) for a, b in box)
            )
    return boxes


def _interval_overlaps(flo, fhi, blo, bhi, n_cells, periodic):
    if periodic:
        # Wrapped reads (periodic walls copy [n-g, n) into the ghosts):
        # test the footprint shifted by one domain period either way.
        for shift in (-n_cells, 0, n_cells):
            if max(flo + shift, blo) < min(fhi + shift, bhi):
                return True
        return False
    # Non-periodic walls derive ghost values from near-boundary interior
    # cells that the clipped box still contains.
    blo = max(blo, 0)
    bhi = min(bhi, n_cells)
    return max(flo, blo) < min(fhi, bhi)


def ghost_dependencies(
    forest: AMRForest,
    owned,
    periodic: tuple[bool, ...],
) -> list[BlockKey]:
    """Leaves (beyond *owned*) whose interiors the partial ghost fill of
    *owned* needs, in forest iteration order.

    Correctness contract: filling ghosts of *owned* from a partial
    composite built from ``owned + ghost_dependencies(owned)`` is bitwise
    identical to filling them from the full composite.
    """
    layout = forest.layout
    owned_set = set(owned)
    if not owned_set:
        return []
    top = max(k.level for k in owned_set)
    boxes = _owned_boxes(layout, owned_set, top)
    B = layout.block_size
    deps = []
    for key in forest.leaves:
        if key in owned_set:
            continue
        needed = False
        for level in range(min(key.level, top) + 1):
            delta = key.level - level
            n_cells = tuple(nb * B for nb in layout.level_blocks(level))
            flo = tuple((i * B) >> delta for i in key.idx)
            fhi = tuple(
                ((i + 1) * B + (1 << delta) - 1) >> delta for i in key.idx
            )
            for box in boxes[level]:
                if all(
                    _interval_overlaps(
                        flo[ax], fhi[ax], box[ax][0], box[ax][1],
                        n_cells[ax], periodic[ax],
                    )
                    for ax in range(layout.ndim)
                ):
                    needed = True
                    break
            if needed:
                break
        if needed:
            deps.append(key)
    return deps


# ---------------------------------------------------------------------------
# Deterministic exchange plans
# ---------------------------------------------------------------------------


def halo_plan(
    forest: AMRForest,
    assignment: dict[BlockKey, int],
    n_ranks: int,
    periodic: tuple[bool, ...],
) -> dict[tuple[int, int], list[BlockKey]]:
    """(src, dst) -> leaves whose interiors src sends dst for one ghost
    fill, in forest order: dst's :func:`ghost_dependencies`.  A pure
    function of the replicated topology and assignment, identical on every
    rank, so sends and recvs pair up without negotiation."""
    sends: dict[tuple[int, int], list[BlockKey]] = {}
    for rank in range(n_ranks):
        owned = [k for k in forest.leaves if assignment[k] == rank]
        for key in ghost_dependencies(forest, owned, periodic):
            sends.setdefault((assignment[key], rank), []).append(key)
    return sends


def import_rows(sends: dict, slots: dict[int, int]):
    """The import buffers of the held ranks (*slots*: rank -> composite
    slot) for the :func:`halo_plan` *sends*: per level, in ascending order,
    the ``(key, slot)`` rows, and every ``(src, dst, buffer, row)`` receipt
    in send order."""
    rows: dict[int, list] = {}
    receipts = []
    for (src, dst), keys in sends.items():
        if dst in slots:
            for key in keys:
                level = rows.setdefault(key.level, [])
                receipts.append((src, dst, key.level, len(level)))
                level.append((key, slots[dst]))
    levels = sorted(rows)
    receipts = [(src, dst, levels.index(lvl), row) for src, dst, lvl, row in receipts]
    return [rows[lvl] for lvl in levels], receipts


def reflux_plan(
    forest: AMRForest,
    assignment: dict[BlockKey, int],
) -> dict[tuple[int, int], list[tuple[BlockKey, int]]]:
    """(src, dst) -> ``(fine_child, axis)`` face fluxes dst's refluxing
    needs from src, in deterministic coarse-leaf order.

    For each coarse leaf bordering a refined neighbour, the children of the
    neighbour that touch the shared face contribute their face-flux column;
    a ``(child, axis)`` pair identifies that column uniquely (which of the
    child's two faces is shared follows from its offset within the parent).
    """
    plan: dict[tuple[int, int], list[tuple[BlockKey, int]]] = {}
    ndim = forest.layout.ndim
    for key in forest.leaves:
        dst = assignment[key]
        for axis in range(ndim):
            for side in (0, 1):
                nbr = forest.neighbor(key, axis, side)
                if nbr is None or nbr not in forest.refined:
                    continue
                touching = 1 - side
                for child in nbr.children():
                    if child.child_offset()[axis] != touching:
                        continue
                    if child not in forest.leaves:
                        continue  # 2:1 violation; compile_reflux will raise
                    src = assignment[child]
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
    if tuple(arr.shape) != tuple(expected_shape):
        raise BlockMigrationError(
            f"{what} payload for {key} has shape {tuple(arr.shape)}, "
            f"expected {tuple(expected_shape)}"
        )
    return arr
