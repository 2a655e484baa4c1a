"""The AMR forest: leaf bookkeeping, refinement topology, and ghost fill.

Topology is a 2^d-tree over fixed-size blocks (see
:mod:`~repro.mesh.amr.blocks`); :meth:`AMRForest.neighbor` is the one
face-neighbour rule, wrapping across periodic walls, that 2:1 balance and
refluxing share. Ghost zones of every leaf are filled from *composite level
arrays*: a uniform snapshot of the solution is assembled per refinement
level (coarse levels by restriction of finer leaves, fine levels by
prolongation of the next-coarser composite, leaf footprints deposited
verbatim), and each leaf copies its halo from the composite at its own
level. This handles same-level faces, coarse-fine faces, corners, and
physical walls through a single code path.

The fill runs from a :class:`GhostPlan` compiled once per topology,
ownership and stack layout (:meth:`AMRForest.ghost_plan`): the leaves
arrive as stacks — one ``(rows, nvars, *block)`` interior array per run of
same-level leaves — so a fill makes a few array calls per level and
stack (one restriction per level below a stack, one prolongation per
level, one flat deposit per stack and level, one ghost scatter per stack)
whatever the leaf count, and writes each leaf's ghosts and nothing else.

Production codes exchange ghosts neighbour-to-neighbour instead; the
composite construction trades asymptotic cost for exactness and simplicity
on this substrate (see DESIGN.md section 2). The *evolved* work — the
quantity the AMR-efficiency experiment counts — is per-leaf only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...boundary.conditions import BoundarySet
from ...physics.srhd import SRHDSystem
from ...utils.errors import MeshError
from .blocks import BlockKey, BlockLayout, LeafBlock
from .transfer import prolong_array, restrict_array


class AMRForest:
    """Leaf set plus refinement topology over a :class:`BlockLayout`."""

    def __init__(
        self, layout: BlockLayout, max_levels: int = 3, periodic: tuple[bool, ...] = ()
    ):
        if max_levels < 1:
            raise MeshError("max_levels must be >= 1")
        self.layout = layout
        self.max_levels = max_levels  # levels 0 .. max_levels-1
        #: per axis, whether the walls wrap (missing axes do not)
        self.periodic = tuple(periodic)
        self.leaves: dict[BlockKey, LeafBlock] = {}
        self.refined: set[BlockKey] = set()

    # -- topology -----------------------------------------------------------

    def is_leaf(self, key: BlockKey) -> bool:
        return key in self.leaves

    def finest_level(self) -> int:
        return max((k.level for k in self.leaves), default=0)

    def n_leaf_cells(self) -> int:
        return len(self.leaves) * self.layout.cells_per_block()

    def add_leaf(self, key: BlockKey, cons: np.ndarray) -> LeafBlock:
        if key in self.leaves or key in self.refined:
            raise MeshError(f"block {key} already present")
        if key.level >= self.max_levels:
            raise MeshError(f"block {key} exceeds max level {self.max_levels - 1}")
        leaf = LeafBlock(key, self.layout.grid_for(key), cons)
        self.leaves[key] = leaf
        return leaf

    def split(self, key: BlockKey, child_cons: dict[BlockKey, np.ndarray]) -> None:
        """Replace leaf *key* by its 2^d children (data supplied by caller)."""
        if key not in self.leaves:
            raise MeshError(f"cannot split non-leaf {key}")
        children = key.children()
        if set(child_cons) != set(children):
            raise MeshError(f"split of {key} must supply all children")
        del self.leaves[key]
        self.refined.add(key)
        for child in children:
            self.add_leaf(child, child_cons[child])

    def merge(self, parent: BlockKey, parent_cons: np.ndarray) -> None:
        """Replace the 2^d children of *parent* by the parent leaf."""
        children = parent.children()
        if not all(c in self.leaves for c in children):
            raise MeshError(f"cannot merge {parent}: children are not all leaves")
        if parent not in self.refined:
            raise MeshError(f"{parent} is not a refined block")
        for c in children:
            del self.leaves[c]
        self.refined.discard(parent)
        self.add_leaf(parent, parent_cons)

    def neighbor(self, key: BlockKey, axis: int, side: int) -> BlockKey | None:
        """Same-level neighbour across face (axis, side) of *key*, wrapped
        across a periodic wall; None beyond any other wall."""
        nbr = key.neighbor(axis, side)
        extent = self.layout.level_blocks(key.level)[axis]
        if 0 <= nbr.idx[axis] < extent:
            return nbr
        if not (axis < len(self.periodic) and self.periodic[axis]):
            return None
        idx = list(nbr.idx)
        idx[axis] %= extent
        return BlockKey(key.level, tuple(idx))

    def max_adjacent_level(self, key: BlockKey, axis: int, side: int) -> int | None:
        """Finest leaf level touching face (axis, side) of *key*, or None at
        a non-periodic domain wall."""
        nbr = self.neighbor(key, axis, side)
        if nbr is None:
            return None
        # Walk up to the covering ancestor if the same-level key is absent.
        probe = nbr
        while probe.level > 0 and probe not in self.leaves and probe not in self.refined:
            probe = probe.parent()
        if probe in self.leaves:
            return probe.level
        if probe not in self.refined:
            raise MeshError(f"no block covers {nbr}")
        # Descend through refined blocks along the shared face.
        level = probe.level
        frontier = [probe]
        touching_side = 1 - side  # children of the neighbour facing us
        while frontier:
            nxt = []
            for blk in frontier:
                for child in blk.children():
                    if child.child_offset()[axis] != touching_side:
                        continue
                    if child in self.leaves:
                        level = max(level, child.level)
                    elif child in self.refined:
                        nxt.append(child)
            frontier = nxt
        return level

    def is_balanced(self) -> bool:
        """2:1 face balance: adjacent leaves differ by at most one level."""
        return not self.unbalanced_leaves()

    def unbalanced_leaves(self) -> list[BlockKey]:
        """Leaves with a face neighbour more than one level finer."""
        return [
            key for key in self.leaves
            if any(
                (adj := self.max_adjacent_level(key, axis, side)) is not None
                and adj > key.level + 1
                for axis in range(self.layout.ndim) for side in (0, 1)
            )
        ]

    # -- composite levels and ghost fill -----------------------------------------

    def ghost_plan(
        self,
        sources: list[list[tuple[BlockKey, int]]],
        targets: list[list[tuple[BlockKey, int]]],
        slots: int,
        nvars: int,
        top: int | None = None,
    ) -> "GhostPlan":
        """Compile the composite construction and ghost scatter.

        Each source is a run of same-level leaves whose interiors arrive as
        one ``(rows, nvars, *block)`` array — a stack's interiors, or an
        import buffer of received ones — given as ``(key, slot)`` per row:
        the composite the row deposits into.  There are *slots* composites
        per level (a rank's ghosts are built from its own leaves and their
        ghost dependencies only, so every held rank has one).  Each target
        is a stack, ``(key, slot)`` per patch, whose ghosts are read from
        the composite *slot* at the leaf's level.  Composites are built for
        levels ``0..top`` (default: the finest target's).
        """
        layout = self.layout
        B, g, ndim = layout.block_size, layout.n_ghost, layout.ndim
        if top is None:
            top = max((rows[0][0].level for rows in targets), default=-1)
        root = layout.root_grid
        grids = [root.refined(2**level) if level else root for level in range(top + 1)]
        dims = [(slots, nvars) + grid.shape_with_ghosts for grid in grids]
        deposits: list[list[tuple[int, int, np.ndarray]]] = [[] for _ in grids]
        levels = []
        for s, rows in enumerate(sources):
            level = rows[0][0].level
            levels.append(level)
            for lvl in range(min(level, top) + 1):
                size = B >> (level - lvl)
                index = _flat_index(
                    [slot for _, slot in rows],
                    [[g + i * size for i in key.idx] for key, _ in rows],
                    dims[lvl], np.indices((size,) * ndim).reshape(ndim, -1),
                )
                deposits[lvl].append((s, level - lvl, index))
        G = B + 2 * g
        ghost = np.ones((G,) * ndim, dtype=bool)
        ghost[(slice(g, g + B),) * ndim] = False
        cells = np.nonzero(ghost)
        fills = []
        for rows in targets:
            level = rows[0][0].level
            P = len(rows)
            dst = _flat_index(range(P), np.zeros((P, ndim), int), (P, nvars) + (G,) * ndim, cells)
            src = _flat_index(
                [slot for _, slot in rows], [[i * B for i in key.idx] for key, _ in rows],
                dims[level], cells,
            )
            fills.append((level, dst, src))
        return GhostPlan(grids, slots, nvars, levels, deposits, fills)

    def composites(
        self,
        plan: "GhostPlan",
        prims: list[np.ndarray],
        imports: list[np.ndarray],
        system: SRHDSystem,
        wall_bcs: BoundarySet,
    ) -> list[np.ndarray]:
        """The composite of every level, ``(slots, nvars, *ghosted)``, built
        from the interiors of the stacks *prims* (``(P, nvars, *ghosted)``)
        and the *imports* buffers (``(rows, nvars, *block)``) — the plan's
        sources in order: each is restricted once per level below it, each
        level prolonged from the one below in one call, deposited into and
        wall-filled."""
        ndim, g, B = self.layout.ndim, self.layout.n_ghost, self.layout.block_size
        lead = (slice(None), slice(None))
        sources = [prim[lead + (slice(g, g + B),) * ndim] for prim in prims] + list(imports)
        restricted = []
        for level, data in zip(plan.levels, sources):
            chain = [data]
            for _ in range(level):
                chain.append(restrict_array(chain[-1], ndim))
            restricted.append(chain)
        out: list[np.ndarray] = []
        for level, grid in enumerate(plan.grids):
            comp = np.zeros((plan.slots, plan.nvars) + grid.shape_with_ghosts)
            if level:
                prev = plan.grids[level - 1]
                pad = lead + tuple(slice(g - 1, g + n + 1) for n in prev.shape)
                inner = lead + tuple(slice(g, g + n) for n in grid.shape)
                comp[inner] = prolong_array(out[-1][pad], ndim)
            for s, steps, index in plan.deposits[level]:
                scatter(comp, index, restricted[s][steps])
            for slot in comp:
                wall_bcs.apply(system, grid, slot)
            out.append(comp)
        return out

    def fill_ghosts(
        self,
        plan: "GhostPlan",
        prims: list[np.ndarray],
        imports: list[np.ndarray],
        system: SRHDSystem,
        wall_bcs: BoundarySet,
    ) -> None:
        """Fill the ghosts of every stack in *prims* (the plan's targets)
        in place, and only their ghosts, from :meth:`composites`."""
        comps = self.composites(plan, prims, imports, system, wall_bcs)
        for prim, (level, dst, src) in zip(prims, plan.fills):
            scatter(prim, dst, comps[level].take(src))


@dataclass
class GhostPlan:
    """One compiled ghost fill (:meth:`AMRForest.ghost_plan`)."""

    #: composite grid of each level ``0..top``
    grids: list
    #: composites per level, one per held rank
    slots: int
    nvars: int
    #: level of each source
    levels: list[int]
    #: per composite level: ``(source, restrictions, flat index)`` deposits
    deposits: list
    #: per target stack: ``(level, flat ghost index into the stack, flat
    #: index into that level's composite)``
    fills: list


def scatter(target: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """``target.flat[index] = values`` — the one write of every plan."""
    np.put(target, index, values)


def _flat_index(slots, origins, dims, cells) -> np.ndarray:
    """Flat indices into an array shaped *dims* ``(slots, nvars, *grid)``:
    for every row (a slot and a per-axis origin) and variable, the *cells*
    (per-axis coordinates) offset by the origin — shaped ``(rows, nvars,
    n_cells)``, which for the cells of a whole block in C order is the
    order of a ``(rows, nvars, *block)`` array."""
    slot = np.asarray(slots)[:, None, None]
    origin = np.asarray(origins)
    coords = [origin[:, ax, None, None] + np.asarray(c)[None, None, :] for ax, c in enumerate(cells)]
    var = np.arange(dims[1])[None, :, None]
    return np.ravel_multi_index(np.broadcast_arrays(slot, var, *coords), dims)
