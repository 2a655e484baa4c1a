"""The AMR forest: leaf bookkeeping, refinement topology, and ghost fill.

Topology is a 2^d-tree over fixed-size blocks (see
:mod:`~repro.mesh.amr.blocks`); :meth:`AMRForest.neighbor` is the one
face-neighbour rule, wrapping across periodic walls, that 2:1 balance and
refluxing (:meth:`AMRForest.coarse_fine_faces`) share. Ghost zones of
every leaf are defined by *composite level arrays*: a uniform snapshot of
the solution per refinement level (coarse levels by restriction of finer
leaves, fine levels by prolongation of the next-coarser composite, leaf
footprints deposited verbatim, physical walls by the solver's boundary
conditions), from which each leaf reads its halo at its own level. This
handles same-level faces, coarse-fine faces, corners, and physical walls
through a single definition.

The composites are never built.  :meth:`AMRForest.ghost_plan` compiles,
once per topology, ownership and stack layout, a :class:`GatherProgram`
over only the composite cells the ghosts read, directly or transitively:
loads from a stack interior or an import row, restrictions of 2^d cells,
minmod prolongations from a 3^d stencil, and wall ghosts, resolved at build
time into signed copies or constants by probing the boundary conditions
(:func:`_walls`).  A deposited cell is its source's value, loaded once.
The same walk, over one composite slot per rank with every leaf a rank
does not own a candidate, is the one definition of what a distributed fill
reads: the candidates it loads are the rank's imports.
:func:`run_program` executes a program — a ghost fill, or a reflux
(:mod:`~repro.mesh.amr.reflux`) — in one call of the compiled kernel on the
``cext`` target, and otherwise through a NumPy mirror that makes one
:func:`restrict_array` / :func:`prolong_array` call per level on the
gathered stencils: element for element the dense construction's
arithmetic, so every target gives its bytes.

Production codes exchange ghosts neighbour-to-neighbour instead; the
composite definition trades asymptotic cost for exactness and simplicity
on this substrate (see DESIGN.md section 2). The *evolved* work — the
quantity the AMR-efficiency experiment counts — is per-leaf only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from ...boundary.conditions import BoundarySet
from ...physics.srhd import SRHDSystem
from ...utils.errors import ConfigurationError, MeshError
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
        #: bumped by every added leaf (so by every split and merge)
        self.generation = 0
        self._balanced_at = -1  # the generation last found balanced

    # -- topology -----------------------------------------------------------

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
        self.generation += 1
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

    def coarse_fine_faces(self) -> dict[tuple[BlockKey, int, int], list[BlockKey]]:
        """``(leaf, axis, side) -> children``, in leaf order, for every leaf
        face (wrapped as :meth:`neighbor` wraps) shared with a refined
        neighbour: the neighbour's children that touch it, in child order.
        One of them that is no leaf violates 2:1 balance and raises
        :class:`MeshError`."""
        faces = {}
        for key in self.leaves:
            for axis in range(self.layout.ndim):
                for side in (0, 1):
                    nbr = self.neighbor(key, axis, side)
                    if nbr is None or nbr not in self.refined:
                        continue
                    touching = [c for c in nbr.children() if c.child_offset()[axis] != side]
                    for child in touching:
                        if child not in self.leaves:
                            raise MeshError(
                                f"2:1 balance violated: {child} borders {key} but is not a leaf"
                            )
                    faces[key, axis, side] = touching
        return faces

    def is_balanced(self) -> bool:
        """2:1 face balance: adjacent leaves differ by at most one level."""
        return not self.unbalanced_leaves()

    def unbalanced_leaves(self) -> list[BlockKey]:
        """Leaves with a face neighbour more than one level finer, in leaf
        order: one map of the covering leaf's level per block of the finest
        level, shifted one block across each face — wrapped across periodic
        walls as :meth:`neighbor` wraps, -1 beyond the others — and each
        leaf's largest value over its boundary layer on that face — walked
        again only once the topology changed (:attr:`generation`)."""
        if self._balanced_at == self.generation:
            return []
        bad = self._unbalanced_walk()
        if not bad:
            self._balanced_at = self.generation
        return bad

    def _unbalanced_walk(self) -> list[BlockKey]:
        layout, top = self.layout, self.finest_level()
        by_level: dict[int, list] = {}
        for key in self.leaves:
            by_level.setdefault(key.level, []).append(key.idx)
        cover = np.full(layout.level_blocks(top), -1)
        for level, idx in by_level.items():
            here = np.full(layout.level_blocks(level), -1)
            here[tuple(np.transpose(idx))] = level
            for axis in range(layout.ndim):
                here = np.repeat(here, 2 ** (top - level), axis)
            cover = np.maximum(cover, here)
        worst = {level: np.full(layout.level_blocks(level), -1) for level in by_level}
        for axis in range(layout.ndim):
            for side in (0, 1):
                adj = np.roll(cover, -1 if side else 1, axis)
                if not (axis < len(self.periodic) and self.periodic[axis]):
                    adj[(slice(None),) * axis + (-1 if side else 0,)] = -1
                for level, w in worst.items():
                    n = 2 ** (top - level)
                    blocks = adj.reshape(sum(((b, n) for b in w.shape), ()))
                    edge = [slice(None)] * blocks.ndim
                    edge[2 * axis + 1] = slice(n - 1, n) if side else slice(0, 1)
                    layer = blocks[tuple(edge)].max(axis=tuple(range(1, blocks.ndim, 2)))
                    np.maximum(w, layer, out=w)
        return [key for key in self.leaves if worst[key.level][key.idx] > key.level + 1]

    # -- the ghost fill ------------------------------------------------------

    def ghost_plan(
        self,
        stacks: list[list[tuple[BlockKey, int]]],
        candidates: list[list[tuple[BlockKey, int]]],
        slots: int,
        nvars: int,
        system: SRHDSystem,
        wall_bcs: BoundarySet,
        level: int | None = None,
        targets: list[list[tuple[BlockKey, int]]] = (),
    ) -> tuple["GatherProgram", list[tuple[BlockKey, int]]]:
        """Compile the ghost fill of *stacks* into a gather program over the
        composite cells its ghosts read, directly or transitively, and find
        what each composite imports.

        Every argument holds runs of ``(key, slot)`` rows, *slot* one
        composite (a rank's).  A slot fills the ghosts of its leaves in
        *stacks*, runs of leaves of any levels, and may import its rows of
        *candidates*: one whose cells the slot's walk loads is an import,
        the others are never read.  The ghost reads of *targets*, the leaves
        of slots no stack is in (ranks held elsewhere), are walked too, so
        every slot's imports come out of the one walk; the program runs for
        the stacks' slots only.  Its table is the stacks, ``(P, nvars,
        *ghosted)``, then, if they import, one buffer of the interiors,
        ``(rows, nvars, *block)``.  It writes every stack leaf's ghosts and
        nothing else — or, given *level*, that composite's interior (slot 0)
        into one more array after the stacks, ``(nvars, *shape)``.  Returns
        the program and every slot's imports, in the buffer's row order.  A
        read of a level-0 cell no row covers raises :class:`MeshError`."""
        B, g, nd = self.layout.block_size, self.layout.n_ghost, self.layout.ndim
        G = B + 2 * g
        filled, pool = _by_level([*stacks, *targets]), _by_level(candidates)
        top = max([*filled, *pool, -1 if level is None else level])
        root = self.layout.root_grid
        grids = [root.refined(2**lvl) if lvl else root for lvl in range(top + 1)]
        dims = [(slots,) + grid.shape_with_ghosts for grid in grids]
        walls = [_walls(grid, nvars, system, wall_bcs) for grid in grids]
        kinds = []
        for dim in dims:
            kind = np.full(dim, _WALL, np.int8)
            kind[(slice(None),) + (slice(g, -g),) * nd] = _PROLONGED
            kinds.append(kind.reshape(-1))
        for own, rows in [*filled.items(), *pool.items()]:
            slot, idx = _rows(rows)
            for lvl in range(own + 1):
                size = B >> (own - lvl)
                pos = _index(slot, g + idx * size, dims[lvl], _cells((size,) * nd))
                kinds[lvl][pos] = _LOADED if lvl == own else _RESTRICTED
        cells = _cells((B,) * nd)

        def interiors(rows):
            """The composite cells of same-level *rows*' interiors, ``(rows, B^d)``."""
            slot, idx = _rows(rows)
            return _index(slot, g + idx * B, dims[rows[0][0].level], cells)

        # (stack, level, labels, composite cells (rows, n), offsets, stride)
        # per run of one level of a stack; a target's stack is None
        if level is None:
            ghost = np.ones((G,) * nd, dtype=bool)
            ghost[(slice(g, g + B),) * nd] = False
            halo, reads = np.array(np.nonzero(ghost)), []
            others = [(None, rows) for rows in _by_level(targets).values()]
            for a, rows in [*enumerate(stacks), *others]:
                for lvl, run in groupby(enumerate(rows), lambda p_row: p_row[1][0].level):
                    at, run = zip(*run)  # the run's patches in the stack, its rows
                    off = _index(np.array(at) * nvars, [0] * nd, (len(rows) * nvars,) + (G,) * nd, halo)
                    slot, idx = _rows(run)
                    comp = _index(slot, idx * B, dims[lvl], halo)
                    reads.append((a, lvl, [key for key, _ in run], comp, off, G**nd))
        else:
            shape = grids[level].shape
            whole = _cells(shape)
            comp = _index([0], [g] * nd, dims[level], whole)
            off = _index([0], [0] * nd, (1,) + shape, whole)
            reads = [(len(stacks), level, [f"level {level}"], comp, off, int(np.prod(shape)))]

        def walk(seeds):
            """Mark every composite cell the *seeds* read: walls and
            prolongations top-down, then restrictions bottom-up; None when a
            read reaches an uncovered level-0 cell."""
            need = [np.zeros(kind.size, dtype=bool) for kind in kinds]
            for lvl, comp in seeds:
                need[lvl][comp] = True
            stencils, children = {}, {}
            for lvl in range(top, -1, -1):
                n_cells = kinds[lvl].size // slots
                wall = np.flatnonzero(need[lvl] & (kinds[lvl] == _WALL))
                src = walls[lvl][0][:, wall % n_cells]
                need[lvl][(wall - wall % n_cells + src % n_cells)[src >= 0]] = True
                pro = np.flatnonzero(need[lvl] & (kinds[lvl] == _PROLONGED))
                if pro.size and lvl == 0:
                    return None
                if pro.size:
                    slot, *fine = np.unravel_index(pro, dims[lvl])
                    corner = [g - 1 + (c - g) // 2 for c in fine]
                    parent = _index(slot, corner, dims[lvl - 1], _cells((3,) * nd))
                    # which child: axis 0 the high bit
                    mask = sum((c - g) % 2 << (nd - 1 - ax) for ax, c in enumerate(fine))
                    stencils[lvl] = pro, parent, mask
                    need[lvl - 1][parent] = True
            for lvl in range(top):
                res = np.flatnonzero(need[lvl] & (kinds[lvl] == _RESTRICTED))
                slot, *coarse = np.unravel_index(res, dims[lvl])
                corner = [g + 2 * (c - g) for c in coarse]
                kids = _index(slot, corner, dims[lvl + 1], _cells((2,) * nd))
                children[lvl] = res, kids
                need[lvl + 1][kids] = True
            return need, stencils, children

        walked = walk([(lvl, comp) for _, lvl, _, comp, _, _ in reads])
        if walked is None:  # name the first leaf whose own walk fails
            label, lvl = next(
                (label, lvl) for _, lvl, labels, comp, _, _ in reads
                for label, row in zip(labels, comp) if walk([(lvl, row)]) is None
            )
            raise MeshError(
                f"the ghost fill of {label} (level {lvl}) reads level-0 "
                "composite cells no held or imported leaf covers"
            )
        need, stencils, children = walked
        imports = []
        for lvl, rows in pool.items():
            loaded = need[lvl][interiors(rows)].any(axis=1)
            imports += [row for row, hit in zip(rows, loaded) if hit]
        # The program runs for the stacks' slots: the targets' cells get no
        # site, and the records writing them are dropped.
        idle = sorted({slot for rows in targets for _, slot in rows})
        for keep in need:
            keep.reshape(slots, -1)[idle] = False
        site, n_sites = [], 0  # value-buffer column of every kept cell
        for keep in need:
            site.append(np.full(keep.size, -1, dtype=np.int64))
            site[-1][keep] = np.arange(n_sites, n_sites + np.count_nonzero(keep))
            n_sites += np.count_nonzero(keep)
        values, var = np.zeros((n_sites, nvars)), np.arange(nvars)[:, None]
        table = [(a, rows, G) for a, rows in enumerate(stacks)]
        received = [row for row in imports if row[1] not in idle]  # in level order
        if received:
            table.append((len(stacks) + (level is not None), received, B))
        segments, sizes = [], [len(rows) * nvars * G**nd for rows in stacks]
        for a, rows, extent in table:
            got = np.concatenate([
                site[lvl][interiors(list(run))] for lvl, run in groupby(rows, lambda row: row[0].level)
            ])
            lead, corner = np.arange(len(rows)) * nvars, [(extent - B) // 2] * nd
            off = _index(lead, corner, (lead.size * nvars,) + (extent,) * nd, cells)
            keep = got >= 0
            segments.append((LOAD, a, extent**nd, 0, 0.0, np.stack([off[keep], got[keep]], 1)))
        for lvl in range(top - 1, -1, -1):
            res, kids = children[lvl]
            record = np.column_stack([site[lvl][res], site[lvl + 1][kids]])
            segments.append((RESTRICT, -1, 0, 0, 0.0, record[record[:, 0] >= 0]))
        for lvl in range(top + 1):
            if lvl in stencils:
                pro, stencil, mask = stencils[lvl]
                record = np.column_stack([site[lvl][pro], mask, site[lvl - 1][stencil]])
                segments.append((PROLONG, -1, 0, 0, 0.0, record[record[:, 0] >= 0]))
            src, neg, const = walls[lvl]
            n_cells = kinds[lvl].size // slots
            wall = np.flatnonzero(need[lvl] & (kinds[lvl] == _WALL))
            cell, at = wall % n_cells, site[lvl][wall]
            read = src[:, cell]
            scalar = site[lvl][wall - cell + read % n_cells] * nvars + read // n_cells
            copied = read >= 0
            values[at] = np.where(copied, 0.0, const[:, cell]).T
            scalar = np.where(neg[:, cell], ~scalar, scalar)
            record = np.stack([(at * nvars + var)[copied], scalar[copied]], 1)
            segments.append((COPY, -1, 0, 0, 0.0, record))
        for a, lvl, _, comp, off, stride in reads:
            if a is not None:
                record = np.stack([off.ravel(), site[lvl][comp.ravel()]], 1)
                segments.append((PUT, a, stride, 0, 0.0, record))
        if level is not None:
            sizes.append(nvars * reads[0][-1])
        if received:
            sizes.append(len(received) * nvars * B**nd)
        return GatherProgram.of(nd, sizes, segments, values), imports

    def fill_ghosts(
        self, plan: "GatherProgram", prims: list, imports: list, system=None
    ) -> None:
        """Fill the ghosts of every stack in *prims* (``(P, nvars,
        *ghosted)``), and only their ghosts, by running *plan*
        (:meth:`ghost_plan`) over them and the *imports*; compiled on a
        *system* that carries the kernel."""
        run_program(plan, list(prims) + list(imports), system)


#: Gather-program ops, the compiled kernel's switch (``generate_c_amr_program``).
LOAD, RESTRICT, PROLONG, COPY, PUT, REFLUX = range(6)
#: What a composite cell is: prolonged from the level below, a leaf's own
#: value, a restriction of the level above, or a wall ghost.
_PROLONGED, _LOADED, _RESTRICTED, _WALL = range(4)


@dataclass
class GatherProgram:
    """A compiled ghost fill or reflux (:func:`run_program`)."""

    ndim: int
    #: element count of every array of the table, in order
    sizes: list
    #: ``(op, array, var_stride, side, dx, records)``, in execution order
    segments: list
    #: the value buffer ``(sites, nvars)``, wall constants preset
    values: np.ndarray
    #: the segments flattened for the compiled kernel, and their ``dx``
    code: np.ndarray
    reals: np.ndarray
    #: ``(module, call)`` of the compiled kernel this program is bound to
    #: (``CompiledSRHDSystem.run_program``), made on its first run there
    bound: tuple | None = field(default=None, compare=False, repr=False)

    @classmethod
    def of(cls, ndim, sizes, segments, values) -> "GatherProgram":
        segments = [seg for seg in segments if len(seg[-1])]
        code = [
            np.concatenate([[op, len(rec), arr, stride, side, i], rec.ravel()])
            for i, (op, arr, stride, side, _, rec) in enumerate(segments)
        ]
        code = np.concatenate(code).astype(np.int64) if code else np.zeros(0, np.int64)
        reals = np.array([seg[4] for seg in segments] + [0.0])
        return cls(ndim, sizes, segments, values, code, reals)


def run_program(program: GatherProgram, arrays: list, system=None) -> None:
    """Run *program* over *arrays*, its table in order: in one call of the
    compiled kernel when *system* carries it (``run_program``), otherwise by
    a NumPy mirror of the same segments — one :func:`restrict_array` or
    :func:`prolong_array` call per level on the gathered stencils, so
    element for element the same arithmetic."""
    if len(arrays) != len(program.sizes) or any(
        a.dtype != np.float64 or not a.flags.c_contiguous or a.size != n
        for a, n in zip(arrays, program.sizes)
    ):
        raise MeshError(
            f"a gather program compiled for arrays of {program.sizes} elements "
            f"got {[a.size for a in arrays]} (C-contiguous float64 only)"
        )
    if hasattr(system, "run_program"):
        system.run_program(program, arrays)
        return
    W, nd = program.values, program.ndim
    n_vars = W.shape[1]
    flat, var = W.reshape(-1), np.arange(n_vars)
    for op, a, stride, side, dx, rec in program.segments:
        n = len(rec)

        def grid(sites, extent, k=nd):  # (n, nvars, *(extent,) * k)
            return W[sites].swapaxes(1, 2).reshape((n, n_vars) + (extent,) * k)

        if op == LOAD:
            W[rec[:, 1]] = arrays[a].take(rec[:, :1] + var * stride)
        elif op == RESTRICT:
            W[rec[:, 0]] = restrict_array(grid(rec[:, 1:], 2), nd).reshape(n, n_vars)
        elif op == PROLONG:
            fine = prolong_array(grid(rec[:, 2:], 3), nd).reshape(n, n_vars, -1)
            W[rec[:, 0]] = fine[np.arange(n), :, rec[:, 1]]
        elif op == COPY:
            src = rec[:, 1]
            got = flat[np.where(src < 0, ~src, src)]
            flat[rec[:, 0]] = np.where(src < 0, got * -1.0, got)
        elif op == PUT:
            np.put(arrays[a], rec[:, :1] + var * stride, W[rec[:, 1]])
        else:
            fine = restrict_array(grid(rec[:, 2:], 2, nd - 1), nd - 1).reshape(n, n_vars)
            cells = rec[:, :1] + var * stride
            edge, delta = arrays[a].take(cells), (fine - W[rec[:, 1]]) / dx
            np.put(arrays[a], cells, edge - delta if side else edge + delta)


def _cells(shape) -> np.ndarray:
    """Per-axis coordinates of every cell of *shape*, C order: ``(ndim, n)``."""
    return np.indices(shape).reshape(len(shape), -1)


def _index(lead, corner, dims, cells) -> np.ndarray:
    """Flat indices into an array shaped *dims*, ``(lead, *grid)``: per row,
    its *lead* index and the *cells* (per-axis coordinates, ``(d, n)``)
    offset by its *corner* (per axis, a scalar or one per row) — ``(rows,
    n)``; a composite's cells, a parent stencil, an array's offsets."""
    at = (np.asarray(c)[..., None] + x for c, x in zip(corner, cells))
    return np.ravel_multi_index(np.broadcast_arrays(np.asarray(lead)[:, None], *at), dims)


def _walls(grid, nvars: int, system: SRHDSystem, wall_bcs: BoundarySet):
    """The wall ghosts of a composite over *grid*, resolved by applying
    *wall_bcs* to two arrays of cell ids, ``id`` and ``2 id`` (ghosts 0):
    a ghost reading ``+-a`` and ``+-2a`` copies scalar ``a - 1`` (negated),
    one equal in both holds that constant.  Per scalar: the one copied (or
    -1), whether negated, the constant."""
    g = grid.n_ghost
    shape = (nvars,) + grid.shape_with_ghosts
    inner = np.zeros(shape, dtype=bool)
    inner[(slice(None),) + tuple(slice(g, g + n) for n in grid.shape)] = True
    one = np.where(inner, np.arange(1.0, inner.size + 1).reshape(shape), 0.0)
    two = 2.0 * one
    wall_bcs.apply(system, grid, one)
    wall_bcs.apply(system, grid, two)
    one, two, inner = one.reshape(nvars, -1), two.reshape(nvars, -1), inner.reshape(-1)
    scalar = np.clip(np.abs(one), 1, inner.size).astype(np.int64) - 1
    # A copy reads an interior id: a linear combination of ids (an
    # extrapolation) passes the doubling test but names no interior cell.
    copy = (two == 2.0 * one) & (np.abs(one) == scalar + 1) & inner[scalar]
    bad = ~inner.reshape(nvars, -1) & ~copy & (one != two)
    if bad.any():
        cell = np.unravel_index(np.flatnonzero(bad.any(axis=0))[0], grid.shape_with_ghosts)
        axis = max(ax for ax, n in enumerate(grid.shape) if not g <= cell[ax] < g + n)
        side = int(cell[axis] >= g)
        raise ConfigurationError(
            f"the {wall_bcs.condition(axis, side).name!r} condition on face (axis "
            f"{axis}, side {side}) is neither a copy of interior cells nor a "
            "constant: the AMR ghost fill cannot compile it"
        )
    return np.where(copy, scalar, -1), one < 0, np.where(copy, 0.0, one)


def _by_level(runs) -> dict[int, list]:
    """The ``(key, slot)`` rows of *runs* by level, ascending, each level's
    in run order."""
    out: dict[int, list] = {}
    for rows in runs:
        for row in rows:
            out.setdefault(row[0].level, []).append(row)
    return dict(sorted(out.items()))


def _rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """The slots and the per-axis block indices ``(d, rows)`` of ``(key,
    slot)`` rows."""
    return np.array([s for _, s in rows]), np.array([key.idx for key, _ in rows]).T
