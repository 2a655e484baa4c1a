"""Flux correction (refluxing) at coarse-fine AMR interfaces.

Without correction, the flux a coarse leaf computes through a face shared
with finer leaves differs from the (more accurate) area-averaged fine flux,
so mass/momentum/energy leak at refinement boundaries.  Refluxing replaces
the coarse face flux with the restriction of the fine fluxes in the coarse
cell's update — the Berger-Colella fix, applied here per RK stage (the
evolution is not subcycled, so no time-averaging of fine fluxes is needed).

For the coarse cell column adjacent to the face:

    side = 1 (high):  dU_edge -= (avg(F_fine) - F_coarse) / dx
    side = 0 (low):   dU_edge += (avg(F_fine) - F_coarse) / dx

The coarse-fine faces — across periodic walls too, and the 2:1 check —
come from :meth:`~repro.mesh.amr.forest.AMRForest.coarse_fine_faces`, the
enumeration :func:`~repro.mesh.amr.exchange.reflux_plan` reads as well;
once per topology, ownership and stack layout :func:`compile_reflux`
compiles them into a
:class:`~repro.mesh.amr.forest.GatherProgram` — the ghost fill's kind:
loads of the touching children's face columns, read in place from the
stacked ``last_face_fluxes`` (or the rows of columns received from other
ranks), and of the coarse ones, then one reflux segment per (axis, side,
stack, coarse spacing) of ops ``dU[cell] = dU[cell] -+ (restrict(fine) -
coarse) / dx``, each coarse leaf corrected over its own ``dx``.  Segments
run axis 0 low, axis 0 high, axis 1 low, ... — the order in which a
leaf-by-leaf sweep corrects any one cell, so the bits are its bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .blocks import BlockKey
from .forest import LOAD, REFLUX, AMRForest, GatherProgram, run_program
from .transfer import restrict_array  # noqa: F401  (a bench/trace.py patch point)


@dataclass
class RefluxPlan:
    """One compiled flux correction (:func:`compile_reflux`)."""

    #: per axis, the received columns' rows: ``child -> row``
    remote: dict
    #: the face-value loads, then the correction segments (:attr:`groups`)
    program: GatherProgram
    #: coarse faces corrected per application
    faces: int
    #: the correction segments, one per (axis, side, stack, coarse ``dx``)
    groups: list


def compile_reflux(
    forest: AMRForest,
    stacks: list[tuple],
    nvars: int,
    remote: list[tuple[BlockKey, int]] = (),
) -> RefluxPlan:
    """Plan the correction of every coarse leaf of *stacks* (idents per
    stack, in stack order) at faces shared with finer leaves.

    The program's table is every stack's ``last_face_fluxes[axis]``
    (``(nvars, P, *transverse, B + 1)``) axis by axis, in stack order, then
    per axis that has some the received columns ``(rows, nvars,
    *transverse)`` of the *remote* ``(child, axis)`` entries, in receipt
    order, then every stack's ``dU``; a child held here is read from its
    stack even if its column was also received.
    """
    layout = forest.layout
    ndim, B, g = layout.ndim, layout.block_size, layout.n_ghost
    tshape = (B,) * (ndim - 1)
    t = tuple(np.indices(tshape))  # transverse cells of a face
    where = {key: (s, p) for s, idents in enumerate(stacks) for p, key in enumerate(idents)}
    rows: dict[int, dict] = {axis: {} for axis in range(ndim)}
    for child, axis in remote:
        rows[axis].setdefault(child, len(rows[axis]))
    received = [axis for axis in range(ndim) if rows[axis]]
    column_size = B ** (ndim - 1)
    # per array of the table: rows of nvars variables, and the variable stride
    counts = [1] * ndim * len(stacks) + [len(rows[ax]) for ax in received]
    counts += [len(ids) for ids in stacks]
    strides = [len(ids) * column_size * (B + 1) for _ in range(ndim) for ids in stacks]
    strides += [column_size] * len(received) + [(B + 2 * g) ** ndim] * len(stacks)
    loads: dict[int, tuple[list, list]] = {}
    n_sites = 0

    def column(key, axis, face):
        """Value-buffer sites of *key*'s face *face* along *axis*, loaded
        from its stack's fluxes or its received row, ``(*t)``."""
        nonlocal n_sites
        if key in where:
            s, p = where[key]
            arr = axis * len(stacks) + s
            dims = (len(stacks[s]),) + tshape + (B + 1,)
            off = np.asarray(np.ravel_multi_index((p, *t, face), dims))
        else:
            arr = ndim * len(stacks) + received.index(axis)
            off = rows[axis][key] * nvars * column_size + np.arange(column_size).reshape(tshape)
        sites = np.arange(n_sites, n_sites + off.size).reshape(off.shape)
        n_sites += off.size
        for out, new in zip(loads.setdefault(arr, ([], [])), (off, sites)):
            out.append(new.ravel())
        return sites

    groups, faces, touching = [], 0, forest.coarse_fine_faces()
    for axis, side in product(range(ndim), (0, 1)):
        trans = [ax for ax in range(ndim) if ax != axis]
        edge = [g + c for c in t]
        edge.insert(axis, np.full(tshape, g + (B - 1) * side))
        for s, idents in enumerate(stacks):
            # per coarse spacing: (fine, coarse, cells) records
            by_dx: dict[float, tuple[list, list, list]] = {}
            for p, key in enumerate(idents):
                if (key, axis, side) not in touching:
                    continue
                dx = forest.leaves[key].grid.dx[axis]
                fine, coarse, cells = by_dx.setdefault(dx, ([], [], []))
                f = np.empty((2 * B,) * (ndim - 1), dtype=np.int64)
                for child in touching[key, axis, side]:
                    off = child.child_offset()
                    at = tuple(slice(off[ax] * B, (off[ax] + 1) * B) for ax in trans)
                    f[at] = column(child, axis, B * (1 - side))
                # (transverse cell, its 2^(d-1) fine faces in C order)
                k = ndim - 1
                pairs = f.reshape((B, 2) * k).transpose([*range(0, 2 * k, 2), *range(1, 2 * k, 2)])
                fine.append(pairs.reshape(column_size, 2**k))
                coarse.append(column(key, axis, B * side).ravel())
                dims = (len(idents), nvars) + (B + 2 * g,) * ndim
                cells.append(np.ravel_multi_index((p, 0, *edge), dims).ravel())
            arr = ndim * len(stacks) + len(received) + s
            for dx, (fine, coarse, cells) in by_dx.items():
                record = np.column_stack([np.concatenate(a) for a in (cells, coarse, fine)])
                groups.append((REFLUX, arr, strides[arr], side, dx, record))
                faces += len(fine)
    segments = [
        (LOAD, arr, strides[arr], 0, 0.0, np.stack([np.concatenate(o) for o in loads[arr]], 1))
        for arr in sorted(loads)
    ]
    sizes = [n * nvars * stride for n, stride in zip(counts, strides)]
    program = GatherProgram.of(ndim, sizes, segments + groups, np.zeros((n_sites, nvars)))
    return RefluxPlan(rows, program, faces, groups)


def apply_reflux(
    plan: RefluxPlan,
    fluxes: list[dict[int, np.ndarray]],
    dU: list[np.ndarray],
    remote: dict[int, np.ndarray] | None = None,
    system=None,
) -> int:
    """Correct the coarse stacks' ``dU`` (full ghosted right-hand sides,
    modified in place) at faces shared with finer leaves, in one call of the
    compiled kernel on a *system* that carries it.

    *fluxes* is each stack's ``last_face_fluxes``, *remote* the received
    columns per axis (see :func:`compile_reflux`).  Returns the number of
    faces corrected.
    """
    if plan.faces:
        arrays = [f[axis] for axis in range(plan.program.ndim) for f in fluxes]
        arrays += [remote[axis] for axis, rows in plan.remote.items() if rows]
        run_program(plan.program, arrays + list(dU), system)
    return plan.faces
