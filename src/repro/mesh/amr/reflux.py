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

The coarse-fine faces are found once per topology, ownership and stack
layout (:func:`compile_reflux`, across periodic walls too, through
:meth:`~repro.mesh.amr.forest.AMRForest.neighbor`) and compiled into one
group per (axis, side, coarse stack): a gather of the touching children's
face columns out of the stacked ``last_face_fluxes`` (or the slots of
columns received from other ranks), one restriction, the difference with
the coarse columns, and one indexed update of the coarse stack's ``dU``.
Groups run axis 0 low, axis 0 high, axis 1 low, ... — the order in which
a leaf-by-leaf sweep corrects any one cell, so the bits are its bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from ...utils.errors import MeshError
from .blocks import BlockKey
from .forest import AMRForest, scatter
from .transfer import restrict_array


@dataclass
class RefluxPlan:
    """One compiled flux correction (:func:`compile_reflux`)."""

    #: per axis, the received columns' rows: ``child -> row``
    remote: dict
    #: ``(axis, side, stack, fine, coarse, cells, dx)``: flat indices of the
    #: fine face values (into the axis' column pool), the coarse face
    #: values (same pool) and the corrected ``dU`` cells (into the stack)
    groups: list
    #: coarse faces corrected per application
    faces: int


def compile_reflux(
    forest: AMRForest,
    stacks: list[tuple],
    nvars: int,
    remote: list[tuple[BlockKey, int]] = (),
) -> RefluxPlan:
    """Plan the correction of every coarse leaf of *stacks* (idents per
    stack, in stack order) at faces shared with finer leaves.

    Per axis, the column pool is every stack's ``last_face_fluxes[axis]``
    (``(nvars, P, *transverse, B + 1)``) flattened in stack order, then the
    received columns ``(rows, nvars, *transverse)`` of the *remote*
    ``(child, axis)`` entries, in receipt order; a child held here is read
    from its stack even if its column was also received.
    """
    layout = forest.layout
    ndim, B, g = layout.ndim, layout.block_size, layout.n_ghost
    tshape = (B,) * (ndim - 1)
    t = tuple(np.indices(tshape))  # transverse cells of a face
    var = np.arange(nvars).reshape((nvars,) + (1,) * (ndim - 1))
    where = {key: (s, p) for s, idents in enumerate(stacks) for p, key in enumerate(idents)}
    offsets = np.cumsum([0] + [len(ids) * nvars * B ** (ndim - 1) * (B + 1) for ids in stacks])
    rows: dict[int, dict] = {axis: {} for axis in range(ndim)}
    for child, axis in remote:
        rows[axis].setdefault(child, len(rows[axis]))

    def column(key, axis, face):
        """Pool indices of *key*'s face *face* along *axis*, ``(nvars, *t)``."""
        if key in where:
            s, p = where[key]
            dims = (nvars, len(stacks[s])) + tshape + (B + 1,)
            return offsets[s] + np.ravel_multi_index((var, p, *t, face), dims)
        dims = (len(rows[axis]), nvars) + tshape
        return offsets[-1] + np.ravel_multi_index((rows[axis][key], var, *t), dims)

    groups, faces = [], 0
    for axis, side in product(range(ndim), (0, 1)):
        trans = [ax for ax in range(ndim) if ax != axis]
        edge = [g + c for c in t]
        edge.insert(axis, np.full(tshape, g + (B - 1) * side))
        for s, idents in enumerate(stacks):
            fine, coarse, cells = [], [], []
            for p, key in enumerate(idents):
                nbr = forest.neighbor(key, axis, side)
                if nbr is None or nbr not in forest.refined:
                    continue
                f = np.empty((nvars,) + (2 * B,) * (ndim - 1), dtype=np.intp)
                for child in nbr.children():
                    off = child.child_offset()
                    if off[axis] == side:  # the neighbour's far half
                        continue
                    if child not in forest.leaves:
                        raise MeshError(
                            f"2:1 balance violated: {child} borders {key} but is not a leaf"
                        )
                    at = tuple(slice(off[ax] * B, (off[ax] + 1) * B) for ax in trans)
                    f[(slice(None),) + at] = column(child, axis, B * (1 - side))
                fine.append(f)
                coarse.append(column(key, axis, B * side))
                dims = (len(idents), nvars) + (B + 2 * g,) * ndim
                cells.append(np.ravel_multi_index((p, var, *edge), dims))
            if fine:
                dx = forest.leaves[idents[0]].grid.dx[axis]
                groups.append((axis, side, s, *(np.stack(a, axis=1) for a in (fine, coarse, cells)), dx))
                faces += len(fine)
    return RefluxPlan(rows, groups, faces)


def apply_reflux(
    plan: RefluxPlan,
    fluxes: list[dict[int, np.ndarray]],
    dU: list[np.ndarray],
    remote: dict[int, np.ndarray] | None = None,
) -> int:
    """Correct the coarse stacks' ``dU`` (full ghosted right-hand sides,
    modified in place) at faces shared with finer leaves.

    *fluxes* is each stack's ``last_face_fluxes``, *remote* the received
    columns per axis (see :func:`compile_reflux`).  Returns the number of
    faces corrected.
    """
    pools = {}
    for axis, side, s, fine, coarse, cells, dx in plan.groups:
        if axis not in pools:
            extra = [remote[axis].reshape(-1)] if remote else []
            pools[axis] = np.concatenate([f[axis].reshape(-1) for f in fluxes] + extra)
        fine_face = pools[axis].take(fine)
        if fine.ndim > 2:
            fine_face = restrict_array(fine_face, fine.ndim - 2)
        delta = (fine_face - pools[axis].take(coarse)) / dx
        edge = dU[s].take(cells)
        scatter(dU[s], cells, edge + delta if side == 0 else edge - delta)
    return plan.faces
