"""Preallocated scratch workspace for the per-patch kernel hot path.

Every RK stage of the HRSC pipeline used to allocate its entire working set
from scratch: the ``dU`` accumulator, the ghosted primitive array, the
face-state pair and flux array per axis, the conserved/flux/wave-speed
temporaries inside the Riemann solver, and the flat views of the con2prim
Newton iteration. On a 2-D patch that is dozens of grid-sized ``malloc``s
per stage — exactly the allocation churn that keeps these kernels from
mapping onto accelerators (AthenaK-style codes preallocate per-patch
scratch for this reason).

:class:`ScratchWorkspace` owns one keyed pool of buffers per pipeline.
Kernels request named buffers through :func:`scratch_buf`, which falls back
to a fresh ``np.empty`` when no workspace is given — so the same in-place
kernel code serves both the reused-buffer path and the fresh-allocation
path (the opt-out), and the two are bit-identical by construction.

Buffer keys include the requested shape, so one workspace can serve the
per-axis face shapes of a multi-dimensional sweep without thrashing.
"""

from __future__ import annotations

import numpy as np


def scratch_buf(scratch: "ScratchWorkspace | None", key, shape, dtype=float):
    """A named scratch buffer, or a fresh array when *scratch* is None.

    This is the single allocation point of the in-place kernels: with a
    workspace the buffer is reused across calls, without one the behaviour
    is the old allocate-per-call path.
    """
    if scratch is None:
        return np.empty(shape, dtype=dtype)
    return scratch.buf(key, shape, dtype)


class ScratchWorkspace:
    """Keyed pool of preallocated kernel buffers for one grid patch.

    Parameters
    ----------
    grid:
        The ghosted grid the pipeline runs on; fixes the shapes of the
        structural buffers (``dU``, ``prim``).
    nvars:
        Number of state variables.

    Notes
    -----
    Buffers are created lazily on first request and cached by
    ``(key, shape, dtype)``, so the pool stops growing after a driver's
    first step (between regrids, for AMR).  A steady-state step still
    allocates what it hands out: on ``cext`` one state-sized array, the
    state the integrator returns (RK intermediates live here, under
    ``("rk", i)``) — plus ``Solver.primitives()``'s cache when the step
    computes its own dt and one face-flux array per axis under
    ``store_fluxes``; on ``numpy``/``flat`` also the interpreted stage
    combination's temporaries (``tests/test_workspace.py`` pins both).
    The workspace is private to one pipeline — callers that hand buffers
    out across stages (e.g. the primitive cache) use dedicated keys.
    """

    def __init__(self, grid, nvars: int):
        self.grid = grid
        self.nvars = int(nvars)
        shape = (self.nvars,) + grid.shape_with_ghosts
        #: flux-divergence accumulator reused by every RK stage
        self.dU = np.zeros(shape)
        #: ghosted primitive array reused by every recovery sweep
        self.prim = np.zeros(shape)
        self._bufs: dict = {}

    def buf(self, key, shape, dtype=float) -> np.ndarray:
        """The cached buffer for ``(key, shape, dtype)``, hashed as passed
        (*shape* a tuple; this is called per kernel temporary), created on
        first use."""
        cache_key = (key, shape, dtype)
        b = self._bufs.get(cache_key)
        if b is None:
            b = np.empty(shape, dtype=dtype)
            self._bufs[cache_key] = b
        return b

    def face_shape(self, axis: int) -> tuple[int, ...]:
        """Shape of a reconstructed face-state array along *axis*:
        ``n + 1`` faces on the working axis, ghosts kept elsewhere."""
        return self.region_face_shape(axis, self.grid.shape[axis])

    def region_face_shape(self, axis: int, n_cells: int) -> tuple[int, ...]:
        """Face-state shape for an *n_cells*-wide sub-region along *axis*
        (``n_cells + 1`` faces on the working axis, ghosts kept elsewhere).

        The overlapped solver's interior/strip sweeps request these; region
        widths are fixed per decomposition, so the buffer pool stays bounded.
        """
        shape = list(self.grid.shape_with_ghosts)
        shape[axis] = int(n_cells) + 1
        return (self.nvars,) + tuple(shape)

    @property
    def n_buffers(self) -> int:
        """Number of cached buffers (plus the two structural arrays)."""
        return len(self._bufs) + 2

    @property
    def nbytes(self) -> int:
        """Total bytes held by the workspace."""
        return (
            self.dU.nbytes
            + self.prim.nbytes
            + sum(b.nbytes for b in self._bufs.values())
        )

    def __repr__(self):
        return (
            f"<ScratchWorkspace {self.n_buffers} buffers, "
            f"{self.nbytes / 1e6:.2f} MB>"
        )
