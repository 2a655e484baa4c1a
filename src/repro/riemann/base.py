"""Approximate Riemann solver interface.

A solver consumes the reconstructed primitive states on the two sides of
each face and returns the numerical flux in the conserved convention
``(D, S_i, tau)``. Wave-speed estimates are the Davis bounds built from the
characteristic speeds of both sides.

All solvers evaluate through a single in-place code path: ``flux`` accepts
an optional output buffer and a :class:`~repro.core.workspace.ScratchWorkspace`
supplying every intermediate (conserved states, physical fluxes, wave
speeds, combine temporaries).  The per-side quantities come from one
``system.face_side`` call per side, which generated targets evaluate as a
single joint kernel. Without a workspace each intermediate is a
fresh allocation — the original behaviour — and the two paths are
bit-identical because they share the same operations in the same order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..physics.srhd import SRHDSystem


class RiemannSolver(ABC):
    """Base class for approximate Riemann solvers."""

    name: str = "abstract"

    def flux(
        self,
        system: SRHDSystem,
        primL: np.ndarray,
        primR: np.ndarray,
        axis: int = 0,
        out: np.ndarray | None = None,
        scratch=None,
    ) -> np.ndarray:
        """Numerical flux at faces with left/right primitive states.

        Parameters
        ----------
        out:
            Optional preallocated flux array (shape of *primL*).
        scratch:
            Optional :class:`~repro.core.workspace.ScratchWorkspace`; when
            given, every intermediate lives in reused buffers keyed by this
            solver's name and *axis*.
        """
        k = (self.name, axis)
        consL, FL, lamL = system.face_side(primL, axis, scratch=scratch, tag=(k, "L"))
        consR, FR, lamR = system.face_side(primR, axis, scratch=scratch, tag=(k, "R"))
        sL, sR = self._davis(lamL, lamR)
        if out is None:
            out = np.empty_like(primL)
        return self._combine(
            system, primL, primR, consL, consR, FL, FR, sL, sR, axis,
            out=out, scratch=scratch,
        )

    @staticmethod
    def _davis(lamL, lamR):
        """Outermost speeds of two ``(lam_minus, lam_plus)`` pairs, written
        over the left pair."""
        sL = np.minimum(lamL[0], lamR[0], out=lamL[0])
        sR = np.maximum(lamL[1], lamR[1], out=lamL[1])
        return sL, sR

    @staticmethod
    def wave_speeds(system: SRHDSystem, primL, primR, axis, scratch=None, tag="ws"):
        """Davis estimates: outermost characteristic speeds of both states.

        The returned arrays are owned by the caller (workspace buffers or
        fresh allocations) and may be clobbered by ``_combine``.
        """
        lamL = system.face_side(primL, axis, scratch=scratch, tag=(tag, "L"))[2]
        lamR = system.face_side(primR, axis, scratch=scratch, tag=(tag, "R"))[2]
        return RiemannSolver._davis(lamL, lamR)

    @abstractmethod
    def _combine(
        self, system, primL, primR, consL, consR, FL, FR, sL, sR, axis,
        out, scratch=None,
    ):
        """Assemble the numerical flux from states, fluxes and speeds into *out*.

        ``sL``/``sR`` are scratch-owned and may be modified in place.
        """

    def __repr__(self):
        return f"<RiemannSolver {self.name}>"
