"""Refinement criteria: where does the mesh need resolution?

The standard shock-capturing indicator is the scaled gradient — for a field
q, ``|q_{i+1} - q_i| / (|q_{i+1}| + |q_i| + floor)`` — evaluated for density
and pressure. A block is flagged when any interior cell exceeds the
threshold; unflagged sibling sets become coarsening candidates below the
(hysteresis) lower threshold.
"""

from __future__ import annotations

import numpy as np

from ...physics.srhd import SRHDSystem
from ...utils.errors import ConfigurationError


def scaled_gradient(field: np.ndarray, axis: int, floor: float = 1e-12) -> np.ndarray:
    """Per-cell scaled jump along *axis*; same shape as *field* (edge cells
    take their one-sided value)."""
    fwd = np.abs(np.diff(field, axis=axis))
    scale_view = [slice(None)] * field.ndim
    scale_view[axis] = slice(0, -1)
    lo = field[tuple(scale_view)]
    scale_view[axis] = slice(1, None)
    hi = field[tuple(scale_view)]
    jump = fwd / (np.abs(lo) + np.abs(hi) + floor)
    # Deposit the face value on both adjacent cells (max).
    out = np.zeros_like(field)
    scale_view[axis] = slice(0, -1)
    np.maximum(out[tuple(scale_view)], jump, out=out[tuple(scale_view)])
    scale_view[axis] = slice(1, None)
    np.maximum(out[tuple(scale_view)], jump, out=out[tuple(scale_view)])
    return out


class GradientCriterion:
    """Flags cells by scaled gradients of density and pressure."""

    def __init__(self, refine_threshold: float = 0.1, coarsen_threshold: float | None = None):
        if refine_threshold <= 0:
            raise ConfigurationError("refine_threshold must be positive")
        self.refine_threshold = refine_threshold
        self.coarsen_threshold = (
            coarsen_threshold if coarsen_threshold is not None else refine_threshold / 4
        )
        if not 0 < self.coarsen_threshold <= self.refine_threshold:
            raise ConfigurationError(
                "coarsen_threshold must lie in (0, refine_threshold]"
            )

    def indicator(self, system: SRHDSystem, prim_interior: np.ndarray) -> np.ndarray:
        """Max scaled gradient over {rho, p} and all grid axes, per cell, of
        ``(nvars, *cells)`` — or of a stack ``(P, nvars, *cells)``, every
        patch getting the bits of its own call."""
        lead = prim_interior.ndim - 1 - system.ndim
        at = (slice(None),) * lead
        ind = np.zeros_like(prim_interior[at + (0,)])
        for var in (system.RHO, system.P):
            field = prim_interior[at + (var,)]
            for axis in range(lead, field.ndim):
                np.maximum(ind, scaled_gradient(field, axis), out=ind)
        return ind

    def patch_flags(self, system: SRHDSystem, prims: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(needs refinement, allows coarsening)`` per patch of the stack
        *prims* ``(P, nvars, *cells)``, from one indicator pass."""
        ind = self.indicator(system, prims).reshape(len(prims), -1)
        return (
            (ind > self.refine_threshold).any(axis=1),
            (ind < self.coarsen_threshold).all(axis=1),
        )

    def needs_refinement(self, system: SRHDSystem, prim_interior: np.ndarray) -> bool:
        return bool(
            np.any(self.indicator(system, prim_interior) > self.refine_threshold)
        )

    def allows_coarsening(self, system: SRHDSystem, prim_interior: np.ndarray) -> bool:
        return bool(
            np.all(self.indicator(system, prim_interior) < self.coarsen_threshold)
        )
