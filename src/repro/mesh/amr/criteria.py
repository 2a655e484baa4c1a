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
    out = np.zeros_like(field)
    _deposit_jumps(field, np.abs(field), axis, floor, out)
    return out


def _scaled_jumps(field, mag, axis: int, floor: float) -> np.ndarray:
    """The scaled jump of every face along *axis* (*mag* is ``|field|``)."""
    lo = (slice(None),) * axis + (slice(0, -1),)
    hi = (slice(None),) * axis + (slice(1, None),)
    return np.abs(np.diff(field, axis=axis)) / (mag[lo] + mag[hi] + floor)


def _deposit_jumps(field, mag, axis: int, floor: float, out: np.ndarray) -> None:
    """Raise *out* to the scaled jump of every face along *axis* on both of
    its cells (*mag* is ``|field|``)."""
    lo = (slice(None),) * axis + (slice(0, -1),)
    hi = (slice(None),) * axis + (slice(1, None),)
    jump = _scaled_jumps(field, mag, axis, floor)
    np.maximum(out[lo], jump, out=out[lo])
    np.maximum(out[hi], jump, out=out[hi])


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

    def patch_flags(self, system: SRHDSystem, prims: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(needs refinement, allows coarsening)`` per patch of the stack
        *prims* ``(P, nvars, *cells)``, decided from the patch's face jumps
        of rho and p along every grid axis: refine where any jump exceeds
        ``refine_threshold``, coarsen where every jump is below
        ``coarsen_threshold``.  These are the flags of the per-cell
        indicator (the max of :func:`scaled_gradient` over the fields and
        axes): a cell's max exceeds a threshold iff one of its faces does.

        A NaN jump makes both its cells' indicator NaN, in both fields,
        which neither refines nor coarsens — what a face alone cannot see.
        A jump can only be NaN where a field is not finite (or the sum of
        magnitudes overflows), so such a stack is decided cell by cell,
        with the same bits as the indicator."""
        fields = np.take(prims, [system.RHO, system.P], axis=1)
        mag = np.abs(fields)
        axes = range(2, fields.ndim)
        if np.isfinite(mag.sum()):
            jumps = [_scaled_jumps(fields, mag, axis, 1e-12) for axis in axes]
        else:
            ind = np.zeros_like(fields)
            for axis in axes:
                _deposit_jumps(fields, mag, axis, 1e-12, ind)
            jumps = [ind.max(axis=1)]
        jumps = [j.reshape(len(prims), -1) for j in jumps]
        return (
            np.logical_or.reduce([(j > self.refine_threshold).any(axis=1) for j in jumps]),
            np.logical_and.reduce([(j < self.coarsen_threshold).all(axis=1) for j in jumps]),
        )
