"""CFL time-step control.

In special relativity every characteristic speed is bounded by c = 1, so
``dt = cfl * min(dx)`` is always stable; using the actual max signal speed
(as here) recovers the sharper bound the paper-series codes use.

The scan calls the system's ``char_speeds``, which is the handwritten one
on every kernel target; a ``cext`` pipeline's fresh recovery scans the
rows it recovered in the compiled sweep instead, bit for bit this scan,
and this one stays the reference and the fallback.
"""

from __future__ import annotations

import numpy as np

from ..mesh.grid import Grid
from ..physics.srhd import SRHDSystem
from ..utils.errors import ConfigurationError

#: remainders below this fraction of the CFL dt are absorbed by stretching
#: the final step instead of taking a junk micro-step
SLIVER_FRAC = 1e-6


def clip_dt_to_final(dt: float, t: float | None, t_final: float | None) -> float:
    """Clip *dt* so the run lands exactly on *t_final* — without slivers.

    The naive clip ``dt = t_final - t`` can leave a remainder of order
    ``1e-14 * t_final`` for the *next* step (a junk micro-step that then
    pollutes the dt histogram and CFL accounting). Instead, whenever the
    remaining time is within ``SLIVER_FRAC`` of one CFL step, this step is
    stretched (by at most that fraction) to land on *t_final* directly.
    """
    if t is None or t_final is None:
        return dt
    remainder = t_final - t
    if remainder <= dt * (1.0 + SLIVER_FRAC):
        return remainder
    return dt


def compute_dt(
    system: SRHDSystem,
    grid: Grid,
    prim: np.ndarray,
    cfl: float = 0.5,
    t: float | None = None,
    t_final: float | None = None,
) -> float:
    """CFL-limited time step, optionally clipped to land exactly on t_final.

    The signal-speed scan runs over interior cells only (ghosts may hold
    stale or extrapolated data) and over the ``system.ndim`` physical axes
    only: a trailing batch axis (:class:`~repro.core.batch.BatchGrid`)
    carries no signal and never enters the bound.
    """
    if not 0.0 < cfl <= 1.0:
        raise ConfigurationError(f"cfl must be in (0, 1], got {cfl}")
    vmax = max_signal_per_axis(system, grid, prim)
    dt = float(dt_from_axis_maxima(grid.dx, vmax, cfl))
    return clip_dt_to_final(dt, t, t_final)


def max_signal_per_axis(system: SRHDSystem, grid: Grid, prim: np.ndarray) -> list[float]:
    """Largest |characteristic speed| per axis over the interior.

    Exposed separately so distributed drivers can allreduce the per-axis
    maxima before forming dt — giving the identical step the single-grid
    solver takes (per-rank dt minima differ when the per-axis maxima live
    on different ranks).  Drivers reach this interpreted scan (or the
    maxima a compiled recovery scanned) through
    ``HydroPipeline.max_signal_per_axis``.

    Every kernel target's system carries the handwritten ``char_speeds``,
    so every target scans with the same bits."""
    interior = grid.interior_of(prim)
    out = []
    for axis in range(system.ndim):
        lam_m, lam_p = system.char_speeds(interior, axis)
        out.append(max(float(np.max(np.abs(lam_m))), float(np.max(np.abs(lam_p)))))
    return out


def dt_from_axis_maxima(dx, vmax_per_axis, cfl: float):
    """dt limited by the dimensionally-unsplit bound
    1/dt >= sum_d vmax_d / dx_d, per axis a scalar each (one patch) or a
    ``(P,)`` row each (a stack: per patch, in the one-patch order)."""
    inv_dt = 0.0
    for vmax, h in zip(vmax_per_axis, dx):
        inv_dt = inv_dt + np.maximum(vmax, 1e-12) / h
    return cfl / inv_dt
