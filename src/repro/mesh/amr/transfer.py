"""Inter-level data transfer: conservative prolongation and restriction.

- :func:`restrict_array` — fine -> coarse by 2^d-cell averaging (exactly
  conservative for cell averages).
- :func:`prolong_array` — coarse -> fine by slope-limited (minmod) piecewise
  linear interpolation; each coarse cell's children average back to the
  parent value, so prolongation is conservative and non-oscillatory.

Both operate on plain arrays whose last ``ndim`` axes are the grid — any
leading axes (variables, patches of a stack, composite slots) ride along
untouched — and are dimension-generic (1-D/2-D/3-D) via per-axis passes,
so one call over a stack gives every patch the bits of its own call.
"""

from __future__ import annotations

import numpy as np

from ...utils.errors import MeshError


def restrict_array(fine: np.ndarray, ndim: int) -> np.ndarray:
    """Average 2^ndim fine cells into each coarse cell.

    *fine* has shape ``(..., n_0, ..., n_{ndim-1})`` with every grid
    extent even.
    """
    extra = fine.ndim - ndim
    if extra < 0:
        raise MeshError(f"array rank {fine.ndim} incompatible with ndim {ndim}")
    for ax in range(extra, fine.ndim):
        if fine.shape[ax] % 2 != 0:
            raise MeshError(f"fine extent {fine.shape[ax]} along axis {ax} is odd")
    out = fine
    for ax in range(extra, extra + ndim):
        shape = list(out.shape)
        shape[ax] //= 2
        shape.insert(ax + 1, 2)
        out = out.reshape(shape).mean(axis=ax + 1)
    return out


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.where(a * b > 0.0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def prolong_array(coarse: np.ndarray, ndim: int) -> np.ndarray:
    """Interpolate each coarse cell into its 2^ndim children.

    Uses minmod-limited central slopes per axis; child values are
    ``parent +- slope/4`` so each parent's children average to the parent.
    The one-cell boundary ring of the input is consumed for slopes: the
    output covers only the *interior* of the input (input extent n gives
    output extent 2(n-2) per grid axis). Callers pass a strip padded by one
    cell on each side.
    """
    extra = coarse.ndim - ndim
    if extra < 0:
        raise MeshError(f"array rank {coarse.ndim} incompatible with ndim {ndim}")
    out = coarse
    for ax in range(extra, extra + ndim):
        n = out.shape[ax]
        if n < 3:
            raise MeshError(
                f"need >= 3 cells along axis {ax} for slopes, got {n}"
            )
        sl = [slice(None)] * out.ndim

        def take(a, b):
            sl[ax] = slice(a, b)
            return out[tuple(sl)]

        center = take(1, n - 1)
        slope = _minmod(center - take(0, n - 2), take(2, n) - center)
        lo = center - 0.25 * slope
        hi = center + 0.25 * slope
        # Interleave children along this axis: shape doubles (minus ring).
        stacked = np.stack([lo, hi], axis=ax + 1)
        shape = list(center.shape)
        shape[ax] *= 2
        out = stacked.reshape(shape)
    return out


def conservation_check(coarse: np.ndarray, fine: np.ndarray, ndim: int) -> float:
    """Mismatch between coarse cells and their children's mean, normalized by
    the global data scale (per-cell normalization would amplify pure
    floating-point absorption in near-zero cells)."""
    back = restrict_array(fine, ndim)
    extra = coarse.ndim - ndim
    sl = (slice(None),) * extra + (slice(1, -1),) * ndim
    ref = coarse[sl]
    scale = max(float(np.max(np.abs(coarse))), 1e-30)
    return float(np.max(np.abs(back - ref))) / scale
