"""Piecewise Parabolic Method (Colella & Woodward 1984), simplified.

Fourth-order interface interpolation followed by the CW monotonization of
the parabola in each cell. The steepening and flattening extensions of the
original paper are omitted (standard in relativistic applications that pair
PPM with a characteristic-free componentwise reconstruction).
"""

from __future__ import annotations

import numpy as np

from ..core.workspace import scratch_buf
from .base import Reconstruction, _nfaces
from .tvd import slope_mc


def _monotonize(a: np.ndarray, aL: np.ndarray, aR: np.ndarray):
    """CW84 parabola limiting for cell averages *a* with edges aL/aR.

    Returns monotonized (aL, aR) without modifying the inputs.
    """
    aL = aL.copy()
    aR = aR.copy()
    # Local extremum: flatten to piecewise constant.
    extremum = (aR - a) * (a - aL) <= 0.0
    aL[extremum] = a[extremum]
    aR[extremum] = a[extremum]
    # Overshoot control: keep the parabola's extremum outside the cell.
    d = aR - aL
    mid = a - 0.5 * (aL + aR)
    over_l = d * mid > d * d / 6.0
    over_r = -(d * d) / 6.0 > d * mid
    aL[over_l] = (3.0 * a - 2.0 * aR)[over_l]
    aR[over_r] = (3.0 * a - 2.0 * aL)[over_r]
    return aL, aR


class PPM(Reconstruction):
    """Simplified piecewise-parabolic reconstruction (3rd order smooth)."""

    name = "ppm"
    required_ghosts = 3
    order = 3

    def _reconstruct_last_axis(self, q: np.ndarray, g: int, out=None, scratch=None, tag=None):
        # Every piece of work once, on shifted views of shared arrays (the
        # row schedule the compiled sweep mirrors).  Face k sits between
        # ghosted cells g-1+k and g+k; the edge array spans faces -1..n+1.
        n_faces = _nfaces(q, g)
        c = q[..., g - 3 : g + n_faces + 2]
        shape = c.shape[:-1]
        dc = scratch_buf(scratch, (tag, "dc"), shape + (n_faces + 4,))
        np.subtract(c[..., 1:], c[..., :-1], out=dc)
        # Limited half-slope of cells g-2 .. g+n_faces.
        h = scratch_buf(scratch, (tag, "h"), shape + (n_faces + 3,))
        slope_mc(dc[..., :-1], dc[..., 1:], out=h, scratch=scratch, tag=(tag, "lim"))
        np.multiply(h, 0.5, out=h)
        # Limited 4th-order interpolation (CW84 eq. 1.6 with MC slopes):
        # 0.5 (c0 + c1) - (d1 - d0) / 3 at every face.
        edge = scratch_buf(scratch, (tag, "edge"), shape + (n_faces + 2,))
        np.add(c[..., 1:-2], c[..., 2:-1], out=edge)
        np.multiply(edge, 0.5, out=edge)
        dh = scratch_buf(scratch, (tag, "dh"), shape + (n_faces + 2,))
        np.subtract(h[..., 1:], h[..., :-1], out=dh)
        np.divide(dh, 3.0, out=dh)
        np.subtract(edge, dh, out=edge)
        # One monotonized parabola per cell g-1 .. g+n_faces-1: its right
        # edge is the face-L state of the face to its right, its left edge
        # the face-R state of the face to its left.
        a = q[..., g - 1 : g + n_faces]
        aL, aR = _monotonize(a, edge[..., :-1], edge[..., 1:])
        qL, qR = aR[..., :-1], aL[..., 1:]
        if out is not None:
            np.copyto(out[0], qL)
            np.copyto(out[1], qR)
            return out
        return qL, qR
