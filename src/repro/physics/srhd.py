"""Special-relativistic hydrodynamics in flat-space Valencia form.

State layout (C-order ``(nvars, *grid_shape)`` float64):

- primitives ``P = [rho, v_1, ..., v_ndim, p]``
  (rest-mass density, coordinate 3-velocity components, pressure)
- conserved  ``U = [D, S_1, ..., S_ndim, tau]`` with

  .. math::

     W   &= (1 - v^2)^{-1/2}, \\qquad h = 1 + \\epsilon + p/\\rho \\\\
     D   &= \\rho W \\\\
     S_i &= \\rho h W^2 v_i \\\\
     \\tau &= \\rho h W^2 - p - D

and the flux along direction *k*:

  .. math::

     F^k = [D v^k,\\; S_i v^k + p \\delta_i^k,\\; S_k - D v^k].

Characteristic speeds of the 1-D Jacobian along *k* (Marti & Muller 2003,
Living Reviews):

  .. math::

     \\lambda_0 = v^k, \\quad
     \\lambda_\\pm = \\frac{v^k (1 - c_s^2) \\pm c_s
        \\sqrt{(1 - v^2)\\,[1 - v^k v^k - (v^2 - v^k v^k) c_s^2]}}
       {1 - v^2 c_s^2}.

Everything in this module is fully vectorized over the trailing grid axes.
"""

from __future__ import annotations

import numpy as np

from ..core.workspace import scratch_buf
from ..eos.base import EOS
from ..utils.errors import ConfigurationError


class SRHDSystem:
    """The SRHD conservation-law system for a given EOS and dimensionality.

    Parameters
    ----------
    eos:
        Equation of state closing the system.
    ndim:
        Number of velocity components carried (1, 2, or 3). The grid the
        states live on may have the same or lower dimensionality.
    """

    def __init__(self, eos: EOS, ndim: int = 1):
        if ndim not in (1, 2, 3):
            raise ConfigurationError(f"ndim must be 1, 2, or 3, got {ndim}")
        self.eos = eos
        self.ndim = ndim
        #: number of conserved/primitive variables: rho + ndim velocities + p
        self.nvars = ndim + 2

    # -- index helpers -------------------------------------------------------

    @property
    def RHO(self) -> int:
        return 0

    def V(self, axis: int) -> int:
        """Index of velocity component along *axis* (0-based)."""
        return 1 + axis

    @property
    def P(self) -> int:
        return self.nvars - 1

    @property
    def D(self) -> int:
        return 0

    def S(self, axis: int) -> int:
        """Index of momentum component along *axis* (0-based)."""
        return 1 + axis

    @property
    def TAU(self) -> int:
        return self.nvars - 1

    # -- kinematics ----------------------------------------------------------

    def v_squared(self, prim: np.ndarray, out=None, scratch=None, tag="v2") -> np.ndarray:
        """v^2 = sum_i v_i v_i (flat metric).

        With *out* the sum accumulates in place; *scratch* supplies the
        per-component square buffer (see :mod:`repro.core.workspace`).
        """
        if out is None:
            out = np.zeros_like(prim[0])
        else:
            out.fill(0.0)
        t = scratch_buf(scratch, (tag, "sq"), prim.shape[1:])
        for ax in range(self.ndim):
            np.square(prim[self.V(ax)], out=t)
            out += t
        return out

    def lorentz_factor(self, prim: np.ndarray) -> np.ndarray:
        """W = 1/sqrt(1 - v^2); raises on superluminal input."""
        v2 = self.v_squared(prim)
        if np.any(v2 >= 1.0):
            raise ConfigurationError(
                f"superluminal primitive state: max v^2 = {v2.max():.6g}"
            )
        return 1.0 / np.sqrt(1.0 - v2)

    # -- conversions ---------------------------------------------------------

    def prim_to_con(self, prim: np.ndarray, out=None, scratch=None, tag="p2c") -> np.ndarray:
        """Map primitives [rho, v_i, p] to conserved [D, S_i, tau].

        *out* receives the conserved state in place; *scratch* supplies the
        intermediate buffers (Lorentz factor, enthalpy) so a steady-state
        call allocates nothing. Results are bit-identical either way.
        """
        rho = prim[self.RHO]
        p = prim[self.P]
        cell = prim.shape[1:]
        v2 = self.v_squared(
            prim, out=scratch_buf(scratch, (tag, "v2"), cell), scratch=scratch, tag=tag
        )
        if np.any(v2 >= 1.0):
            raise ConfigurationError(
                f"superluminal primitive state: max v^2 = {v2.max():.6g}"
            )
        # W = 1/sqrt(1 - v2), computed in place in the same op order.
        W = scratch_buf(scratch, (tag, "W"), cell)
        np.subtract(1.0, v2, out=W)
        np.sqrt(W, out=W)
        np.divide(1.0, W, out=W)
        eps = self.eos.eps_from_pressure(rho, p)
        # h = 1 + eps + p/rho  ==  (1 + eps) + (p/rho)
        h = scratch_buf(scratch, (tag, "h"), cell)
        t = scratch_buf(scratch, (tag, "t"), cell)
        np.divide(p, rho, out=h)
        np.add(1.0, eps, out=t)
        np.add(t, h, out=h)
        # rhohW2 = (rho*h) * W**2
        rhohW2 = scratch_buf(scratch, (tag, "rhw"), cell)
        np.square(W, out=t)
        np.multiply(rho, h, out=rhohW2)
        np.multiply(rhohW2, t, out=rhohW2)
        cons = np.empty_like(prim) if out is None else out
        np.multiply(rho, W, out=cons[self.D])
        for ax in range(self.ndim):
            np.multiply(rhohW2, prim[self.V(ax)], out=cons[self.S(ax)])
        # tau = (rhohW2 - p) - D
        np.subtract(rhohW2, p, out=cons[self.TAU])
        cons[self.TAU] -= cons[self.D]
        return cons

    # -- fluxes and signal speeds ---------------------------------------------

    def flux(self, prim: np.ndarray, cons: np.ndarray, axis: int = 0, out=None) -> np.ndarray:
        """Physical flux F^axis(U) evaluated from matching prim/cons states."""
        vk = prim[self.V(axis)]
        p = prim[self.P]
        F = np.empty_like(cons) if out is None else out
        np.multiply(cons[self.D], vk, out=F[self.D])
        for ax in range(self.ndim):
            np.multiply(cons[self.S(ax)], vk, out=F[self.S(ax)])
        F[self.S(axis)] += p
        # tau flux: S_axis - D*vk, staged in the output row.
        np.multiply(cons[self.D], vk, out=F[self.TAU])
        np.subtract(cons[self.S(axis)], F[self.TAU], out=F[self.TAU])
        return F

    def sound_speed_sq_into(self, prim: np.ndarray, out, scratch=None, tag="cs2") -> np.ndarray:
        """:meth:`sound_speed_sq` writing its clipped result into *out*."""
        rho = prim[self.RHO]
        p = prim[self.P]
        eps = self.eos.eps_from_pressure(rho, p)
        np.clip(self.eos.sound_speed_sq(rho, eps), 0.0, 1.0 - 1e-12, out=out)
        return out

    def sound_speed_sq(self, prim: np.ndarray) -> np.ndarray:
        rho = prim[self.RHO]
        p = prim[self.P]
        eps = self.eos.eps_from_pressure(rho, p)
        return np.clip(self.eos.sound_speed_sq(rho, eps), 0.0, 1.0 - 1e-12)

    def char_speeds(self, prim: np.ndarray, axis: int = 0, out=None, scratch=None, tag="cs"):
        """Fastest left/right characteristic speeds (lam_minus, lam_plus).

        *out* is an optional ``(lam_minus, lam_plus)`` buffer pair;
        *scratch* supplies the intermediates. The in-place evaluation
        preserves the original operation order bit-for-bit.
        """
        vk = prim[self.V(axis)]
        cell = prim.shape[1:]
        v2 = self.v_squared(
            prim, out=scratch_buf(scratch, (tag, "v2"), cell), scratch=scratch, tag=tag
        )
        cs2 = self.sound_speed_sq_into(
            prim, scratch_buf(scratch, (tag, "cs2"), cell), scratch=scratch, tag=tag
        )
        lam_minus, lam_plus = out if out is not None else (
            np.empty(cell), np.empty(cell)
        )
        t1 = scratch_buf(scratch, (tag, "t1"), cell)
        t2 = scratch_buf(scratch, (tag, "t2"), cell)
        t3 = scratch_buf(scratch, (tag, "t3"), cell)
        # disc = max(1 - v2, 1e-16) * ((1 - vk**2) - (v2 - vk**2) * cs2)
        np.square(vk, out=t1)
        np.subtract(v2, t1, out=t2)
        np.multiply(t2, cs2, out=t2)
        np.subtract(1.0, t1, out=t1)
        np.subtract(t1, t2, out=t1)
        np.subtract(1.0, v2, out=t3)
        np.maximum(t3, 1e-16, out=t3)
        np.multiply(t3, t1, out=t1)
        # root = sqrt(max(disc, 0))
        np.maximum(t1, 0.0, out=t1)
        np.sqrt(t1, out=t1)
        # denom = 1 - v2 * cs2
        np.multiply(v2, cs2, out=t2)
        np.subtract(1.0, t2, out=t2)
        # a = vk * (1 - cs2); b = sqrt(cs2) * root
        a = scratch_buf(scratch, (tag, "a"), cell)
        np.subtract(1.0, cs2, out=a)
        np.multiply(vk, a, out=a)
        np.sqrt(cs2, out=t3)
        np.multiply(t3, t1, out=t3)
        np.subtract(a, t3, out=lam_minus)
        np.divide(lam_minus, t2, out=lam_minus)
        np.add(a, t3, out=lam_plus)
        np.divide(lam_plus, t2, out=lam_plus)
        return lam_minus, lam_plus

    def face_side(self, prim: np.ndarray, axis: int = 0, scratch=None, tag="side"):
        """``(cons, F, (lam_minus, lam_plus))`` of one side's face states —
        everything a Riemann solver takes from them.

        The reference evaluates the three handwritten kernels in turn;
        generated targets override this with one joint kernel that shares
        ``W``, ``h`` and ``cs^2`` between the three.  The arrays are
        scratch-owned (keyed by *tag*) and may be clobbered by the caller.
        """
        shape, cell = prim.shape, prim.shape[1:]
        cons = self.prim_to_con(
            prim, out=scratch_buf(scratch, (tag, "cons"), shape),
            scratch=scratch, tag=(tag, "p2c"),
        )
        F = self.flux(prim, cons, axis, out=scratch_buf(scratch, (tag, "F"), shape))
        lam = self.char_speeds(
            prim, axis,
            out=(
                scratch_buf(scratch, (tag, "lam_m"), cell),
                scratch_buf(scratch, (tag, "lam_p"), cell),
            ),
            scratch=scratch, tag=(tag, "cs"),
        )
        return cons, F, lam

    def max_signal_speed(self, prim: np.ndarray, axis: int | None = None) -> float:
        """Largest |characteristic speed|, over one axis or all of them."""
        axes = range(self.ndim) if axis is None else [axis]
        vmax = 0.0
        for ax in axes:
            lam_m, lam_p = self.char_speeds(prim, ax)
            vmax = max(vmax, float(np.max(np.abs(lam_m))), float(np.max(np.abs(lam_p))))
        return vmax

    # -- derived diagnostics ---------------------------------------------------

    def specific_enthalpy(self, prim: np.ndarray) -> np.ndarray:
        rho = prim[self.RHO]
        p = prim[self.P]
        eps = self.eos.eps_from_pressure(rho, p)
        return 1.0 + eps + p / rho

    def total_energy(self, cons: np.ndarray) -> np.ndarray:
        """E = tau + D, the full energy density."""
        return cons[self.TAU] + cons[self.D]

    def __repr__(self):
        return f"SRHDSystem(ndim={self.ndim}, eos={self.eos!r})"
