"""Passive tracer (composition) transport.

Production relativistic-hydro codes in this family advect passive scalars
alongside the fluid — electron fraction Y_e for ejecta composition, jet
material markers, etc. A tracer Y obeys

    d_t (D Y) + d_k (D Y v^k) = 0,

i.e. its conserved density ``D_Y = rho W Y`` moves with the mass flux.

:class:`TracerSystem` wraps an :class:`~repro.physics.srhd.SRHDSystem`,
appending one conserved/primitive slot per tracer. Recovery is trivial
(``Y = D_Y / D``) and characteristic speeds are unchanged (tracers ride the
contact), so the wrapper simply extends the state layout and delegates the
hydro sector.
"""

from __future__ import annotations

import numpy as np

from ..utils.errors import ConfigurationError
from .srhd import SRHDSystem


class TracerSystem:
    """SRHD system extended with *n_tracers* passively advected scalars.

    Primitive layout: ``[rho, v_i..., p, Y_0, ..., Y_{m-1}]``; conserved
    layout: ``[D, S_i..., tau, D*Y_0, ..., D*Y_{m-1}]``. The hydro sector
    (first ``base.nvars`` slots) is exactly the wrapped system's.
    """

    def __init__(self, base: SRHDSystem, n_tracers: int = 1):
        if n_tracers < 1:
            raise ConfigurationError("need at least one tracer")
        self.base = base
        self.n_tracers = n_tracers
        self.eos = base.eos
        self.ndim = base.ndim
        self.nvars = base.nvars + n_tracers

    # -- index helpers ------------------------------------------------------

    @property
    def RHO(self):
        """Density slot (hydro sector, delegated)."""
        return self.base.RHO

    def V(self, axis):
        """Velocity slot along *axis* (delegated)."""
        return self.base.V(axis)

    @property
    def P(self):
        """Pressure slot (delegated)."""
        return self.base.P

    @property
    def D(self):
        """Conserved rest-mass density slot (delegated)."""
        return self.base.D

    def S(self, axis):
        """Momentum slot along *axis* (delegated)."""
        return self.base.S(axis)

    @property
    def TAU(self):
        """Conserved energy (tau) slot (delegated)."""
        return self.base.TAU

    def Y(self, tracer: int) -> int:
        """Slot of tracer *tracer* (in both prim and cons layouts)."""
        if not 0 <= tracer < self.n_tracers:
            raise ConfigurationError(
                f"tracer index {tracer} out of range [0, {self.n_tracers})"
            )
        return self.base.nvars + tracer

    def _hydro(self, state: np.ndarray) -> np.ndarray:
        return state[: self.base.nvars]

    # -- SRHDSystem interface -------------------------------------------------

    def v_squared(self, prim, out=None, scratch=None, tag="v2"):
        """|v|^2 of the hydro sector (delegated)."""
        return self.base.v_squared(self._hydro(prim), out=out, scratch=scratch, tag=tag)

    def lorentz_factor(self, prim):
        """Lorentz factor of the hydro sector (delegated)."""
        return self.base.lorentz_factor(self._hydro(prim))

    def prim_to_con(self, prim: np.ndarray, out=None, scratch=None, tag="p2c") -> np.ndarray:
        """Hydro conversion plus D_Y = D * Y for every tracer."""
        cons = np.empty_like(prim) if out is None else out
        self.base.prim_to_con(
            self._hydro(prim), out=cons[: self.base.nvars], scratch=scratch, tag=tag
        )
        for m in range(self.n_tracers):
            np.multiply(cons[self.D], prim[self.Y(m)], out=cons[self.Y(m)])
        return cons

    def flux(self, prim: np.ndarray, cons: np.ndarray, axis: int = 0, out=None) -> np.ndarray:
        """Hydro flux plus tracer advection fluxes D_Y v^k."""
        F = np.empty_like(cons) if out is None else out
        self.base.flux(
            self._hydro(prim), self._hydro(cons), axis, out=F[: self.base.nvars]
        )
        vk = prim[self.V(axis)]
        for m in range(self.n_tracers):
            np.multiply(cons[self.Y(m)], vk, out=F[self.Y(m)])
        return F

    def sound_speed_sq(self, prim):
        """Sound speed squared (tracers do not alter acoustics)."""
        return self.base.sound_speed_sq(self._hydro(prim))

    def sound_speed_sq_into(self, prim, out, scratch=None, tag="cs2"):
        """:meth:`sound_speed_sq` writing into *out* (delegated)."""
        return self.base.sound_speed_sq_into(
            self._hydro(prim), out, scratch=scratch, tag=tag
        )

    def char_speeds(self, prim, axis=0, out=None, scratch=None, tag="cs"):
        """Characteristic speeds (tracers ride the contact; unchanged)."""
        return self.base.char_speeds(
            self._hydro(prim), axis, out=out, scratch=scratch, tag=tag
        )

    #: The reference composition of the three methods above.
    face_side = SRHDSystem.face_side

    def max_signal_speed(self, prim, axis=None):
        """Largest |characteristic speed| (delegated)."""
        return self.base.max_signal_speed(self._hydro(prim), axis)

    def specific_enthalpy(self, prim):
        """Specific enthalpy of the hydro sector (delegated)."""
        return self.base.specific_enthalpy(self._hydro(prim))

    def total_energy(self, cons):
        """Total energy E = tau + D of the hydro sector (delegated)."""
        return self.base.total_energy(self._hydro(cons))

    def recover_tracers(self, cons: np.ndarray, prim: np.ndarray) -> None:
        """Fill the tracer slots of *prim* from *cons* (Y = D_Y / D)."""
        D = np.maximum(cons[self.D], 1e-300)
        for m in range(self.n_tracers):
            prim[self.Y(m)] = cons[self.Y(m)] / D

    def __repr__(self):
        return f"TracerSystem(base={self.base!r}, n_tracers={self.n_tracers})"
