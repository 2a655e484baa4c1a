"""Abstract equation-of-state interface.

An EOS closes the relativistic Euler system by providing the pressure and
related thermodynamic quantities as functions of rest-mass density ``rho``
and specific internal energy ``eps`` (both in geometrized units, c = 1).

All methods are vectorized: they accept and return NumPy arrays (or scalars)
of matching shape. Derived quantities follow the standard relativistic
definitions:

- specific enthalpy      ``h = 1 + eps + p / rho``
- sound speed squared    ``cs2 = (chi + (p / rho**2) * kappa) / h``

where ``chi = dp/drho |_eps`` and ``kappa = dp/deps |_rho``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class EOS(ABC):
    """Equation of state p = p(rho, eps) with analytic derivatives."""

    #: short identifier used in configs and reports
    name: str = "abstract"

    @abstractmethod
    def pressure(self, rho, eps):
        """Pressure p(rho, eps)."""

    @abstractmethod
    def eps_from_pressure(self, rho, p):
        """Invert for specific internal energy: eps(rho, p)."""

    @abstractmethod
    def chi(self, rho, eps):
        """dp/drho at fixed eps."""

    @abstractmethod
    def kappa(self, rho, eps):
        """dp/deps at fixed rho."""

    # ------------------------------------------------------------------
    # Derived quantities (shared implementations)
    # ------------------------------------------------------------------

    def enthalpy(self, rho, eps):
        """Specific enthalpy h = 1 + eps + p/rho."""
        rho = np.asarray(rho, dtype=float)
        return 1.0 + eps + self.pressure(rho, eps) / rho

    def sound_speed_sq(self, rho, eps):
        """Relativistic sound speed squared cs^2 in [0, 1)."""
        rho = np.asarray(rho, dtype=float)
        p = self.pressure(rho, eps)
        h = 1.0 + eps + p / rho
        cs2 = (self.chi(rho, eps) + (p / rho**2) * self.kappa(rho, eps)) / h
        return cs2

    def __repr__(self):
        return f"<EOS {self.name}>"
