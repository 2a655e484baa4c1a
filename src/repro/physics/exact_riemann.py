"""Exact Riemann solver for 1-D special-relativistic hydrodynamics.

Implements the Marti & Muller (1994; Living Reviews 2003) exact solution for
an ideal-gas (Gamma-law) fluid with purely normal velocity.  This is the
validation anchor for every shock-tube experiment: L1 errors and convergence
orders in the benchmark tables are measured against this solution.

The wave structure is: left wave (shock or rarefaction), contact
discontinuity, right wave.  The star pressure ``p*`` is the root of

    f(p) = v*_L(p) - v*_R(p)

where ``v*_a(p)`` is the normal velocity behind the wave adjacent to state
``a``, given by the relativistic Rankine-Hugoniot conditions (shock,
``p > p_a``) or the isentropic Riemann invariant (rarefaction, ``p <= p_a``).

Limitations: ideal-gas EOS only, zero transverse velocity (sufficient for
the standard relativistic shock-tube problems RP1/RP2).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atanh, sqrt, tanh

import numpy as np

from ..utils.errors import ConfigurationError


@dataclass(frozen=True)
class RiemannState:
    """A constant fluid state (rho, v, p) on one side of the diaphragm."""

    rho: float
    v: float
    p: float

    def __post_init__(self):
        if self.rho <= 0 or self.p < 0:
            raise ConfigurationError(f"invalid Riemann state {self}")
        if abs(self.v) >= 1:
            raise ConfigurationError(f"superluminal Riemann state {self}")


def _ideal_cs(gamma: float, rho: float, p: float) -> float:
    """Sound speed of the Gamma-law gas."""
    h = 1.0 + gamma / (gamma - 1.0) * p / rho
    return sqrt(gamma * p / (rho * h)) if p > 0 else 0.0


def _rarefaction_invariant(gamma: float, cs: float) -> float:
    """f(cs) such that atanh(v) + s*f(cs) is constant across a rarefaction."""
    sg = sqrt(gamma - 1.0)
    return (2.0 / sg) * atanh(cs / sg)


class ExactRiemannSolver:
    """Exact solution of the SRHD Riemann problem for an ideal gas.

    Parameters
    ----------
    left, right:
        The two constant initial states.
    gamma:
        Adiabatic index of the Gamma-law EOS.

    After construction, :attr:`p_star` and :attr:`v_star` hold the star-region
    pressure and velocity; :meth:`sample` evaluates the self-similar solution.
    """

    def __init__(self, left: RiemannState, right: RiemannState, gamma: float = 5.0 / 3.0):
        if not 1.0 < gamma <= 2.0:
            raise ConfigurationError(f"gamma must be in (1, 2], got {gamma}")
        self.left = left
        self.right = right
        self.gamma = float(gamma)
        self.p_star, self.v_star = self._solve_star()
        self._build_star_states()

    # ------------------------------------------------------------------
    # Wave relations
    # ------------------------------------------------------------------

    def _shock_state(self, ahead: RiemannState, p: float, s: int):
        """State behind a shock with post pressure *p* into state *ahead*.

        Returns (v_behind, rho_behind, h_behind, V_shock). ``s`` is +1 for
        the right-moving (right-state) shock, -1 for the left.
        """
        g = self.gamma
        rho_a, v_a, p_a = ahead.rho, ahead.v, ahead.p
        h_a = 1.0 + g / (g - 1.0) * p_a / rho_a
        W_a = 1.0 / sqrt(1.0 - v_a * v_a)

        # Taub adiabat with the Gamma-law closure gives a quadratic in h.
        b = (g - 1.0) * (p - p_a) / (g * p)
        c = h_a * h_a + h_a * (p - p_a) / rho_a
        h = (-b + sqrt(b * b + 4.0 * (1.0 - b) * c)) / (2.0 * (1.0 - b))
        rho = g * p / ((g - 1.0) * (h - 1.0))

        # Mass flux across the shock (positive by construction for p > p_a).
        # A vanishing-strength shock (p -> p_a) degenerates to an acoustic
        # wave: 0/0 in j^2, so handle it explicitly.
        denom = h_a / rho_a - h / rho
        if abs(p - p_a) <= 1e-12 * max(p, p_a, 1e-300) or denom <= 0.0:
            cs_a = _ideal_cs(g, rho_a, p_a)
            V_s = (v_a + s * cs_a) / (1.0 + s * v_a * cs_a)
            return v_a, rho_a, h_a, V_s
        j2 = (p - p_a) / denom
        j = sqrt(max(j2, 0.0))

        # Shock velocity from the mass-flux definition j = W_s rho_a W_a (V_s - v_a).
        A = rho_a * rho_a * W_a * W_a
        V_s = (A * v_a + s * j * sqrt(rho_a * rho_a + j2)) / (A + j2)

        # Post-shock velocity (Marti & Muller Living Reviews eq. 4.5); the
        # mass-flux terms carry the shock Lorentz factor W_s and the signed
        # flux s*j (negative for left-moving shocks).
        if j > 0:
            W_s = 1.0 / sqrt(max(1.0 - V_s * V_s, 1e-16))
            js = s * j
            num = h_a * W_a * v_a + W_s * (p - p_a) / js
            den = h_a * W_a + (p - p_a) * (1.0 / (rho_a * W_a) + W_s * v_a / js)
            v = num / den
        else:
            v = v_a
        return v, rho, h, V_s

    def _rarefaction_state(self, ahead: RiemannState, p: float, s: int):
        """State behind a rarefaction with tail pressure *p* adjacent to *ahead*.

        Returns (v_behind, rho_behind, cs_behind). ``s`` is -1 for the left
        (head moves left), +1 for the right wave.
        """
        g = self.gamma
        rho_a, v_a, p_a = ahead.rho, ahead.v, ahead.p
        cs_a = _ideal_cs(g, rho_a, p_a)
        if p_a <= 0:
            # Degenerate cold state: no rarefaction structure possible.
            return v_a, rho_a, 0.0
        K = p_a / rho_a**g  # isentrope constant
        rho = (p / K) ** (1.0 / g) if p > 0 else 0.0
        cs = _ideal_cs(g, rho, p) if rho > 0 else 0.0
        v = tanh(
            atanh(v_a)
            + s * (_rarefaction_invariant(g, cs) - _rarefaction_invariant(g, cs_a))
        )
        return v, rho, cs

    def _v_behind(self, ahead: RiemannState, p: float, s: int) -> float:
        """Velocity behind the wave adjacent to state *ahead* at pressure p."""
        if p > ahead.p:
            return self._shock_state(ahead, p, s)[0]
        return self._rarefaction_state(ahead, p, s)[0]

    # ------------------------------------------------------------------
    # Star-region solve
    # ------------------------------------------------------------------

    def _solve_star(self):
        left, right = self.left, self.right

        def f(p):
            return self._v_behind(left, p, -1) - self._v_behind(right, p, +1)

        p_lo = 1e-14
        p_hi = max(left.p, right.p, 1e-10)
        # f decreases with p; expand the upper bracket until f(p_hi) < 0.
        for _ in range(200):
            if f(p_hi) < 0.0:
                break
            p_hi *= 4.0
        else:
            raise ConfigurationError("failed to bracket the star pressure from above")
        if f(p_lo) < 0.0:
            raise ConfigurationError(
                "vacuum-generating Riemann problem (receding states); the "
                "exact solver does not handle vacuum formation"
            )
        # Imported here, not at module scope: ``repro`` imports this module,
        # and no solver driver (or spawned rank worker) ever calls the root
        # finder — only the exact solution does.
        from scipy.optimize import brentq

        p_star = brentq(f, p_lo, p_hi, xtol=1e-15, rtol=1e-14, maxiter=300)
        v_star = self._v_behind(left, p_star, -1)
        return p_star, v_star

    def _build_star_states(self):
        """Cache the star densities and wave speeds for sampling."""
        g = self.gamma
        p, v = self.p_star, self.v_star

        # Left wave.
        if p > self.left.p:  # left shock
            _, rho, _, V_s = self._shock_state(self.left, p, -1)
            self._left_wave = ("shock", V_s, V_s)
            self.rho_star_left = rho
        else:  # left rarefaction
            cs_a = _ideal_cs(g, self.left.rho, self.left.p)
            _, rho, cs_t = self._rarefaction_state(self.left, p, -1)
            head = (self.left.v - cs_a) / (1.0 - self.left.v * cs_a)
            tail = (v - cs_t) / (1.0 - v * cs_t)
            self._left_wave = ("rarefaction", head, tail)
            self.rho_star_left = rho

        # Right wave.
        if p > self.right.p:  # right shock
            _, rho, _, V_s = self._shock_state(self.right, p, +1)
            self._right_wave = ("shock", V_s, V_s)
            self.rho_star_right = rho
        else:  # right rarefaction
            cs_a = _ideal_cs(g, self.right.rho, self.right.p)
            _, rho, cs_t = self._rarefaction_state(self.right, p, +1)
            tail = (v + cs_t) / (1.0 + v * cs_t)
            head = (self.right.v + cs_a) / (1.0 + self.right.v * cs_a)
            self._right_wave = ("rarefaction", head, tail)
            self.rho_star_right = rho

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def _sample_rarefaction_fan(self, ahead: RiemannState, xi: float, s: int):
        """Solve for (rho, v, p) inside a rarefaction fan at similarity xi.

        Bisection on the sound speed: each trial cs fixes v through the
        Riemann invariant, and the fan condition requires the characteristic
        (v + s*cs)/(1 + s*v*cs) to equal xi.
        """
        g = self.gamma
        cs_a = _ideal_cs(g, ahead.rho, ahead.p)
        K = ahead.p / ahead.rho**g

        def char_minus_xi(cs):
            v = tanh(
                atanh(ahead.v)
                + s * (_rarefaction_invariant(g, cs) - _rarefaction_invariant(g, cs_a))
            )
            return (v + s * cs) / (1.0 + s * v * cs) - xi

        lo, hi = 1e-14, cs_a
        flo, fhi = char_minus_xi(lo), char_minus_xi(hi)
        if flo * fhi > 0:  # xi outside the fan due to round-off; clamp
            cs = hi if abs(fhi) < abs(flo) else lo
        else:
            from scipy.optimize import brentq  # see _solve_star

            cs = brentq(char_minus_xi, lo, hi, xtol=1e-15, maxiter=200)
        v = tanh(
            atanh(ahead.v)
            + s * (_rarefaction_invariant(g, cs) - _rarefaction_invariant(g, cs_a))
        )
        # Invert cs(rho) on the isentrope: cs^2 = g p / (rho h), p = K rho^g.
        # => rho = [ (g-1) cs^2 / (K g (g - 1 - cs^2)) ]^(1/(g-1))
        rho = ((g - 1.0) * cs * cs / (g * K * (g - 1.0 - cs * cs))) ** (1.0 / (g - 1.0))
        p = K * rho**g
        return rho, v, p

    def sample(self, xi):
        """Evaluate the self-similar solution at similarity coordinates xi = x/t.

        Parameters
        ----------
        xi:
            Scalar or array of x/t values (diaphragm at xi = 0).

        Returns
        -------
        (rho, v, p):
            Arrays of the same shape as *xi*.
        """
        xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
        rho = np.empty_like(xi_arr)
        v = np.empty_like(xi_arr)
        p = np.empty_like(xi_arr)

        lkind, lhead, ltail = self._left_wave
        rkind, rhead, rtail = self._right_wave

        for i, x in enumerate(xi_arr):
            if x <= lhead:
                st = (self.left.rho, self.left.v, self.left.p)
            elif lkind == "rarefaction" and x < ltail:
                st = self._sample_rarefaction_fan(self.left, x, -1)
            elif x <= self.v_star:
                st = (self.rho_star_left, self.v_star, self.p_star)
            elif rkind == "rarefaction" and x <= rtail:
                st = (self.rho_star_right, self.v_star, self.p_star)
            elif rkind == "rarefaction" and x < rhead:
                st = self._sample_rarefaction_fan(self.right, x, +1)
            elif rkind == "shock" and x < rhead:
                st = (self.rho_star_right, self.v_star, self.p_star)
            else:
                st = (self.right.rho, self.right.v, self.right.p)
            rho[i], v[i], p[i] = st

        if np.isscalar(xi) or np.ndim(xi) == 0:
            return float(rho[0]), float(v[0]), float(p[0])
        return rho, v, p

    def solution_on_grid(self, x: np.ndarray, t: float, x0: float = 0.0):
        """Sample the solution on physical coordinates at time t > 0."""
        if t <= 0:
            raise ConfigurationError("sampling requires t > 0")
        return self.sample((np.asarray(x, dtype=float) - x0) / t)

    def wave_structure(self) -> dict:
        """Summary of the wave pattern (kinds and speeds) for reports/tests."""
        return {
            "left": self._left_wave,
            "right": self._right_wave,
            "p_star": self.p_star,
            "v_star": self.v_star,
            "rho_star_left": self.rho_star_left,
            "rho_star_right": self.rho_star_right,
        }
