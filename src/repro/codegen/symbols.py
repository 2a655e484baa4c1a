"""Symbolic specification of the SRHD equations (SymPy).

The physics is written once, symbolically; architecture-specific kernels are
*generated* from these expressions — the code-generation approach of the
authors' framework line (symbolic physics module + per-target emitters).

All expressions assume the ideal-gas closure ``eps = p / ((gamma - 1) rho)``
so the generated kernels are closed-form (no EOS callbacks), matching how
production generators specialize kernels per EOS.
"""

from __future__ import annotations

import sympy as sp

from ..utils.errors import CodegenError


#: Stage names of ``face_side``, in evaluation order: 1 - v^2, its
#: reciprocal W^2, W, p/rho, h, cs^2, rho h W^2.
_SIDE_STAGES = ("omv2", "W2", "W", "pr", "h", "cs2", "rhW2")


class SRHDSymbols:
    """Symbol table and derived expressions for ndim-velocity SRHD."""

    def __init__(self, ndim: int):
        if ndim not in (1, 2, 3):
            raise CodegenError(f"ndim must be 1, 2, or 3, got {ndim}")
        self.ndim = ndim
        self.rho = sp.Symbol("rho", positive=True)
        self.p = sp.Symbol("p", positive=True)
        self.gamma = sp.Symbol("gamma", positive=True)
        self.v = [sp.Symbol(f"v{i}", real=True) for i in range(ndim)]
        # Named intermediates of the joint ``face_side`` kernel.  They carry
        # no assumptions on purpose: a positive symbol under ``sp.sqrt``
        # would be split off as its own factor (one sqrt per factor).
        self._st = {n: sp.Symbol(n) for n in _SIDE_STAGES}

    # -- thermodynamics (ideal gas) -----------------------------------------

    @property
    def eps(self) -> sp.Expr:
        return self.p / ((self.gamma - 1) * self.rho)

    @property
    def enthalpy(self) -> sp.Expr:
        return 1 + self.eps + self.p / self.rho

    @property
    def sound_speed_sq(self) -> sp.Expr:
        return self.gamma * self.p / (self.rho * self.enthalpy)

    # -- kinematics ------------------------------------------------------------

    @property
    def v2(self) -> sp.Expr:
        return sum(vi**2 for vi in self.v)

    @property
    def lorentz(self) -> sp.Expr:
        return 1 / sp.sqrt(1 - self.v2)

    # -- conserved variables -----------------------------------------------------

    def conserved(self) -> list[sp.Expr]:
        """[D, S_0.., tau] as expressions in the primitives."""
        W = self.lorentz
        rhohW2 = self.rho * self.enthalpy * W**2
        D = self.rho * W
        S = [rhohW2 * vi for vi in self.v]
        tau = rhohW2 - self.p - D
        return [D, *S, tau]

    def flux(self, axis: int) -> list[sp.Expr]:
        """Flux vector along *axis* as expressions in the primitives."""
        if not 0 <= axis < self.ndim:
            raise CodegenError(f"axis {axis} out of range for ndim={self.ndim}")
        U = self.conserved()
        vk = self.v[axis]
        D, S, tau = U[0], U[1 : 1 + self.ndim], U[-1]
        F = [D * vk]
        for i, Si in enumerate(S):
            F.append(Si * vk + (self.p if i == axis else 0))
        F.append(S[axis] - D * vk)
        return F

    def char_speeds(self, axis: int) -> tuple[sp.Expr, sp.Expr]:
        """(lambda_minus, lambda_plus) along *axis*."""
        if not 0 <= axis < self.ndim:
            raise CodegenError(f"axis {axis} out of range for ndim={self.ndim}")
        vk = self.v[axis]
        cs2 = self.sound_speed_sq
        v2 = self.v2
        disc = (1 - v2) * (1 - vk**2 - (v2 - vk**2) * cs2)
        root = sp.sqrt(cs2) * sp.sqrt(disc)
        denom = 1 - v2 * cs2
        lam_m = (vk * (1 - cs2) - root) / denom
        lam_p = (vk * (1 - cs2) + root) / denom
        return lam_m, lam_p

    # -- joint per-side kernel ------------------------------------------------

    def stages(self, kind: str, axis: int = 0) -> list[tuple[sp.Symbol, sp.Expr]]:
        """Named shared intermediates ``(symbol, definition)`` of a kind.

        Only ``face_side`` has any.  Emitters run **one** ``sp.cse`` over
        these definitions plus :meth:`expressions`, so each stage is
        evaluated once per state and — being an opaque symbol downstream —
        is never re-derived or factored apart by SymPy.
        """
        if kind != "face_side":
            return []
        st, rho, p, gamma = self._st, self.rho, self.p, self.gamma
        return [
            (st["omv2"], 1 - self.v2),
            (st["W2"], 1 / st["omv2"]),
            (st["W"], sp.sqrt(st["W2"])),
            (st["pr"], p / rho),
            (st["h"], 1 + st["pr"] / (gamma - 1) + st["pr"]),
            (st["cs2"], gamma * st["pr"] / st["h"]),
            (st["rhW2"], rho * st["h"] * st["W2"]),
        ]

    def face_side(self, axis: int) -> list[sp.Expr]:
        """``[U..., F^axis..., lambda_-, lambda_+]`` of one primitive state,
        written over the :meth:`stages` symbols.

        Everything a Riemann solver needs from one side of a face, from 2
        ``sqrt`` and 5 divisions: ``W`` comes from the reciprocal that also
        scales ``rho h``, and the characteristic root is one square root of
        ``cs^2 (1 - v^2) [1 - v_k^2 - (v^2 - v_k^2) cs^2]``.  This list is
        the one place the ``flat``/``cext`` per-side arithmetic is defined.
        """
        if not 0 <= axis < self.ndim:
            raise CodegenError(f"axis {axis} out of range for ndim={self.ndim}")
        st, p, vk, v2 = self._st, self.p, self.v[axis], self.v2
        D = self.rho * st["W"]
        S = [st["rhW2"] * vi for vi in self.v]
        F = [D * vk]
        F += [Si * vk + (p if i == axis else 0) for i, Si in enumerate(S)]
        F.append(S[axis] - D * vk)
        cs2 = st["cs2"]
        root = sp.sqrt(cs2 * st["omv2"] * (1 - vk**2 - (v2 - vk**2) * cs2))
        a = vk * (1 - cs2)
        denom = 1 - v2 * cs2
        return [D, *S, st["rhW2"] - p - D, *F, (a - root) / denom, (a + root) / denom]

    def input_names(self) -> list[str]:
        """Primitive variable names in state-vector order."""
        return ["rho", *[f"v{i}" for i in range(self.ndim)], "p"]

    def output_names(self, kind: str, axis: int = 0) -> list[str]:
        """Generated-output names for a kernel kind."""
        cons = ["D", *[f"S{i}" for i in range(self.ndim)], "tau"]
        if kind == "prim_to_con":
            return cons
        if kind == "flux":
            return [f"F{axis}_{name}" for name in cons]
        if kind == "char_speeds":
            return ["lam_minus", "lam_plus"]
        if kind == "face_side":
            flux = [f"F{axis}_{name}" for name in cons]
            return [*cons, *flux, "lam_minus", "lam_plus"]
        raise CodegenError(f"unknown kernel kind {kind!r}")

    def expressions(self, kind: str, axis: int = 0) -> list[sp.Expr]:
        """The expression list for a kernel kind (what the emitters consume)."""
        if kind == "prim_to_con":
            return self.conserved()
        if kind == "flux":
            return self.flux(axis)
        if kind == "char_speeds":
            return list(self.char_speeds(axis))
        if kind == "face_side":
            return self.face_side(axis)
        raise CodegenError(f"unknown kernel kind {kind!r}")
