"""Strong-stability-preserving Runge-Kutta integrators (Shu & Osher).

An integrator advances a conserved state given a right-hand-side callback
``rhs(cons) -> dU/dt`` that already includes the flux divergence (and any
sources). SSP methods are convex combinations of forward-Euler steps, so the
TVD property of the spatial scheme carries over to the full update.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..utils.errors import ConfigurationError

RHS = Callable[[np.ndarray], np.ndarray]

#: The three shapes an SSP stage takes; a stage is ``(form, a, b)``.
EULER, CONVEX, THIRD = 0, 1, 2


def combine_stage(stage, U, V, dt, k, final=False):
    """The state after one stage: *U* the step's start state, *V* the
    previous stage's (``U`` itself at the first), ``k = rhs(V)``.  These
    NumPy expressions are the reference: ``numpy``/``flat`` run them, and
    the compiled ``rk_stage`` is pinned against them operand for operand
    (``U / a`` is a division, not a multiplication by a reciprocal).  *final*
    is for combines that recycle intermediates; results here are all fresh."""
    form, a, b = stage
    if form == EULER:
        return V + dt * k
    if form == CONVEX:
        return a * U + b * (V + dt * k)
    return U / a + b * (V + dt * k)


class TimeIntegrator:
    """An SSP scheme as data: one full step of size dt from state U.

    :attr:`table` holds one ``(form, a, b)`` per rhs evaluation and
    :attr:`stage_fractions` its abscissa ``c_i``; :meth:`step` walks them.
    It accepts the step's start time *t0* and an optional *set_time*
    callback invoked with the correct stage abscissa ``t0 + c_i dt``
    immediately before each rhs evaluation — this is how time-dependent
    source terms see per-stage times (evaluating every stage at ``t0``
    silently degrades SSPRK2/3 to first order in the source).  The rhs
    signature itself stays ``rhs(U)`` so state-only callers are unaffected.
    *combine* (default :func:`combine_stage`) forms each stage's state; the
    state may be anything *rhs* and *combine* agree on.
    """

    name = "abstract"
    order = 1
    #: ``(form, a, b)`` per stage, see :func:`combine_stage`
    table: tuple[tuple, ...] = ()
    #: stage abscissae c_i (fractions of dt), one per rhs evaluation
    stage_fractions: tuple[float, ...] = ()

    @property
    def stages(self) -> int:
        return len(self.table)

    def step(self, U, dt, rhs: RHS, t0=0.0, set_time=None, combine=combine_stage):
        """Return the state advanced by dt (input is not modified)."""
        V = U
        for i, (stage, c) in enumerate(zip(self.table, self.stage_fractions)):
            if set_time is not None:
                set_time(t0 + c * dt)
            V = combine(stage, U, V, dt, rhs(V), final=i + 1 == len(self.table))
        return V


# Each class re-binds ``step``: bench/trace.py patches ``owner.__dict__``.


class ForwardEuler(TimeIntegrator):
    """First-order forward Euler (the SSP building block)."""

    name = "euler"
    order = 1
    table = ((EULER, 1.0, 1.0),)
    stage_fractions = (0.0,)
    step = TimeIntegrator.step


class SSPRK2(TimeIntegrator):
    """Heun's method in SSP (convex) form; second order, CFL coefficient 1."""

    name = "ssprk2"
    order = 2
    table = ((EULER, 1.0, 1.0), (CONVEX, 0.5, 0.5))
    stage_fractions = (0.0, 1.0)
    step = TimeIntegrator.step


class SSPRK3(TimeIntegrator):
    """Shu-Osher third-order SSP Runge-Kutta; the HRSC default."""

    name = "ssprk3"
    order = 3
    table = ((EULER, 1.0, 1.0), (CONVEX, 0.75, 0.25), (THIRD, 3.0, 2.0 / 3.0))
    stage_fractions = (0.0, 1.0, 0.5)
    step = TimeIntegrator.step


INTEGRATORS = {"euler": ForwardEuler, "ssprk2": SSPRK2, "ssprk3": SSPRK3}


def make_integrator(name: str) -> TimeIntegrator:
    """Factory: time integrator by registry name."""
    try:
        return INTEGRATORS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown integrator {name!r}; choose from {sorted(INTEGRATORS)}"
        ) from None
