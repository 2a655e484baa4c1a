"""The one HRSC time step and run loop, shared by every driver.

Recover -> reconstruct -> Riemann -> update under SSP-RK is the same on
every target and at every scale; what differs between drivers is *where
the patches live* (one grid, a batch axis, or rank sub-grids and forest
leaves stepped in the stacks of :func:`~repro.core.pipeline.patch_stacks`)
and *how their ghosts are filled*.  :class:`Driver` therefore owns the
skeleton over the explicit solution state ``(t, steps, patches)`` and the
drivers supply only what is theirs:

======================  ================================================
``compute_dt(t_final)``  the CFL step (and its reduction across patches)
``_integrate(dt)``       the integrator call (``_integrate_stacks`` for a
                         driver of stacks) and the commit of its result
``_patches()``           ``(label, pipeline, array)`` per evolved patch —
                         serves the stage-time hook and the finite guard
``_after_step(dt)``      bookkeeping on the guarded step (``solver.dt``)
``_record_extras()``     the family block of a step record
``_keep_running()``      run-loop predicate beyond ``t < t_final``
``state()``              ``{"t", "steps", "patches": {ident: (cons,
                         p_cache)}, ...}`` plus the family's extras
``install_state(s)``     the inverse of ``state()``, verbatim
``_finish_run()``        what ``run`` returns
======================  ================================================

``state()``/``install_state()`` is the one way a driver's state moves:
checkpoints (:meth:`Driver.write_checkpoint`,
:func:`repro.io.load_checkpoint`), a worker's supervision snapshot and the
fold of a fleet to its serial twin all call this pair and nothing else.

``step`` and ``run`` never ask which driver they serve.  Drivers named in
``bench/trace.py::PATCH_POINTS`` re-bind ``step``/``run`` in their own
class body (``step = Driver.step``): the tracer patches
``owner.__dict__[attr]``, so an inherited name would not resolve.
"""

from __future__ import annotations

import time

from ..utils.errors import ConfigurationError, NumericsError
from ..utils.logging import get_logger
from .config import MAX_STEPS
from .diagnostics import check_dt, first_nonfinite

_log = get_logger("core")


def placeholder_prim(system, grid):
    """Physically admissible placeholder state (rho = p = 1, v = 0): what a
    driver is built on before ``install_state`` replaces it."""
    prim = grid.allocate(system.nvars, fill=0.0)
    prim[system.RHO] = 1.0
    prim[system.P] = 1.0
    return prim


class Driver:
    """Stepping core over ``self.t``, ``self.steps`` and ``self._patches()``.

    Subclasses provide ``config``, ``integrator``, ``timers``, ``metrics``
    and ``recorder`` besides the hooks listed in the module docstring.
    """

    def _integrate_stacks(self, stacks, states: list, dt: float) -> list:
        """One integrator step over a list of one state array per stack
        (:func:`~repro.core.pipeline.patch_stacks`): ``self._rhs`` maps such
        a list to the :class:`~repro.core.pipeline.PatchViews` of its
        right-hand sides, and each stack's stage is combined by its own
        pipeline.  Returns the advanced states."""

        def combine(stage, U, V, dt, k, final):
            return [
                st.pipeline.combine_stage(stage, u, v, dt, dU, final)
                for st, u, v, dU in zip(stacks, U, V, k.stacks)
            ]

        return self.integrator.step(
            list(states), dt, self._rhs,
            t0=self.t, set_time=self._set_stage_time, combine=combine,
        )

    def _set_stage_time(self, t: float) -> None:
        """Integrator stage hook: every patch's sources see t0 + c_i dt."""
        for _label, pipeline, _arr in self._patches():
            pipeline.time = t

    def _check_finite(self) -> None:
        """Name the first NaN/Inf of the just-committed state.  A patch
        array shaped like its grid's interior reports interior indices;
        a callable label is resolved from the offending cell."""
        for label, pipeline, arr in self._patches():
            hit = first_nonfinite(arr)
            if hit is None:
                continue
            var, cell = hit
            if callable(label):
                label = label(cell)
            where = "interior cell" if arr.shape[1:] == pipeline.grid.shape else "cell"
            raise NumericsError(
                f"non-finite conserved state after step {self.steps} at "
                f"t={self.t:g}: {label}variable {var}, {where} {cell}"
            )

    def _after_step(self, dt: float) -> None:
        self.metrics.histogram("solver.dt").observe(dt)

    def _record_extras(self) -> dict:
        return {}

    def _keep_running(self) -> bool:
        return True

    def _finish_run(self):
        return None

    def write_checkpoint(self, path) -> None:
        """Archive :meth:`state` at *path* (:func:`repro.io.save_checkpoint`)."""
        # Deferred import: repro.io imports the drivers.
        from ..io.checkpoint import save_checkpoint

        save_checkpoint(self, path)

    def step(self, dt: float | None = None, t_final: float | None = None) -> float:
        """Advance one time step; returns the dt taken."""
        wall0 = time.perf_counter()
        if dt is None:
            dt = self.compute_dt(t_final)
        check_dt(dt, self.t, self.steps + 1)
        self._integrate(dt)
        self.t += dt
        self.steps += 1
        self._check_finite()
        self._after_step(dt)
        if self.recorder is not None:
            self.recorder.record_step(
                step=self.steps,
                t=self.t,
                dt=dt,
                wall_seconds=time.perf_counter() - wall0,
                timers=self.timers,
                metrics=self.metrics,
                **self._record_extras(),
            )
        return dt

    def run(
        self,
        t_final: float,
        max_steps: int | None = None,
        callback=None,
        checkpoint_every: int = 0,
        checkpoint_path=None,
    ):
        """Advance to *t_final*; *callback(driver)* runs after every step.

        With ``checkpoint_every=N`` and a ``checkpoint_path``, the driver's
        full state is checkpointed every N steps, between steps, so a
        failure mid-run leaves a consistent resumable archive behind (see
        :func:`repro.resilience.run_with_restart`).
        """
        if t_final < self.t:
            raise ConfigurationError(f"t_final={t_final} is before t={self.t}")
        if checkpoint_every and checkpoint_path is None:
            raise ConfigurationError("checkpoint_every requires a checkpoint_path")
        limit = max_steps if max_steps is not None else MAX_STEPS
        while self.t < t_final * (1.0 - 1e-14) and self._keep_running():
            if self.steps >= limit:
                _log.warning("step limit %d reached at t=%g", limit, self.t)
                break
            self.step(t_final=t_final)
            if checkpoint_every and self.steps % checkpoint_every == 0:
                self.write_checkpoint(checkpoint_path)
            if callback is not None:
                callback(self)
        return self._finish_run()
