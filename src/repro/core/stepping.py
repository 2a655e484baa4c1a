"""The one HRSC time step and run loop, shared by every driver.

Recover -> reconstruct -> Riemann -> update under SSP-RK is the same on
every target and at every scale; what differs between drivers is *where
the patches live* (one grid, a batch axis, or rank sub-grids and forest
leaves) and *how their ghosts are filled*.  Every driver steps its patches
in the stacks of :func:`~repro.core.pipeline.patch_stacks` (a unigrid or
batch patch is a stack of one), so :class:`Driver` owns the solution
state — ``_stacks``, the committed ``_cons`` and the primitive cache —
with the one ``_commit``, ``_integrate``, ``_prims()`` and patch
capture/install pair.  The drivers supply only what is theirs:

======================  ================================================
``_reduce_dt(dt)``       the min over ranks of ``compute_dt``'s step (AMR;
                         ``DistributedSolver`` allreduces the maxima)
``_exchange(prims)``     the ghost hook of ``_prims()``: the rank halo
                         exchange; nothing for the other drivers
``_rhs(states)``         right-hand sides (default: each stack's ``rhs``),
                         from ``_committed_prims(states)`` when that is
                         the cache
``_patches()``           ``(label, pipeline, array)`` per evolved patch —
                         serves the finite guard
``_after_step(dt)``      bookkeeping on the guarded step (``solver.dt``)
``_record_extras()``     the family block of a step record
``_keep_running()``      run-loop predicate beyond ``t < t_final``
``state()``              the family's extras beside Driver's ``{"t",
                         "steps", "patches": {ident: (cons, p_cache)}}``
``install_state(s)``     the inverse of ``state()``, verbatim
``_finish_run()``        what ``run`` returns
======================  ================================================

One recovery per committed state serves ``compute_dt`` (on ``cext``
through the CFL maxima the recovery scanned), reads and RK stage 1
alike: every step, the first included, makes one recovery sweep per stack
and stage.  A constructor commits its conserved state and nothing else;
the first read recovers it.

``state()``/``install_state()`` is the one way a driver's state moves:
checkpoints (:meth:`Driver.write_checkpoint`,
:func:`repro.io.load_checkpoint`), a worker's supervision snapshot and the
fold of a fleet to its serial twin all call this pair and nothing else;
its patches go through ``_capture_patches`` / ``_install_patches``.

``step`` and ``run`` never ask which driver they serve.  Drivers named in
``bench/trace.py::PATCH_POINTS`` re-bind ``step``/``run`` in their own
class body (``step = Driver.step``): the tracer patches
``owner.__dict__[attr]``, so an inherited name would not resolve.
"""

from __future__ import annotations

import time

import numpy as np

from ..time_integration.cfl import clip_dt_to_final, dt_from_axis_maxima
from ..utils.errors import ConfigurationError, NumericsError
from ..utils.logging import get_logger
from .config import MAX_STEPS
from .diagnostics import check_dt, first_nonfinite
from .pipeline import PatchViews, recover_stacks

_log = get_logger("core")


def placeholder_prim(system, grid):
    """Physically admissible placeholder state (rho = p = 1, v = 0): what a
    driver is built on before ``install_state`` replaces it."""
    prim = grid.allocate(system.nvars, fill=0.0)
    prim[system.RHO] = 1.0
    prim[system.P] = 1.0
    return prim


class Driver:
    """Stepping core over ``self.t``, ``self.steps`` and the stacks.

    Subclasses provide ``config``, ``integrator``, ``timers``, ``metrics``
    and ``recorder``, build ``_stacks`` and ``_commit`` their first state,
    besides the hooks listed in the module docstring.
    """

    #: the recovery of the committed state ``_cons`` (None until read)
    _prims_cache: PatchViews | None = None
    #: whether ``_patches()`` yields interiors (else ghosted patches)
    _finite_interior = False

    def _commit(self, arrays: list) -> None:
        """Make *arrays*, one per stack, the committed state."""
        self._cons = PatchViews.of(self._stacks, arrays)
        self._prims_cache = None

    def _prims(self) -> PatchViews:
        """Primitives of the committed state (read-only): recovered once
        per commit into fresh arrays, ghosts filled by :meth:`_exchange`.
        Every ``compute_dt`` and diagnostic read goes through here, and so
        does RK stage 1 (:meth:`_committed_prims`): a step recovers once per
        stage, and a read between steps is the recovery the next step
        skips."""
        if self._prims_cache is None:
            prims = recover_stacks(self._stacks, self._cons.stacks)
            self._exchange(prims)
            self._prims_cache = prims
        return self._prims_cache

    def _committed_prims(self, states: list) -> PatchViews | None:
        """``_prims()``'s cache when *states* are the committed stacks
        themselves and a read has recovered them — RK stage 1 after a
        ``compute_dt`` or a read — else None: the stage recovers its own."""
        if self._prims_cache is not None and all(
            U is C for U, C in zip(states, self._cons.stacks)
        ):
            return self._prims_cache
        return None

    def _exchange(self, prims: PatchViews) -> None:
        """Fill the ghosts of *prims* that other patches own."""

    def compute_dt(self, t_final: float | None = None) -> float:
        """The CFL step from ``_prims()``: every patch's
        :func:`~repro.time_integration.cfl.dt_from_axis_maxima` over its own
        spacings, the min over patches (inf on a rank that owns no leaf),
        through :meth:`_reduce_dt`."""
        dt = np.inf
        for st, prim in zip(self._stacks, self._prims().stacks):
            maxima = st.pipeline.max_signal_per_axis(prim).T
            dt = np.minimum(dt, np.min(dt_from_axis_maxima(st.pipeline.dx, maxima, self.config.cfl)))
        return clip_dt_to_final(self._reduce_dt(float(dt)), self.t, t_final)

    def _reduce_dt(self, dt: float) -> float:
        return dt

    def _rhs(self, states: list) -> PatchViews:
        prims = self._committed_prims(states)
        cached = [None] * len(states) if prims is None else prims.stacks
        rhs = [st.pipeline.rhs(U, prim=p) for st, U, p in zip(self._stacks, states, cached)]
        return PatchViews.of(self._stacks, rhs)

    def _integrate(self, dt: float) -> None:
        """One integrator step, each stack's stages combined by its own
        pipeline; the advanced states are fresh arrays, so views handed out
        keep their bytes."""
        stacks = self._stacks

        def combine(stage, U, V, dt, k, final):
            return [
                st.pipeline.combine_stage(stage, u, v, dt, dU, final)
                for st, u, v, dU in zip(stacks, U, V, k.stacks)
            ]

        self._commit(self.integrator.step(
            list(self._cons.stacks), dt, self._rhs,
            t0=self.t, set_time=self._set_stage_time, combine=combine,
        ))

    def _set_stage_time(self, t: float) -> None:
        """Integrator stage hook: every patch's sources see t0 + c_i dt."""
        for st in self._stacks:
            st.pipeline.time = t

    def interior_primitives(self) -> dict:
        """``{ident: interior primitives}`` of every patch (copies)."""
        prims = self._prims()
        return {
            ident: grid.interior_of(prims[ident]).copy()
            for st in self._stacks
            for ident, (grid, _) in zip(st.idents, st.pipeline.patches)
        }

    def state(self) -> dict:
        """``{"t", "steps", "patches"}``; a family adds its extras."""
        return {"t": self.t, "steps": self.steps, "patches": self._capture_patches()}

    def install_state(self, state: dict) -> None:
        self._install_patches(state["patches"])
        self.t = float(state["t"])
        self.steps = int(state["steps"])

    def _capture_patches(self) -> dict:
        """``{ident: (cons, p_cache)}`` of every patch, owned copies."""
        return {
            ident: (self._cons[ident].copy(), st.pipeline.warm_state(i))
            for st in self._stacks
            for i, ident in enumerate(st.idents)
        }

    def _install_patches(self, patches: dict) -> None:
        """Commit *patches*' ``(cons, p_cache)`` of every patch as fresh
        stacks.  A ``cons`` shaped unlike its grid raises; a mis-shaped
        ``p_cache`` starts its patch cold."""
        arrays = []
        for st in self._stacks:
            stack = np.empty(st.pipeline._state_shape)
            for i, ident in enumerate(st.idents):
                cons, p_cache = patches[ident]
                if np.shape(cons) != stack.shape[1:]:
                    raise ConfigurationError(
                        f"patch {ident!r}: cons shaped {np.shape(cons)}, its "
                        f"grid holds {stack.shape[1:]}"
                    )
                stack[i] = cons
                st.pipeline.install_warm_state(p_cache, i)
            arrays.append(stack)
        self._commit(arrays)

    def _check_finite(self) -> None:
        """Name the first NaN/Inf of the just-committed state.  A patch
        array shaped like its grid's interior reports interior indices;
        a callable label is resolved from the offending cell.  One
        reduction per stack; its patches are walked only on a hit."""
        inner = self._finite_interior
        if all(
            np.isfinite(U[(...,) + st.pipeline.grid.interior] if inner else U).all()
            for st, U in zip(self._stacks, self._cons.stacks)
        ):
            return
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
