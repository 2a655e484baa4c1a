"""Unigrid HRSC solver: the user-facing driver for single-patch runs.

Typical use::

    from repro import IdealGasEOS, SRHDSystem, Grid, Solver, SolverConfig
    from repro.physics.initial_data import RP1, shock_tube
    from repro.boundary import make_boundaries

    eos = IdealGasEOS(gamma=RP1.gamma)
    system = SRHDSystem(eos, ndim=1)
    grid = Grid((400,), ((0.0, 1.0),))
    prim0 = shock_tube(system, grid, RP1)
    solver = Solver(system, grid, prim0, SolverConfig(), make_boundaries("outflow"))
    solver.run(t_final=RP1.t_final)
    rho = solver.primitives()[system.RHO]
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from ..boundary.conditions import BoundarySet, make_boundaries
from ..mesh.grid import Grid
from ..obs.recorder import StepRecorder
from ..physics.srhd import SRHDSystem
from ..time_integration.cfl import compute_dt
from ..time_integration.ssprk import make_integrator
from ..utils.errors import ConfigurationError, NumericsError
from ..utils.logging import get_logger
from ..utils.timers import TimerRegistry
from .config import SolverConfig
from .diagnostics import ConservedTotals, RunSummary, check_dt, first_nonfinite
from .pipeline import HydroPipeline

_log = get_logger("core")


class Solver:
    """Single-grid SRHD solver.

    Parameters
    ----------
    system:
        Physics (EOS + dimensionality); ``system.ndim`` must equal
        ``grid.ndim``.
    grid:
        The ghosted computational grid.
    initial_prim:
        Primitive state array ``(nvars, *grid.shape_with_ghosts)``.
    config:
        Numerical scheme configuration (defaults are production settings).
    boundaries:
        Per-face ghost-fill policy; outflow everywhere by default.
    source_fn:
        Optional source term ``(system, grid, prim_interior, t) ->
        dU_interior`` added to the flux divergence every RK stage.
    recorder:
        Optional :class:`~repro.obs.StepRecorder`; when given, every step
        emits one structured record (dt, wall time, kernel timings,
        con2prim/atmosphere/sanitization counters).
    fault_injector:
        Optional :class:`~repro.resilience.faults.FaultInjector` for chaos
        testing; forwarded to the pipeline (con2prim bursts).
    """

    def __init__(
        self,
        system: SRHDSystem,
        grid: Grid,
        initial_prim: np.ndarray,
        config: SolverConfig | None = None,
        boundaries: BoundarySet | None = None,
        source_fn=None,
        recorder: StepRecorder | None = None,
        fault_injector=None,
    ):
        if system.ndim != grid.ndim:
            raise ConfigurationError(
                f"system.ndim={system.ndim} does not match grid.ndim={grid.ndim}"
            )
        expected = (system.nvars,) + grid.shape_with_ghosts
        if initial_prim.shape != expected:
            raise ConfigurationError(
                f"initial_prim shape {initial_prim.shape}, expected {expected}"
            )
        self.system = system
        self.grid = grid
        self.config = config or SolverConfig()
        self.boundaries = boundaries or make_boundaries("outflow")
        self.timers = TimerRegistry()
        self.pipeline = HydroPipeline(
            system, grid, self.boundaries, self.config, self.timers,
            fault_injector=fault_injector,
        )
        self.pipeline.source_fn = source_fn
        self.metrics = self.pipeline.metrics
        self.recorder = recorder
        self.integrator = make_integrator(self.config.integrator)

        prim = initial_prim.astype(float, copy=True)
        self.boundaries.apply(system, grid, prim)
        self.pipeline.atmosphere.apply_prim(system, prim)
        self.cons = system.prim_to_con(prim)
        self._prim_cache = prim
        self._prim_dirty = False
        self.t = 0.0
        self.summary = RunSummary(
            initial=ConservedTotals.measure(system, grid, self.cons)
        )

    # ------------------------------------------------------------------

    def primitives(self) -> np.ndarray:
        """Current primitive state (ghosts filled), recovered on demand."""
        if self._prim_dirty:
            self._prim_cache = self.pipeline.recover_primitives(self.cons)
            self._prim_dirty = False
        return self._prim_cache

    def interior_primitives(self) -> np.ndarray:
        return self.grid.interior_of(self.primitives())

    def compute_dt(self, t_final: float | None = None) -> float:
        return compute_dt(
            self.system,
            self.grid,
            self.primitives(),
            cfl=self.config.cfl,
            t=self.t,
            t_final=t_final,
        )

    def _set_stage_time(self, t: float) -> None:
        """Stage-time hook for the integrator: source terms see t0 + c_i dt."""
        self.pipeline.time = t

    def _check_finite(self) -> None:
        hit = first_nonfinite(self.cons)
        if hit is not None:
            raise NumericsError(
                f"non-finite conserved state after step {self.summary.steps + 1} "
                f"at t={self.t:g}: variable {hit[0]}, cell {hit[1]}"
            )

    def step(self, dt: float | None = None, t_final: float | None = None) -> float:
        """Advance one time step; returns the dt taken."""
        wall0 = time.perf_counter()
        if dt is None:
            dt = self.compute_dt(t_final)
        check_dt(dt, self.t, self.summary.steps + 1)
        self.cons = self.integrator.step(
            self.cons, dt, self.pipeline.rhs,
            t0=self.t, set_time=self._set_stage_time,
        )
        self.t += dt
        self._prim_dirty = True
        self._check_finite()
        self.summary.record_step(dt)
        self.metrics.histogram("solver.dt").observe(dt)
        if self.recorder is not None:
            self.recorder.record_step(
                step=self.summary.steps,
                t=self.t,
                dt=dt,
                wall_seconds=time.perf_counter() - wall0,
                timers=self.timers,
                metrics=self.metrics,
            )
        return dt

    def run(
        self,
        t_final: float,
        max_steps: int | None = None,
        callback: Callable[["Solver"], None] | None = None,
        checkpoint_every: int = 0,
        checkpoint_path=None,
    ) -> RunSummary:
        """Advance to *t_final*; optional per-step callback for monitoring.

        With ``checkpoint_every=N`` and a ``checkpoint_path``, the full
        solver state is checkpointed every N steps, between steps, so a
        failure mid-run leaves a consistent resumable archive behind (see
        :func:`repro.resilience.run_with_restart`).
        """
        if t_final < self.t:
            raise ConfigurationError(f"t_final={t_final} is before t={self.t}")
        if checkpoint_every and checkpoint_path is None:
            raise ConfigurationError(
                "checkpoint_every requires a checkpoint_path"
            )
        limit = max_steps if max_steps is not None else self.config.max_steps
        while self.t < t_final * (1.0 - 1e-14):
            if self.summary.steps >= limit:
                _log.warning("step limit %d reached at t=%g", limit, self.t)
                break
            self.step(t_final=t_final)
            if checkpoint_every and self.summary.steps % checkpoint_every == 0:
                # Deferred import: repro.io imports this module.
                from ..io.checkpoint import save_checkpoint

                save_checkpoint(self, checkpoint_path)
            if callback is not None:
                callback(self)
        self.summary.t_final = self.t
        self.summary.final = ConservedTotals.measure(self.system, self.grid, self.cons)
        self.summary.kernel_seconds = {
            name: timer.elapsed for name, timer in self.timers.items()
        }
        return self.summary
