"""Unigrid HRSC solver: the user-facing driver for single-patch runs.

The one patch is a stack of one (:func:`~repro.core.pipeline.patch_stacks`,
ident ``""``): the commit, primitive cache, integrator call and state pair
are :class:`~repro.core.stepping.Driver`'s, and :attr:`Solver.cons` views
the committed stack.

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

import dataclasses

import numpy as np

from ..boundary.conditions import BoundarySet, make_boundaries
from ..mesh.grid import Grid
from ..obs.recorder import StepRecorder
from ..physics.srhd import SRHDSystem
from ..time_integration.ssprk import make_integrator
from ..utils.errors import ConfigurationError
from ..utils.timers import TimerRegistry
from .config import SolverConfig
from .diagnostics import ConservedTotals, RunSummary
from .pipeline import patch_stacks
from .stepping import Driver


class Solver(Driver):
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
        self._init_patch(
            system, grid, initial_prim.astype(float, copy=True), config,
            boundaries or make_boundaries("outflow"), recorder, fault_injector,
        )
        self.pipeline.source_fn = source_fn
        self.summary.initial = ConservedTotals.measure(system, grid, self.cons)

    def _init_patch(
        self, system, grid, prim, config, boundaries, recorder, fault_injector
    ) -> None:
        """The stack of one ghosted patch, its integrator and committed state
        from the patch's primitives (*prim* is taken over, not copied) —
        shared with :class:`~repro.core.batch.BatchSolver`, whose patch
        carries a trailing batch axis."""
        self.system = system
        self.grid = grid
        self.config = config or SolverConfig()
        self.boundaries = boundaries
        self.timers = TimerRegistry()
        self._stacks = patch_stacks(
            system, self.config, [("", grid, boundaries, ())],
            timers=self.timers, fault_injector=fault_injector,
        )
        #: the stack's pipeline (``pipeline.system``: the resolved kernels)
        self.pipeline = self._stacks[0].pipeline
        self.metrics = self.pipeline.metrics
        self.recorder = recorder
        self.integrator = make_integrator(self.config.integrator)

        boundaries.apply(system, grid, prim)
        self.pipeline.atmosphere.apply_prim(system, prim)
        self._commit([system.prim_to_con(prim)[None]])
        self.t = 0.0
        self.summary = RunSummary()

    # ------------------------------------------------------------------

    @property
    def steps(self) -> int:
        """Steps taken so far (``summary.steps``)."""
        return self.summary.steps

    @steps.setter
    def steps(self, n: int) -> None:
        self.summary.steps = n

    @property
    def cons(self) -> np.ndarray:
        """The committed state ``(nvars, *ghosted)``, a view of the stack."""
        return self._cons[""]

    def primitives(self) -> np.ndarray:
        """Current primitive state (ghosts filled), a copy."""
        return self._prims()[""].copy()

    def interior_primitives(self) -> np.ndarray:
        return self.grid.interior_of(self._prims()[""]).copy()

    def _patches(self):
        yield "", self.pipeline, self.cons

    def _after_step(self, dt: float) -> None:
        self.summary.observe_dt(dt)
        super()._after_step(dt)

    # bench/trace.py patches Solver.__dict__["step"] and ["compute_dt"]:
    # bound here, not inherited.
    step = Driver.step
    compute_dt = Driver.compute_dt

    def state(self) -> dict:
        """The one patch plus what the run summary measures from: the
        initial totals and the dt range (a json-ready ``summary``)."""
        return {
            **super().state(),
            "summary": {
                "initial": dataclasses.asdict(self.summary.initial),
                "dt_min": self.summary.dt_min,
                "dt_max": self.summary.dt_max,
            },
        }

    def install_state(self, state: dict) -> None:
        """Install a :meth:`state` verbatim; without a ``summary`` the
        installed state becomes the one drift is measured from."""
        super().install_state(state)
        self.summary = RunSummary(steps=self.steps)
        summary = state.get("summary")
        if summary is None:
            self.summary.initial = ConservedTotals.measure(
                self.system, self.grid, self.cons
            )
        else:
            initial = summary["initial"]
            self.summary.initial = ConservedTotals(
                **dict(initial, momentum=tuple(initial["momentum"]))
            )
            self.summary.dt_min = summary["dt_min"]
            self.summary.dt_max = summary["dt_max"]

    def _finish_run(self) -> RunSummary:
        self.summary.t_final = self.t
        self.summary.final = ConservedTotals.measure(self.system, self.grid, self.cons)
        self.summary.kernel_seconds = {
            name: timer.elapsed for name, timer in self.timers.items()
        }
        return self.summary
