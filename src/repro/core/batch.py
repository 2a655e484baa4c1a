"""SoA-batched scenario sweeps: N independent problems, one kernel invocation.

The production framing of the ROADMAP is millions of *small* requests, not
one big grid.  Stepping thousands of 1-D (or small 2-D) scenarios one at a
time leaves the vector units idle: per-call Python dispatch dominates when
each kernel touches a few hundred cells.  This module adds a **batch axis**
to the hydrodynamics pipeline so reconstruction, the Riemann solve,
con2prim, and the flux divergence sweep every scenario of a batch in a
single vectorized call.

Layout
------
A batch of ``N`` scenarios on a base grid of shape ``(*phys,)`` is stored
as one patch (a stack of one) of shape ``(nvars, *phys_ghosted, N + 2 g)``:
the batch axis is appended as the **innermost** grid axis, so for each
variable and each cell the ``N`` scenario values are contiguous in memory — a
structure-of-arrays sweep over scenarios with unit stride, exactly what
the elementwise kernels vectorize over.  Every kernel in the pipeline is
elementwise over non-working axes, so the same reconstruction, Riemann,
and recovery code sweeps all scenarios without modification, and the flux
divergence sweeps ``system.ndim`` axes, so it never touches the batch axis
(scenarios never exchange fluxes).

The batch axis carries the same ghost layers as the physical axes (a
uniform :class:`~repro.mesh.grid.Grid` keeps the whole workspace/boundary
machinery unchanged).  Its ghost columns are filled once, by outflow copies
of the edge scenarios when the initial state is set up; a recovery fills
the physical faces only, so the primitive arrays it returns hold zeros
there.  No sweep, recovery or CFL scan reads those columns, so they cannot
influence interior scenarios.  With ``N = 1`` every elementwise operation sees exactly the
cells the unbatched :class:`~repro.core.solver.Solver` sees, in the same
order — the batched solution is **bit-identical** to the unbatched one
(locked down by ``tests/test_batch.py``).

Per-request isolation
---------------------
Scenarios in a batch fail independently: a con2prim
:class:`~repro.utils.errors.RecoveryError` in any recovery of a step (the
CFL read's or a stage's) names its failed cells, the owning scenarios are
evicted (state replaced by a benign uniform fluid that cannot fail or
constrain the CFL step), and the recovery or step is retried for the
survivors.  One poisoned request degrades one response, never the whole
sweep.
"""

from __future__ import annotations

import numpy as np

from ..boundary.conditions import BoundarySet, Outflow, make_boundaries
from ..mesh.grid import Grid
from ..obs.recorder import StepRecorder
from ..physics.srhd import SRHDSystem
from ..utils.errors import ConfigurationError, RecoveryError
from .config import SolverConfig
from .solver import Solver
from .stepping import Driver


class BatchGrid(Grid):
    """A base grid extended with a trailing batch axis of ``n_batch`` slots.

    The batch axis is a regular grid axis (unit spacing, the usual ghost
    layers) so state arrays, the scratch workspace, and the boundary
    machinery work unchanged — but it is *never* swept by the flux
    divergence and never enters the CFL bound.
    """

    def __init__(self, base: Grid, n_batch: int):
        n_batch = int(n_batch)
        if n_batch < 1:
            raise ConfigurationError(f"n_batch must be >= 1, got {n_batch}")
        super().__init__(
            base.shape + (n_batch,),
            base.bounds + ((0.0, float(n_batch)),),
            base.n_ghost,
        )
        self.base = base
        self.n_batch = n_batch

    @property
    def batch_axis(self) -> int:
        """Index of the batch axis (always the last grid axis)."""
        return self.ndim - 1

    @property
    def phys_ndim(self) -> int:
        return self.base.ndim

    def scenario_index(self, flat_interior_index: int) -> int:
        """Owning scenario of a flat index into the interior cell block.

        The interior has shape ``(*phys, n_batch)`` in C order, so the
        batch slot is the remainder modulo ``n_batch`` — this is how a
        :class:`RecoveryError`'s failed-cell indices are attributed to
        requests.
        """
        return int(flat_interior_index) % self.n_batch

    def scenario_slice(self, i: int) -> tuple:
        """Index tuple selecting scenario *i*'s (ghosted-physical) column
        of a ``(nvars, *shape_with_ghosts)`` array."""
        if not 0 <= i < self.n_batch:
            raise ConfigurationError(
                f"scenario index {i} outside batch of {self.n_batch}"
            )
        return (slice(None),) * (self.ndim) + (self.n_ghost + i,)

    def __repr__(self):
        return (
            f"BatchGrid(base={self.base!r}, n_batch={self.n_batch})"
        )


def batch_boundaries(base: BoundarySet, grid: BatchGrid) -> BoundarySet:
    """Boundary set for a batched grid: the base conditions on the physical
    faces, outflow on the batch faces.

    Physical axes keep their indices (the batch axis is appended last), so
    the base per-face table transfers unchanged.  Outflow on the batch
    faces fills the ghost columns of the initial state with copies of the
    edge scenarios — deterministic, finite, and never read by a physical
    sweep; a pipeline's recovery fills the physical faces only
    (``bcs.walls(system.ndim)``).
    """
    faces = dict(base.faces)
    faces[(grid.batch_axis, 0)] = Outflow()
    faces[(grid.batch_axis, 1)] = Outflow()
    return BoundarySet(default=base.default, faces=faces)


#: scenario lifecycle states
ACTIVE, OK, FAILED = "active", "ok", "failed"

#: benign uniform fluid an evicted scenario is parked on: converges in a
#: couple of Newton iterations, subsonic, so it neither fails again nor
#: constrains the shared CFL step.
_BENIGN_RHO, _BENIGN_P = 1.0, 1.0


class BatchSolver(Solver):
    """Advance ``N`` independent scenarios as one vectorized batch.

    A :class:`~repro.core.solver.Solver` whose one patch carries the batch
    axis: pipeline, state, primitive cache, CFL step and stepping are
    inherited (the flux divergence and the CFL helpers sweep
    ``system.ndim`` axes, so the batch axis is never swept and never enters
    the bound); only stacking, eviction and the status summary are defined
    here.

    Parameters
    ----------
    system:
        Physics of the *base* problem (``system.ndim`` must equal the base
        grid's rank; the batch axis is invisible to the physics).
    base_grid:
        The per-scenario grid; every scenario shares it (resolution and
        extents are part of the batch key at the service layer).
    initial_prims:
        Sequence of ``N`` primitive state arrays, each shaped
        ``(nvars, *base_grid.shape_with_ghosts)``.
    config, boundaries, recorder, fault_injector:
        As for :class:`~repro.core.solver.Solver`; *boundaries* applies to
        the physical faces (the batch faces are outflow-filled).
    """

    def __init__(
        self,
        system: SRHDSystem,
        base_grid: Grid,
        initial_prims,
        config: SolverConfig | None = None,
        boundaries: BoundarySet | None = None,
        recorder: StepRecorder | None = None,
        fault_injector=None,
    ):
        if system.ndim != base_grid.ndim:
            raise ConfigurationError(
                f"system.ndim={system.ndim} does not match base grid "
                f"ndim={base_grid.ndim}"
            )
        initial_prims = list(initial_prims)
        if not initial_prims:
            raise ConfigurationError("batch needs at least one scenario")
        expected = (system.nvars,) + base_grid.shape_with_ghosts
        for i, p in enumerate(initial_prims):
            if p.shape != expected:
                raise ConfigurationError(
                    f"scenario {i} has shape {p.shape}, expected {expected}"
                )
        grid = BatchGrid(base_grid, len(initial_prims))
        prim = grid.allocate(system.nvars)
        for i, p in enumerate(initial_prims):
            prim[..., grid.n_ghost + i] = p.astype(float, copy=False)
        self._init_patch(
            system, grid, prim, config,
            batch_boundaries(boundaries or make_boundaries("outflow"), grid),
            recorder, fault_injector,
        )
        #: per-scenario lifecycle: "active" -> "ok" | "failed"
        self.status = [ACTIVE] * self.n_batch
        #: per-scenario failure messages (evicted scenarios only)
        self.failures: dict[int, str] = {}
        self.metrics.counter("batch.scenarios").inc(self.n_batch)

    # ------------------------------------------------------------------

    @property
    def n_batch(self) -> int:
        return self.grid.n_batch

    @property
    def n_active(self) -> int:
        return sum(1 for s in self.status if s == ACTIVE)

    def scenario_primitives(self, i: int) -> np.ndarray:
        """Scenario *i*'s ghosted primitive state (a copy), shaped like an
        unbatched solver's ``primitives()``."""
        return self._prims()[""][self.grid.scenario_slice(i)].copy()

    def scenario_interior_primitives(self, i: int) -> np.ndarray:
        return self.grid.base.interior_of(self.scenario_primitives(i))

    _finite_interior = True

    def _patches(self):
        # Interior only: the batch-face ghost columns are never evolved.
        yield (
            lambda cell: f"scenario {cell[-1]}, ",
            self.pipeline,
            self.grid.interior_of(self.cons),
        )

    # -- per-request isolation -----------------------------------------

    def _benign_column(self) -> np.ndarray:
        """Conserved state of the benign parking fluid, one scenario column
        shaped ``(nvars, *base.shape_with_ghosts)``."""
        prim = np.zeros(
            (self.system.nvars,) + self.grid.base.shape_with_ghosts
        )
        prim[self.system.RHO] = _BENIGN_RHO
        prim[self.system.P] = _BENIGN_P
        return self.system.prim_to_con(prim)

    def _evict(self, scenarios, reason: str) -> list[int]:
        """Mark *scenarios* failed and park their state columns; returns
        the scenarios newly evicted (already-failed ones are skipped)."""
        benign = None
        newly = []
        for b in scenarios:
            b = int(b)
            if self.status[b] != ACTIVE:
                continue
            if benign is None:
                benign = self._benign_column()
            self.status[b] = FAILED
            self.failures[b] = reason
            self.cons[self.grid.scenario_slice(b)] = benign
            newly.append(b)
        if newly:
            self._prims_cache = None  # the parked columns recover afresh
            self.metrics.counter("batch.scenarios_failed").inc(len(newly))
            if self.recorder is not None:
                self.recorder.emit_event(
                    "batch.eviction", step=self.steps, t=self.t,
                    scenarios=newly, reason=reason,
                )
        return newly

    def _attribute_failure(self, exc: RecoveryError) -> list[int]:
        """Scenarios owning the failed cells of *exc* (all active ones when
        the error carries no cell indices)."""
        indices = getattr(exc, "indices", None)
        if indices is None or np.asarray(indices).size == 0:
            return [b for b, s in enumerate(self.status) if s == ACTIVE]
        return sorted(
            {self.grid.scenario_index(i) for i in np.asarray(indices).ravel()}
        )

    # -- stepping -------------------------------------------------------

    def _isolated(self, fn, *args):
        """``fn(*args)`` for the whole batch: a :class:`RecoveryError`
        evicts the owning scenarios and retries for the survivors.  Every
        recovery of a step runs under it — ``_prims()`` (the CFL read) and
        the integrator's stages."""
        for _ in range(self.n_batch + 1):
            try:
                return fn(*args)
            except RecoveryError as exc:
                failed = self._attribute_failure(exc)
                if not self._evict(failed, str(exc)):
                    # The failure maps to no active scenario: nothing left
                    # to isolate, so surface it.
                    raise
        raise RecoveryError(  # pragma: no cover - eviction always progresses
            "batch step failed after evicting every scenario"
        )

    def _prims(self):
        return self._isolated(super()._prims)

    def _integrate(self, dt: float) -> None:
        """One shared step for the whole batch, isolated (the conserved
        state is only committed after a fully successful integrator step,
        so survivors never see a half-applied update)."""
        # Eviction can only slow the fastest signal (the parking fluid is
        # subsonic), so retrying with the same dt stays CFL-stable.
        self._isolated(super()._integrate, dt)

    def _record_extras(self) -> dict:
        return {"batch": {"n": self.n_batch, "active": self.n_active}}

    def _keep_running(self) -> bool:
        return bool(self.n_active)

    def state(self) -> dict:
        raise ConfigurationError("BatchSolver has no state pair")

    def install_state(self, state: dict) -> None:
        raise ConfigurationError("BatchSolver has no state pair")

    def write_checkpoint(self, path) -> None:
        raise ConfigurationError("BatchSolver has no checkpoint format")

    def _finish_run(self) -> dict:
        """Status summary: scenarios evicted mid-run are ``"failed"``, the
        survivors ``"ok"``."""
        for b, s in enumerate(self.status):
            if s == ACTIVE:
                self.status[b] = OK
        return {
            "steps": self.steps,
            "t": self.t,
            "status": list(self.status),
            "failures": dict(self.failures),
        }

    # bench/trace.py patches BatchSolver.__dict__[...]: bound here, not
    # inherited from Solver.
    step = Driver.step
    run = Driver.run
    compute_dt = Driver.compute_dt
