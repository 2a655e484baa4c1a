"""The HRSC step pipeline: recover -> reconstruct -> Riemann -> divergence.

:class:`HydroPipeline` owns the per-step numerical kernels and exposes the
right-hand side ``dU/dt = -div F`` used by the SSP integrators. Every driver
runs it on stacks: ``(P, nvars, *ghosted)`` arrays of P same-shape patches
(a unigrid or batch patch is a stack of one; rank sub-grids and AMR leaves
are grouped by :func:`patch_stacks`, the one grouping rule).  It is the
unit the heterogeneous runtime's performance model is calibrated against
(each stage is one "kernel").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from ..boundary.conditions import BoundarySet
from ..mesh.grid import Grid
from ..obs.metrics import MetricsRegistry
from ..physics.atmosphere import Atmosphere
from ..physics.con2prim import RecoveryStats, con_to_prim
from ..physics.srhd import SRHDSystem
from ..reconstruct import make_reconstruction
from ..riemann import make_riemann_solver
from ..time_integration.cfl import max_signal_per_axis
from ..time_integration.ssprk import combine_stage as _reference_stage
from ..utils.errors import ConfigurationError, RecoveryError
from ..utils.timers import TimerRegistry
from .config import ATMO_THRESHOLD, RECOVERY_TOL, SolverConfig
from .workspace import ScratchWorkspace, scratch_buf


#: Newton controls of every pipeline sweep: the interpreted ``con_to_prim``
#: and the compiled kernel are handed the same pair.
_NEWTON = {"p_floor": 1e-16, "max_newton": 50}


def resolve_kernel_system(system: SRHDSystem, target: str) -> SRHDSystem:
    """The system that runs *target*'s kernels for *system* — the one place
    outside :func:`~repro.codegen.system.make_kernel_system` that reads a
    target name.  Drivers that own many pipelines call it once and hand
    every pipeline the resolved system; resolving a resolved system is
    free.  Imported lazily: the default numpy path must not pay the SymPy
    import."""
    if target == "numpy":
        return system
    from ..codegen.system import make_kernel_system

    return make_kernel_system(system, target)


def _c_f64(*arrays) -> bool:
    """Whether the compiled kernels may walk *arrays* as they are."""
    return all(a.dtype == np.float64 and a.flags.c_contiguous for a in arrays)


class HydroPipeline:
    """Numerical kernels for a stack of same-shape grid patches.

    Parameters
    ----------
    system, grid, boundaries:
        Physics, mesh, and ghost-fill policy for the patch.  *system* is
        resolved against ``config.kernel_target`` (a no-op for one a driver
        already resolved); the resolved object decides the face-flux path.
    config:
        Numerical scheme selection.
    timers:
        Optional registry; when given, each kernel stage is timed (used for
        calibrating the heterogeneous performance model).
    metrics:
        Optional :class:`MetricsRegistry` the pipeline reports through
        (con2prim counters, atmosphere resets, face sanitizations). Drivers
        that own several pipelines pass one shared registry so the counters
        aggregate globally.
    fault_injector:
        Optional :class:`~repro.resilience.faults.FaultInjector` consulted
        once per recovery sweep: an injected con2prim burst forces a batch
        of cells through the same bounded atmosphere failsafe that real
        non-convergence takes (raising past ``config.failsafe_frac``).
    patches:
        The stack's ``(grid, boundaries)`` per patch, in order (the first is
        *grid*, *boundaries*, the default stack of one; every grid has its
        shape, ghosts and ``dx``; drivers build stacks through
        :func:`patch_stacks`).  Every stage takes and returns ``(P, nvars,
        *ghosted)`` stacks — any other array raises ``ConfigurationError``
        — and runs each compiled kernel once per call for all P patches;
        what is per patch (boundary fill, source term, Newton seed,
        fault-injector consult, recovery accounting, the interpreted paths)
        runs patch by patch, in order.
    """

    def __init__(
        self,
        system: SRHDSystem,
        grid: Grid,
        boundaries: BoundarySet,
        config: SolverConfig,
        timers: TimerRegistry | None = None,
        metrics: MetricsRegistry | None = None,
        fault_injector=None,
        patches=None,
    ):
        # Here as well as in the drivers that own many pipelines: this is
        # the construction point every driver and direct user goes through.
        self.system = system = resolve_kernel_system(system, config.kernel_target)
        self.grid = grid
        self.patches = [(grid, boundaries)] if patches is None else list(patches)
        #: ``(patch, grid, walls)`` of every patch with a face to fill: the
        #: recovery's boundary fill visits these faces and no other — a
        #: fully neighboured rank makes no call
        self._walls = [
            (i, g, walls)
            for i, (g, bcs) in enumerate(self.patches)
            if (walls := bcs.walls(g.ndim))
        ]
        #: the shape of every stack this pipeline takes and returns
        self._state_shape = (len(self.patches), system.nvars) + grid.shape_with_ghosts
        self.config = config
        self.reconstruction = make_reconstruction(config.reconstruction)
        self.riemann = make_riemann_solver(config.riemann)
        self.atmosphere = Atmosphere(
            rho_atmo=config.rho_atmo,
            threshold_factor=ATMO_THRESHOLD,
            p_atmo=config.p_atmo,
        )
        if grid.n_ghost < self.reconstruction.required_ghosts:
            raise ConfigurationError(
                f"grid has {grid.n_ghost} ghost layers but "
                f"{config.reconstruction} needs {self.reconstruction.required_ghosts}"
            )
        self.timers = timers if timers is not None else TimerRegistry()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: dispatch ids (recon, limiter, riemann) of the compiled face-flux
        #: sweep, fixed here: set iff the system carries one (only a
        #: CompiledSRHDSystem does); None runs the interpreted
        #: reconstruct/sanitize/riemann stages.
        self._fused_ids = None
        if hasattr(system, "face_flux"):
            from ..codegen.system import stencil_scheme_ids

            self._fused_ids = stencil_scheme_ids(self.reconstruction, self.riemann)
        elif config.kernel_target == "cext":
            # The target's one fallback (logged by make_kernel_system).
            self.metrics.counter("codegen.target_fallbacks").inc()
        #: the compiled recovery sweep, CFL scan and update stage, fixed here
        #: like the sweep: None (no such hook) runs the interpreted passes.
        self._recover_kernel = getattr(system, "recover", None)
        self._max_signal_kernel = getattr(system, "max_signal", None)
        self._accumulate_kernel = getattr(system, "accumulate", None)
        self._rk_stage_kernel = getattr(system, "rk_stage", None)
        self.fault_injector = fault_injector
        if fault_injector is not None and fault_injector.metrics is None:
            fault_injector.metrics = self.metrics
        #: preallocated kernel buffers for the hot path (one per pipeline, so
        #: per-stack reuse is safe); setting it to None
        #: makes every call allocate fresh arrays (bit-identical; tests).
        self.workspace = ScratchWorkspace(grid, system.nvars, len(self.patches))
        # Pressure cache seeds the next con2prim Newton solve: the patches'
        # interiors back to back along axis 0 (the layout the compiled sweep
        # takes; patch i's are rows _seed_rows(i)), read where _warm is set
        # (a patch without one starts cold).  Private: a sweep writes the
        # next seeds into _seed_spare and the two swap, so no array handed
        # out may alias either.
        self._p_cache: np.ndarray | None = None
        self._seed_spare: np.ndarray | None = None
        self._warm = [False] * len(self.patches)
        #: when True, flux_divergence stashes the interior face fluxes per
        #: axis in :attr:`last_face_fluxes` (used by AMR refluxing).
        self.store_fluxes = False
        #: optional source term ``(system, grid, prim, t) -> dU_interior``
        #: added to the flux divergence (external forces, heating, ...)
        self.source_fn = None
        #: time passed to source_fn; the owning solver keeps it current
        self.time = 0.0
        #: per-axis face fluxes of the last divergence evaluation, shaped
        #: (nvars, *transverse_interior, n_axis + 1) with the face index last
        self.last_face_fluxes: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------

    def warm_state(self, patch: int = 0) -> np.ndarray | None:
        """The Newton seed ``p_cache`` of *patch* (an owned copy): with the
        patch's conserved array, everything the bits of its next recovery
        sweep depend on.  Every capture/install pair (checkpoints,
        supervision snapshots, block migration) moves a patch as
        ``(cons, warm_state())``."""
        if not self._warm[patch]:
            return None
        return self._p_cache[self._seed_rows(patch)].copy()

    def install_warm_state(self, p_cache, patch: int = 0) -> None:
        """Install *patch*'s seed (copied); None — or a seed shaped unlike
        the patch interior, which no sweep could read — starts it cold."""
        warm = p_cache is not None and np.shape(p_cache) == self.grid.shape
        if warm:
            if self._p_cache is None:
                self._p_cache = self._new_seeds()
            self._p_cache[self._seed_rows(patch)] = p_cache
        self._warm[patch] = warm

    def face_fluxes(self, patch: int = 0) -> dict[int, np.ndarray]:
        """*patch*'s part of :attr:`last_face_fluxes` (views): per axis,
        ``(nvars, *transverse_interior, n + 1)`` with the face index last."""
        return {ax: f[:, patch] for ax, f in self.last_face_fluxes.items()}

    def _new_seeds(self) -> np.ndarray:
        """An unfilled seed array: the patches' interiors back to back."""
        shape = self.grid.shape
        return np.empty((len(self.patches) * shape[0],) + shape[1:])

    def _seed_rows(self, patch: int) -> slice:
        """Patch *patch*'s rows of a seed array (interiors back to back)."""
        n = self.grid.shape[0]
        return slice(patch * n, (patch + 1) * n)

    def _expect_stack(self, a: np.ndarray, stage: str) -> None:
        """Refuse an *a* that is not this pipeline's stack: the interpreted
        loops would walk its leading axis as patches."""
        if a.shape != self._state_shape:
            raise ConfigurationError(
                f"{stage} takes this pipeline's stack {self._state_shape}, "
                f"got an array shaped {a.shape}"
            )

    def _flat(self, a: np.ndarray) -> np.ndarray:
        """A C-contiguous stack (or a stack of one's patch) as its patches
        back to back, ``(P * nvars, *ghosted)``: what the row kernels walk."""
        return a.reshape((-1,) + self.grid.shape_with_ghosts)

    def recover_primitives(self, cons: np.ndarray, reuse: bool = False) -> np.ndarray:
        """Full primitive array: recovery on the interior + BC ghost fill.

        With ``reuse=True`` (the hot path) the returned array and the
        recovery temporaries live in the pipeline workspace and are
        overwritten by the next reusing call; the default returns fresh
        arrays the caller may keep (e.g. the solver's primitive cache).
        Values are bit-identical either way.
        """
        system = self.system
        self._expect_stack(cons, "recover_primitives")
        ws = self.workspace if reuse else None
        prim = ws.prim if ws is not None else np.empty(self._state_shape)
        prim.fill(0.0)  # ghost corners: neither the sweep nor a boundary fill writes them
        if self._seed_spare is None:
            self._seed_spare = self._new_seeds()
        with self.timers("con2prim"):
            # Three stages per patch: conserved floors, interior solve,
            # primitive floor + next seed.  The compiled kernel completes
            # the first `done[i]` of patch i's; the interpreted code runs
            # the rest, patch by patch.  A raise commits no seed.
            sweeps = [RecoveryStats() for _ in self.patches]
            done = self._recover_compiled(cons, prim, sweeps)
            # A patch the kernel completed leaves only its accounting: those
            # up to a raise are recorded once, merged.
            completed = []
            try:
                for i, patch_done in enumerate(done):
                    if patch_done == 3:
                        completed.append(sweeps[i])
                    else:
                        self._finish_recovery(i, cons, prim, patch_done, sweeps[i], ws)
            finally:
                if completed:
                    self._record_recovery(*completed)
            self._p_cache, self._seed_spare = self._seed_spare, self._p_cache
            self._warm = [True] * len(self.patches)
        with self.timers("boundary"):
            for i, grid, walls in self._walls:
                for axis, side, condition in walls:
                    condition.apply(system, grid, prim[i], axis, side)
        return prim

    def _finish_recovery(self, i, cons, prim, done, sweep, ws):
        """The stages of patch *i*'s sweep (*cons* → *prim*, this
        pipeline's stacks) the kernel left (``done < 3``) — all of them on
        the interpreted path: floors, solve, burst hook, accounting,
        primitive floor, next seed."""
        system = self.system
        grid = self.patches[i][0]
        cons, prim = cons[i], prim[i]
        interior_cons, interior_prim = grid.interior_of(cons), grid.interior_of(prim)
        if done < 1:
            cons_mask = self.atmosphere.apply_cons(system, cons)
            if cons_mask.any():
                self.metrics.counter("atmo.cons_floored").inc(int(cons_mask.sum()))
            self._limit_momentum(cons, ws)
        try:
            if done < 2:
                con_to_prim(
                    system,
                    interior_cons,
                    p_guess=self._p_cache[self._seed_rows(i)] if self._warm[i] else None,
                    tol=RECOVERY_TOL,
                    stats=sweep,
                    failsafe_frac=self.config.failsafe_frac,
                    atmosphere=(self.atmosphere.rho_atmo, self.atmosphere.p_atmo),
                    scratch=ws,
                    out=interior_prim,
                    **_NEWTON,
                )
            if self.fault_injector is not None:
                self._maybe_inject_burst(interior_cons, interior_prim)
        finally:
            # con_to_prim populates the sweep counters before raising,
            # so the failing sweep is accounted for too.
            self._record_recovery(sweep)
        if done < 3:
            prim_mask = self.atmosphere.apply_prim(system, interior_prim)
            if prim_mask.any():
                self.metrics.counter("atmo.prim_reset").inc(int(prim_mask.sum()))
            self._seed_spare[self._seed_rows(i)] = interior_prim[system.P]

    def _recover_compiled(self, cons, prim, sweeps) -> list[int]:
        """Run the compiled recovery sweep over the stack *cons*, if this
        pipeline has one, and return per patch how many stages it
        completed — the one cold-path rule:

        - 0: no kernel (``numpy``/``flat``), or *cons* is not C-contiguous
          float64 — every patch.  It is never copied contiguous: the floors
          are in place.
        - 1: some cell of the patch did not converge (or is not finite).
          Its *cons* is floored and capped, counted once, and nothing else
          is committed — ``_limit_momentum`` is not bitwise idempotent, so
          the floors must not run again; the interpreted solve recomputes
          the same Newton bits, then bisects, failsafes or raises as it
          always did.  The other patches are unaffected.
        - 2: a fault injector is attached.  The solve is in *prim* and the
          patch's sweep stats; the burst hook sits between it and the
          primitive floor (a burst cell is counted by ``atmo.prim_reset``
          and its ``p_atmo`` lands in the seed), so those stay interpreted.
        - 3: everything, the next seed included.
        """
        kernel = self._recover_kernel
        if kernel is None or not _c_f64(cons):
            return [0] * len(self.patches)
        atmo, warm = self.atmosphere, self._warm
        solve_only = self.fault_injector is not None
        counts = kernel(
            self._flat(cons), self._flat(prim), self.grid.n_ghost,
            self._p_cache if any(warm) else None, self._seed_spare,
            n_patches=len(warm),
            warm=None if all(warm) else np.array(warm, dtype=np.uint8),
            tol=RECOVERY_TOL, **_NEWTON,
            rho_atmo=atmo.rho_atmo, p_atmo=atmo.p_atmo,
            rho_reset=atmo.threshold_factor * atmo.rho_atmo,
            vmax=float(np.sqrt(1.0 - 1.0 / self.config.w_max**2)),
            solve_only=solve_only,
        )
        n_interior = self._seed_spare.size // len(warm)
        done, floored, rescaled, prim_reset = [], 0, 0, 0
        for sweep, (f, r, unconverged, iters_max, reset) in zip(sweeps, counts.tolist()):
            floored += f
            rescaled += r
            if unconverged:
                done.append(1)
                continue
            sweep.n_cells = sweep.n_newton_converged = n_interior
            sweep.max_iterations = iters_max
            done.append(2 if solve_only else 3)
            prim_reset += reset
        if floored:
            self.metrics.counter("atmo.cons_floored").inc(floored)
        if rescaled:
            self.metrics.counter("limiter.momentum_rescaled").inc(rescaled)
        if prim_reset:
            self.metrics.counter("atmo.prim_reset").inc(prim_reset)
        return done

    def _record_recovery(self, *sweeps: RecoveryStats) -> None:
        """Report con2prim sweeps' counters through the metrics layer, summed
        — the record of reporting each sweep alone, byte for byte (every
        count is an integer)."""
        m = self.metrics
        m.counter("con2prim.cells").inc(sum(s.n_cells for s in sweeps))
        m.counter("con2prim.newton_converged").inc(sum(s.n_newton_converged for s in sweeps))
        m.counter("con2prim.bisection").inc(sum(s.n_bisection for s in sweeps))
        m.counter("con2prim.failed").inc(sum(s.n_failed for s in sweeps))
        m.counter("con2prim.unbracketed").inc(sum(s.n_unbracketed for s in sweeps))
        failsafe = sum(s.n_failsafe for s in sweeps)
        if failsafe:
            m.counter("resilience.failsafe_cells").inc(failsafe)
        iters = Counter(s.max_iterations for s in sweeps)
        m.gauge("con2prim.max_newton_iters").max(max(iters))
        # Tail analysis works off the full distribution of per-sweep maxima,
        # not just the running maximum the gauge keeps: one observation per
        # sweep. (The name says _max: this is the sweep's worst cell, not a
        # per-cell distribution.)
        hist = m.histogram("con2prim.newton_iters_max")
        for value, n in iters.items():
            hist.observe(value, n)

    def _maybe_inject_burst(
        self, interior_cons: np.ndarray, interior_prim: np.ndarray
    ) -> None:
        """Apply an injected con2prim non-convergence burst, if scheduled.

        The burst takes exactly the path real unrecoverable cells take:
        within the ``failsafe_frac`` budget the cells are atmosphere-reset
        (cons and prim together) and counted; past the budget the sweep
        raises :class:`RecoveryError`.
        """
        from ..physics.con2prim import reset_cells_to_atmosphere

        n_cells = interior_prim[0].size
        n_burst = self.fault_injector.con2prim_burst(n_cells)
        if not n_burst:
            return
        if n_burst > self.config.failsafe_frac * n_cells:
            raise RecoveryError(
                f"injected con2prim burst of {n_burst} cells exceeds the "
                f"failsafe budget ({self.config.failsafe_frac} of {n_cells})",
                n_failed=n_burst,
                indices=self.fault_injector.burst_indices(n_burst, n_cells),
            )
        indices = self.fault_injector.burst_indices(n_burst, n_cells)
        reset_cells_to_atmosphere(
            self.system,
            interior_cons,
            interior_prim,
            indices,
            (self.atmosphere.rho_atmo, self.atmosphere.p_atmo),
        )
        self.metrics.counter("resilience.failsafe_cells").inc(int(indices.size))

    def _limit_momentum(self, cons: np.ndarray, scratch=None) -> None:
        """Rescale S_i so the recovered velocity respects the W_max cap.

        Admissibility of con2prim requires |S| < tau + D + p; transient
        update overshoots can violate the sharper |S| <= v_max (tau + D + p)
        bound, which would force the recovery toward W -> W_max runaways.
        Rescaling the momentum (the WhiskyMHD/IllinoisGRMHD-style fix) keeps
        the state recoverable without touching D or tau.  *scratch* supplies
        the full-array temporaries; values are bit-identical either way.
        """
        system = self.system
        cell = cons.shape[1:]
        S2 = scratch_buf(scratch, ("cap", "S2"), cell)
        sq = scratch_buf(scratch, ("cap", "sq"), cell)
        S2.fill(0.0)
        for ax in range(system.ndim):
            np.square(cons[system.S(ax)], out=sq)
            S2 += sq
        vmax = np.sqrt(1.0 - 1.0 / self.config.w_max**2)
        # smax = vmax * (tau + D + p_atmo)
        smax = scratch_buf(scratch, ("cap", "smax"), cell)
        np.add(cons[system.TAU], cons[system.D], out=smax)
        smax += self.atmosphere.p_atmo
        smax *= vmax
        np.square(smax, out=sq)
        bad = np.greater(S2, sq, out=scratch_buf(scratch, ("cap", "bad"), cell, bool))
        if bad.any():
            self.metrics.counter("limiter.momentum_rescaled").inc(int(bad.sum()))
            scale = smax[bad] / np.sqrt(S2[bad])
            for ax in range(system.ndim):
                cons[system.S(ax)][bad] *= scale

    def sanitize_face_states(self, q: np.ndarray) -> np.ndarray:
        """Repair reconstructed face states in place and return them.

        Componentwise reconstruction limits each velocity component against
        its own neighbours, but the *magnitude* |v|^2 = sum v_i^2 can still
        overshoot past 1 near strong multidimensional shocks. Rescale such
        velocities to just below light speed and floor rho and p — the
        standard fix in production relativistic codes.
        """
        system = self.system
        v2 = np.zeros_like(q[0])
        for ax in range(system.ndim):
            v2 += q[system.V(ax)] ** 2
        # Cap the Lorentz factor at W_max: reconstruction overshoots past
        # this are numerical artifacts, and letting them through produces
        # runaway fluxes long before anything is superluminal.
        vmax2 = 1.0 - 1.0 / self.config.w_max**2
        bad = v2 > vmax2
        if bad.any():
            self.metrics.counter("sanitize.velocity_rescaled").inc(int(bad.sum()))
            scale = np.sqrt(vmax2 / v2[bad])
            for ax in range(system.ndim):
                q[system.V(ax)][bad] *= scale
        n_floored = int(
            (q[system.RHO] < self.atmosphere.rho_atmo).sum()
            + (q[system.P] < self.atmosphere.p_atmo).sum()
        )
        if n_floored:
            self.metrics.counter("sanitize.floored").inc(n_floored)
        np.maximum(q[system.RHO], self.atmosphere.rho_atmo, out=q[system.RHO])
        np.maximum(q[system.P], self.atmosphere.p_atmo, out=q[system.P])
        return q

    def begin_flux_divergence(self, reuse: bool = False) -> np.ndarray:
        """Zeroed divergence accumulator for a (possibly region-split)
        evaluation; ghost entries stay zero throughout."""
        if reuse and self.workspace is not None:
            dU = self.workspace.dU
            dU.fill(0.0)
            return dU
        return np.zeros(self._state_shape)

    def flux_divergence_region(
        self, prim: np.ndarray, axis: int, lo: int, hi: int, reuse: bool = False
    ) -> np.ndarray:
        """Flux divergence along *axis* for interior cells ``[lo, hi)``.

        The slab handed to reconstruction keeps the full (ghosted)
        transverse extent and spans ghosted coordinates ``[lo, hi + 2g)``
        along *axis*, so every face value is produced by exactly the same
        elementwise operations as the full sweep — a region's divergence is
        bit-identical to the matching slice of the whole-axis result.  That
        is the property the overlapped solver's interior/strip split rests
        on: the core region (``lo >= g`` from any neighboured face) reads no
        halo ghosts at all.

        Returns the divergence shaped ``(nvars, P, *transverse_interior,
        hi - lo)`` with the working axis moved last — patch *i*'s at
        ``[:, i]`` — and hand it to :meth:`accumulate_divergence`.  With
        ``reuse=True`` the result lives in a workspace buffer keyed by
        ``(axis, lo, hi)`` and survives until the same region is evaluated
        again.
        """
        grid = self.grid
        self._expect_stack(prim, "flux_divergence_region")
        ws = self.workspace if reuse else None
        g = grid.n_ghost
        store = self.store_fluxes and (lo, hi) == (0, grid.shape[axis])
        shape = (self.system.nvars, len(self.patches)) + tuple(
            n for ax, n in enumerate(grid.shape) if ax != axis
        )
        div = scratch_buf(ws, ("div", axis, lo, hi), shape + (hi - lo,))
        # Stored fluxes are a fresh array, never workspace memory.
        flux = np.empty(shape + (hi - lo + 1,)) if store else None
        if self._fused_ids is not None:
            # Compiled path: one C sweep of every patch replaces reconstruct
            # + sanitize + riemann + difference, bit-identical to the
            # interpreted stages below.
            with self.timers("face_flux"):
                self._fused_sweep(prim, axis, lo, hi, None, flux, div)
        else:
            # Slice transverse axes to the interior, difference along axis.
            sel = [slice(None)]
            for ax in range(grid.ndim):
                if ax != axis:
                    sel.append(slice(g, g + grid.shape[ax]))
            for i, patch_prim in enumerate(prim):
                Fm = self._interpreted_face_flux(patch_prim, axis, lo, hi, ws)
                with self.timers("update"):
                    Fm = Fm[tuple(sel)]
                    if store:
                        flux[:, i] = Fm
                    d = div[:, i]
                    np.subtract(Fm[..., 1:], Fm[..., :-1], out=d)
                    np.divide(d, self.patches[i][0].dx[axis], out=d)
        if store:
            self.last_face_fluxes[axis] = flux
        return div

    def _interpreted_face_flux(
        self, prim: np.ndarray, axis: int, lo: int, hi: int, ws
    ) -> np.ndarray:
        """Face fluxes of one patch's *prim* ``(nvars, *ghosted)`` via the
        interpreted reconstruct/sanitize/riemann stages; returns them with
        the face index last (ghosted transverse extent kept)."""
        grid, system = self.grid, self.system
        g = grid.n_ghost
        slab_idx = [slice(None)] * (grid.ndim + 1)
        slab_idx[axis + 1] = slice(lo, hi + 2 * g)
        slab = prim[tuple(slab_idx)]
        face_shape = (
            ws.region_face_shape(axis, hi - lo)
            if ws is not None
            else (system.nvars,)
            + tuple(
                hi - lo + 1 if ax == axis else grid.shape_with_ghosts[ax]
                for ax in range(grid.ndim)
            )
        )
        with self.timers("reconstruct"):
            qL, qR = self.reconstruction.interface_states(
                slab,
                axis,
                g,
                out=(
                    scratch_buf(ws, ("faces", axis, "L", lo, hi), face_shape),
                    scratch_buf(ws, ("faces", axis, "R", lo, hi), face_shape),
                ),
                scratch=ws,
            )
            self.sanitize_face_states(qL)
            self.sanitize_face_states(qR)
        with self.timers("riemann"):
            F = self.riemann.flux(
                system, qL, qR, axis,
                out=scratch_buf(ws, ("flux", axis, lo, hi), face_shape),
                scratch=ws,
            )
        return np.moveaxis(F, axis + 1, -1)

    def _fused_face_flux(
        self, prim: np.ndarray, axis: int, lo: int, hi: int, ws
    ) -> np.ndarray:
        """Face fluxes of the compiled sweep over a stack of one, given as
        its patch *prim*, in the layout of :meth:`_interpreted_face_flux`
        (faces last, ghosted transverse): what the parity suite compares.
        The hot path never materialises them —
        :meth:`flux_divergence_region` differences in-tile."""
        offs = self._face_row_offsets(prim, axis)
        out = np.empty((self.system.nvars, offs.size, hi - lo + 1))
        self._fused_sweep(prim, axis, lo, hi, offs, out, None)
        transverse = tuple(n for ax, n in enumerate(prim.shape[1:]) if ax != axis)
        return out.reshape((self.system.nvars,) + transverse + (hi - lo + 1,))

    def _fused_sweep(self, prim, axis, lo, hi, rows, flux, div) -> None:
        """One compiled sweep of faces ``lo .. hi`` along *axis* of every
        patch: *rows* (ghosted-row offsets) written in place, or with None
        every ghosted row swept — so the sanitize counter totals match the
        interpreted path exactly — and the interior ones written."""
        g = self.grid.n_ghost
        # C walks raw offsets: a strided prim is copied (same bytes).
        prim = np.ascontiguousarray(prim)
        counts = self.system.face_flux(
            self._flat(prim), axis, rows, lo + g - 1, hi - lo + 1, flux,
            ids=self._fused_ids,
            vmax2=1.0 - 1.0 / self.config.w_max**2,
            rho_atmo=self.atmosphere.rho_atmo,
            p_atmo=self.atmosphere.p_atmo,
            axis_stride=prim.strides[axis - self.grid.ndim] // prim.itemsize,
            n_ghost=g, div=div, dx=self.grid.dx[axis], n_patches=len(self.patches),
        )
        if counts[0]:
            self.metrics.counter("sanitize.velocity_rescaled").inc(int(counts[0]))
        if counts[1]:
            self.metrics.counter("sanitize.floored").inc(int(counts[1]))

    def _face_row_offsets(self, prim: np.ndarray, axis: int) -> np.ndarray:
        """Flattened element offsets of every ghosted transverse row, in C
        order — the rows the interpreted slab sweep covers."""
        from ..codegen.cext import sweep_rows

        return sweep_rows(prim.shape[1:], self.grid.n_ghost, axis)[0]

    def accumulate_divergence(
        self, dU: np.ndarray, axis: int, lo: int, hi: int, div: np.ndarray
    ) -> None:
        """Subtract a region's divergence (from
        :meth:`flux_divergence_region`) into *dU*.

        Callers that split an axis into regions must apply *all* of a cell's
        axis contributions in ascending axis order — the overlapped solver
        defers every accumulation to one sorted pass — because with three or
        more terms (3-D) floating-point accumulation order changes the
        result bitwise.
        """
        self._expect_stack(dU, "accumulate_divergence")
        with self.timers("update"):
            if self._accumulate_kernel is not None and _c_f64(dU, div):
                self._accumulate_kernel(
                    self._flat(dU), axis, self.grid.n_ghost, lo, hi, div,
                    len(self.patches),
                )
                return
            idx = [slice(None)] * (self.grid.ndim + 1)
            idx[axis + 1] = slice(lo, hi)
            for i, patch_dU in enumerate(dU):
                target = np.moveaxis(self.grid.interior_of(patch_dU)[tuple(idx)], axis + 1, -1)
                target -= div[:, i]

    def combine_stage(self, stage, U, V, dt, k, final=False) -> np.ndarray:
        """One SSP-RK stage combination of this stack — the *combine* every
        driver hands its integrator, timed as the ``update`` kernel it is:
        :func:`~repro.time_integration.ssprk.combine_stage`, or the same
        arithmetic in one compiled pass when the system carries it and the
        arrays are C-contiguous float64 (never copied to make them so).  An
        intermediate state goes to the workspace buffer *V* does not occupy;
        the *final* one — the driver commits it, callers may hold it — is a
        fresh array."""
        with self.timers("update"):
            kernel = self._rk_stage_kernel
            if kernel is None or not _c_f64(U, V, k) or not U.shape == V.shape == k.shape:
                return _reference_stage(stage, U, V, dt, k)
            if final or self.workspace is None:
                out = np.empty_like(U)
            else:
                out = self.workspace.buf(("rk", 0), U.shape)
                if out is V:
                    out = self.workspace.buf(("rk", 1), U.shape)
            kernel(stage, U, V, dt, k, out)
            return out

    def flux_divergence(self, prim: np.ndarray, reuse: bool = False) -> np.ndarray:
        """-div F over the interior; ghost entries of the result are zero.

        With ``reuse=True`` the result is the workspace's ``dU`` buffer
        (overwritten by the next reusing call) and every kernel stage runs
        in preallocated buffers; the default allocates fresh arrays.
        AMR refluxing stays safe under reuse: :attr:`last_face_fluxes`
        never holds workspace memory.
        """
        dU = self.begin_flux_divergence(reuse)
        # The physics' axes: a batched grid's trailing axis is never swept.
        for axis in range(self.system.ndim):
            n = self.grid.shape[axis]
            div = self.flux_divergence_region(prim, axis, 0, n, reuse=reuse)
            self.accumulate_divergence(dU, axis, 0, n, div)
        return dU

    def apply_source(self, prim: np.ndarray, dU: np.ndarray, time: float | None = None):
        """Add ``source_fn`` (evaluated at *time*, default :attr:`time`) to *dU*.

        Shared by every driver (unigrid, distributed, AMR) so the stage-time
        plumbing has one implementation; each patch of a stack sees its own
        grid (coordinates).
        """
        if self.source_fn is None:
            return dU
        with self.timers("source"):
            t = self.time if time is None else time
            for (grid, _), patch_prim, patch_dU in zip(self.patches, prim, dU):
                src = self.source_fn(self.system, grid, grid.interior_of(patch_prim), t)
                grid.interior_of(patch_dU)[...] += src
        return dU

    def rhs(self, cons: np.ndarray, reuse: bool = True) -> np.ndarray:
        """dU/dt for the SSP integrators (cons may be floored in place).

        By default the result lives in the pipeline workspace and is valid
        until the next ``rhs``/``recover_primitives`` call — exactly the
        lifetime the SSP integrators need, since each stage consumes the
        previous rhs before requesting the next. Pass ``reuse=False`` for
        a caller-owned array.
        """
        prim = self.recover_primitives(cons, reuse=reuse)
        dU = self.flux_divergence(prim, reuse=reuse)
        return self.apply_source(prim, dU)

    def max_signal_per_axis(self, prim: np.ndarray) -> list:
        """Largest |characteristic speed| per physical axis over the
        interior of each patch of the stack *prim*, one list per patch — the
        scan every driver's ``compute_dt`` reduces: one compiled pass when
        the system carries one, the interpreted
        :func:`~repro.time_integration.cfl.max_signal_per_axis` otherwise."""
        self._expect_stack(prim, "max_signal_per_axis")
        kernel = self._max_signal_kernel
        if kernel is None or not _c_f64(prim):
            return [
                max_signal_per_axis(self.system, grid, patch_prim)
                for (grid, _), patch_prim in zip(self.patches, prim)
            ]
        return kernel(self._flat(prim), self.grid.n_ghost, len(self.patches))


@dataclass
class PatchStack:
    """Patches stepped as one ``(P, nvars, *ghosted)`` array: their idents
    in order, the one pipeline every kernel call of the stack goes through,
    and the regions the driver keyed them on."""

    idents: tuple
    pipeline: HydroPipeline
    regions: tuple


class PatchViews(dict):
    """``{ident: view}`` of one array per stack, which it keeps as
    :attr:`stacks` — what the kernels take — in stack order."""

    stacks: list

    @classmethod
    def of(cls, stacks: list[PatchStack], arrays) -> "PatchViews":
        views = cls((ident, a[p]) for st, a in zip(stacks, arrays) for p, ident in enumerate(st.idents))
        views.stacks = list(arrays)
        return views


def patch_stacks(system, config, patches, kept=(), **pipeline_kw) -> list[PatchStack]:
    """The one stacking rule: of *patches*, ``(ident, grid, boundaries,
    regions)`` in stepping order, every maximal run alike in shape, ``dx``
    (each patch's divergence is divided by its own, and grids of an inexact
    spacing differ in its last bit) and *regions* is one stack.  Runs, so
    stack after stack, patch after patch is the patches' order, which every
    order-sensitive per-patch step (fault-injector consults, which
    RecoveryError is raised first) keeps.  A stack of *kept* with the same
    idents is reused, pipeline and all; any other run gets a new one."""
    reuse = {st.idents: st for st in kept}
    stacks = []
    for (*_, regions), run in groupby(patches, lambda p: (p[1].shape, p[1].dx, p[3])):
        run = list(run)
        idents = tuple(ident for ident, *_ in run)
        if idents not in reuse:
            members = [(grid, bcs) for _, grid, bcs, _ in run]
            pipeline = HydroPipeline(system, *members[0], config, patches=members, **pipeline_kw)
            reuse[idents] = PatchStack(idents, pipeline, regions)
        stacks.append(reuse[idents])
    return stacks


def recover_stacks(stacks: list[PatchStack], states, reuse: bool = False) -> PatchViews:
    """Each stack state's primitives, one recovery sweep per stack."""
    return PatchViews.of(stacks, [
        st.pipeline.recover_primitives(U, reuse=reuse) for st, U in zip(stacks, states)
    ])
