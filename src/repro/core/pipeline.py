"""The HRSC step pipeline: recover -> reconstruct -> Riemann -> divergence.

:class:`HydroPipeline` owns the per-step numerical kernels and exposes the
right-hand side ``dU/dt = -div F`` used by the SSP integrators. Every driver
runs it on stacks: ``(P, nvars, *ghosted)`` arrays of P same-shape patches
(a unigrid or batch patch is a stack of one; rank sub-grids and AMR leaves
are grouped by :func:`patch_stacks`, the one grouping rule).  It is the
unit the heterogeneous runtime's performance model is calibrated against
(each stage is one "kernel").

A sweep visits the interior transverse rows only (no corner ghost is
read), and nothing is zero-filled per call: the first axis's
:meth:`HydroPipeline.accumulate_divergence` assigns ``dU``'s interior.
On ``cext`` the CFL scan rides the recovery: a fresh compiled recovery
scans the rows it recovered, and :meth:`HydroPipeline.max_signal_per_axis`
of that array reads its maxima.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, groupby

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
from ..utils.errors import CodegenError, ConfigurationError, RecoveryError
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
        shape and ghosts, and its own ``dx``, which :attr:`dx` holds as
        data; drivers build stacks through :func:`patch_stacks`).  Every
        stage takes and returns ``(P, nvars, *ghosted)`` stacks — any other
        array raises ``ConfigurationError`` — and runs each compiled kernel
        once per call for all P patches; what is per patch (boundary fill,
        source term, Newton seed, fault-injector consult, recovery
        accounting, the interpreted paths) runs patch by patch, in order.
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
        #: fully neighboured rank makes no call.  Physical axes only: a
        #: batch's ghost columns keep their initial fill, which no sweep,
        #: recovery or scan reads
        self._walls = [
            (i, g, walls)
            for i, (g, bcs) in enumerate(self.patches)
            if (walls := bcs.walls(system.ndim))
        ]
        #: the shape of every stack this pipeline takes and returns
        self._state_shape = (len(self.patches), system.nvars) + grid.shape_with_ghosts
        #: every patch's spacing along the swept (physical) axes, axis-major
        #: ``(ndim, P)``, each row contiguous (what the compiled sweep
        #: reads): each patch's divergence and CFL bound divide by its own
        self.dx = np.array([g.dx[: system.ndim] for g, _ in self.patches]).T.copy()
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
        #: ``(registry generation, *instruments)`` of :meth:`_record_recovery`,
        #: resolved at the first recovery sweep and after a restore
        self._c2p_instruments = None
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
        self.fault_injector = fault_injector
        if fault_injector is not None and fault_injector.metrics is None:
            fault_injector.metrics = self.metrics
        #: preallocated kernel buffers for the hot path (one per pipeline, so
        #: per-stack reuse is safe)
        self.workspace = ws = ScratchWorkspace(grid, system.nvars, len(self.patches))
        # Pressure cache seeds the next con2prim Newton solve: the patches'
        # interiors back to back along axis 0 (the layout the compiled sweep
        # takes; patch i's are rows _seed_rows(i)), read where _warm is set
        # (a patch without one starts cold).  Private: a sweep writes the
        # next seeds into _seed_spare and the two swap, so no array handed
        # out may alias either.
        self._p_cache, self._seed_spare = self._new_seeds(), self._new_seeds()
        self._warm = np.zeros(len(self.patches), dtype=np.uint8)
        #: the compiled recovery's CFL scan, one row per patch, and
        #: ``(weak reference to prim, patches it did not complete)`` of the
        #: last fresh compiled recovery, whose maxima the other rows hold;
        #: dropped by the next recovery.  Weak: it never keeps a recovered
        #: array alive.
        self._scanned = np.empty((len(self.patches), system.ndim))
        self._scan = None
        #: the compiled recovery (bound on first use) and stage combination
        #: bound to this stack's buffers, and the two workspace buffers RK
        #: intermediates take turns in; None (no such hook) runs the
        #: interpreted passes
        self._recover_call = self._rk_call = None
        if hasattr(system, "rk_stage"):
            shape = self._state_shape
            self._rk = (ws.buf(("rk", 0), shape), ws.buf(("rk", 1), shape))
            self._rk_call = system.bind_rk_stage(shape, ws.dU, *self._rk)
        #: ``(axis, lo, hi) -> [div, sweep, accumulate]`` (:meth:`_region`)
        self._regions: dict = {}
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

    def recover_primitives(self, cons: np.ndarray, reuse: bool = False) -> np.ndarray:
        """Full primitive array: recovery on the interior + BC ghost fill.

        With ``reuse=True`` (the hot path) the returned array lives in the
        pipeline workspace and is overwritten by the next reusing call;
        the default returns a fresh one the caller may keep (e.g. the
        solver's primitive cache); the temporaries are the workspace's
        either way.  Ghost corners, which neither the sweep nor a boundary
        fill writes and no sweep reads, are not zero-filled: a fresh
        array's are zeros from allocation.  A fresh array's CFL scan rides
        a compiled sweep: :meth:`max_signal_per_axis` of it reads the
        maxima the kernel computed.
        """
        system = self.system
        self._expect_stack(cons, "recover_primitives")
        self._scan = None
        prim = self.workspace.prim if reuse else np.zeros(self._state_shape)
        # Only a fresh array outlives the next recovery, so only it is
        # scanned — and not with a fault injector, whose burst precedes the
        # primitive floor the scan follows.
        scan = not reuse and self.fault_injector is None
        with self.timers("con2prim"):
            # Three stages per patch: conserved floors, interior solve,
            # primitive floor + next seed.  The compiled kernel completes
            # the first `done[i]` of patch i's; the interpreted code runs
            # the rest, patch by patch.  A raise commits no seed.
            counts, complete = self._recover_compiled(cons, prim, scan)
            if complete:
                # Every patch completed: only their accounting is left (all
                # cells by Newton), merged, and the scan holds every patch.
                n = self._seed_spare.size
                self._record_recovery(counts[:, 3].tolist(), RecoveryStats(n, n))
                rest = ()
            else:
                rest = self._recover_patches(cons, prim, counts)
            self._p_cache, self._seed_spare = self._seed_spare, self._p_cache
            self._warm.fill(1)
        if scan and counts is not None:
            self._scan = (weakref.ref(prim), rest)
        with self.timers("boundary"):
            for i, grid, walls in self._walls:
                for axis, side, condition in walls:
                    condition.apply(system, grid, prim[i], axis, side)
        return prim

    def _recover_patches(self, cons, prim, counts) -> list:
        """The stages of a sweep the kernel left (*counts* its rows, None: it
        did not run), patch by patch; returns the patches it did not
        complete.  Those it completed leave only their accounting: up to a
        raise, recorded once, merged."""
        done, iters = [0] * len(self.patches), [0] * len(self.patches)
        if counts is not None:
            solved = 2 if self.fault_injector is not None else 3
            for i, (unconverged, iters_max) in enumerate(counts[:, 2:4].tolist()):
                done[i] = 1 if unconverged else solved
                iters[i] = 0 if unconverged else iters_max
        n = self._seed_spare.size // len(done)  # interior cells per patch
        completed = []
        try:
            for i, patch_done in enumerate(done):
                if patch_done == 3:
                    completed.append(iters[i])
                    continue
                solved = n if patch_done == 2 else 0  # by the kernel's Newton
                sweep = RecoveryStats(solved, solved, max_iterations=iters[i])
                self._finish_recovery(i, cons, prim, patch_done, sweep)
        finally:
            if completed:
                cells = n * len(completed)
                self._record_recovery(completed, RecoveryStats(cells, cells))
        return [i for i, patch_done in enumerate(done) if patch_done != 3]

    def _finish_recovery(self, i, cons, prim, done, sweep):
        """The stages of patch *i*'s sweep (*cons* → *prim*, this
        pipeline's stacks) the kernel left (``done < 3``) — all of them on
        the interpreted path: floors, solve, burst hook, accounting,
        primitive floor, next seed."""
        system, ws = self.system, self.workspace
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
            self._record_recovery([sweep.max_iterations], sweep)
        if done < 3:
            prim_mask = self.atmosphere.apply_prim(system, interior_prim)
            if prim_mask.any():
                self.metrics.counter("atmo.prim_reset").inc(int(prim_mask.sum()))
            self._seed_spare[self._seed_rows(i)] = interior_prim[system.P]

    def _recover_compiled(self, cons, prim, scan) -> tuple:
        """Run the compiled recovery sweep over the stack *cons*, if this
        pipeline has one (with the CFL scan, when *scan*), and count its
        floors; returns ``(count rows or None, whether it completed every
        patch)``.  Each patch's completed stages — the one cold-path rule:

        - 0: no kernel (``numpy``/``flat``), or *cons* is not C-contiguous
          float64 — every patch.  It is never copied contiguous: the floors
          are in place.
        - 1: some cell of the patch did not converge (or is not finite).
          Its *cons* is floored and capped, counted once, and nothing else
          is committed — ``_limit_momentum`` is not bitwise idempotent, so
          the floors must not run again; the interpreted solve recomputes
          the same Newton bits, then bisects, failsafes or raises as it
          always did.  The other patches are unaffected.
        - 2: a fault injector is attached.  The solve is in *prim* (its
          iteration count in the row); the burst hook sits between it and
          the primitive floor (a burst cell is counted by ``atmo.prim_reset``
          and its ``p_atmo`` lands in the seed), so those stay interpreted.
        - 3: everything, the next seed included — and the patch's row of
          the scan.
        """
        if self._rk_call is None:
            return None, False
        if self._recover_call is None:  # with the Newton controls as they are now
            atmo = self.atmosphere
            self._recover_call = self.system.bind_recover(
                self._state_shape, self.grid.n_ghost, self.workspace.prim,
                (self._p_cache, self._seed_spare), self._warm, self._scanned,
                tol=RECOVERY_TOL, **_NEWTON, rho_atmo=atmo.rho_atmo, p_atmo=atmo.p_atmo,
                rho_reset=atmo.threshold_factor * atmo.rho_atmo,
                vmax=float(np.sqrt(1.0 - 1.0 / self.config.w_max**2)),
            )
        solve_only = self.fault_injector is not None
        try:
            counts = self.system.recover(
                self._recover_call, cons, prim, self._p_cache, self._seed_spare,
                solve_only, self._scanned if scan else None,
            )
        except CodegenError:  # cons not C-contiguous float64, refused before C
            return None, False
        totals = counts[0] if len(counts) == 1 else counts.sum(axis=0)
        floored, rescaled, unconverged, _, reset = totals.tolist()
        if unconverged:  # an unconverged patch's resets are the interpreted pass's
            reset = int(counts[counts[:, 2] == 0, 4].sum())
        if floored:
            self.metrics.counter("atmo.cons_floored").inc(floored)
        if rescaled:
            self.metrics.counter("limiter.momentum_rescaled").inc(rescaled)
        if reset:
            self.metrics.counter("atmo.prim_reset").inc(reset)
        return counts, not (unconverged or solve_only)

    def _record_recovery(self, iters_max: list, s: RecoveryStats) -> None:
        """Report con2prim sweeps through the metrics layer: *s* holds their
        counters summed, *iters_max* each one's ``max_iterations`` — the
        record of reporting each sweep alone, byte for byte (every count is
        an integer)."""
        m, instruments = self.metrics, self._c2p_instruments
        if instruments is None or instruments[0] != m.generation:
            instruments = self._c2p_instruments = (
                m.generation, m.counter("con2prim.cells"), m.counter("con2prim.newton_converged"),
                m.counter("con2prim.bisection"), m.counter("con2prim.failed"),
                m.counter("con2prim.unbracketed"),
                m.gauge("con2prim.max_newton_iters"),
                # Tail analysis works off the full distribution of per-sweep
                # maxima, not just the running maximum the gauge keeps: one
                # observation per sweep. (The name says _max: this is the
                # sweep's worst cell, not a per-cell distribution.)
                m.histogram("con2prim.newton_iters_max"),
            )
        _, cells, newton, bisection, failed, unbracketed, gauge, hist = instruments
        cells.inc(s.n_cells)
        newton.inc(s.n_newton_converged)
        if s.n_bisection or s.n_failed or s.n_unbracketed:  # 0 on a Newton-only sweep
            bisection.inc(s.n_bisection)
            failed.inc(s.n_failed)
            unbracketed.inc(s.n_unbracketed)
        if s.n_failsafe:
            m.counter("resilience.failsafe_cells").inc(s.n_failsafe)
        gauge.max(max(iters_max))
        for value in set(iters_max):  # integers: any order gives the same sums
            hist.observe(value, iters_max.count(value))

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

    def begin_flux_divergence(self) -> np.ndarray:
        """Divergence accumulator for a (possibly region-split) evaluation,
        the workspace's ``dU`` (overwritten by the next evaluation): zero
        from allocation, and nothing writes its ghost shell; the first
        axis's :meth:`accumulate_divergence` assigns the interior, so it
        needs no zeroing."""
        return self.workspace.dU

    def flux_divergence_region(
        self, prim: np.ndarray, axis: int, lo: int, hi: int
    ) -> np.ndarray:
        """Flux divergence along *axis* for interior cells ``[lo, hi)``.

        The slab handed to reconstruction is the interior transverse rows
        (ghost rows are never swept, so no corner ghost is read) over
        ghosted coordinates ``[lo, hi + 2g)`` along *axis*, so every face
        value is produced by exactly the same elementwise operations as the
        full sweep — a region's divergence is bit-identical to the matching
        slice of the whole-axis result.  That is the property the overlapped
        solver's interior/strip split rests on: the core region (``lo >= g``
        from any neighboured face) reads no halo ghosts at all.

        Returns the divergence shaped ``(nvars, P, *transverse_interior,
        hi - lo)`` with the working axis moved last — patch *i*'s at
        ``[:, i]`` — and hand it to :meth:`accumulate_divergence`.  It
        lives in a workspace buffer keyed by ``(axis, lo, hi)`` and survives
        until the same region is evaluated again.
        """
        self._expect_stack(prim, "flux_divergence_region")
        store = self.store_fluxes and (lo, hi) == (0, self.grid.shape[axis])
        div, sweep, _ = self._region(axis, lo, hi)
        # Stored fluxes are a fresh array, never workspace memory.
        flux = np.empty(div.shape[:-1] + (hi - lo + 1,)) if store else None
        if sweep is not None:
            # Compiled path: one C sweep of every patch replaces reconstruct
            # + sanitize + riemann + difference, bit-identical to the
            # interpreted stages below.
            with self.timers("face_flux"):
                self._fused_sweep(sweep, prim, flux)
        else:
            for i, patch_prim in enumerate(prim):
                Fm = self._interpreted_face_flux(patch_prim, axis, lo, hi, self.workspace)
                with self.timers("update"):
                    if store:
                        flux[:, i] = Fm
                    d = div[:, i]
                    np.subtract(Fm[..., 1:], Fm[..., :-1], out=d)
                    np.divide(d, self.dx[axis, i], out=d)
        if store:
            self.last_face_fluxes[axis] = flux
        return div

    def _region(self, axis: int, lo: int, hi: int) -> list:
        """``[div, sweep, accumulate]`` of interior cells ``[lo, hi)`` of
        *axis*, made on first use: its divergence's workspace buffer and
        the compiled sweep into it and accumulate from it, bound (None: no
        compiled path, or the accumulate not yet bound)."""
        region = self._regions.get((axis, lo, hi))
        if region is None:
            transverse = tuple(n for ax, n in enumerate(self.grid.shape) if ax != axis)
            shape = (self.system.nvars, len(self.patches)) + transverse + (hi - lo,)
            div = self.workspace.buf(("div", axis, lo, hi), shape)
            sweep = None if self._fused_ids is None else self._bind_sweep(axis, lo, hi, div)
            region = self._regions[axis, lo, hi] = [div, sweep, None]
        return region

    def _bind_sweep(self, axis: int, lo: int, hi: int, div):
        """The compiled sweep of faces ``lo .. hi`` along *axis* of the rows
        the interpreted slab covers (so the sanitize totals match it), bound,
        differencing into *div* (None: none)."""
        g = self.grid.n_ghost
        return self.system.bind_face_flux(
            self._state_shape, axis, lo + g - 1, hi - lo + 1, ids=self._fused_ids,
            n_ghost=g, dx=self.dx[axis], div=div,
            vmax2=1.0 - 1.0 / self.config.w_max**2,
            rho_atmo=self.atmosphere.rho_atmo, p_atmo=self.atmosphere.p_atmo,
        )

    def _interpreted_face_flux(
        self, prim: np.ndarray, axis: int, lo: int, hi: int, ws
    ) -> np.ndarray:
        """Face fluxes of one patch's *prim* ``(nvars, *ghosted)`` via the
        interpreted reconstruct/sanitize/riemann stages, over its interior
        transverse rows; returns them with the face index last.  *ws*
        holds the temporaries (None: fresh arrays)."""
        grid, system = self.grid, self.system
        g = grid.n_ghost
        slab = prim[(slice(None),) + tuple(
            slice(lo, hi + 2 * g) if ax == axis else slice(g, g + n)
            for ax, n in enumerate(grid.shape)
        )]
        face_shape = self.workspace.region_face_shape(axis, hi - lo)
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
        (faces last, interior transverse): what the parity suite compares.
        The hot path never materialises them —
        :meth:`flux_divergence_region` differences in-tile."""
        transverse = tuple(n for ax, n in enumerate(self.grid.shape) if ax != axis)
        out = np.empty((self.system.nvars,) + transverse + (hi - lo + 1,))
        self._fused_sweep(self._bind_sweep(axis, lo, hi, None), prim[None], out)
        return out

    def _fused_sweep(self, sweep, prim, flux) -> None:
        """Run the bound *sweep* over the stack *prim*, fluxes into *flux*
        (or None), and count its sanitize repairs."""
        # C walks raw offsets: a strided prim is copied (same bytes).
        counts = self.system.face_flux(sweep, np.ascontiguousarray(prim, dtype=np.float64), flux)
        if counts[0]:
            self.metrics.counter("sanitize.velocity_rescaled").inc(int(counts[0]))
        if counts[1]:
            self.metrics.counter("sanitize.floored").inc(int(counts[1]))

    def accumulate_divergence(
        self, dU: np.ndarray, axis: int, lo: int, hi: int, div: np.ndarray
    ) -> None:
        """Subtract a region's divergence (from
        :meth:`flux_divergence_region`) into *dU*; the first axis's
        (axis 0) assigns ``0.0 - div`` instead — what subtracting from a
        zeroed *dU* gives, signed zeros included — so *dU*'s interior needs
        no zeroing.

        Callers that split an axis into regions must apply *all* of a cell's
        axis contributions in ascending axis order — the overlapped solver
        defers every accumulation to one sorted pass — because with three or
        more terms (3-D) floating-point accumulation order changes the
        result bitwise.
        """
        self._expect_stack(dU, "accumulate_divergence")
        first = axis == 0
        with self.timers("update"):
            if self._rk_call is not None:
                region = self._region(axis, lo, hi)
                region[2] = region[2] or self.system.bind_accumulate(
                    self._state_shape, axis, self.grid.n_ghost, lo, hi, self.workspace.dU, region[0]
                )
                try:
                    return self.system.accumulate(region[2], dU, div, first)
                except CodegenError:  # a strided or non-float64 dU or div
                    pass
            idx = [slice(None)] * (self.grid.ndim + 1)
            idx[axis + 1] = slice(lo, hi)
            for i, patch_dU in enumerate(dU):
                target = np.moveaxis(self.grid.interior_of(patch_dU)[tuple(idx)], axis + 1, -1)
                np.subtract(0.0 if first else target, div[:, i], out=target)

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
            if self._rk_call is not None:
                out = np.empty(self._state_shape) if final else self._rk[V is self._rk[0]]
                try:
                    self.system.rk_stage(self._rk_call, stage, U, V, dt, k, out)
                    return out
                except CodegenError:  # an array the compiled pass cannot walk
                    pass
            return _reference_stage(stage, U, V, dt, k)

    def flux_divergence(self, prim: np.ndarray) -> np.ndarray:
        """-div F over the interior; ghost entries of the result are zero.

        The result is the workspace's ``dU`` buffer (overwritten by the
        next evaluation) and every kernel stage runs in preallocated
        buffers.  AMR refluxing stays safe: :attr:`last_face_fluxes` never
        holds workspace memory.
        """
        dU = self.begin_flux_divergence()
        # The physics' axes: a batched grid's trailing axis is never swept.
        for axis in range(self.system.ndim):
            n = self.grid.shape[axis]
            div = self.flux_divergence_region(prim, axis, 0, n)
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

    def rhs(self, cons: np.ndarray, prim=None) -> np.ndarray:
        """dU/dt for the SSP integrators (cons may be floored in place).

        The result lives in the pipeline workspace and is valid until the
        next ``rhs``/``recover_primitives`` call — exactly the lifetime the
        SSP integrators need, since each stage consumes the previous rhs
        before requesting the next.  *prim*, when the caller holds the
        recovery of *cons* already (a driver's primitive cache), is read
        instead of recovering again.
        """
        if prim is None:
            prim = self.recover_primitives(cons, reuse=True)
        dU = self.flux_divergence(prim)
        return self.apply_source(prim, dU)

    def max_signal_per_axis(self, prim: np.ndarray) -> np.ndarray:
        """Largest |characteristic speed| per physical axis over the
        interior of each patch of the stack *prim*, ``(P, ndim)`` — the
        scan every driver's ``compute_dt`` reduces.  For the fresh array of
        this pipeline's last recovery, a patch the compiled sweep completed
        reads the maxima it scanned; every other patch and array runs the
        interpreted :func:`~repro.time_integration.cfl.max_signal_per_axis`,
        which gives the same bits."""
        self._expect_stack(prim, "max_signal_per_axis")
        scan = self._scan
        rest = scan[1] if scan and scan[0]() is prim else range(len(self.patches))
        maxima = self._scanned.copy()
        for i in rest:
            maxima[i] = max_signal_per_axis(self.system, self.patches[i][0], prim[i])
        return maxima


@dataclass
class PatchStack:
    """Patches stepped as one ``(P, nvars, *ghosted)`` array: their idents
    in order, the one pipeline every kernel call of the stack goes through,
    and the regions the driver keyed them on."""

    idents: tuple
    pipeline: HydroPipeline
    regions: tuple


class PatchViews(Mapping):
    """``{ident: view}`` of one array per stack, which it keeps as
    :attr:`stacks` — what the kernels take — in stack order.  Made per
    call, it costs nothing per patch: the views are made on the first
    lookup."""

    @classmethod
    def of(cls, stacks: list[PatchStack], arrays) -> "PatchViews":
        views = cls()
        views.stacks, views._idents, views._views = list(arrays), [st.idents for st in stacks], None
        return views

    def __getitem__(self, ident):
        if self._views is None:
            self._views = {
                ident: a[p]
                for idents, a in zip(self._idents, self.stacks) for p, ident in enumerate(idents)
            }
        return self._views[ident]

    def __iter__(self):
        return chain.from_iterable(self._idents)

    def __len__(self):
        return sum(map(len, self._idents))


def patch_stacks(system, config, patches, kept=(), **pipeline_kw) -> list[PatchStack]:
    """The one stacking rule: of *patches*, ``(ident, grid, boundaries,
    regions)`` in stepping order, every maximal run alike in shape and
    *regions* is one stack.  A patch's spacing is its own data
    (:attr:`HydroPipeline.dx`), so patches of any ``dx`` — the leaves of
    every AMR level — stack together.  Runs, so
    stack after stack, patch after patch is the patches' order, which every
    order-sensitive per-patch step (fault-injector consults, which
    RecoveryError is raised first) keeps.  A stack of *kept* with the same
    idents is reused, pipeline and all; any other run gets a new one."""
    reuse = {st.idents: st for st in kept}
    stacks = []
    for (_, regions), run in groupby(patches, lambda p: (p[1].shape, p[3])):
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
