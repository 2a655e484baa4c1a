"""Distributed-memory HRSC solver over the simulated communicator.

Runs the same HRSC pipeline as :class:`~repro.core.solver.Solver`, but with
the domain split across ranks of a :class:`CartesianDecomposition`:

- each rank owns a ghosted sub-patch; consecutive owned ranks whose
  patches are alike (shape, ``dx``, overlap regions — the one rule of
  :func:`~repro.core.pipeline.patch_stacks`) form one *stack*, a
  ``(P, nvars, *ghosted)`` array stepped by one :class:`HydroPipeline` —
  one kernel call per stage for all P ranks — and every per-rank surface
  (``state()``, the finite guard) works on ``{rank: view}``;
- physical walls use the supplied boundary conditions, while faces shared
  with a neighbour are marked :class:`InteriorFace` (the pipelines never
  visit them) and filled by :func:`exchange_halos` — per axis one gather
  from the stacks, one :class:`SimCommunicator` post/receive pair and one
  scatter into them (:func:`~repro.comm.halo.halo_plan`);
- the CFL time step is a global allreduce(max) of per-axis speeds.

The distributed result is the single-grid solver's bit for bit wherever the
sub-grids' ``dx`` is the global one — the test suite asserts this — so the
communicator traffic log faithfully represents the real code path the
scaling model prices.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from ..boundary.conditions import BoundarySet, InteriorFace, make_boundaries
from ..comm.communicator import SimCommunicator
from ..comm.costs import halo_exchange_time, make_link
from ..comm.halo import (
    complete_halos,
    exchange_halos,
    face_table,
    halo_bytes_per_step,
    post_halos,
    rhs_regions,
)
from ..mesh.decomposition import CartesianDecomposition
from ..mesh.grid import Grid
from ..obs.metrics import MetricsRegistry
from ..physics.srhd import SRHDSystem
from ..time_integration.cfl import clip_dt_to_final, dt_from_axis_maxima
from ..time_integration.ssprk import make_integrator
from ..utils.errors import ConfigurationError
from ..utils.timers import TimerRegistry
from .config import SolverConfig
from .pipeline import HydroPipeline, PatchStack, PatchViews, patch_stacks, recover_stacks
from .pipeline import resolve_kernel_system
from .stepping import Driver

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.recorder import StepRecorder
    from ..resilience.faults import FaultInjector
    from ..resilience.policies import HaloRetryPolicy


#: the one link the comm.overlap.{modeled_comm_s,hidden_s,exposed_s,
#: hidden_frac} split is priced on — a Hockney *model*, not a measurement
_OVERLAP_LINK = make_link("infiniband-fdr")


def decompose(system: SRHDSystem, global_grid: Grid, dims, boundaries, periodic):
    """``(wall conditions, decomposition)`` from the constructor arguments
    both Cartesian executors take; periodicity defaults to the walls'."""
    if system.ndim != global_grid.ndim:
        raise ConfigurationError("system/grid dimensionality mismatch")
    wall_bcs = boundaries or make_boundaries("outflow")
    if periodic is None:
        periodic = tuple(
            wall_bcs.condition(ax, 0).name == "periodic"
            for ax in range(global_grid.ndim)
        )
    return wall_bcs, CartesianDecomposition(global_grid, dims, periodic=periodic)


class DistributedSolver(Driver):
    """SPMD solver over a simulated cluster of ranks.

    Parameters
    ----------
    system:
        SRHD physics (ndim must match the grid).
    global_grid:
        The full-domain grid.
    initial_prim:
        *Global* ghosted primitive array; it is scattered to ranks.
    dims:
        Process-grid shape (e.g. ``(2, 2)``).
    config, boundaries:
        As for :class:`Solver`; *boundaries* describes the physical walls.
    recorder:
        Optional :class:`~repro.obs.StepRecorder`; per-step records carry
        globally aggregated kernel timings and counters (all rank pipelines
        share one registry) plus communicator traffic deltas.
    fault_injector:
        Optional :class:`~repro.resilience.faults.FaultInjector`: a
        :class:`~repro.resilience.oracle.FaultOracle` of its plan decides
        the halo faults, its con2prim bursts strike the rank pipelines.  All
        ``resilience.*`` counters land in this solver's shared metrics
        registry.
    halo_policy:
        Optional :class:`~repro.resilience.policies.HaloRetryPolicy`.
        Without it a lost halo message kills the run immediately; with it
        every exchange verifies checksums and retransmits with exponential
        backoff before giving up.
    """

    def __init__(
        self,
        system: SRHDSystem,
        global_grid: Grid,
        initial_prim: np.ndarray,
        dims,
        config: SolverConfig | None = None,
        boundaries: BoundarySet | None = None,
        periodic=None,
        recorder: "StepRecorder | None" = None,
        fault_injector: "FaultInjector | None" = None,
        halo_policy: "HaloRetryPolicy | None" = None,
        source_fn=None,
    ):
        wall_bcs, decomp = decompose(system, global_grid, dims, boundaries, periodic)
        self._init_ranks(
            system, decomp, config, wall_bcs,
            decomp.scatter(global_grid.interior_of(initial_prim)),
            range(decomp.size),
            SimCommunicator(decomp.size),
            recorder=recorder, fault_injector=fault_injector,
            halo_policy=halo_policy, source_fn=source_fn,
        )

    def _init_ranks(
        self, system: SRHDSystem, decomp: CartesianDecomposition, config,
        wall_bcs: BoundarySet, parts: dict[int, np.ndarray], local_ranks, comm,
        recorder=None, fault_injector=None, halo_policy=None, source_fn=None,
        metrics: MetricsRegistry | None = None, prime: bool = True,
    ) -> None:
        """Everything after the scatter, for the ranks this stepper owns.

        The public constructor owns every rank over a
        :class:`SimCommunicator`; the process-backend rank worker owns one
        rank (``local_ranks=(rank,)``, *parts* holding that rank's interior
        patch) over a :class:`~repro.comm.shm.ShmCommunicator` built on
        *metrics* — the same class steps both, which is what keeps the
        executors bit-identical.  ``prime=False`` skips the collective
        priming exchange (a respawned rank builds alone and has its state
        installed afterwards).
        """
        self.system = system
        self.global_grid = global_grid = decomp.global_grid
        self.config = config or SolverConfig()
        self.decomp = decomp
        self.comm = comm
        self.local_ranks = tuple(local_ranks)
        # One shared timer/metrics registry across all rank pipelines: the
        # counters and kernel times aggregate globally, which is what the
        # per-step records report.
        self.timers = TimerRegistry()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.recorder = recorder
        self.fault_injector = fault_injector
        self.halo_policy = halo_policy
        #: the one halo-fault decision site, whichever communicator this is
        self.fault_oracle = None
        if fault_injector is not None:
            # Deferred import: repro.resilience's chaos scenarios import this.
            from ..resilience.oracle import FaultOracle

            self.fault_oracle = FaultOracle(fault_injector.plan, decomp, halo_policy)
            if fault_injector.metrics is None:
                fault_injector.metrics = self.metrics

        self.subgrids: dict[int, Grid] = {
            rank: decomp.subgrid(rank) for rank in self.local_ranks
        }
        #: overlapped-exchange mode: RHS evaluations post halos first,
        #: compute each rank's core regions while the exchange is in
        #: flight, then finish the boundary strips (bit-identical to the
        #: blocking path — see tests/test_overlap.py).
        self.overlap = bool(self.config.overlap_exchange)
        # Per rank, (cores, strips): the (axis, lo, hi) interior ranges the
        # RHS evaluates before the halos land and after.  A blocking rank
        # waits for its halos first: no core, one full-axis strip.
        regions = {}
        for rank, sub in self.subgrids.items():
            split = (
                rhs_regions(decomp, rank) if self.overlap
                else [((0, 0), [(0, n)]) for n in sub.shape]
            )
            regions[rank] = (
                [(axis, *core) for axis, (core, _) in enumerate(split) if core[1] > core[0]],
                [(axis, lo, hi) for axis, (_, ranges) in enumerate(split) for lo, hi in ranges],
            )
        #: per-exchange (core, strip) cell-update counts of the owned ranks
        #: behind the comm.overlap.interior_cells / strip_cells counters
        self.overlap_cell_counts = tuple(
            sum(
                (hi - lo) * (sub.n_cells // sub.shape[axis])
                for rank, sub in self.subgrids.items()
                for axis, lo, hi in regions[rank][part]
            )
            for part in (0, 1)
        )

        # Per-rank boundary sets: faces in the halo face table (neighbour
        # present) are no-ops, physical walls inherit the global policy.
        interior = InteriorFace()
        neighboured = face_table(decomp).by_face

        def boundaries(rank: int) -> BoundarySet:
            return BoundarySet(faces={
                (axis, side): (
                    interior if (rank, axis, side) in neighboured
                    else wall_bcs.condition(axis, side)
                )
                for axis in range(global_grid.ndim)
                for side in (0, 1)
            })

        # Stacks (patch_stacks' one rule): runs of consecutive owned ranks
        # alike in shape, dx and (cores, strips), each stepped by one
        # pipeline of the kernel system resolved here once; self.system
        # stays the plain one (it converts the initial data and is what
        # workers unpickle).
        self._stacks: list[PatchStack] = patch_stacks(
            resolve_kernel_system(system, self.config.kernel_target), self.config,
            ((rank, sub, boundaries(rank), regions[rank]) for rank, sub in self.subgrids.items()),
            timers=self.timers, metrics=self.metrics, fault_injector=fault_injector,
        )
        #: each owned rank's pipeline: its stack's, shared by the stack
        self.pipelines: dict[int, HydroPipeline] = {}
        for st in self._stacks:
            st.pipeline.source_fn = source_fn
            self.pipelines.update(dict.fromkeys(st.idents, st.pipeline))

        # Install the scattered interiors, then fill all ghosts once.
        stacks = []
        for st in self._stacks:
            prim = np.zeros(st.pipeline._state_shape)
            for rank, (sub, bcs), patch in zip(st.idents, st.pipeline.patches, prim):
                sub.interior_of(patch)[...] = parts[rank]
                bcs.apply(system, sub, patch)
            stacks.append(prim)
        prims = PatchViews.of(self._stacks, stacks)
        if prime:
            self._exchange(prims)
        cons = [np.empty_like(prim) for prim in stacks]
        for st, prim, state in zip(self._stacks, stacks, cons):
            for patch, patch_cons in zip(prim, state):
                st.pipeline.atmosphere.apply_prim(system, patch)
                system.prim_to_con(patch, out=patch_cons)
        self._commit(cons)
        # Mirror the single-grid solver's primitive cache: the first dt is
        # computed from the (floored, exchanged) initial primitives, not a
        # recovery round-trip — keeping the two solvers bit-identical.
        self._prims_cache = prims
        self.integrator = make_integrator(self.config.integrator)
        self.t = 0.0
        self.steps = 0
        #: analytic bytes sent by one full halo exchange (all ranks, all
        #: faces) — the model the measured traffic is checked against
        self.halo_bytes_per_exchange = sum(
            halo_bytes_per_step(self.decomp, system.nvars).values()
        )
        # Snapshot after the constructor's initial exchange so the first
        # step's delta counts only that step's traffic.
        self._traffic_prev = self.comm.traffic_marker()

    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return self.decomp.size

    def _owns_metrics(self) -> bool:
        """Once-per-fleet observations (``solver.dt``, the overlapped
        exchange count) belong to whichever stepper holds rank 0."""
        return self.local_ranks[0] == 0

    def _exchange_schedule(self, overlapped: bool):
        """The fault oracle's schedule of the next exchange (``None``, no
        faults, without a plan) — in-process and in a worker alike."""
        oracle = self.fault_oracle
        return None if oracle is None else oracle.next_exchange(overlapped)

    @property
    def cons(self) -> PatchViews:
        """The committed state, ``{rank: view}`` of the ``.stacks``."""
        return self._cons

    def _exchange(self, prims: dict[int, np.ndarray]) -> None:
        """One full halo exchange (``_prims()``'s ghost hook), resilient
        when a retry policy is set."""
        exchange_halos(
            self.decomp, self.comm, prims,
            policy=self.halo_policy, metrics=self.metrics,
            schedule=self._exchange_schedule(False),
        )

    def _divergences(self, stack: PatchStack, prim: np.ndarray, ranges) -> list:
        """``(axis, lo, hi, divergence)`` of each ``(axis, lo, hi)`` range
        of every patch of *stack* (one sweep per range)."""
        return [
            (axis, lo, hi,
             stack.pipeline.flux_divergence_region(prim, axis, lo, hi, reuse=True))
            for axis, lo, hi in ranges
        ]

    def _rhs(self, states: list) -> PatchViews:
        """RHS of every stack state, ``{rank: view}``, around one halo
        exchange.

        Overlapped: post every strip (:func:`post_halos`), evaluate each
        stack's cores — the cells whose stencil never reads halo ghosts —
        while the messages are notionally on the wire, complete the
        exchange, then evaluate the halo-dependent strips.  Blocking is the
        same walk with no cores: the whole :func:`exchange_halos`, then one
        full-axis strip per axis (``pipeline.flux_divergence``'s calls).
        Per-cell divergence accumulation is deferred and applied in
        ascending axis order, matching the full sweep's floating-point
        accumulation order bitwise (with >= 3 axis terms the order is not
        commutative in IEEE arithmetic).
        """
        # Each stack pipeline owns its workspace, so per-stack reuse is safe.
        prims = recover_stacks(self._stacks, states, reuse=True)
        handle = None
        if self.overlap:
            handle = post_halos(
                self.decomp, self.comm, prims,
                policy=self.halo_policy, metrics=self.metrics,
                schedule=self._exchange_schedule(True),
            )
        t0 = time.perf_counter()
        divs = [
            self._divergences(st, prim, st.regions[0])
            for st, prim in zip(self._stacks, prims.stacks)
        ]
        interior_s = time.perf_counter() - t0
        if handle is None:
            self._exchange(prims)
        else:
            complete_halos(handle)
        t1 = time.perf_counter()
        out = []
        for s, (st, prim) in enumerate(zip(self._stacks, prims.stacks)):
            pipeline = st.pipeline
            divs[s] += self._divergences(st, prim, st.regions[1])
            dU = pipeline.begin_flux_divergence(reuse=True)
            for axis, lo, hi, div in sorted(divs[s], key=lambda e: e[0]):
                pipeline.accumulate_divergence(dU, axis, lo, hi, div)
            out.append(pipeline.apply_source(prim, dU))
        if handle is not None:
            self._record_overlap(handle, interior_s, time.perf_counter() - t1)
        return PatchViews.of(self._stacks, out)

    def _record_overlap(self, handle, interior_s: float, strip_s: float) -> None:
        """comm.overlap.* accounting for one overlapped exchange.

        The modeled wire time (Hockney, :data:`_OVERLAP_LINK`) is compared
        against the measured per-rank interior compute: whatever fits under
        the interior window counts as hidden, the remainder as exposed.
        """
        m = self.metrics
        modeled = halo_exchange_time(_OVERLAP_LINK, handle.posted)
        interior_per_rank = interior_s / len(self.local_ranks)
        hidden = min(modeled, interior_per_rank)
        exposed = modeled - hidden
        interior_cells, strip_cells = self.overlap_cell_counts
        if self._owns_metrics():
            m.counter("comm.overlap.exchanges").inc()
        m.counter("comm.overlap.modeled_comm_s").inc(modeled)
        m.counter("comm.overlap.hidden_s").inc(hidden)
        m.counter("comm.overlap.exposed_s").inc(exposed)
        m.counter("comm.overlap.interior_seconds").inc(interior_s)
        m.counter("comm.overlap.strip_seconds").inc(strip_s)
        m.counter("comm.overlap.interior_cells").inc(interior_cells)
        m.counter("comm.overlap.strip_cells").inc(strip_cells)
        m.gauge("comm.overlap.hidden_frac").set(
            hidden / modeled if modeled > 0 else 1.0
        )

    def compute_dt(self, t_final: float | None = None) -> float:
        """Global CFL step: allreduce(max) of the per-axis signal speeds,
        then the same dt formula as the single-grid solver — bit-identical
        to it (a min over per-rank dt would differ whenever the x- and
        y-maxima live on different ranks)."""
        prims = self._prims()
        local = {}
        for st, prim in zip(self._stacks, prims.stacks):
            maxima = st.pipeline.max_signal_per_axis(prim)
            local.update(zip(st.idents, map(np.asarray, maxima)))
        vmax = self.comm.allreduce(local, op="max")[self.local_ranks[0]]
        dt = dt_from_axis_maxima(self.global_grid, vmax, self.config.cfl)
        return clip_dt_to_final(dt, self.t, t_final)

    def _patches(self):
        for rank in self.local_ranks:
            yield f"rank {rank}, ", self.pipelines[rank], self.cons[rank]

    def _after_step(self, dt: float) -> None:
        if self._owns_metrics():
            super()._after_step(dt)

    def _record_extras(self) -> dict:
        return {"comm": self._traffic_delta()}

    # bench/trace.py patches DistributedSolver.__dict__["step"]: bound here,
    # not inherited.
    step = Driver.step

    def _traffic_delta(self) -> dict:
        """Communicator traffic since the last call, plus the analytic
        per-exchange byte count for cross-checking."""
        now = self.comm.traffic_marker()
        prev, self._traffic_prev = self._traffic_prev, now
        return {
            "halo_bytes": now[0] - prev[0],
            "messages": now[1] - prev[1],
            "collectives": now[2] - prev[2],
            "halo_bytes_model_per_exchange": self.halo_bytes_per_exchange,
        }

    def state(self) -> dict:
        """Per owned rank ``(ghosted cons, p_cache)`` plus the exchanged-
        primitive cache, the traffic not yet in a step record (relative to
        the communicator's log, so a state moves between communicators) and
        the fault position of an attached injector."""
        prims = self._prims_cache
        now = self.comm.traffic_marker()
        injector = self.fault_injector
        return {
            **super().state(),
            "prims_cache": None if prims is None
            else {rank: prims[rank] for rank in self.local_ranks},
            "unrecorded_traffic": tuple(a - b for a, b in zip(now, self._traffic_prev)),
            "faults": None if injector is None
            else (injector.state(), self.fault_oracle.state()),
        }

    def install_state(self, state: dict) -> None:
        """Install the owned ranks' patches of a :meth:`state` verbatim, as
        fresh stacks (extras a state lacks keep their fresh values; a fault
        position is restored only where an injector is attached)."""
        super().install_state(state)
        prims = state.get("prims_cache")
        if prims is not None:
            self._prims_cache = PatchViews.of(self._stacks, [
                np.stack([np.asarray(prims[rank], dtype=float) for rank in st.idents])
                for st in self._stacks
            ])
        unrecorded = state.get("unrecorded_traffic", (0, 0, 0))
        self._traffic_prev = tuple(
            a - b for a, b in zip(self.comm.traffic_marker(), unrecorded)
        )
        if state.get("faults") is not None and self.fault_injector is not None:
            injector, oracle = state["faults"]
            self.fault_injector.restore(injector)
            self.fault_oracle.restore(oracle)

    def gather_primitives(self) -> np.ndarray:
        """Global interior primitive field assembled from all ranks."""
        return self.decomp.gather(self.interior_primitives(), self.system.nvars)
