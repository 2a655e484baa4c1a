"""Distributed-memory HRSC solver over the simulated communicator.

Runs the same HRSC pipeline as :class:`~repro.core.solver.Solver`, but with
the domain split across ranks of a :class:`CartesianDecomposition`:

- each rank owns a ghosted sub-patch; consecutive owned ranks whose
  patches are alike (shape, ``dx``, overlap regions) form one *stack*, a
  ``(P, nvars, *ghosted)`` array stepped by one :class:`HydroPipeline` —
  one kernel call per stage for all P ranks — and every per-rank surface
  (halo exchange, shards, the finite guard) works on ``{rank: view}``;
- physical walls use the supplied boundary conditions, while faces shared
  with a neighbour are marked :class:`InteriorFace` and filled by
  :func:`exchange_halos` through the :class:`SimCommunicator`;
- the CFL time step is a global allreduce(max) of per-axis speeds.

The distributed result is the single-grid solver's bit for bit wherever the
sub-grids' ``dx`` is the global one — the test suite asserts this — so the
communicator traffic log faithfully represents the real code path the
scaling model prices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
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
from .pipeline import HydroPipeline, resolve_kernel_system
from .stepping import Driver

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.recorder import StepRecorder
    from ..resilience.faults import FaultInjector
    from ..resilience.policies import HaloRetryPolicy


#: the one link the comm.overlap.{modeled_comm_s,hidden_s,exposed_s,
#: hidden_frac} split is priced on — a Hockney *model*, not a measurement
_OVERLAP_LINK = make_link("infiniband-fdr")


@dataclass
class _Stack:
    """Owned ranks stepped as one ``(P, nvars, *ghosted)`` array: their
    shared pipeline and the ``(axis, lo, hi)`` regions every patch of it
    evaluates before the halos land (cores) and after (strips)."""

    ranks: tuple[int, ...]
    pipeline: HydroPipeline
    cores: list
    strips: list


class _RankViews(dict):
    """``{rank: view}`` of one array per stack, which it keeps as
    :attr:`stacks` — what the kernels take — in stack order."""

    stacks: list


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
        Optional :class:`~repro.resilience.faults.FaultInjector`: halo
        faults strike the communicator, con2prim bursts strike the rank
        pipelines.  All ``resilience.*`` counters land in this solver's
        shared metrics registry.
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
            SimCommunicator(decomp.size, fault_injector=fault_injector),
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
        if fault_injector is not None and fault_injector.metrics is None:
            fault_injector.metrics = self.metrics

        self.subgrids: dict[int, Grid] = {
            rank: decomp.subgrid(rank) for rank in self.local_ranks
        }
        #: overlapped-exchange mode: RHS evaluations post halos first,
        #: compute each rank's core regions while the exchange is in
        #: flight, then finish the boundary strips (bit-identical to the
        #: blocking path — see tests/test_overlap.py).
        self.overlap = bool(self.config.overlap_exchange)
        # Per rank, the (axis, lo, hi) interior ranges the RHS evaluates
        # before the halos land (cores) and after (strips).  A blocking
        # rank waits for its halos first: no core, one full-axis strip.
        cores, strips = {}, {}
        for rank in self.local_ranks:
            regions = (
                rhs_regions(decomp, rank) if self.overlap
                else [((0, 0), [(0, n)]) for n in self.subgrids[rank].shape]
            )
            cores[rank] = [
                (axis, *core) for axis, (core, _) in enumerate(regions)
                if core[1] > core[0]
            ]
            strips[rank] = [
                (axis, lo, hi) for axis, (_, ranges) in enumerate(regions)
                for lo, hi in ranges
            ]

        def cells(ranges_of: dict[int, list]) -> int:
            return sum(
                (hi - lo) * (self.subgrids[rank].n_cells // self.subgrids[rank].shape[axis])
                for rank, ranges in ranges_of.items()
                for axis, lo, hi in ranges
            )

        #: per-exchange (core, strip) cell-update counts of the owned ranks
        #: behind the comm.overlap.interior_cells / strip_cells counters
        self.overlap_cell_counts = (cells(cores), cells(strips))

        # Stacks: maximal runs of consecutive owned ranks whose patches one
        # kernel call can step together — same shape and dx (each patch's
        # divergence is divided by its own dx, and sub-grids of an inexact
        # global dx differ in its last bit) and the same regions.  Runs, so
        # stack after stack, patch after patch is rank order: every
        # order-sensitive per-patch step (fault-injector consults, which
        # RecoveryError is raised first) keeps the order it always had.
        runs: list = []
        for rank in self.local_ranks:
            sub = self.subgrids[rank]
            key = (sub.shape, sub.dx, cores[rank], strips[rank])
            if runs and runs[-1][0] == key:
                runs[-1][1].append(rank)
            else:
                runs.append((key, [rank]))
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

        # Resolved once for every stack pipeline; self.system stays the
        # plain one (it converts the initial data and is what workers
        # unpickle).
        kernel_system = resolve_kernel_system(system, self.config.kernel_target)
        self._stacks: list[_Stack] = []
        #: each owned rank's pipeline: its stack's, shared by the stack
        self.pipelines: dict[int, HydroPipeline] = {}
        for (*_, core, strip), ranks in runs:
            patches = [(self.subgrids[rank], boundaries(rank)) for rank in ranks]
            pipeline = HydroPipeline(
                kernel_system, *patches[0], self.config,
                timers=self.timers, metrics=self.metrics,
                fault_injector=fault_injector, patches=patches,
            )
            pipeline.source_fn = source_fn
            self._stacks.append(_Stack(tuple(ranks), pipeline, core, strip))
            self.pipelines.update(dict.fromkeys(ranks, pipeline))

        # Install the scattered interiors, then fill all ghosts once.
        stacks = []
        for st in self._stacks:
            shape = (len(st.ranks), system.nvars) + st.pipeline.grid.shape_with_ghosts
            prim = np.zeros(shape)
            for rank, (sub, bcs), patch in zip(st.ranks, st.pipeline.patches, prim):
                sub.interior_of(patch)[...] = parts[rank]
                bcs.apply(system, sub, patch)
            stacks.append(prim)
        prims = self._views(stacks)
        if prime:
            self._exchange(prims)
        cons = [np.empty_like(prim) for prim in stacks]
        for st, prim, state in zip(self._stacks, stacks, cons):
            for patch, patch_cons in zip(prim, state):
                st.pipeline.atmosphere.apply_prim(system, patch)
                system.prim_to_con(patch, out=patch_cons)
        self.cons = self._views(cons)
        # Mirror the single-grid solver's primitive cache: the first dt is
        # computed from the (floored, exchanged) initial primitives, not a
        # recovery round-trip — keeping the two solvers bit-identical.
        self._prims_cache: _RankViews | None = prims
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
        """Pre-decided fault schedule of the next exchange: none here (the
        injector sits inside the communicator); the rank worker consults
        its :class:`~repro.resilience.oracle.FaultOracle`."""
        return None

    def _exchange(self, prims: dict[int, np.ndarray]) -> None:
        """One full halo exchange, resilient when a retry policy is set."""
        exchange_halos(
            self.decomp, self.comm, prims,
            policy=self.halo_policy, metrics=self.metrics,
            schedule=self._exchange_schedule(False),
        )

    def _views(self, stacks: list) -> "_RankViews":
        """``{rank: view}`` of one array per stack, in rank order."""
        views = _RankViews(
            (rank, array[i])
            for st, array in zip(self._stacks, stacks)
            for i, rank in enumerate(st.ranks)
        )
        views.stacks = list(stacks)
        return views

    def _recover(self, states, reuse: bool = False) -> "_RankViews":
        """Each stack state's primitives, one recovery sweep per stack."""
        return self._views([
            st.pipeline.recover_primitives(U, reuse=reuse)
            for st, U in zip(self._stacks, states)
        ])

    def _recover_and_exchange(self, cons: "_RankViews", use_cache: bool = False):
        """Primitives of the rank views *cons* after a fresh halo exchange;
        with *use_cache* (for ``self.cons``) read through the exchanged-
        primitive cache and fill it — a diagnostic read between steps is
        the recovery the next ``compute_dt`` then skips."""
        if use_cache and self._prims_cache is not None:
            return self._prims_cache
        prims = self._recover(cons.stacks)
        self._exchange(prims)
        if use_cache:
            self._prims_cache = prims
        return prims

    def _divergences(self, stack: "_Stack", prim: np.ndarray, ranges) -> list:
        """``(axis, lo, hi, divergence)`` of each ``(axis, lo, hi)`` range
        of every patch of *stack* (one sweep per range)."""
        return [
            (axis, lo, hi,
             stack.pipeline.flux_divergence_region(prim, axis, lo, hi, reuse=True))
            for axis, lo, hi in ranges
        ]

    def _rhs(self, states: dict):
        """RHS of every stack state, around one halo exchange.

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
        prims = self._recover(states.values(), reuse=True)
        handle = None
        if self.overlap:
            handle = post_halos(
                self.decomp, self.comm, prims,
                policy=self.halo_policy, metrics=self.metrics,
                schedule=self._exchange_schedule(True),
            )
        t0 = time.perf_counter()
        divs = [
            self._divergences(st, prim, st.cores)
            for st, prim in zip(self._stacks, prims.stacks)
        ]
        interior_s = time.perf_counter() - t0
        if handle is None:
            self._exchange(prims)
        else:
            complete_halos(handle)
        t1 = time.perf_counter()
        out = {}
        for s, (st, prim) in enumerate(zip(self._stacks, prims.stacks)):
            pipeline = st.pipeline
            divs[s] += self._divergences(st, prim, st.strips)
            dU = pipeline.begin_flux_divergence(reuse=True)
            for axis, lo, hi, div in sorted(divs[s], key=lambda e: e[0]):
                pipeline.accumulate_divergence(dU, axis, lo, hi, div)
            out[s] = pipeline.apply_source(prim, dU)
        if handle is not None:
            self._record_overlap(handle, interior_s, time.perf_counter() - t1)
        return out

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
        prims = self._recover_and_exchange(self.cons, use_cache=True)
        local = {}
        for st, prim in zip(self._stacks, prims.stacks):
            maxima = st.pipeline.max_signal_per_axis(prim)
            local.update(zip(st.ranks, map(np.asarray, maxima)))
        vmax = self.comm.allreduce(local, op="max")[self.local_ranks[0]]
        dt = dt_from_axis_maxima(self.global_grid, vmax, self.config.cfl)
        return clip_dt_to_final(dt, self.t, t_final)

    def _integrate(self, dt: float) -> None:
        """One integrator step over ``{stack: state}``; the advanced states
        are fresh stacks, so views and shards handed out stay valid."""
        states = self._integrate_parts(
            dict(enumerate(self.cons.stacks)), dt, self._rhs,
            lambda s: self._stacks[s].pipeline,
        )
        self.cons = self._views(list(states.values()))
        self._prims_cache = None  # state advanced: next dt recovers afresh

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

    def write_checkpoint(self, path) -> None:
        """All rank sub-patches plus their warm-start state, through
        :meth:`checkpoint_shards` (so both executors write one format)."""
        # Deferred import: repro.io imports this module's siblings.
        from ..io.checkpoint import save_distributed_checkpoint

        save_distributed_checkpoint(self, path)

    def checkpoint_shards(self) -> dict[int, tuple]:
        """Per-rank ``(ghosted cons, p_cache)`` — the payload of one
        distributed checkpoint (same accessor the process
        executor streams from its workers, so both write identical
        archives)."""
        return {
            rank: (self.cons[rank], st.pipeline.warm_state(i))
            for st in self._stacks
            for i, rank in enumerate(st.ranks)
        }

    def install_shards(self, t, steps, shards: dict, prims_cache=None) -> None:
        """Install ``{rank: (ghosted cons, p_cache)}`` for the owned
        ranks verbatim (bit-exact restart), as fresh stacks: the one path
        checkpoint reload, the worker's restore commands and the fold to
        serial all take.  *prims_cache* is the ``{rank: prim}``
        exchanged-primitive cache when one was held."""
        for st in self._stacks:
            for i, rank in enumerate(st.ranks):
                st.pipeline.install_warm_state(shards[rank][1], i)

        def stacked(arrays_of) -> _RankViews:
            return self._views([
                np.stack([np.asarray(arrays_of(rank), dtype=float) for rank in st.ranks])
                for st in self._stacks
            ])

        self.cons = stacked(lambda rank: shards[rank][0])
        self._prims_cache = None if prims_cache is None else stacked(prims_cache.get)
        self.t = float(t)
        self.steps = int(steps)

    def interior_primitives(self) -> dict[int, np.ndarray]:
        """Owned ranks' interior primitives after an exchange — through the
        primitive cache, like ``Solver.primitives()``: between steps a read
        is the recovery the next ``compute_dt`` would do, not an extra one."""
        prims = self._recover_and_exchange(self.cons, use_cache=True)
        return {
            rank: self.subgrids[rank].interior_of(prims[rank]).copy()
            for rank in self.local_ranks
        }

    def gather_primitives(self) -> np.ndarray:
        """Global interior primitive field assembled from all ranks."""
        return self.decomp.gather(self.interior_primitives(), self.system.nvars)
