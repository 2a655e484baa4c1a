"""Distributed-memory HRSC solver over the simulated communicator.

Runs the same HRSC pipeline as :class:`~repro.core.solver.Solver`, but with
the domain split across ranks of a :class:`CartesianDecomposition`:

- each rank owns a ghosted sub-patch and its own :class:`HydroPipeline`;
- physical walls use the supplied boundary conditions, while faces shared
  with a neighbour are marked :class:`InteriorFace` and filled by
  :func:`exchange_halos` through the :class:`SimCommunicator`;
- the CFL time step is a global allreduce(min).

The distributed result matches the single-grid solver to round-off — the
test suite asserts this — so the communicator traffic log faithfully
represents the real code path the scaling model prices.
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
from .pipeline import HydroPipeline, resolve_kernel_system
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

        # Per-rank boundary sets: faces in the halo face table (neighbour
        # present) are no-ops, physical walls inherit the global policy.
        interior = InteriorFace()
        neighboured = face_table(decomp).by_face
        # Resolved once for every rank pipeline; self.system stays the plain
        # one (it converts the initial data and is what workers unpickle).
        kernel_system = resolve_kernel_system(system, self.config.kernel_target)
        self.pipelines: dict[int, HydroPipeline] = {}
        self.subgrids: dict[int, Grid] = {}
        for rank in self.local_ranks:
            faces = {
                (axis, side): (
                    interior if (rank, axis, side) in neighboured
                    else wall_bcs.condition(axis, side)
                )
                for axis in range(global_grid.ndim)
                for side in (0, 1)
            }
            sub = self.decomp.subgrid(rank)
            self.subgrids[rank] = sub
            self.pipelines[rank] = HydroPipeline(
                kernel_system,
                sub,
                BoundarySet(faces=faces),
                self.config,
                timers=self.timers,
                metrics=self.metrics,
                fault_injector=fault_injector,
            )
            self.pipelines[rank].source_fn = source_fn

        # Install the scattered interiors, then fill all ghosts once.
        self.cons: dict[int, np.ndarray] = {}
        prims: dict[int, np.ndarray] = {}
        for rank, pipeline in self.pipelines.items():
            sub = self.subgrids[rank]
            prim = sub.allocate(system.nvars)
            sub.interior_of(prim)[...] = parts[rank]
            pipeline.boundaries.apply(system, sub, prim)
            prims[rank] = prim
        if prime:
            self._exchange(prims)
        for rank, prim in prims.items():
            self.pipelines[rank].atmosphere.apply_prim(system, prim)
            self.cons[rank] = system.prim_to_con(prim)
        # Mirror the single-grid solver's primitive cache: the first dt is
        # computed from the (floored, exchanged) initial primitives, not a
        # recovery round-trip — keeping the two solvers bit-identical.
        self._prims_cache: dict[int, np.ndarray] | None = prims
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

        #: overlapped-exchange mode: RHS evaluations post halos first,
        #: compute each rank's core regions while the exchange is in
        #: flight, then finish the boundary strips (bit-identical to the
        #: blocking path — see tests/test_overlap.py).
        self.overlap = bool(self.config.overlap_exchange)
        #: per rank, the ``(axis, lo, hi)`` interior ranges the RHS evaluates
        #: before the halos land (cores) and after (strips).  A blocking
        #: rank waits for its halos first: no core, one full-axis strip.
        self._cores: dict[int, list] = {}
        self._strips: dict[int, list] = {}
        for rank in self.local_ranks:
            regions = (
                rhs_regions(self.decomp, rank) if self.overlap
                else [((0, 0), [(0, n)]) for n in self.subgrids[rank].shape]
            )
            self._cores[rank] = [
                (axis, *core) for axis, (core, _) in enumerate(regions)
                if core[1] > core[0]
            ]
            self._strips[rank] = [
                (axis, lo, hi) for axis, (_, strips) in enumerate(regions)
                for lo, hi in strips
            ]

        def cells(ranges_of: dict[int, list]) -> int:
            return sum(
                (hi - lo) * (self.subgrids[rank].n_cells // self.subgrids[rank].shape[axis])
                for rank, ranges in ranges_of.items()
                for axis, lo, hi in ranges
            )

        #: per-exchange (core, strip) cell-update counts of the owned ranks
        #: behind the comm.overlap.interior_cells / strip_cells counters
        self.overlap_cell_counts = (cells(self._cores), cells(self._strips))

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

    def _recover_and_exchange(
        self, cons: dict[int, np.ndarray], use_cache: bool = False
    ):
        if use_cache and self._prims_cache is not None:
            return self._prims_cache
        prims = {
            rank: self.pipelines[rank].recover_primitives(cons[rank])
            for rank in self.local_ranks
        }
        self._exchange(prims)
        return prims

    def _divergences(self, rank: int, prim: np.ndarray, ranges) -> list:
        """``(axis, lo, hi, divergence)`` of each ``(axis, lo, hi)`` range."""
        pipeline = self.pipelines[rank]
        return [
            (axis, lo, hi,
             pipeline.flux_divergence_region(prim, axis, lo, hi, reuse=True))
            for axis, lo, hi in ranges
        ]

    def _rhs(self, cons: dict[int, np.ndarray]):
        """RHS of every owned rank, around one halo exchange.

        Overlapped: post every strip (:func:`post_halos`), evaluate each
        rank's cores — the cells whose stencil never reads halo ghosts —
        while the messages are notionally on the wire, complete the
        exchange, then evaluate the halo-dependent strips.  Blocking is the
        same walk with no cores: the whole :func:`exchange_halos`, then one
        full-axis strip per axis (``pipeline.flux_divergence``'s calls).
        Per-cell divergence accumulation is deferred and applied in
        ascending axis order, matching the full sweep's floating-point
        accumulation order bitwise (with >= 3 axis terms the order is not
        commutative in IEEE arithmetic).
        """
        # Each rank pipeline owns its workspace, so per-rank reuse is safe.
        prims = {
            rank: self.pipelines[rank].recover_primitives(cons[rank], reuse=True)
            for rank in self.local_ranks
        }
        handle = None
        if self.overlap:
            handle = post_halos(
                self.decomp, self.comm, prims,
                policy=self.halo_policy, metrics=self.metrics,
                schedule=self._exchange_schedule(True),
            )
        t0 = time.perf_counter()
        divs = {
            rank: self._divergences(rank, prims[rank], self._cores[rank])
            for rank in self.local_ranks
        }
        interior_s = time.perf_counter() - t0
        if handle is None:
            self._exchange(prims)
        else:
            complete_halos(handle)
        t1 = time.perf_counter()
        out = {}
        for rank in self.local_ranks:
            pipeline = self.pipelines[rank]
            divs[rank] += self._divergences(rank, prims[rank], self._strips[rank])
            dU = pipeline.begin_flux_divergence(reuse=True)
            for axis, lo, hi, div in sorted(divs[rank], key=lambda e: e[0]):
                pipeline.accumulate_divergence(dU, axis, lo, hi, div)
            out[rank] = pipeline.apply_source(prims[rank], dU)
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
        local = {
            rank: np.asarray(self.pipelines[rank].max_signal_per_axis(prims[rank]))
            for rank in self.local_ranks
        }
        vmax = self.comm.allreduce(local, op="max")[self.local_ranks[0]]
        dt = dt_from_axis_maxima(self.global_grid, vmax, self.config.cfl)
        return clip_dt_to_final(dt, self.t, t_final)

    def _integrate(self, dt: float) -> None:
        self.cons = self._integrate_parts(
            self.cons, dt, self._rhs, self.pipelines.__getitem__
        )
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
            rank: (self.cons[rank], self.pipelines[rank].warm_state())
            for rank in self.local_ranks
        }

    def install_shards(self, t, steps, shards: dict, prims_cache=None) -> None:
        """Install ``{rank: (ghosted cons, p_cache)}`` for the owned
        ranks verbatim (bit-exact restart): the one path
        checkpoint reload, the worker's restore commands and the fold to
        serial all take.  *prims_cache* is the exchanged-primitive cache
        when one was held."""
        for rank in self.local_ranks:
            cons, p_cache = shards[rank]
            self.cons[rank] = np.array(cons)
            self.pipelines[rank].install_warm_state(p_cache)
        self._prims_cache = prims_cache
        self.t = float(t)
        self.steps = int(steps)

    def interior_primitives(self) -> dict[int, np.ndarray]:
        """Owned ranks' interior primitives after a fresh exchange."""
        prims = self._recover_and_exchange(self.cons)
        return {
            rank: self.subgrids[rank].interior_of(prims[rank]).copy()
            for rank in self.local_ranks
        }

    def gather_primitives(self) -> np.ndarray:
        """Global interior primitive field assembled from all ranks."""
        return self.decomp.gather(self.interior_primitives(), self.system.nvars)
