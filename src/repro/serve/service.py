"""Batch admission service: many small requests, few big kernel sweeps.

:class:`BatchService` is the request harness over the batched pipeline:

- **Admission queue with bounded depth** — :meth:`BatchService.submit`
  validates a :class:`~repro.serve.scenario.ScenarioSpec` and enqueues it,
  or raises :class:`~repro.utils.errors.AdmissionError` once the queue is
  full (the caller's backpressure signal; rejected requests are counted,
  never silently dropped).
- **Batch formation** — :meth:`BatchService.drain` groups queued requests
  by :meth:`~repro.serve.scenario.ScenarioSpec.batch_key` in FIFO order
  and runs each group (up to ``max_batch`` scenarios) as one
  :class:`~repro.core.batch.BatchSolver` sweep.
- **Kernel-system cache** — resolved codegen systems are cached by
  ``(ndim, EOS gamma, reconstruction, riemann, kernel_target)`` so a
  thousand requests for the same physics resolve their kernels once (the
  compiled artifact and its generated source are additionally cached on
  disk by ``repro.codegen.cext``, so a warm process generates nothing).  A resolved system converts data exactly as
  the plain one, so a served scenario is the ``Solver`` run bit for bit.
- **Per-request metrics** — queue wait, solve time, end-to-end latency,
  and batch occupancy flow through the ordinary
  :class:`~repro.obs.MetricsRegistry` histograms (``serve.*``), and an
  optional :class:`~repro.obs.StepRecorder` carries one JSONL event per
  request and per batch.

The service core is synchronous — ``submit`` then ``drain`` — which keeps
it deterministic and testable; the CLI (``repro serve`` / ``repro sweep``)
drives it from request files and parameter sweeps.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..boundary.conditions import make_boundaries
from ..core.batch import FAILED, BatchSolver
from ..core.pipeline import resolve_kernel_system
from ..obs.metrics import MetricsRegistry
from ..obs.recorder import StepRecorder
from ..physics.srhd import SRHDSystem
from ..utils.errors import AdmissionError, ConfigurationError, ReproError
from ..utils.logging import get_logger
from .scenario import ScenarioSpec

_log = get_logger("serve")

#: request lifecycle states
QUEUED, OK, FAILED_REQ, REJECTED = "queued", "ok", "failed", "rejected"


@dataclass
class Request:
    """One admitted scenario request and its lifecycle record."""

    id: int
    spec: ScenarioSpec
    enqueued_at: float
    status: str = QUEUED
    error: str | None = None
    result: dict | None = None
    queue_wait_s: float | None = None
    solve_s: float | None = None
    latency_s: float | None = None

    def summary(self) -> dict:
        """JSON-friendly response payload."""
        return {
            "id": self.id,
            "status": self.status,
            "error": self.error,
            "result": self.result,
            "queue_wait_s": self.queue_wait_s,
            "solve_s": self.solve_s,
            "latency_s": self.latency_s,
            "spec": self.spec.to_dict(),
        }


class BatchService:
    """Admission queue + batch scheduler over :class:`BatchSolver`.

    Parameters
    ----------
    max_queue_depth:
        Admission bound: :meth:`submit` raises :class:`AdmissionError`
        when this many requests are already queued.
    max_batch:
        Largest batch one solver sweep may carry; bigger compatible
        groups are split (FIFO order preserved).
    metrics, recorder:
        Optional externally-owned observability sinks; a private
        :class:`MetricsRegistry` is created when none is given.
    """

    def __init__(
        self,
        max_queue_depth: int = 1024,
        max_batch: int = 64,
        metrics: MetricsRegistry | None = None,
        recorder: StepRecorder | None = None,
    ):
        if max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        self.max_queue_depth = max_queue_depth
        self.max_batch = max_batch
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.recorder = recorder
        self._queue: list[Request] = []
        self._next_id = 0
        self._kernel_cache: dict[tuple, SRHDSystem] = {}

    # -- admission ------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def submit(self, spec: ScenarioSpec | dict) -> Request:
        """Admit one request; raises :class:`AdmissionError` when full.

        Spec validation happens *before* the depth check spends a slot:
        a malformed payload raises :class:`ConfigurationError` and costs
        nothing.
        """
        if isinstance(spec, dict):
            spec = ScenarioSpec.from_dict(spec)
        if len(self._queue) >= self.max_queue_depth:
            self.metrics.counter("serve.rejected").inc()
            raise AdmissionError(
                f"admission queue full ({self.max_queue_depth} requests); "
                "drain before submitting more"
            )
        req = Request(id=self._next_id, spec=spec, enqueued_at=time.perf_counter())
        self._next_id += 1
        self._queue.append(req)
        self.metrics.counter("serve.admitted").inc()
        self.metrics.gauge("serve.queue_depth").set(len(self._queue))
        return req

    # -- kernel-system cache --------------------------------------------

    def kernel_system(self, spec: ScenarioSpec) -> SRHDSystem:
        """Resolved system for *spec*, cached across requests.

        The key spans everything the resolved kernels depend on — system
        dimensionality, the EOS (ideal gamma), the scheme pair, and the
        kernel target — so cache hits are exact-reuse by construction.
        """
        key = (
            spec.ndim, spec.gamma, spec.reconstruction, spec.riemann,
            spec.kernel_target,
        )
        cached = self._kernel_cache.get(key)
        if cached is not None:
            self.metrics.counter("serve.kernel_cache.hits").inc()
            return cached
        self.metrics.counter("serve.kernel_cache.misses").inc()
        system = resolve_kernel_system(spec.build_system(), spec.kernel_target)
        self._kernel_cache[key] = system
        return system

    # -- batch execution ------------------------------------------------

    def drain(self) -> list[Request]:
        """Run every queued request to completion; returns them in
        admission order.  An empty queue drains to an empty list."""
        queue, self._queue = self._queue, []
        self.metrics.gauge("serve.queue_depth").set(0)
        groups: OrderedDict[tuple, list[Request]] = OrderedDict()
        for req in queue:
            groups.setdefault(req.spec.batch_key(), []).append(req)
        for members in groups.values():
            for lo in range(0, len(members), self.max_batch):
                self._run_batch(members[lo : lo + self.max_batch])
        return queue

    def sweep(self, specs) -> list[Request]:
        """Submit *specs* and drain: the one-shot parameter-sweep entry."""
        for spec in specs:
            self.submit(spec)
        return self.drain()

    def _run_batch(self, members: list[Request]) -> None:
        t_start = time.perf_counter()
        spec0 = members[0].spec
        for req in members:
            req.queue_wait_s = t_start - req.enqueued_at
            self.metrics.histogram("serve.queue_wait_s").observe(req.queue_wait_s)
        self.metrics.counter("serve.batches").inc()
        self.metrics.histogram("serve.batch_size").observe(len(members))
        try:
            self._solve(members)
        except ReproError as exc:
            # A failure the per-scenario isolation could not attribute
            # (bad batch-wide state, codegen breakage): fail the whole
            # batch but keep serving the other groups.
            _log.warning("batch of %d failed: %s", len(members), exc)
            for req in members:
                req.status = FAILED_REQ
                req.error = str(exc)
        t_done = time.perf_counter()
        solve_s = t_done - t_start
        for req in members:
            req.solve_s = solve_s
            req.latency_s = t_done - req.enqueued_at
            self.metrics.histogram("serve.request_latency_s").observe(req.latency_s)
            self.metrics.counter(
                "serve.completed" if req.status == OK else "serve.failed"
            ).inc()
            if self.recorder is not None:
                self.recorder.emit_event(
                    "serve.request", id=req.id, status=req.status,
                    error=req.error, queue_wait_s=req.queue_wait_s,
                    solve_s=req.solve_s, latency_s=req.latency_s,
                )
        self.metrics.histogram("serve.solve_s").observe(solve_s)
        self.metrics.histogram("serve.scenarios_per_sec").observe(
            len(members) / solve_s if solve_s > 0 else 0.0
        )
        if self.recorder is not None:
            self.recorder.emit_event(
                "serve.batch", size=len(members), solve_s=solve_s,
                batch_key=list(map(str, spec0.batch_key())),
                ok=sum(1 for r in members if r.status == OK),
            )

    def _solve(self, members: list[Request]) -> None:
        spec0 = members[0].spec
        system = self.kernel_system(spec0)
        grid = spec0.build_grid()
        # A resolved system converts data exactly as the plain one does, so
        # handing the cached one to the driver moves no bit.
        prims = [req.spec.build_initial(system, grid) for req in members]
        solver = BatchSolver(
            system, grid, prims, spec0.solver_config(), make_boundaries("outflow"),
        )
        outcome = solver.run(t_final=spec0.t_final)
        for i, req in enumerate(members):
            if outcome["status"][i] == FAILED:
                req.status = FAILED_REQ
                req.error = outcome["failures"].get(i, "scenario evicted")
            else:
                req.status = OK
                interior = solver.scenario_interior_primitives(i)
                req.result = {
                    "steps": outcome["steps"],
                    "t": outcome["t"],
                    "rho_max": float(np.max(interior[system.RHO])),
                    "p_max": float(np.max(interior[system.P])),
                }
