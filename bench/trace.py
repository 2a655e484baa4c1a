"""Benchmark-side span tracing of the solver stack's public callables.

The program under test carries no spans of its own; this module wraps the
public methods and functions at each layer boundary (class-level patches,
undone when the ``with`` block exits), records one span per call in
memory, and derives inclusive and self times afterwards.  Worker processes
of ``ProcessSolver`` are never patched — their numbers come from
``worker_snapshots()`` deltas.

A span is the tuple ``(name, start, end, parent, step)``: *parent* is the
index of the enclosing span (-1 for a root) and *step* the ordinal of the
benchmark-level root span (one timed step or one serve round) it belongs
to, so spans of one unit of work share an identifier.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

#: (span name, module, attribute path) of every wrapped callable.  Module
#: functions are patched where they are *looked up*: a ``from x import f``
#: binds ``f`` in the importing module, so that module's global is the one
#: to replace.
PATCH_POINTS = (
    ("pipeline.build", "repro.core.pipeline", "HydroPipeline.__init__"),
    ("pipeline.rhs", "repro.core.pipeline", "HydroPipeline.rhs"),
    ("pipeline.recover_primitives", "repro.core.pipeline", "HydroPipeline.recover_primitives"),
    ("pipeline.flux_divergence_region", "repro.core.pipeline", "HydroPipeline.flux_divergence_region"),
    ("pipeline.accumulate_divergence", "repro.core.pipeline", "HydroPipeline.accumulate_divergence"),
    ("physics.con_to_prim", "repro.core.pipeline", "con_to_prim"),
    ("codegen.make_kernel_system", "repro.codegen.system", "make_kernel_system"),
    ("codegen.face_flux", "repro.codegen.system", "CompiledSRHDSystem.face_flux"),
    ("codegen.c2p_newton", "repro.codegen.system", "CompiledSRHDSystem.c2p_newton"),
    ("codegen.pointwise", "repro.codegen.system", "CompiledSRHDSystem.prim_to_con"),
    ("codegen.pointwise", "repro.codegen.system", "CompiledSRHDSystem.flux"),
    ("codegen.pointwise", "repro.codegen.system", "CompiledSRHDSystem.char_speeds"),
    ("reconstruct.reconstruct", "repro.reconstruct.base", "Reconstruction.interface_states"),
    ("riemann.solve", "repro.riemann.base", "RiemannSolver.flux"),
    ("time_integration.step", "repro.time_integration.ssprk", "ForwardEuler.step"),
    ("time_integration.step", "repro.time_integration.ssprk", "SSPRK2.step"),
    ("time_integration.step", "repro.time_integration.ssprk", "SSPRK3.step"),
    ("solver.step", "repro.core.solver", "Solver.step"),
    ("solver.compute_dt", "repro.core.solver", "Solver.compute_dt"),
    ("distributed.step", "repro.core.distributed", "DistributedSolver.step"),
    ("distributed.compute_dt", "repro.core.distributed", "DistributedSolver.compute_dt"),
    ("comm.exchange_halos", "repro.core.distributed", "exchange_halos"),
    ("comm.post_halos", "repro.core.distributed", "post_halos"),
    ("comm.complete_halos", "repro.core.distributed", "complete_halos"),
    ("parallel.spawn_ready", "repro.core.parallel", "ProcessSolver.__init__"),
    ("parallel.step", "repro.core.parallel", "ProcessSolver.step"),
    ("batch.run", "repro.core.batch", "BatchSolver.run"),
    ("batch.step", "repro.core.batch", "BatchSolver.step"),
    ("batch.compute_dt", "repro.core.batch", "BatchSolver.compute_dt"),
    ("serve.submit", "repro.serve.service", "BatchService.submit"),
    ("serve.drain", "repro.serve.service", "BatchService.drain"),
    ("amr.step", "repro.core.amr_solver", "AMRSolver.step"),
    ("amr.compute_dt", "repro.core.amr_solver", "AMRSolver.compute_dt"),
    ("amr.regrid", "repro.core.amr_solver", "AMRSolver.regrid"),
    ("amr.fill_ghosts", "repro.mesh.amr.forest", "AMRForest.fill_ghosts"),
    ("amr.reflux", "repro.mesh.amr.reflux", "apply_reflux"),
    ("amr.transfer", "repro.core.amr_solver", "prolong_array"),
    ("amr.transfer", "repro.core.amr_solver", "restrict_array"),
    ("amr.transfer", "repro.mesh.amr.forest", "prolong_array"),
    ("amr.transfer", "repro.mesh.amr.forest", "restrict_array"),
    ("amr.transfer", "repro.mesh.amr.reflux", "restrict_array"),
)


class Tracer:
    """In-memory span recorder; patches are live only inside :meth:`installed`."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.step = -1
        #: span name -> callback(result, args) run as a span of that name
        #: closes (how the benchmark reaches objects the program creates
        #: internally, e.g. the service's per-batch solvers)
        self.on_exit: dict = {}

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.step)
            hook = self.on_exit.get(name)
            if hook is not None:
                hook(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every :data:`PATCH_POINTS` entry; restore on exit."""
        undo = []
        try:
            for name, module, path in PATCH_POINTS:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    @contextmanager
    def root(self, name: str):
        """Benchmark-level root span: one timed step or one serve round."""
        self.step += 1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, -1, self.step)

    # -- derived numbers --------------------------------------------------

    def _counted(self, first: int, rooted: bool) -> list[int]:
        """Indices of ``spans[first:]``; with *rooted*, only those under a
        benchmark-level root (state hashing between timed steps is not)."""
        if not rooted:
            return list(range(first, len(self.spans)))
        kept, inside = [], set()
        for idx in range(first, len(self.spans)):
            name, _t0, _t1, parent, _step = self.spans[idx]
            if name.startswith("bench.") or parent in inside:
                inside.add(idx)
                kept.append(idx)
        return kept

    def totals(self, first: int = 0, rooted: bool = True) -> tuple[dict, dict, dict]:
        """``(inclusive seconds, self seconds, call count)`` per span name
        over ``spans[first:]``.

        Self time is a span's duration minus the time its direct children
        cover; no wrapped callable recurses into itself, so inclusive sums
        do not double count.
        """
        spans = self.spans
        counted = self._counted(first, rooted)
        child_time = defaultdict(float)
        for idx in counted:
            _name, t0, t1, parent, _step = spans[idx]
            if parent >= first:
                child_time[parent] += t1 - t0
        incl, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for idx in counted:
            name, t0, t1, _parent, _step = spans[idx]
            incl[name] += t1 - t0
            self_s[name] += t1 - t0 - child_time.get(idx, 0.0)
            calls[name] += 1
        return incl, self_s, calls

    def write_chrome_trace(self, path, first: int = 0) -> None:
        """Dump the rooted spans of ``spans[first:]`` as Chrome-trace
        complete ("X") events (open in ``chrome://tracing`` or Perfetto).

        ``args`` keeps each span's index, its parent's and its step, so the
        nesting can be rebuilt without relying on timestamps.
        """
        counted = self._counted(first, rooted=True)
        origin = self.spans[counted[0]][1] if counted else 0.0
        events = []
        for idx in counted:
            name, t0, t1, parent, step = self.spans[idx]
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "pid": 0,
                    "tid": 0,
                    "ts": (t0 - origin) * 1e6,
                    "dur": (t1 - t0) * 1e6,
                    "args": {"id": idx, "parent": parent, "step": step},
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


#: per-layer metric -> (span name, inclusive or self time); reported as
#: seconds per unit of work (timed step or served request)
SPAN_SECONDS = {
    "pipeline.rhs_s": ("pipeline.rhs", "incl"),
    "pipeline.recover_primitives_s": ("pipeline.recover_primitives", "incl"),
    "pipeline.flux_divergence_region_s": ("pipeline.flux_divergence_region", "incl"),
    "pipeline.accumulate_divergence_s": ("pipeline.accumulate_divergence", "incl"),
    "pipeline.build_s": ("pipeline.build", "incl"),
    "physics.con_to_prim_s": ("physics.con_to_prim", "incl"),
    "codegen.face_flux_s": ("codegen.face_flux", "incl"),
    "codegen.c2p_newton_s": ("codegen.c2p_newton", "incl"),
    "codegen.pointwise_s": ("codegen.pointwise", "incl"),
    "reconstruct.reconstruct_s": ("reconstruct.reconstruct", "incl"),
    "riemann.solve_s": ("riemann.solve", "incl"),
    "time_integration.step_self_s": ("time_integration.step", "self"),
    "solver.step_self_s": ("solver.step", "self"),
    "solver.compute_dt_s": ("solver.compute_dt", "incl"),
    "comm.exchange_halos_s": ("comm.exchange_halos", "incl"),
    "comm.post_halos_s": ("comm.post_halos", "incl"),
    "comm.complete_halos_s": ("comm.complete_halos", "incl"),
    "distributed.step_self_s": ("distributed.step", "self"),
    "batch.step_s": ("batch.step", "incl"),
    "batch.compute_dt_s": ("batch.compute_dt", "incl"),
    "serve.submit_s": ("serve.submit", "incl"),
    "serve.drain_self_s": ("serve.drain", "self"),
    "amr.regrid_s": ("amr.regrid", "incl"),
    "amr.fill_ghosts_s": ("amr.fill_ghosts", "incl"),
    "amr.reflux_s": ("amr.reflux", "incl"),
    "amr.transfer_s": ("amr.transfer", "incl"),
    "amr.step_self_s": ("amr.step", "self"),
}


def span_metrics(tracer: Tracer, first: int, units: int) -> dict:
    """Per-layer numbers of the timed spans ``tracer.spans[first:]``."""
    incl, self_s, calls = tracer.totals(first)
    out = {
        metric: (incl if kind == "incl" else self_s).get(span, 0.0) / units
        for metric, (span, kind) in SPAN_SECONDS.items()
    }
    out["pipeline.rhs_calls"] = calls.get("pipeline.rhs", 0)
    root = incl.get("bench.step", 0.0) + incl.get("bench.round", 0.0)
    root_self = self_s.get("bench.step", 0.0) + self_s.get("bench.round", 0.0)
    out["trace.accounted_frac"] = 1.0 - root_self / root
    step = incl.get("distributed.step", 0.0)
    out["distributed.compute_share"] = (
        sum(incl.get(f"pipeline.{n}", 0.0) for n in
            ("recover_primitives", "flux_divergence_region", "accumulate_divergence")) / step
        if step else 0.0
    )
    return out


def setup_metrics(tracer: Tracer, cold: bool) -> dict:
    """Per-layer numbers of the set-up spans (everything recorded so far).

    *cold* says whether set-up had to compile kernels; the kernel-system
    resolve time is booked as a cold build or a warm load accordingly.
    """
    incl, _self, calls = tracer.totals(rooted=False)
    resolve = incl.get("codegen.make_kernel_system", 0.0)
    return {
        "codegen.warm_load_s": 0.0 if cold else resolve,
        "codegen.cold_build_s": resolve if cold else 0.0,
        "parallel.spawn_ready_s": incl.get("parallel.spawn_ready", 0.0),
        "pipeline.builds": calls.get("pipeline.build", 0),
    }
