"""The seven benchmark workloads: inputs, set-up, timed window, checks.

Every workload follows the same life cycle (driven by ``bench/run.py``):

1. ``make_inputs()`` — all randomness lives here, drawn from the seeded
   generator; the program under test only ever sees the generated arrays
   and request dicts;
2. ``setup()`` — build the driver through its public constructor and run
   one warm-up unit of work;
3. ``measure(units, ...)`` — repeat the unit of work (one ``step()`` or
   one closed-loop round of requests) *units* times, reading the host's
   speed between units;
4. ``close()`` then ``checks()`` — correctness of what was produced.

Solver workloads hash their state once, after :data:`CHECK_STEP` steps, and
compare it with an independently built reference driver advanced the same
number of steps — bit-identity between execution modes is the repository's
own invariant, so the comparison is exact.

Layers are observed from outside: ``observe()`` reads counters the program
already publishes (``metrics.snapshot()``, communicator traffic,
``worker_snapshots()``); differences between two observations give the
per-layer counts.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.boundary import make_boundaries
from repro.codegen import cext
from repro.codegen.system import CompiledSRHDSystem
from repro.core.amr_solver import AMRConfig, AMRSolver
from repro.core.config import SolverConfig
from repro.core.distributed import DistributedSolver
from repro.core.parallel import ProcessSolver
from repro.core.solver import Solver
from repro.eos.ideal import IdealGasEOS
from repro.mesh.grid import Grid
from repro.physics.exact_riemann import ExactRiemannSolver, RiemannState
from repro.physics.initial_data import SHOCK_TUBES, blast_wave_2d, kelvin_helmholtz_2d
from repro.physics.srhd import SRHDSystem
from repro.serve.scenario import ScenarioSpec
from repro.serve.service import OK, BatchService

from .host import Calibration
from .trace import setup_metrics, span_metrics

#: driver step (warm-up included) after which solver state is hashed
CHECK_STEP = 3
#: reference steps timed for ``parallel.efficiency`` (traced proc2 runs)
BASELINE_STEPS = 10

GAMMA = 5.0 / 3.0
CFL = 0.4
UNIT_BOUNDS = ((0.0, 1.0), (0.0, 1.0))
#: blast_wave_2d's default (p_in=100, p_out=0.01) fails con2prim in its
#: evacuated centre at t ~ 0.19 on every grid (step ~123 at 128^2), which
#: windows sized for faster code would reach.  This one, in a periodic box,
#: runs indefinitely at a statistically steady cost per step.
BLAST = dict(p_in=10.0, p_out=1.0)


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def percentile(values, q: float) -> float:
    """Exact order statistic (nearest rank), no interpolation."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


@dataclass
class Window:
    """What one timed window produced."""

    latencies: list = field(default_factory=list)
    wall_s: float = 0.0
    zone_updates: int = 0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: a unit of work raised: the window stopped there and has no timings
    aborted: bool = False
    #: host speed next to each latency sample and over the whole window
    #: (see :class:`~bench.host.Calibration`)
    slowdowns: list = field(default_factory=list)
    slowdown: float = 1.0

    def cal_latency_p50(self) -> float:
        """Median unit time, each sample read against the host's speed
        right after it."""
        return percentile([t / s for t, s in zip(self.latencies, self.slowdowns)], 0.5)


class Workload:
    name = ""
    why = ""
    #: what one latency sample is
    unit = "step"
    #: units of work (steps / rounds) a window runs at least
    min_units = 1
    #: units of work per second of requested window.  The work of a run is
    #: fixed by ``--seconds``, not by the clock: every run of a workload
    #: repeats exactly the same steps, so runs compare like for like and the
    #: per-layer counts repeat exactly.  Sized so that a window takes about
    #: ``--seconds`` on the 2-core host this was written on.
    units_per_s = 1.0
    #: busy processes the driver needs to be measured honestly
    workers = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.failed_checks: list[str] = []
        self.n_checks = 0
        self.fallbacks = 0
        self.setup_layers: dict = {}

    def units_for(self, seconds: float) -> int:
        return max(self.min_units, round(self.units_per_s * seconds))

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.n_checks += 1
        if not ok:
            self.failed_checks.append(f"{label}: {detail}" if detail else label)
        return ok

    def check_compiled(self, ok: bool, detail: str) -> None:
        """A cext workload that fell back to interpreted kernels measures
        the wrong thing: that is a failed check, and a per-layer count."""
        if not self.check("codegen.fallbacks == 0", ok, detail):
            self.fallbacks += 1

    def pids(self) -> list[int]:
        """This process plus the worker processes of the driver."""
        return [os.getpid()] + [p.pid for p in multiprocessing.active_children()]

    def attach(self, tracer) -> None:
        """Register span-exit hooks before a traced run."""

    def record_setup(self, tracer) -> None:
        self.setup_layers = setup_metrics(tracer, cold=cext.build_count > 0)

    def metric_snapshots(self) -> list[dict]:
        """Registry snapshots whose counters add up to the driver's totals."""
        raise NotImplementedError

    def observe(self) -> dict:
        """Cumulative public counters, by per-layer metric name."""
        snaps = self.metric_snapshots()

        def total(key):
            return sum(s["counters"].get(key, 0) for s in snaps)

        return {
            "physics.con2prim_cells": total("con2prim.cells"),
            "physics.con2prim_bisection": total("con2prim.bisection"),
            "physics.atmo_resets": total("atmo.prim_reset") + total("atmo.cons_floored"),
            "newton_iters_max": max(
                s["gauges"].get("con2prim.max_newton_iters", 0) for s in snaps
            ),
        }

    def layer_metrics(self, tracer, first_span, start, end, win) -> dict:
        """Per-layer numbers of a traced window, given what :meth:`observe`
        read at its *start* and *end*."""
        units = len(win.latencies)
        out = span_metrics(tracer, first_span, units)
        out.update(self.setup_layers)
        for name in ("physics.con2prim_cells", "physics.con2prim_bisection", "physics.atmo_resets"):
            out[name] = end[name] - start[name]
        out["physics.newton_iters_max"] = end["newton_iters_max"]
        out["codegen.fallbacks"] = self.fallbacks
        out.update(self.driver_layers(start, end, units, win))
        return out

    def driver_layers(self, start, end, units, win) -> dict:
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Solver workloads
# ---------------------------------------------------------------------------


class SolverWorkload(Workload):
    """One ``step()`` of a grid solver is the unit of work."""

    min_units = CHECK_STEP
    n = 0
    config = SolverConfig()
    boundary = "periodic"
    reference_label = "plain single-process Solver"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.system = SRHDSystem(IdealGasEOS(gamma=GAMMA), ndim=2)
        self.grid = Grid((self.n, self.n), UNIT_BOUNDS)
        self.prim0 = self.make_inputs()
        self.solver = None
        self.steps = 0
        self.state_digest = None
        self.reference_times: list[float] = []

    def make_inputs(self) -> np.ndarray:
        centre = tuple(0.5 + self.rng.uniform(-0.05, 0.05, size=2))
        return blast_wave_2d(self.system, self.grid, center=centre, **BLAST)

    # -- driver surface each subclass adapts --------------------------------

    def build(self):
        raise NotImplementedError

    def interior(self) -> np.ndarray:
        return self.solver.gather_primitives()

    def cells(self) -> int:
        return self.grid.n_cells

    def metric_snapshots(self):
        return [self.solver.metrics.snapshot()]

    def timer_names(self) -> set:
        return {name for name, _ in self.solver.timers.items()}

    def worker_cpu_s(self) -> float:
        return 0.0

    def reference_config(self) -> SolverConfig:
        return self.config

    def reference_steps(self, traced: bool, smoke: bool) -> int:
        return CHECK_STEP

    # -- life cycle ---------------------------------------------------------

    def setup(self) -> None:
        self.solver = self.build()
        self.solver.step()
        self.steps = 1

    def after_step(self) -> None:
        if self.steps == CHECK_STEP:
            self.state_digest = digest(self.interior())

    def measure(self, units: int, tracer=None) -> Window:
        win = Window()
        calibrate = Calibration()
        clock = time.perf_counter
        # Workers are idle between steps, so their CPU time can be read
        # around the window; this process also calibrates and hashes
        # between steps, so its own is read around each step.
        worker_cpu0 = self.worker_cpu_s()
        for _ in range(units):
            cells = self.cells()
            cpu0 = time.process_time()
            win.attempted += 1
            t0 = clock()
            try:
                if tracer is None:
                    self.solver.step()
                else:
                    with tracer.root("bench.step"):
                        self.solver.step()
            except Exception as exc:
                traceback.print_exc()
                win.failed += 1
                win.aborted = True
                self.failed_checks.append(f"step {self.steps + 1} raised {exc!r}")
                break
            win.latencies.append(clock() - t0)
            win.cpu_s += time.process_time() - cpu0
            win.wall_s += win.latencies[-1]
            win.zone_updates += cells
            self.steps += 1
            calibrate()
            win.slowdowns.append(calibrate.last)
            self.after_step()
        if not win.aborted:
            win.cpu_s += self.worker_cpu_s() - worker_cpu0
            win.slowdown = calibrate.slowdown
        return win

    def close(self) -> None:
        # Everything the checks need is read before the driver goes away.
        self.final_state = self.interior()
        self.final_timers = self.timer_names()

    def reference(self, n_steps: int):
        """(digest after CHECK_STEP steps, step times after the first) of a
        plain single-process ``Solver`` on the same inputs."""
        ref = Solver(
            self.system, self.grid, self.prim0, self.reference_config(),
            make_boundaries(self.boundary),
        )
        times, ref_digest = [], None
        for step in range(1, max(n_steps, CHECK_STEP) + 1):
            t0 = time.perf_counter()
            ref.step()
            times.append(time.perf_counter() - t0)
            if step == CHECK_STEP:
                ref_digest = digest(ref.interior_primitives())
        return ref_digest, times[1:]

    def check_fused(self) -> None:
        names = self.final_timers
        self.check_compiled(
            "face_flux" in names and "reconstruct" not in names,
            f"kernel timers seen: {sorted(names)}",
        )

    def checks(self, traced: bool, smoke: bool) -> None:
        self.check("finite final state", bool(np.isfinite(self.final_state).all()))
        self.check_fused()
        ref_digest, self.reference_times = self.reference(self.reference_steps(traced, smoke))
        self.check(
            f"state after {CHECK_STEP} steps == {self.reference_label}",
            self.state_digest == ref_digest,
            f"sha256 {self.state_digest} != {ref_digest}",
        )


class Blast2dCext(SolverWorkload):
    name = "blast2d_cext"
    why = (
        "serial Solver, 256^2 blast, cext mc/hllc: the compiled face_flux and "
        "c2p_newton kernels do most of the work; exchange, executor and batch do none"
    )
    n = 256
    units_per_s = 6.0
    config = SolverConfig(kernel_target="cext", cfl=CFL)
    # flat is the interpreted twin the repository pins cext against bitwise
    reference_label = "kernel_target='flat' Solver"

    def build(self):
        return Solver(
            self.system, self.grid, self.prim0, self.config,
            make_boundaries(self.boundary),
        )

    def interior(self):
        return self.solver.interior_primitives()

    def reference_config(self):
        return SolverConfig(
            kernel_target="flat", cfl=CFL,
            reconstruction=self.config.reconstruction, riemann=self.config.riemann,
        )


class Kh2dPpmCext(Blast2dCext):
    name = "kh2d_ppm_cext"
    why = (
        "serial Solver, 96^2 periodic Kelvin-Helmholtz, cext ppm/hll: pointwise "
        "kernels compiled, reconstruct/riemann/update interpreted; a compiled-"
        "sweep gain must not move it, compiling ppm or update must"
    )
    n = 96
    units_per_s = 10.0
    config = SolverConfig(kernel_target="cext", cfl=CFL, reconstruction="ppm", riemann="hll")

    def make_inputs(self):
        # The seed drives the noise field laid over the seeded mode.
        return kelvin_helmholtz_2d(self.system, self.grid, seed=self.seed)

    def close(self):
        super().close()
        self.pipeline_system = self.solver.pipeline.system

    def check_fused(self):
        # ppm has no compiled sweep; the pointwise kernels must be compiled.
        self.check_compiled(
            isinstance(self.pipeline_system, CompiledSRHDSystem),
            f"pipeline system is {self.pipeline_system!r}",
        )


class Blast2dRanks16(SolverWorkload):
    name = "blast2d_ranks16"
    why = (
        "in-process DistributedSolver, 128^2 blast over 4x4 ranks of 32^2: halo "
        "exchange and per-rank Python dispatch dominate, kernels do little"
    )
    n = 128
    units_per_s = 12.0
    config = SolverConfig(kernel_target="cext", cfl=CFL)
    dims = (4, 4)

    def build(self):
        return DistributedSolver(
            self.system, self.grid, self.prim0, self.dims, self.config,
            make_boundaries(self.boundary),
        )

    def observe(self):
        seen = super().observe()
        log = self.solver.comm.traffic
        seen["halo_bytes"], seen["halo_messages"] = log.n_bytes, log.n_messages
        return seen

    def driver_layers(self, start, end, units, win):
        return {
            "comm.halo_bytes_per_step": (end["halo_bytes"] - start["halo_bytes"]) / units,
            "comm.halo_messages_per_step":
                (end["halo_messages"] - start["halo_messages"]) / units,
        }


class Blast2dProc2(SolverWorkload):
    name = "blast2d_proc2"
    why = (
        "ProcessSolver, the blast2d_cext problem on 2 worker processes with "
        "overlapped exchange: shm rings, the interior/strip split and executor "
        "overhead carry weight; state must equal the serial run bitwise"
    )
    n = 256
    units_per_s = 11.0
    config = SolverConfig(kernel_target="cext", cfl=CFL, overlap_exchange=True)
    dims = (2, 1)
    workers = 2

    #: per-layer metric -> worker counter, reported as the mean over ranks
    #: of seconds per step
    WORKER_COUNTERS = {
        "comm.shm_recv_wait_s": "comm.shm.recv_wait_s",
        "comm.shm_barrier_wait_s": "comm.shm.barrier_wait_s",
        "comm.shm_send_block_s": "comm.shm.send_block_s",
        "comm.overlap_interior_s": "comm.overlap.interior_seconds",
        "comm.overlap_strip_s": "comm.overlap.strip_seconds",
    }

    def build(self):
        return ProcessSolver(
            self.system, self.grid, self.prim0, self.dims, self.config,
            make_boundaries(self.boundary),
        )

    def reference_config(self):
        return SolverConfig(kernel_target="cext", cfl=CFL)

    def metric_snapshots(self):
        self.snapshots = self.solver.worker_snapshots()
        return [s["metrics"] for s in self.snapshots]

    def worker_cpu_s(self):
        return sum(s["process_seconds"] for s in self.solver.worker_snapshots())

    def timer_names(self):
        return {name for s in self.solver.worker_snapshots() for name in s["timers"]}

    def observe(self):
        seen = super().observe()
        seen["worker_cpu"] = np.array([s["process_seconds"] for s in self.snapshots])
        for metric, counter in self.WORKER_COUNTERS.items():
            seen[metric] = np.array(
                [s["metrics"]["counters"].get(counter, 0.0) for s in self.snapshots]
            )
        return seen

    def driver_layers(self, start, end, units, win):
        cpu = (end["worker_cpu"] - start["worker_cpu"]) / units
        out = {
            "parallel.worker_cpu_s_max": float(cpu.max()),
            "parallel.worker_cpu_s_sum": float(cpu.sum()),
            "parallel.executor_overhead_s": win.wall_s / units - float(cpu.max()),
        }
        for metric in self.WORKER_COUNTERS:
            out[metric] = float((end[metric] - start[metric]).mean()) / units
        if self.reference_times:
            serial = percentile(self.reference_times, 0.5)
            out["parallel.efficiency"] = serial / (
                self.workers * percentile(win.latencies, 0.5)
            )
        return out

    def close(self):
        try:
            super().close()
        finally:
            self.solver.close()

    def reference_steps(self, traced, smoke):
        # The reference doubles as the plain single-process baseline of the
        # same problem; traced runs step it long enough for a median, the
        # base of parallel.efficiency.
        return BASELINE_STEPS if traced and not smoke else CHECK_STEP


class AmrBlast2d(SolverWorkload):
    name = "amr_blast2d"
    why = (
        "serial AMRSolver, 32^2 root of 8^2 blocks, 2 levels, regrid every 2 "
        "steps: regrid, ghost fill, reflux, prolong/restrict and per-block "
        "pipeline construction do most of the work"
    )
    n = 32
    units_per_s = 14.0
    config = SolverConfig(kernel_target="cext", cfl=CFL)
    # Thresholds high enough that only the shocks refine: in the periodic
    # box the default ones refine every block within ~100 steps, and a
    # uniformly fine forest has no coarse-fine faces left to exercise.
    amr = AMRConfig(
        block_size=8, max_levels=2, regrid_interval=2,
        refine_threshold=0.4, coarsen_threshold=0.1,
    )

    def make_inputs(self):
        # Off-centre so the refined region is not symmetric about the block
        # lattice; the jitter stays well inside one fine cell so that every
        # seed refines the same blocks and runs compare across seeds.
        self.centre = (
            0.4 + self.rng.uniform(-0.004, 0.004),
            0.45 + self.rng.uniform(-0.004, 0.004),
        )

    def initial_data(self, system, grid):
        return blast_wave_2d(system, grid, center=self.centre, **BLAST)

    def build(self):
        return AMRSolver(
            self.system, self.grid, self.initial_data, self.config, self.amr,
            make_boundaries(self.boundary),
        )

    def setup(self):
        self.solver = self.build()
        self.totals0 = self.conserved_totals()
        self.solver.step()
        self.steps = 1

    def cells(self):
        return self.solver.forest.n_leaf_cells()

    def leaf_interiors(self):
        for leaf in self.solver.forest.leaves.values():
            yield leaf.grid, leaf.grid.interior_of(leaf.cons)

    def conserved_totals(self) -> np.ndarray:
        return sum(
            interior.reshape(self.system.nvars, -1).sum(axis=1) * grid.cell_volume
            for grid, interior in self.leaf_interiors()
        )

    def interior(self):
        return np.concatenate([interior.ravel() for _, interior in self.leaf_interiors()])

    def after_step(self):
        if self.steps == CHECK_STEP:
            # One step past the regrid at step 2, so the totals have been
            # through refinement, refluxing and a step on the new forest.
            self.totals_check = self.conserved_totals()
            self.levels_check = self.solver.leaf_count_by_level()

    def observe(self):
        seen = super().observe()
        seen["amr.regrids"] = self.solver.regrids
        seen["amr.cells_updated"] = self.solver.cells_updated
        seen["amr.leaves"] = len(self.solver.forest.leaves)
        return seen

    def driver_layers(self, start, end, units, win):
        return {
            "amr.regrids": end["amr.regrids"] - start["amr.regrids"],
            "amr.cells_updated": end["amr.cells_updated"] - start["amr.cells_updated"],
            "amr.leaves": end["amr.leaves"],
        }

    def checks(self, traced, smoke):
        self.check("finite final state", bool(np.isfinite(self.final_state).all()))
        self.check_fused()
        # Periodic box: refluxed AMR conserves D and tau to round-off
        # through the regrid.
        for var in (self.system.D, self.system.TAU):
            drift = abs(self.totals_check[var] / self.totals0[var] - 1.0)
            self.check(f"conserved total {var} drift <= 1e-11", drift <= 1e-11, f"{drift:.3e}")
        self.check("blast is refined", self.levels_check.get(1, 0) > 0, str(self.levels_check))


# ---------------------------------------------------------------------------
# Serve workloads
# ---------------------------------------------------------------------------

N_REQUESTS = 96


def _n_cells(spec: dict) -> int:
    return spec["nx"] ** 2 if spec["kind"] == "blast_wave_2d" else spec["nx"]


def _tube(problem: str, nx: int, t_final: float, p_left: float, **numerics) -> dict:
    base = SHOCK_TUBES[problem].left
    return dict(
        kind="shock_tube", problem=problem, nx=nx, t_final=t_final, cfl=CFL,
        left=dict(rho=base.rho, v=base.v, p=float(p_left)), **numerics,
    )


class ServeWorkload(Workload):
    """One closed-loop round: a single client submits every request, then
    drains.  A request's submit-to-result latency is the unit sample."""

    unit = "request"
    #: rounds of 96 requests per second of window
    units_per_s = 0.75
    max_batch = 0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.specs = self.make_inputs()
        self.service = None
        self.first_round = None
        self.requests = []
        #: counters of the service's internal per-batch solvers, summed by
        #: the batch.run span-exit hook (traced runs only)
        self.batch_snapshots: list[dict] = []
        self.batch_steps = 0

    def setup(self) -> None:
        self.service = BatchService(max_batch=self.max_batch)
        # Warm-up drain of one batch per batch_key: the kernel-system cache
        # is hot afterwards, as for a service that has been up a while.
        warmup = self.specs[:32]
        self.check_round(self.service.sweep(warmup), warmup)

    def attach(self, tracer) -> None:
        def on_batch_run(_result, args):
            solver = args[0]
            self.batch_snapshots.append(solver.metrics.snapshot())
            self.batch_steps += solver.steps

        tracer.on_exit["batch.run"] = on_batch_run

    def metric_snapshots(self):
        empty = {"counters": {}, "gauges": {}}
        return self.batch_snapshots or [empty]

    def observe(self):
        seen = super().observe()
        seen["batch.steps"] = self.batch_steps
        seen.update(self.service.metrics.snapshot()["counters"])
        return seen

    def measure(self, units: int, tracer=None) -> Window:
        win = Window()
        calibrate = Calibration()
        calibrate(10)
        clock = time.perf_counter
        for _ in range(units):
            cpu0 = time.process_time()
            t0 = clock()
            try:
                if tracer is None:
                    requests = self.one_round()
                else:
                    with tracer.root("bench.round"):
                        requests = self.one_round()
            except Exception as exc:
                traceback.print_exc()
                win.attempted += len(self.specs)
                win.failed += len(self.specs)
                win.aborted = True
                self.failed_checks.append(f"round raised {exc!r}")
                break
            win.wall_s += clock() - t0
            win.cpu_s += time.process_time() - cpu0
            calibrate(10)
            win.slowdowns.extend([calibrate.last] * len(requests))
            win.attempted += len(requests)
            win.failed += sum(1 for r in requests if r.status != OK)
            win.latencies.extend(r.latency_s for r in requests)
            win.zone_updates += sum(
                r.result["steps"] * _n_cells(s)
                for r, s in zip(requests, self.specs) if r.status == OK
            )
            self.requests.extend(requests)
            self.check_round(requests, self.specs)
        win.slowdown = calibrate.slowdown
        return win

    def one_round(self):
        for spec in self.specs:
            self.service.submit(spec)
        return self.service.drain()

    def driver_layers(self, start, end, units, win):
        def delta(key):
            return end.get(key, 0) - start.get(key, 0)

        ok = [r for r in self.requests if r.status == OK]
        return {
            "batch.steps": delta("batch.steps"),
            "batch.zone_updates_per_s": win.zone_updates / win.wall_s,
            "serve.scenarios_per_s": len(win.latencies) / win.wall_s,
            "serve.queue_wait_s_p50": percentile([r.queue_wait_s for r in ok], 0.5),
            "serve.solve_s_p50": percentile([r.solve_s for r in ok], 0.5),
            "serve.batches": delta("serve.batches"),
            "serve.batch_size_mean": delta("serve.admitted") / delta("serve.batches"),
            "serve.kernel_cache_hits": delta("serve.kernel_cache.hits"),
            "serve.kernel_cache_misses": delta("serve.kernel_cache.misses"),
            "serve.rejected": delta("serve.rejected"),
        }

    # -- correctness --------------------------------------------------------

    def check_round(self, requests, specs) -> None:
        """Every response is ok, complete, and belongs to its request."""
        wrong = [
            req.id for req, spec in zip(requests, specs)
            if req.status != OK
            or abs(req.result["t"] - spec["t_final"]) > 1e-12
            or req.result["steps"] < 1
            or not self.response_matches(spec, req.result)
        ]
        self.check("every response ok and its request's own", not wrong,
                   f"requests {wrong[:8]}")
        if len(requests) == N_REQUESTS:
            # Same inputs every round, so the responses repeat exactly.
            results = [r.result for r in requests]
            if self.first_round is None:
                self.first_round = results
            self.check("responses repeat across rounds", results == self.first_round)

    @staticmethod
    def response_matches(spec: dict, res: dict) -> bool:
        """Each request has its own driving pressure or amplitude, and this
        early it is still the extremum the response reports — which ties a
        response to its request's initial data."""
        if spec["kind"] == "shock_tube":
            left = spec["left"]
            return (
                math.isclose(res["p_max"], left["p"], rel_tol=1e-6)
                and res["rho_max"] >= left["rho"] * (1 - 1e-6)
            )
        if spec["kind"] == "smooth_wave":
            return (
                math.isclose(res["rho_max"], 1.0 + spec["amplitude"], rel_tol=0.01)
                and math.isclose(res["p_max"], 1.0, rel_tol=1e-6)
            )
        return math.isclose(res["p_max"], spec["p_in"], rel_tol=1e-6) and res["rho_max"] >= 1.0

    def checks(self, traced, smoke) -> None:
        cext_spec = next(s for s in self.specs if s["kernel_target"] == "cext")
        system = self.service.kernel_system(ScenarioSpec.from_dict(cext_spec))
        self.check_compiled(
            isinstance(system, CompiledSRHDSystem), f"service resolved {system!r}"
        )


class ServeSweep96(ServeWorkload):
    name = "serve_sweep96"
    why = (
        "BatchService(max_batch=32), 96 batch-compatible RP1 variants (nx=512, "
        "cext) per round -> 3 full-width batches: core.batch and the batched "
        "kernels do the work, grouping and admission are negligible"
    )
    max_batch = 32
    nx = 512
    t_final = 0.0125
    #: fixed bound on the density L1 error against the exact Riemann
    #: solution at this nx and t_final, for any left.p in [10, 16]
    l1_bound = 0.02

    def make_inputs(self):
        return [
            _tube("RP1", self.nx, self.t_final, p, kernel_target="cext")
            for p in self.rng.uniform(10.0, 16.0, N_REQUESTS)
        ]

    def checks(self, traced, smoke):
        super().checks(traced, smoke)
        # The service reports extrema only, so the profile check reruns two
        # of the scenarios through the plain Solver with the same numerics.
        for spec in (self.specs[0], self.specs[-1]):
            err = self.l1_error(spec)
            self.check(
                f"density L1 error vs exact Riemann <= {self.l1_bound}",
                err <= self.l1_bound, f"{err:.4f} at left.p={spec['left']['p']:.3f}",
            )

    def l1_error(self, spec: dict) -> float:
        scenario = ScenarioSpec.from_dict(spec)
        system, grid = scenario.build_system(), scenario.build_grid()
        solver = Solver(
            system, grid, scenario.build_initial(system, grid),
            SolverConfig(kernel_target="cext", cfl=CFL), make_boundaries("outflow"),
        )
        solver.run(t_final=self.t_final)
        exact = ExactRiemannSolver(
            RiemannState(**spec["left"]), SHOCK_TUBES["RP1"].right, GAMMA
        )
        rho_exact = exact.solution_on_grid(grid.coords(0), self.t_final, x0=0.5)[0]
        rho = solver.interior_primitives()[system.RHO]
        return float(np.sum(np.abs(rho - rho_exact)) * grid.dx[0])


class ServeMixed(ServeWorkload):
    name = "serve_mixed"
    why = (
        "BatchService(max_batch=8), 96 requests over 4 incompatible batch keys "
        "(RP1, RP2, numpy ppm wave, 2-D blast), 12 narrow batches: grouping, "
        "kernel cache, batch set-up and numpy kernels carry weight"
    )
    max_batch = 8

    def make_inputs(self):
        rng = self.rng
        families = (
            lambda: _tube("RP1", 256, 0.025, rng.uniform(10.0, 16.0), kernel_target="cext"),
            lambda: _tube("RP2", 512, 0.0125, rng.uniform(800.0, 1200.0),
                          kernel_target="cext", riemann="hll"),
            lambda: dict(
                kind="smooth_wave", nx=256, t_final=0.02, cfl=CFL,
                kernel_target="numpy", reconstruction="ppm", riemann="hll",
                amplitude=float(rng.uniform(0.1, 0.3)),
            ),
            lambda: dict(
                kind="blast_wave_2d", nx=32, t_final=0.01, cfl=CFL,
                kernel_target="cext", p_in=float(rng.uniform(80.0, 120.0)),
            ),
        )
        return [families[i % 4]() for i in range(N_REQUESTS)]


WORKLOADS = {
    w.name: w
    for w in (
        Blast2dCext, Kh2dPpmCext, Blast2dRanks16, Blast2dProc2,
        ServeSweep96, ServeMixed, AmrBlast2d,
    )
}
