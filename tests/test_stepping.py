"""One driver contract: every driver steps and runs through core.stepping.

``Solver``, ``BatchSolver``, ``DistributedSolver`` and ``AMRSolver`` (at
one and at two ranks) share :class:`repro.core.stepping.Driver`'s
``step``/``run``; what they are allowed to differ in is the patch label a
guard names and the family block of a step record.  ``ProcessSolver`` keeps
its parent-side ``step`` and takes the shared ``run``, so it joins the
run-argument checks.
"""

from __future__ import annotations

import importlib
import importlib.util
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from repro.boundary import make_boundaries
from repro.core import BatchSolver, DistributedSolver, ProcessSolver, Solver, SolverConfig
from repro.core.amr_solver import AMRConfig, AMRSolver
from repro.core.diagnostics import first_nonfinite
from repro.core.pipeline import HydroPipeline
from repro.core.stepping import Driver
from repro.eos import IdealGasEOS
from repro.mesh.grid import Grid
from repro.obs import StepRecorder
from repro.obs.events import BufferSink
from repro.physics.initial_data import RP1, shock_tube
from repro.physics.srhd import SRHDSystem
from repro.time_integration.ssprk import make_integrator
from repro.utils.errors import ConfigurationError, NumericsError


def _rp1(n=64):
    system = SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1)
    grid = Grid((n,), ((0.0, 1.0),))
    return system, grid, shock_tube(system, grid, RP1)


def _unigrid(recorder=None):
    system, grid, prim0 = _rp1()
    return Solver(
        system, grid, prim0, SolverConfig(), make_boundaries("outflow"),
        recorder=recorder,
    )


def _batch(recorder=None):
    system, grid, prim0 = _rp1()
    return BatchSolver(system, grid, [prim0, prim0.copy()], recorder=recorder)


def _distributed(recorder=None):
    system, grid, prim0 = _rp1()
    return DistributedSolver(system, grid, prim0, (2,), recorder=recorder)


def _amr(recorder=None, cls=AMRSolver, **kw):
    system, grid, _ = _rp1()
    return cls(
        system, grid, lambda s, g: shock_tube(s, g, RP1),
        amr=AMRConfig(block_size=8, max_levels=2), recorder=recorder, **kw,
    )


def _distributed_amr(recorder=None):
    return _amr(recorder, n_ranks=2)


#: name -> (factory, label regex of its last patch, record family key)
DRIVERS = {
    "Solver": (_unigrid, r": variable 0, cell \(", None),
    "BatchSolver": (_batch, r": scenario 1, variable 0, interior cell \(", "batch"),
    "DistributedSolver": (_distributed, r": rank 1, variable 0, cell \(", "comm"),
    "AMRSolver": (_amr, r": block .*, variable 0, interior cell \(", "amr"),
    # AMRSolver over two in-process ranks (the case id keeps test ids stable).
    "DistributedAMRSolver": (
        _distributed_amr, r": rank 1, block .*, variable 0, interior cell \(", "amr",
    ),
}


@pytest.fixture(params=sorted(DRIVERS))
def driver_case(request):
    return DRIVERS[request.param]


class TestStepContract:
    def test_every_driver_steps_through_the_shared_core(self, driver_case):
        solver = driver_case[0]()
        assert isinstance(solver, Driver)
        assert type(solver).step is Driver.step
        assert type(solver).run is Driver.run

    @pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan"), float("inf")])
    def test_bad_dt_names_the_step(self, driver_case, dt):
        solver = driver_case[0]()
        with pytest.raises(NumericsError, match=r"invalid time step .*\(step 1\)"):
            solver.step(dt=dt)
        assert (solver.steps, solver.t) == (0, 0.0)

    def test_nonfinite_state_names_the_patch(self, driver_case):
        factory, label, _family = driver_case
        solver = factory()
        integrate = solver._integrate

        def poisoned(dt):
            integrate(dt)
            *_, (_label, _pipeline, arr) = solver._patches()
            arr[(0,) + (-1,) * (arr.ndim - 1)] = np.nan

        solver._integrate = poisoned
        with pytest.raises(NumericsError, match="non-finite conserved state") as err:
            solver.step(dt=1e-4)
        assert "after step 1 at t=0.0001" in str(err.value)
        assert re.search(label, str(err.value)), str(err.value)

    @pytest.mark.parametrize("where", ["second patch", "ghost cell"])
    def test_stack_reduction_finds_what_the_patch_walk_finds(self, driver_case, where):
        """The guard reduces each stack once; the offender and the message
        are still those of walking ``_patches()`` one patch at a time — a
        later patch of a stack is named, and a ghost cell raises exactly
        where the walk reads ghosts (unigrid and rank patches), nowhere
        else (AMR leaves and batches read their interiors)."""
        solver = driver_case[0]()
        integrate = solver._integrate
        expected = []

        def poisoned(dt):
            integrate(dt)
            if where == "ghost cell":
                stack = solver._cons.stacks[-1]
                stack[(0,) * stack.ndim] = np.nan
            else:
                patches = [arr for _, _, arr in solver._patches()]
                arr = patches[min(1, len(patches) - 1)]
                arr[(0,) + (1,) * (arr.ndim - 1)] = np.inf
            for label, pipeline, arr in solver._patches():
                hit = first_nonfinite(arr)
                if hit is not None:
                    (var, cell), interior = hit, arr.shape[1:] == pipeline.grid.shape
                    label = label(cell) if callable(label) else label
                    kind = "interior cell" if interior else "cell"
                    expected.append(f"{label}variable {var}, {kind} {cell}")
                    break

        solver._integrate = poisoned
        if where == "ghost cell" and solver._finite_interior:
            solver.step(dt=1e-4)
            assert expected == []
            return
        with pytest.raises(NumericsError, match="non-finite conserved state") as err:
            solver.step(dt=1e-4)
        assert len(expected) == 1 and str(err.value).endswith(expected[0]), (
            str(err.value), expected,
        )

    def test_one_record_per_step_with_family_extras(self, driver_case):
        factory, _label, family = driver_case
        recorder = StepRecorder(BufferSink())
        solver = factory(recorder)
        solver.step()
        solver.step()
        steps = [r for r in recorder.sink.records if r["event"] == "step"]
        assert [r["step"] for r in steps] == [1, 2]
        assert steps[-1]["t"] == solver.t
        for record in steps:
            assert {"comm", "amr", "batch"} & set(record) == ({family} if family else set())
        hist = solver.metrics.snapshot()["histograms"].get("solver.dt", {"count": 0})
        # Every driver observes solver.dt once a step, AMR included.
        assert hist["count"] == 2


class TestRunContract:
    @pytest.fixture(params=sorted(DRIVERS) + ["ProcessSolver"])
    def solver(self, request):
        if request.param != "ProcessSolver":
            yield DRIVERS[request.param][0]()
            return
        system, grid, prim0 = _rp1()
        with ProcessSolver(
            system, grid, prim0, (2,), config=SolverConfig(executor="process"),
            step_timeout_s=60.0,
        ) as proc:
            yield proc

    def test_run_arguments_and_step_limit(self, solver, caplog):
        assert type(solver).run is Driver.run
        with pytest.raises(ConfigurationError, match="requires a checkpoint_path"):
            solver.run(t_final=1.0, max_steps=2, checkpoint_every=2)
        assert solver.steps == 0
        logger = logging.getLogger("repro.core")
        logger.addHandler(caplog.handler)
        try:
            solver.run(t_final=1.0, max_steps=2)
        finally:
            logger.removeHandler(caplog.handler)
        assert solver.steps == 2
        limits = [r for r in caplog.records if "step limit 2 reached" in r.message]
        assert len(limits) == 1
        with pytest.raises(ConfigurationError, match="is before t="):
            solver.run(t_final=0.5 * solver.t)

    def test_callback_sees_every_committed_step(self, driver_case):
        solver = driver_case[0]()
        seen = []
        solver.run(t_final=1.0, max_steps=3, callback=lambda s: seen.append(s.steps))
        assert seen == [1, 2, 3]


def _overlapped(recorder=None):
    system, grid, prim0 = _rp1()
    return DistributedSolver(
        system, grid, prim0, (2,), SolverConfig(overlap_exchange=True), recorder=recorder,
    )


class TestOneRecoveryPerState:
    """A step recovers its state once per RK stage: the recovery — and the
    exchange — that ``compute_dt`` or a read made of the committed state is
    RK stage 1's.  Counted per driver as recovery sweeps (one per stack per
    call) and exchanges (halo exchanges; ghost fills on AMR) per step."""

    DRIVERS = {
        "Solver": _unigrid,
        "BatchSolver": _batch,
        "DistributedSolver": _distributed,
        "DistributedSolver-overlap": _overlapped,
        "AMRSolver": _amr,
        "AMRSolver-2ranks": _distributed_amr,
    }

    @pytest.fixture
    def counts(self, monkeypatch):
        import repro.core.distributed as distributed

        n = {"sweeps": 0, "exchanges": 0}

        def counting(real, key):
            def wrapped(*args, **kwargs):
                n[key] += 1
                return real(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(
            HydroPipeline, "recover_primitives",
            counting(HydroPipeline.recover_primitives, "sweeps"),
        )
        for name in ("exchange_halos", "post_halos"):
            monkeypatch.setattr(distributed, name, counting(getattr(distributed, name), "exchanges"))
        monkeypatch.setattr(AMRSolver, "_fill_ghosts", counting(AMRSolver._fill_ghosts, "exchanges"))
        return n

    @staticmethod
    def _per_stage(driver) -> dict:
        """What one RK stage costs *driver*: a sweep per stack, and an
        exchange where ghosts come from other patches."""
        exchanges = isinstance(driver, (DistributedSolver, AMRSolver))
        return {"sweeps": len(driver._stacks), "exchanges": int(exchanges)}

    def _expect(self, counts, driver, stages):
        per = self._per_stage(driver)
        assert counts == {k: stages * v for k, v in per.items()}
        for k in counts:
            counts[k] = 0

    @pytest.fixture(params=sorted(DRIVERS))
    def driver(self, request, counts):
        driver = self.DRIVERS[request.param]()
        for k in counts:
            counts[k] = 0
        return driver

    @pytest.mark.parametrize(
        "name", ["BatchSolver", "DistributedSolver", "DistributedSolver-overlap", "Solver"]
    )
    def test_construction_recovers_nothing_and_the_first_read_once(self, name, counts):
        """A constructor commits its conserved state and recovers nothing;
        the first read recovers it like any later state (AMR is left out:
        its initial refinement reads at construction)."""
        driver = self.DRIVERS[name]()
        assert counts["sweeps"] == 0
        for k in counts:
            counts[k] = 0
        for _ in range(2):
            driver.interior_primitives()
            assert counts == self._per_stage(driver)

    def test_a_cfl_step_recovers_once_per_stage(self, driver, counts):
        stages = driver.integrator.stages
        for _ in range(3):  # the first step is an ordinary step
            driver.step()
            self._expect(counts, driver, stages)

    def test_an_explicit_dt_step_reuses_a_read(self, driver, counts):
        stages = driver.integrator.stages
        driver.step()
        self._expect(counts, driver, stages)
        driver.step(dt=1e-4)  # no read: stage 1 recovers its own
        self._expect(counts, driver, stages)
        driver.interior_primitives()
        driver.step(dt=1e-4)  # the read is stage 1's
        self._expect(counts, driver, stages)

    def test_stage_one_recovers_afresh_after_a_new_state(self, driver, counts):
        """A read's recovery is dropped by whatever replaces the committed
        state — ``install_state``, a restack, an eviction — so the next
        stage 1 recovers again; a state carrying a recovery (a distributed
        driver's cache) hands it on."""
        stages = driver.integrator.stages
        driver.step()
        self._expect(counts, driver, stages)
        replacements = []
        if not isinstance(driver, BatchSolver):
            state = driver.state()
            replacements.append(lambda: driver.install_state(state))
        if isinstance(driver, BatchSolver):
            replacements.append(lambda: driver._evict([1], "evicted by the test"))
        if isinstance(driver, AMRSolver):
            replacements.append(lambda: (driver._invalidate_plans(), driver._stacks_now()))
        assert replacements
        for replace in replacements:
            driver.interior_primitives()
            replace()
            for k in counts:
                counts[k] = 0
            driver.step(dt=1e-4)
            self._expect(counts, driver, stages)
        if isinstance(driver, DistributedSolver):
            driver.interior_primitives()
            state = driver.state()
            driver.install_state(state)
            for k in counts:
                counts[k] = 0
            driver.step(dt=1e-4)
            self._expect(counts, driver, stages - 1)

    def test_process_workers_recover_once_per_stage(self):
        """Two worker processes: each CFL step recovers the 64 cells once
        per stage and exchanges once per stage, first step and later."""
        system, grid, prim0 = _rp1()
        sink = BufferSink()
        with ProcessSolver(
            system, grid, prim0, (2,), config=SolverConfig(executor="process"),
            recorder=StepRecorder(sink), step_timeout_s=60.0,
        ) as proc:
            for _ in range(3):
                proc.step()
        stages = make_integrator(proc.config.integrator).stages
        steps = [r for r in sink.records if r["event"] == "step"]
        assert len(steps) == 3
        for record in steps:
            assert record["counters"]["con2prim.cells"] == stages * grid.n_cells
            comm = record["comm"]
            assert comm["halo_bytes"] == stages * comm["halo_bytes_model_per_exchange"]


class TestPrimitiveReads:
    """A primitive read hands out a copy: writing into it leaves the
    driver's primitive cache — and so the next ``compute_dt`` — alone."""

    READS = {
        "primitives": lambda s, P: s.primitives()[P],
        "interior_primitives": lambda s, P: s.interior_primitives()[P],
        "scenario_primitives": lambda s, P: s.scenario_primitives(0)[P],
        "scenario_interior_primitives": lambda s, P: s.scenario_interior_primitives(0)[P],
    }

    @pytest.mark.parametrize("target", ["numpy", "cext"])
    @pytest.mark.parametrize("read", sorted(READS))
    def test_a_written_read_moves_no_step(self, read, target):
        if target == "cext":
            from .conftest import require_cext

            require_cext(1)
        system, grid, prim0 = _rp1(100)
        config = SolverConfig(kernel_target=target)

        def run(write):
            if read.startswith("scenario"):
                solver = BatchSolver(system, grid, [prim0.copy()], config)
            else:
                solver = Solver(system, grid, prim0.copy(), config)
            for _ in range(3):
                solver.step()
            if write:
                self.READS[read](solver, system.P)[...] *= 4.0
            dt = solver.step()
            return dt, solver.cons.tobytes()

        assert run(write=True) == run(write=False)


def test_trace_patch_points_resolve():
    """bench/trace.py looks every PATCH_POINTS path up as
    ``owner.__dict__[attr]``; a name that moved (or is merely inherited)
    must fail here, in tier-1, not at the benchmark gate."""
    path = Path(__file__).resolve().parents[1] / "bench" / "trace.py"
    spec = importlib.util.spec_from_file_location("_bench_trace_readonly", path)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    missing = []
    for name, module, dotted in trace.PATCH_POINTS:
        owner = importlib.import_module(module)
        *parents, attr = dotted.split(".")
        for part in parents:
            owner = getattr(owner, part)
        if attr not in vars(owner):
            missing.append(f"{name}: {module}.{dotted}")
    assert not missing, missing
