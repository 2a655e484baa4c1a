"""One driver contract: every driver steps and runs through core.stepping.

``Solver``, ``BatchSolver``, ``DistributedSolver`` and ``AMRSolver`` (at
one and at two ranks) share :class:`repro.core.stepping.Driver`'s
``step``/``run``; what they are allowed to differ in is the patch label a
guard names, the family block of a step record and whether ``solver.dt`` is
observed.  ``ProcessSolver`` keeps its parent-side ``step`` and takes the
shared ``run``, so it joins the run-argument checks.
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
from repro.core.stepping import Driver
from repro.eos import IdealGasEOS
from repro.mesh.grid import Grid
from repro.obs import StepRecorder
from repro.obs.events import BufferSink
from repro.physics.initial_data import RP1, shock_tube
from repro.physics.srhd import SRHDSystem
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


#: name -> (factory, label regex of its last patch, record family key,
#:          whether a step observes solver.dt)
DRIVERS = {
    "Solver": (_unigrid, r": variable 0, cell \(", None, True),
    "BatchSolver": (_batch, r": scenario 1, variable 0, interior cell \(", "batch", True),
    "DistributedSolver": (_distributed, r": rank 1, variable 0, cell \(", "comm", True),
    # The golden AMR stream carries no solver.dt histogram.
    "AMRSolver": (_amr, r": block .*, variable 0, interior cell \(", "amr", False),
    # AMRSolver over two in-process ranks (the case id keeps test ids stable).
    "DistributedAMRSolver": (
        _distributed_amr, r": rank 1, block .*, variable 0, interior cell \(", "amr", False,
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
        factory, label, _family, _dt = driver_case
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

    def test_one_record_per_step_with_family_extras(self, driver_case):
        factory, _label, family, observes_dt = driver_case
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
        assert hist["count"] == (2 if observes_dt else 0)


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
