"""Compiled-kernel benchmark (BENCH_compiled.json).

Times the same 2-D blast evolution under each kernel target — handwritten
``numpy``, SymPy-generated ``flat``, and cffi-compiled ``cext`` — on the
serial solver and on the 4-worker process executor, plus a ppm/hll
Kelvin-Helmholtz arm for the wide-stencil half of the fused sweep.  The
comparison basis is CPU seconds per step (``time.process_time``,
per-worker critical path on the process backend), which is robust against
host oversubscription in CI containers; wall time is reported alongside.

The run doubles as an end-to-end parity check: all targets must land on
the same solution (numpy within a tight tolerance, flat vs cext
bit-identical — the C emitter prints the same CSE'd expression tree).

Smoke mode (REPRO_BENCH_SMOKE=1) shrinks grid/steps; layout is identical.
When no C toolchain is available the cext rows are omitted and the
speedup assertions are skipped — the fallback path itself is covered by
the test suite.
"""

import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.boundary import make_boundaries
from repro.codegen import cext_available, clear_cache
from repro.codegen.cext import STENCIL_DISABLE_ENV
from repro.core import SolverConfig
from repro.core.parallel import ProcessSolver
from repro.core.solver import Solver
from repro.eos import IdealGasEOS
from repro.harness import Report
from repro.mesh.decomposition import choose_dims
from repro.mesh.grid import Grid
from repro.physics.initial_data import blast_wave_2d, kelvin_helmholtz_2d
from repro.physics.srhd import SRHDSystem

from .conftest import RESULTS_DIR, emit


#: problem -> (initial data, boundary, scheme overrides)
PROBLEMS = {
    "blast": (blast_wave_2d, "outflow", {}),
    "kh_ppm": (
        kelvin_helmholtz_2d, "periodic",
        {"reconstruction": "ppm", "riemann": "hll"},
    ),
}


def _setup(n, problem="blast"):
    system = SRHDSystem(IdealGasEOS(), ndim=2)
    grid = Grid((n, n), ((0.0, 1.0), (0.0, 1.0)))
    return system, grid, PROBLEMS[problem][0](system, grid)


# Benchmark "targets" are solver configurations, not just codegen targets:
# cext_pointwise is the per-kernel fallback of the compiled backend
# (pointwise kernels compiled, stencil stages interpreted — selected the way
# a deployment would, through REPRO_CEXT_STENCIL_DISABLE), cext is the fused
# sweep.
TARGET_CONFIGS = {
    "numpy": {"kernel_target": "numpy"},
    "flat": {"kernel_target": "flat"},
    "cext_pointwise": {"kernel_target": "cext"},
    "cext": {"kernel_target": "cext"},
}


@contextmanager
def _stencil_switch(target: str):
    """Build *target*'s solver with the stencil module disabled when it is
    the fallback arm.  The in-memory kernel cache is keyed without the
    switch, so it is dropped on both sides (outside every timed window)."""
    if target != "cext_pointwise":
        yield
        return
    clear_cache()
    os.environ[STENCIL_DISABLE_ENV] = "1"
    try:
        yield
    finally:
        del os.environ[STENCIL_DISABLE_ENV]
        clear_cache()

# Per-kernel stage timers worth a column.  "reconstruct"/"riemann" only
# tick on the interpreted stencil path, "face_flux" only on the fused one;
# absent stages report 0.0 so every row has the same columns.
STAGE_NAMES = ("con2prim", "reconstruct", "riemann", "face_flux", "update")


def _serial_case(target: str, n: int, n_steps: int, problem: str = "blast") -> dict:
    system, grid, prim = _setup(n, problem)
    _, boundary, scheme = PROBLEMS[problem]
    with _stencil_switch(target):
        solver = Solver(
            system,
            grid,
            prim,
            SolverConfig(cfl=0.4, **TARGET_CONFIGS[target], **scheme),
            make_boundaries(boundary),
        )
    # Warm-up step: generates/compiles/loads kernels, allocates scratch.
    solver.run(t_final=1.0, max_steps=1)
    solver.timers.reset()  # stage columns must cover the timed window only
    cpu0, wall0 = time.process_time(), time.perf_counter()
    solver.run(t_final=1.0, max_steps=1 + n_steps)
    cpu_s = time.process_time() - cpu0
    wall_s = time.perf_counter() - wall0
    stages = {
        name: (solver.timers[name].elapsed / n_steps if name in solver.timers
               else 0.0)
        for name in STAGE_NAMES
    }
    ns_per_face = None
    if "face_flux" in solver.timers:
        # One timed entry is one full-axis sweep: n + 1 faces on every
        # ghosted transverse row.
        sweeps = solver.timers["face_flux"]
        faces = sweeps.count * (n + 1) * grid.shape_with_ghosts[0]
        ns_per_face = 1e9 * sweeps.elapsed / faces
    return {
        "target": target,
        "steps": n_steps,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "cpu_per_step": cpu_s / n_steps,
        "stage_per_step": stages,
        "face_flux_ns_per_face": ns_per_face,
        "prims": grid.interior_of(solver.primitives()).copy(),
    }


def _process_case(target: str, n: int, n_steps: int, workers: int = 4) -> dict:
    system, grid, prim = _setup(n)
    dims = choose_dims(workers, 2)
    with ProcessSolver(
        system, grid, prim, dims,
        config=SolverConfig(cfl=0.4, executor="process", **TARGET_CONFIGS[target]),
    ) as solver:
        solver.step()  # warm-up: per-worker kernel build/load
        snaps0 = solver.worker_snapshots()
        wall0 = time.perf_counter()
        solver.run(t_final=1.0, max_steps=1 + n_steps)
        wall_s = time.perf_counter() - wall0
        snaps1 = solver.worker_snapshots()
        prims = solver.gather_primitives().copy()
    cpu_s = max(
        s1["process_seconds"] - s0["process_seconds"]
        for s0, s1 in zip(snaps0, snaps1)
    )
    return {
        "target": target,
        "workers": workers,
        "steps": n_steps,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "cpu_per_step": cpu_s / n_steps,
        "prims": prims,
    }


def _best_per_target(reps: int, targets, case_fn, *args) -> dict:
    """Best (min CPU) of *reps* measurements per target.

    Reps are interleaved round-robin across targets rather than run
    back-to-back, so slow drift on an oversubscribed CI host (another
    container waking up mid-benchmark) penalizes every target equally
    instead of whichever one happened to run last.  Taking the minimum
    then discards the scheduling noise.  All reps of a target are
    bit-identical by construction, which doubles as a determinism check.
    """
    best: dict[str, dict] = {}
    for _ in range(reps):
        for t in targets:
            cand = case_fn(t, *args)
            cur = best.get(t)
            if cur is None:
                best[t] = cand
            else:
                assert cand["prims"].tobytes() == cur["prims"].tobytes(), (
                    f"{t}: repeated run was not bit-identical"
                )
                if cand["cpu_per_step"] < cur["cpu_per_step"]:
                    best[t] = cand
    for case in best.values():
        case["reps"] = reps
    return best


def test_bench_compiled_kernels():
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    n, n_steps, reps = (24, 3, 2) if smoke else (64, 12, 4)
    n_big, big_steps, big_reps = (32, 2, 1) if smoke else (128, 8, 2)
    n_ppm, ppm_steps, ppm_reps = (24, 2, 1) if smoke else (96, 8, 3)
    workers = 4
    have_cext = cext_available(ndim=2)
    targets = (
        ("numpy", "flat", "cext_pointwise", "cext")
        if have_cext
        else ("numpy", "flat")
    )
    proc_targets = ("numpy", "flat", "cext") if have_cext else ("numpy", "flat")
    big_targets = (
        ("numpy", "cext_pointwise", "cext") if have_cext else ("numpy",)
    )

    serial = _best_per_target(reps, targets, _serial_case, n, n_steps)
    proc = _best_per_target(reps, proc_targets, _process_case, n, n_steps, workers)
    big = _best_per_target(big_reps, big_targets, _serial_case, n_big, big_steps)
    ppm = _best_per_target(
        ppm_reps, targets, _serial_case, n_ppm, ppm_steps, "kh_ppm"
    )

    # Parity: every target lands on the same solution.
    for cases, tgts in ((serial, targets), (big, big_targets), (ppm, targets)):
        ref = cases["numpy"]["prims"]
        for t in tgts[1:]:
            assert np.allclose(cases[t]["prims"], ref, rtol=1e-11, atol=1e-13), (
                f"serial {t} solution diverged from numpy"
            )
    if have_cext:
        # Same expression tree, same per-op rounding: flat == cext bitwise,
        # and the fused stencil sweep does not change a single bit.
        flat_bytes = serial["flat"]["prims"].tobytes()
        assert flat_bytes == serial["cext"]["prims"].tobytes()
        assert flat_bytes == serial["cext_pointwise"]["prims"].tobytes()
        assert (
            big["cext"]["prims"].tobytes()
            == big["cext_pointwise"]["prims"].tobytes()
        )
        ppm_bytes = ppm["flat"]["prims"].tobytes()
        assert ppm_bytes == ppm["cext"]["prims"].tobytes()
        assert ppm_bytes == ppm["cext_pointwise"]["prims"].tobytes()
        # No interpreted stencil stage is left on a fused ppm run.
        ppm_stages = ppm["cext"]["stage_per_step"]
        assert ppm_stages["reconstruct"] == 0.0 and ppm_stages["riemann"] == 0.0
        assert ppm_stages["face_flux"] > 0.0
    for t in proc_targets:
        # Each target is serial-vs-process bit-exact (4-worker decomposition).
        assert proc[t]["prims"].tobytes() == serial[t]["prims"].tobytes(), (
            f"{t}: process-executor solution diverged from serial"
        )

    report = Report(
        experiment="BENCH-compiled",
        title=f"kernel-target rhs cost, {n}x{n} blast, {n_steps} steps",
        headers=[
            "target", "serial_cpu_per_step", "serial_speedup",
            "con2prim", "recon", "riemann", "face_flux", "update",
        ],
    )
    base_s = serial["numpy"]["cpu_per_step"]
    for t in targets:
        st = serial[t]["stage_per_step"]
        report.add_row(
            t,
            serial[t]["cpu_per_step"],
            base_s / serial[t]["cpu_per_step"],
            st["con2prim"], st["reconstruct"], st["riemann"],
            st["face_flux"], st["update"],
        )
    if not have_cext:
        report.add_note("no C toolchain: cext rows omitted")
    if have_cext:
        report.add_note(
            f"fused sweep: {big['cext']['face_flux_ns_per_face']:.0f} ns/face "
            f"mc/hllc ({n_big}x{n_big}), "
            f"{ppm['cext']['face_flux_ns_per_face']:.0f} ns/face ppm/hll "
            f"({n_ppm}x{n_ppm})"
        )
    report.add_note(
        f"process arm ({workers} workers), {n_big}x{n_big} arm and "
        f"{n_ppm}x{n_ppm} ppm/hll arm in BENCH_compiled.json"
    )
    emit(report)

    result = {
        "experiment": "compiled kernel target comparison",
        "grid": [n, n],
        "grid_big": [n_big, n_big],
        "grid_ppm": [n_ppm, n_ppm],
        "steps": n_steps,
        "workers": workers,
        "smoke": smoke,
        "cext_available": have_cext,
        "serial": {
            t: {k: v for k, v in c.items() if k != "prims"}
            for t, c in serial.items()
        },
        "serial_big": {
            t: {k: v for k, v in c.items() if k != "prims"}
            for t, c in big.items()
        },
        "serial_ppm": {
            t: {k: v for k, v in c.items() if k != "prims"}
            for t, c in ppm.items()
        },
        "process": {
            t: {k: v for k, v in c.items() if k != "prims"}
            for t, c in proc.items()
        },
    }
    for arm, cases in (
        ("serial", serial), ("serial_big", big), ("serial_ppm", ppm),
        ("process", proc),
    ):
        base = cases["numpy"]["cpu_per_step"]
        for t, c in cases.items():
            result[arm][t]["speedup_vs_numpy"] = base / c["cpu_per_step"]
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_compiled.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\ncompiled-kernel benchmark -> {path}")

    if not have_cext:
        pytest.skip("no C toolchain: speedup assertions skipped")
    if smoke:
        # Smoke windows are ~10 ms of CPU — too short for a strict win to
        # be reproducible on a shared CI core.  Bound the damage instead;
        # the full-size run asserts the strict speedup.
        assert (
            serial["cext"]["cpu_per_step"]
            < serial["numpy"]["cpu_per_step"] * 1.5
        )
        assert proc["cext"]["cpu_per_step"] < proc["numpy"]["cpu_per_step"] * 1.5
        return
    # The point of the compiled target: strictly faster than the numpy
    # path on both executors, and the fused stencil sweep well ahead of the
    # per-kernel fallback.
    assert serial["cext"]["cpu_per_step"] < serial["numpy"]["cpu_per_step"], (
        "cext not faster than numpy on the serial solver"
    )
    assert proc["cext"]["cpu_per_step"] < proc["numpy"]["cpu_per_step"], (
        "cext not faster than numpy on the process executor"
    )
    assert (
        big["numpy"]["cpu_per_step"] >= 1.5 * big["cext"]["cpu_per_step"]
    ), "128x128: fused cext below the 1.5x-over-numpy bar"
    # Both cext arms evaluate each side through the same joint face_side
    # tail (pointwise: one compiled kernel per side, then the interpreted
    # combine), so the fused sweep's lead is the reconstruction, the
    # combine and the interface temporaries.  Measured with that shared
    # tail: 2.1x (64^2) and 2.2x (128^2) on mc/hllc, 1.9x on ppm/hll, whose
    # interpreted PPM already does each piece of work once; the bar sits
    # at 1.5x on every arm.
    for cases, label in (
        (serial, f"{n}x{n}"), (big, f"{n_big}x{n_big}"),
        (ppm, f"{n_ppm}x{n_ppm} ppm/hll"),
    ):
        assert (
            cases["cext_pointwise"]["cpu_per_step"]
            >= 1.5 * cases["cext"]["cpu_per_step"]
        ), f"{label}: fused cext below the 1.5x-over-pointwise bar"
