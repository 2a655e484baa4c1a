"""E8 (Table III): per-kernel device speedups (calibrated CPU, modelled GPU),
plus the scratch-workspace vs fresh-allocation benchmark (BENCH_kernels.json)."""

import gc
import json
import os
import time
import tracemalloc

import numpy as np
import pytest

from repro import Grid, Solver, SolverConfig, IdealGasEOS, SRHDSystem
from repro.boundary import make_boundaries
from repro.core.pipeline import HydroPipeline
from repro.harness import experiment_e8_kernel_speedups
from repro.physics.con2prim import con_to_prim
from repro.physics.initial_data import RP1, blast_wave_2d, shock_tube
from repro.utils.timers import TimerRegistry

from .conftest import RESULTS_DIR, emit


@pytest.fixture(scope="module")
def report():
    return experiment_e8_kernel_speedups(block_cells=256 * 256)


def test_bench_con2prim_kernel(benchmark, report):
    """con2prim is the calibration anchor: benchmark the real kernel."""
    emit(report)
    system = SRHDSystem(IdealGasEOS(), ndim=2)
    rng = np.random.default_rng(2)
    n = 128
    prim = np.empty((4, n, n))
    prim[0] = rng.uniform(0.5, 2.0, (n, n))
    prim[1] = rng.uniform(-0.5, 0.5, (n, n))
    prim[2] = rng.uniform(-0.5, 0.5, (n, n))
    prim[3] = rng.uniform(0.5, 2.0, (n, n))
    cons = system.prim_to_con(prim)
    recovered = benchmark(con_to_prim, system, cons)
    np.testing.assert_allclose(recovered, prim, rtol=1e-8)


def test_speedup_shape(report):
    """Streaming kernels gain the most; iterative/copy kernels the least;
    PCIe staging eats into the full-step speedup."""
    rows = {r[0]: r for r in report.rows}
    assert rows["update"][3] > rows["con2prim"][3]
    assert rows["riemann"][3] > rows["boundary"][3]
    full = rows["full step (+PCIe)"][3]
    assert 1.0 < full < rows["update"][3]


# ---------------------------------------------------------------------------
# Scratch-workspace benchmark: fresh-allocation path vs preallocated buffers
# on the 2-D blast rhs. Smoke mode (REPRO_BENCH_SMOKE=1, used by CI) shrinks
# the grid and repetition count; the JSON artifact layout is identical.


def _workspace_case(use_workspace: bool, n: int, n_steps: int):
    """Time and trace one pipeline mode; returns (stats, final dU copy)."""
    system = SRHDSystem(IdealGasEOS(), ndim=2)
    grid = Grid((n, n), ((0.0, 1.0), (0.0, 1.0)))
    timers = TimerRegistry()
    pipe = HydroPipeline(
        system, grid, make_boundaries("outflow"), SolverConfig(), timers,
    )
    if not use_workspace:
        pipe.workspace = None  # every call allocates fresh arrays
    cons = system.prim_to_con(blast_wave_2d(system, grid))
    # Warm-up: applies the floors to *cons* and lazily creates every
    # workspace buffer, so the measured loop is the steady state.
    pipe.rhs(cons)
    for _, tm in timers.items():
        tm.reset()
    gc.collect()
    t0 = time.perf_counter()
    for _ in range(n_steps):
        dU = pipe.rhs(cons)
    seconds = time.perf_counter() - t0
    kernel_seconds = {name: tm.elapsed for name, tm in timers.items()}
    # Allocation churn is measured separately (tracemalloc slows the loop):
    # the traced peak over one steady-state rhs is the per-step transient
    # working set the mode allocates.
    gc.collect()
    tracemalloc.start()
    pipe.rhs(cons)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    stats = {
        "seconds": seconds,
        "per_step_seconds": seconds / n_steps,
        "kernel_seconds": kernel_seconds,
        "alloc_peak_bytes_per_step": int(peak),
        "workspace_bytes": int(pipe.workspace.nbytes) if pipe.workspace else 0,
    }
    return stats, dU.copy()


def test_bench_workspace_vs_fresh():
    """Emit BENCH_kernels.json: the scratch-workspace pass must be bit-exact
    and either >=1.3x faster or allocate >=5x less per step."""
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    n, n_steps = (32, 3) if smoke else (96, 20)
    fresh, dU_fresh = _workspace_case(False, n, n_steps)
    ws, dU_ws = _workspace_case(True, n, n_steps)
    bit_identical = bool(np.array_equal(dU_fresh, dU_ws))
    result = {
        "experiment": "kernel scratch-workspace",
        "grid": [n, n],
        "steps": n_steps,
        "smoke": smoke,
        "fresh": fresh,
        "workspace": ws,
        "speedup": fresh["seconds"] / ws["seconds"],
        "alloc_ratio": fresh["alloc_peak_bytes_per_step"]
        / max(ws["alloc_peak_bytes_per_step"], 1),
        "bit_identical": bit_identical,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_kernels.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nworkspace benchmark ({n}x{n}, {n_steps} steps): "
          f"speedup {result['speedup']:.2f}x, "
          f"alloc ratio {result['alloc_ratio']:.1f}x, "
          f"bit_identical={bit_identical} -> {path}")
    assert bit_identical
    assert result["speedup"] >= 1.3 or result["alloc_ratio"] >= 5.0
