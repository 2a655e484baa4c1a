"""Model-validation experiment E13: does the calibrated cost model predict
reality?

The scaling figures (E6/E7/E10) are only as good as the cost model behind
them. E13 closes the loop on everything that is measurable on this
substrate:

1. *step-time prediction* — the model's CPU step time vs the measured wall
   time of real solver runs at several grid sizes (calibration transfers
   across problem sizes);
2. *traffic prediction* — the analytic halo byte count vs the bytes the
   bit-exact distributed solver actually sends.
"""

from __future__ import annotations

import numpy as np

from ..core.config import SolverConfig
from ..core.distributed import DistributedSolver
from ..core.solver import Solver
from ..eos.ideal import IdealGasEOS
from ..mesh.decomposition import CartesianDecomposition
from ..mesh.grid import Grid
from ..physics.initial_data import RP1, shock_tube, smooth_wave
from ..physics.srhd import SRHDSystem
from ..runtime.perfmodel import KernelCostModel
from ..utils.timers import Timer
from .calibrate import calibrated_cost_model
from .report import Report


def experiment_e13_model_validation(
    sizes=(200, 400, 1600), n_steps: int = 20, model: KernelCostModel | None = None
) -> Report:
    """E13: predicted vs measured step times and halo traffic."""
    model = model or calibrated_cost_model()
    eos = IdealGasEOS(gamma=RP1.gamma)
    report = Report(
        experiment="E13",
        title="Cost-model validation: predicted vs measured",
        headers=["quantity", "predicted", "measured", "ratio"],
    )

    # 1. Step time across problem sizes.
    for n in sizes:
        system = SRHDSystem(eos, ndim=1)
        grid = Grid((n,), ((0.0, 1.0),))
        solver = Solver(system, grid, shock_tube(system, grid, RP1), SolverConfig())
        timer = Timer("steps")
        solver.step()  # warm-up (allocations, kernel cache)
        with timer:
            for _ in range(n_steps):
                solver.step()
        measured = timer.elapsed / n_steps
        predicted = model.step_time(model.cpu, grid.n_cells)
        report.add_row(
            f"step time N={n} [ms]",
            predicted * 1e3,
            measured * 1e3,
            predicted / measured,
        )

    # 2. Halo traffic of a real distributed run vs the analytic count.
    from ..comm.halo import halo_bytes_per_exchange

    system = SRHDSystem(eos, ndim=2)
    grid2 = Grid((32, 32), ((0.0, 1.0), (0.0, 1.0)))
    prim0 = smooth_wave_2d(system, grid2)
    dist = DistributedSolver(system, grid2, prim0, dims=(2, 2))
    base = dist.comm.traffic.n_bytes
    dist.step(dt=1e-4)  # 3 stage exchanges, no dt collective
    measured_bytes = dist.comm.traffic.n_bytes - base
    decomp = CartesianDecomposition(grid2, (2, 2))
    predicted_bytes = 3 * sum(
        halo_bytes_per_exchange(decomp, nvars=system.nvars).values()
    )
    report.add_row(
        "halo bytes / step (2x2 ranks)",
        predicted_bytes,
        measured_bytes,
        predicted_bytes / measured_bytes,
    )
    report.add_note(
        "step-time ratios within ~2x validate transfer of the calibration "
        "across sizes; the traffic prediction is exact by construction"
    )
    return report


def smooth_wave_2d(system: SRHDSystem, grid: Grid) -> np.ndarray:
    """Small 2-D analogue of smooth_wave for the traffic check."""
    x = grid.coords_with_ghosts(0)[:, None]
    prim = np.empty((system.nvars,) + grid.shape_with_ghosts)
    prim[system.RHO] = 1.0 + 0.1 * np.sin(2 * np.pi * x)
    prim[system.V(0)] = 0.2
    prim[system.V(1)] = -0.1
    prim[system.P] = 1.0
    return prim
