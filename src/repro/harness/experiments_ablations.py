"""Ablation experiments A1-A4: quantify the design choices DESIGN.md
calls out (flux correction, Lorentz-factor cap, atmosphere floor, CFL).

These are not paper tables; they justify the defaults the reproduction
ships with, in the same report format as the main experiments.
"""

from __future__ import annotations

import numpy as np

from ..analysis import relative_l1_error
from ..boundary.conditions import make_boundaries
from ..core.amr_solver import AMRConfig, AMRSolver
from ..core.config import SolverConfig
from ..core.solver import Solver
from ..eos.ideal import IdealGasEOS
from ..mesh.grid import Grid
from ..physics.exact_riemann import ExactRiemannSolver
from ..physics.initial_data import RP1, blast_wave_2d, shock_tube
from ..physics.srhd import SRHDSystem
from ..utils.errors import ReproError
from .report import Report


def ablation_a1_reflux(root_n: int = 64, t_final: float = 0.15) -> Report:
    """A1: conservation and accuracy with/without AMR flux correction."""
    eos = IdealGasEOS(gamma=RP1.gamma)
    system = SRHDSystem(eos, ndim=1)
    exact = ExactRiemannSolver(RP1.left, RP1.right, RP1.gamma)
    report = Report(
        experiment="A1",
        title="Ablation: AMR flux correction (frozen topology, interior waves)",
        headers=["reflux", "mass_drift", "energy_drift", "rel_L1(rho)"],
    )
    for reflux in (False, True):
        amr = AMRSolver(
            system,
            Grid((root_n,), ((0.0, 1.0),)),
            lambda s, g: shock_tube(s, g, RP1),
            SolverConfig(cfl=0.4),
            AMRConfig(
                block_size=16,
                max_levels=3,
                refine_threshold=0.05,
                regrid_interval=10_000,
                reflux=reflux,
            ),
        )

        def totals():
            mass = energy = 0.0
            for leaf in amr.forest.leaves.values():
                interior = leaf.grid.interior_of(leaf.cons)
                mass += interior[0].sum() * leaf.grid.cell_volume
                energy += (interior[0] + interior[-1]).sum() * leaf.grid.cell_volume
            return mass, energy

        m0, e0 = totals()
        amr.run(t_final=t_final)
        m1, e1 = totals()
        grid_f, prim_f = amr.composite_primitives()
        rho_e, _, _ = exact.solution_on_grid(grid_f.coords(0), t_final, RP1.x0)
        report.add_row(
            str(reflux),
            (m1 - m0) / m0,
            (e1 - e0) / e0,
            relative_l1_error(prim_f[0], rho_e),
        )
    report.add_note("expected: drift ~1e-16 with refluxing, ~1e-3 without")
    return report


def ablation_a2_wmax(n: int = 32, t_final: float = 0.15) -> Report:
    """A2: Lorentz-factor cap vs robustness on the hard 2-D blast."""
    eos = IdealGasEOS()
    report = Report(
        experiment="A2",
        title="Ablation: face-state Lorentz cap W_max (2D blast, p ratio 1e4)",
        headers=["w_max", "outcome", "steps", "rho_min", "rho_max"],
    )
    for w_max in (2.0, 10.0, 100.0, 1e5):
        system = SRHDSystem(eos, ndim=2)
        grid = Grid((n, n), ((0, 1), (0, 1)))
        prim0 = blast_wave_2d(system, grid, p_in=100.0, radius=0.1)
        solver = Solver(system, grid, prim0, SolverConfig(cfl=0.4, w_max=w_max))
        try:
            solver.run(t_final=t_final)
            prim = solver.interior_primitives()
            report.add_row(
                w_max,
                "completed",
                solver.summary.steps,
                float(prim[0].min()),
                float(prim[0].max()),
            )
        except ReproError as exc:
            report.add_row(w_max, f"failed: {type(exc).__name__}", solver.summary.steps, np.nan, np.nan)
    report.add_note(
        "too-tight caps distort the flow; uncapped face states admit "
        "runaway W before recovery fails (the failure mode the cap exists for)"
    )
    return report


def ablation_a3_atmosphere(n: int = 200, rho_right: float = 1e-6) -> Report:
    """A3: atmosphere floor level on a blast into a near-vacuum medium.

    The right state's density (1e-6) sits between the tenuous floors and
    the aggressive ones, so the sweep shows exactly when the floor starts
    overwriting physics.
    """
    from ..physics.initial_data import ShockTubeProblem
    from ..physics.exact_riemann import RiemannState

    problem = ShockTubeProblem(
        name="vacuum-tube",
        left=RiemannState(rho=1.0, v=0.0, p=1.0),
        right=RiemannState(rho=rho_right, v=0.0, p=1e-10),
        gamma=5.0 / 3.0,
        t_final=0.3,
    )
    report = Report(
        experiment="A3",
        title=f"Ablation: atmosphere floor (blast into rho = {rho_right} medium)",
        headers=["rho_atmo", "far_right_rho", "rel_L1(rho)", "all_above_floor"],
    )
    eos = IdealGasEOS(gamma=problem.gamma)
    exact = ExactRiemannSolver(problem.left, problem.right, problem.gamma)
    for rho_atmo in (1e-12, 1e-9, 1e-4, 1e-2):
        system = SRHDSystem(eos, ndim=1)
        grid = Grid((n,), ((0.0, 1.0),))
        solver = Solver(
            system,
            grid,
            shock_tube(system, grid, problem),
            SolverConfig(cfl=0.4, rho_atmo=rho_atmo, p_atmo=rho_atmo * 1e-4),
        )
        solver.run(t_final=problem.t_final)
        rho = solver.interior_primitives()[0]
        rho_e, _, _ = exact.solution_on_grid(
            grid.coords(0), problem.t_final, problem.x0
        )
        report.add_row(
            rho_atmo,
            float(rho[-n // 10 :].mean()),  # undisturbed far-right medium
            relative_l1_error(rho, rho_e),
            bool(np.all(rho >= rho_atmo * 0.99)),
        )
    report.add_note(
        "floors below the ambient density (1e-12, 1e-9) leave the physics "
        "alone; floors above it (1e-4, 1e-2) overwrite the medium"
    )
    return report


def ablation_a4_cfl(n: int = 200) -> Report:
    """A4: CFL number vs error and step count (stability margin)."""
    report = Report(
        experiment="A4",
        title="Ablation: CFL number (RP1, MC + HLLC + SSP-RK3)",
        headers=["cfl", "rel_L1(rho)", "steps"],
    )
    eos = IdealGasEOS(gamma=RP1.gamma)
    exact = ExactRiemannSolver(RP1.left, RP1.right, RP1.gamma)
    for cfl in (0.1, 0.25, 0.5, 0.9):
        system = SRHDSystem(eos, ndim=1)
        grid = Grid((n,), ((0.0, 1.0),))
        solver = Solver(
            system, grid, shock_tube(system, grid, RP1), SolverConfig(cfl=cfl)
        )
        solver.run(t_final=RP1.t_final)
        rho_e, _, _ = exact.solution_on_grid(grid.coords(0), RP1.t_final, RP1.x0)
        report.add_row(
            cfl,
            relative_l1_error(solver.interior_primitives()[0], rho_e),
            solver.summary.steps,
        )
    report.add_note("error nearly CFL-independent below 1; cost scales as 1/CFL")
    return report
