"""Experiment harness: drivers that regenerate every table and figure of the
reconstructed evaluation (DESIGN.md section 4) and the ablations behind
its defaults, plus report rendering, cost-model calibration, and the
analytic scaling model.

The registry maps experiment ids (E1-E14, A1-A4) to drivers; ``repro
experiment <id>`` prints one:

>>> from repro.harness import EXPERIMENTS
>>> print(EXPERIMENTS["E2"]())   # doctest: +SKIP
"""

from .calibrate import calibrated_cost_model
from .experiments_ablations import (
    ablation_a1_reflux,
    ablation_a2_wmax,
    ablation_a3_atmosphere,
    ablation_a4_cfl,
)
from .experiments_accuracy import (
    experiment_e1_convergence,
    experiment_e2_riemann_solvers,
    experiment_e3_profiles,
    experiment_e4_blast2d,
    experiment_e5_kelvin_helmholtz,
)
from .experiments_amr import experiment_e11_amr_efficiency
from .experiments_codegen import experiment_e12_codegen
from .experiments_scaling import (
    experiment_e6_strong_scaling,
    experiment_e7_weak_scaling,
    experiment_e8_kernel_speedups,
    experiment_e9_schedulers,
    experiment_e10_overlap,
)
from .experiments_partition import experiment_e14_partitioning
from .experiments_validation import experiment_e13_model_validation
from .report import Report
from .scaling import (
    StepCost,
    efficiencies,
    simulate_step,
    speedups,
    strong_scaling,
    weak_scaling,
)

#: experiment id -> driver returning a Report
EXPERIMENTS = {
    "E1": experiment_e1_convergence,
    "E2": experiment_e2_riemann_solvers,
    "E3": experiment_e3_profiles,
    "E4": experiment_e4_blast2d,
    "E5": experiment_e5_kelvin_helmholtz,
    "E6": experiment_e6_strong_scaling,
    "E7": experiment_e7_weak_scaling,
    "E8": experiment_e8_kernel_speedups,
    "E9": experiment_e9_schedulers,
    "E10": experiment_e10_overlap,
    "E11": experiment_e11_amr_efficiency,
    "E12": experiment_e12_codegen,
    "E13": experiment_e13_model_validation,
    "E14": experiment_e14_partitioning,
    "A1": ablation_a1_reflux,
    "A2": ablation_a2_wmax,
    "A3": ablation_a3_atmosphere,
    "A4": ablation_a4_cfl,
}

__all__ = [
    "Report",
    "EXPERIMENTS",
    "calibrated_cost_model",
    "simulate_step",
    "strong_scaling",
    "weak_scaling",
    "speedups",
    "efficiencies",
    "StepCost",
    "experiment_e1_convergence",
    "experiment_e2_riemann_solvers",
    "experiment_e3_profiles",
    "experiment_e4_blast2d",
    "experiment_e5_kelvin_helmholtz",
    "experiment_e6_strong_scaling",
    "experiment_e7_weak_scaling",
    "experiment_e8_kernel_speedups",
    "experiment_e9_schedulers",
    "experiment_e10_overlap",
    "experiment_e11_amr_efficiency",
    "experiment_e12_codegen",
    "experiment_e13_model_validation",
    "experiment_e14_partitioning",
    "ablation_a1_reflux",
    "ablation_a2_wmax",
    "ablation_a3_atmosphere",
    "ablation_a4_cfl",
]
