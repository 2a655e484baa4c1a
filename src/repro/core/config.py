"""Solver configuration with validated parameters."""

from __future__ import annotations

from ..reconstruct import SCHEMES
from ..riemann import SOLVERS
from ..time_integration.ssprk import INTEGRATORS
from ..utils.parameters import ParameterSet, param

#: Fixed numerics, not options: the con2prim Newton tolerance, the
#: atmosphere flooring threshold (a factor over ``rho_atmo``) and the run
#: loop's hard step limit (a call bounds its own run with ``max_steps``).
RECOVERY_TOL = 1e-12
ATMO_THRESHOLD = 10.0
MAX_STEPS = 1_000_000


class SolverConfig(ParameterSet):
    """All numerical knobs of the HRSC solver.

    The defaults (MC-limited TVD reconstruction, HLLC fluxes, SSP-RK3,
    CFL 0.5) are the production settings in this family of codes.
    """

    reconstruction = param(
        "mc", str, choices=SCHEMES, doc="interface reconstruction scheme"
    )
    riemann = param(
        "hllc", str, choices=tuple(sorted(SOLVERS)), doc="approximate Riemann solver"
    )
    integrator = param(
        "ssprk3", str, choices=tuple(sorted(INTEGRATORS)), doc="time integrator"
    )
    cfl = param(0.5, float, lambda v: 0 < v <= 1, "CFL number in (0, 1]")
    rho_atmo = param(1e-10, float, lambda v: v > 0, "atmosphere density floor")
    p_atmo = param(1e-12, float, lambda v: v > 0, "atmosphere pressure floor")
    failsafe_frac = param(
        0.0,
        float,
        lambda v: 0 <= v <= 1,
        "max fraction of cells per con2prim sweep that may be atmosphere-reset "
        "instead of raising RecoveryError (0 disables the failsafe)",
    )
    w_max = param(
        100.0, float, lambda v: v > 1, "Lorentz-factor cap applied to face states"
    )
    overlap_exchange = param(
        False,
        bool,
        doc="DistributedSolver only: post halo sends up front, evaluate the "
        "interior RHS while the exchange is in flight, then finish the "
        "boundary strips once halos land (bit-identical to the blocking "
        "path; emits comm.overlap.* metrics)",
    )
    executor = param(
        "serial",
        str,
        choices=("serial", "process"),
        doc="distributed execution backend: 'serial' runs all ranks in one "
        "process (SPMD-by-phases over SimCommunicator), 'process' runs each "
        "rank as a persistent worker process over shared-memory rings "
        "(bit-identical results, real wall-clock parallelism)",
    )
    kernel_target = param(
        "numpy",
        str,
        choices=("numpy", "flat", "cext"),
        doc="codegen target of the solver stages: 'numpy' keeps the "
        "handwritten reference kernels (golden-pinned default), 'flat' runs "
        "the Riemann stage's per-side algebra as the SymPy-generated SoA "
        "face_side kernel through NumPy, 'cext' runs recovery, the CFL scan, "
        "the fused reconstruction + Riemann sweep and the update stage as "
        "the cffi-compiled row kernels (falls back to 'flat' with a logged "
        "warning when no C toolchain is available)",
    )
