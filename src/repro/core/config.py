"""Solver configuration with validated parameters."""

from __future__ import annotations

from ..reconstruct import SCHEMES
from ..riemann import SOLVERS
from ..time_integration.ssprk import INTEGRATORS
from ..utils.parameters import ParameterSet, param


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
    atmo_threshold = param(
        10.0, float, lambda v: v >= 1, "flooring threshold factor over rho_atmo"
    )
    recovery_tol = param(1e-12, float, lambda v: 0 < v < 1e-3, "con2prim tolerance")
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
        doc="codegen target for the hot kernels (prim_to_con/flux/"
        "char_speeds and the fused con2prim Newton loop): 'numpy' keeps the "
        "handwritten reference kernels (golden-pinned default), 'flat' runs "
        "the SymPy-generated SoA kernels through NumPy, 'cext' runs the "
        "cffi-compiled C module (falls back to 'flat' with a logged warning "
        "when no C toolchain is available)",
    )
    max_steps = param(1_000_000, int, lambda v: v > 0, "hard step-count limit")
