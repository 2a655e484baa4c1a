"""Drop-in SRHD systems backed by generated kernels.

Each system overrides exactly the methods a pipeline calls on its target;
everything else is the handwritten :class:`~repro.physics.srhd.SRHDSystem`,
so a resolved system converts data (``prim_to_con``, ``flux``,
``char_speeds``) bit for bit as the plain one does.

:class:`GeneratedSRHDSystem` (the ``flat`` target) adds the SymPy-generated
``face_side``: the Riemann solvers' per-side stage, one joint kernel over
SoA rows (the accelerator rehearsal path), generated on its first call.

:class:`CompiledSRHDSystem` (the ``cext`` target) adds the row kernels of
the cffi-compiled C module of :mod:`repro.codegen.cext`: the one-pass
recovery sweep with its CFL scan, the fused ``face_flux`` sweep, the update
stage (``accumulate``, ``rk_stage``), the AMR gather program
(``run_program``: a ghost fill or a reflux in one call) and the cold-path
Newton loop (``c2p_newton``, which :func:`~repro.physics.con2prim.con_to_prim`
picks up).  Each row kernel is a pair: ``bind_*`` binds it to the buffers a
stack keeps, once, and the hook of its name runs a bound call — every
call's entry point.  Holding one is what puts a
:class:`~repro.core.pipeline.HydroPipeline` on the compiled paths.

:func:`make_kernel_system` is the one place a target name
(``SolverConfig.kernel_target``) is turned into a system, falling back
from ``cext`` to ``flat`` with a logged warning when the compiled module
cannot be built or loaded.  Drivers call it once and hand the resolved
system to every pipeline they own.
"""

from __future__ import annotations

import numpy as np

from ..core.workspace import scratch_buf
from ..eos.ideal import IdealGasEOS
from ..physics.srhd import SRHDSystem
from ..utils.errors import CodegenError, ConfigurationError
from ..utils.logging import get_logger
from . import cext
from .abi import (
    ACCUMULATE_KERNEL,
    AMR_PROGRAM_KERNEL,
    FACE_FLUX_KERNEL,
    RECOVER_KERNEL,
    RK_STAGE_KERNEL,
    STENCIL_LIMITER_IDS,
    STENCIL_RECON_IDS,
    STENCIL_RIEMANN_IDS,
)
from .cache import load_kernel

_log = get_logger("codegen.system")


def stencil_scheme_ids(reconstruction, riemann) -> tuple[int, int, int]:
    """Dispatch ids ``(recon, limiter, riemann)`` of a scheme combo in the
    compiled face-flux sweep.

    Every scheme ``make_reconstruction`` / ``make_riemann_solver`` can
    produce is compiled; a type the emitter has never seen is a
    :class:`~repro.utils.errors.CodegenError` naming it.  Types are matched
    exactly: a subclass may change the arithmetic the compiled form mirrors.
    """
    from ..reconstruct import PPM, WENO5, WENOZ, PiecewiseConstant, TVDSlope

    family = {
        PiecewiseConstant: "pc", TVDSlope: "tvd",
        PPM: "ppm", WENO5: "weno5", WENOZ: "wenoz",
    }.get(type(reconstruction))
    limiter_id = 0
    if family == "tvd":
        limiter_id = STENCIL_LIMITER_IDS.get(reconstruction.limiter_name)
    riemann_id = STENCIL_RIEMANN_IDS.get(getattr(riemann, "name", None))
    if family is None or limiter_id is None:
        missing = f"reconstruction {reconstruction!r}"
    elif riemann_id is None:
        missing = f"Riemann solver {riemann!r}"
    else:
        return STENCIL_RECON_IDS[family], limiter_id, riemann_id
    raise CodegenError(f"no compiled face_flux form for {missing}")


class GeneratedSRHDSystem(SRHDSystem):
    """:class:`SRHDSystem` plus the one generated kernel an interpreted
    pipeline calls: ``face_side``, the per-side stage of the Riemann
    solvers.  The ``flat`` target (SoA marshalling); every other method is
    the handwritten one.  The kernels are generated (through SymPy) on the
    first ``face_side`` call: a ``cext`` pipeline never makes one."""

    target = "flat"

    def __init__(self, gamma: float = 5.0 / 3.0, ndim: int = 1):
        super().__init__(IdealGasEOS(gamma=gamma), ndim)
        self.gamma = float(gamma)
        self._k_side = None

    def face_side(self, prim: np.ndarray, axis: int = 0, scratch=None, tag="side"):
        # Keep the reference implementation's admissibility guard.
        self.lorentz_factor(prim)
        if self._k_side is None:
            self._k_side = [
                load_kernel("face_side", self.ndim, ax, "flat") for ax in range(self.ndim)
            ]
        nv = prim.shape[0]
        side = scratch_buf(scratch, (tag, "side"), (2 * nv + 2,) + prim.shape[1:])
        self._k_side[axis](
            *(q.reshape(-1) for q in prim), *(r.reshape(-1) for r in side),
            self.gamma,
        )
        return side[:nv], side[nv : 2 * nv], (side[-2], side[-1])

    def __repr__(self):
        return f"GeneratedSRHDSystem(gamma={self.gamma}, ndim={self.ndim})"


class CompiledSRHDSystem(GeneratedSRHDSystem):
    """:class:`GeneratedSRHDSystem` plus the compiled row kernels of the
    ``cext`` target: ``recover`` (with its CFL scan), ``face_flux``,
    ``accumulate``, ``rk_stage``, the AMR ``run_program`` and the cold-path
    ``c2p_newton``.

    Construction raises :class:`~repro.utils.errors.CodegenError` when the
    compiled module cannot be built or loaded — callers that want the
    graceful fallback go through :func:`make_kernel_system`.
    """

    target = "cext"

    #: The handwritten pointwise algebra, inherited — re-bound here because
    #: ``bench/trace.py`` patches ``CompiledSRHDSystem.__dict__[name]``.
    prim_to_con = SRHDSystem.prim_to_con
    flux = SRHDSystem.flux
    char_speeds = SRHDSystem.char_speeds

    def __init__(self, gamma: float = 5.0 / 3.0, ndim: int = 1):
        self._ffi, self._lib = cext.load_cext_module(ndim)
        super().__init__(gamma, ndim)
        self._c_face_flux = [
            getattr(self._lib, FACE_FLUX_KERNEL % (ax, ndim)) for ax in range(ndim)
        ]
        self._c_recover = getattr(self._lib, RECOVER_KERNEL % ndim)
        self._c_accumulate = getattr(self._lib, ACCUMULATE_KERNEL % ndim)
        self._c_rk_stage = getattr(self._lib, RK_STAGE_KERNEL)
        self._c_amr_program = getattr(self._lib, AMR_PROGRAM_KERNEL % ndim)

    def c2p_newton(self, D, S2, tau, p, p_lo, *, tol, p_floor, max_newton):
        """Fused Newton phase hook consumed by ``con_to_prim``.

        Returns ``(converged mask, max iteration count)``; *p* is updated
        in place, exactly like the vectorized Python iteration it replaces.
        """
        return cext.run_con2prim_newton(
            self._ffi, self._lib, D, S2, tau, p, p_lo,
            gamma=self.gamma, tol=tol, p_floor=p_floor, max_newton=max_newton,
        )

    def bind_recover(self, shape, n_ghost, prim, seeds, warm, scan, **params):
        """One recovery sweep — conserved floors, momentum cap, seed, Newton,
        primitive floor and, asked for, the CFL scan of the recovered
        interiors, bit for bit
        :func:`~repro.time_integration.cfl.max_signal_per_axis` — bound."""
        return cext.bind_recover(
            self._ffi, self._c_recover, shape, n_ghost, prim, seeds, warm, scan,
            gamma=self.gamma, **params,
        )

    def recover(self, bound, *args) -> np.ndarray:
        """Run a bound recovery; each patch's counts.  Holding this hook
        puts a :class:`~repro.core.pipeline.HydroPipeline` on that path."""
        return bound(*args)

    def bind_face_flux(self, shape, axis, j0, n_faces, *, ids, **params):
        """One fused reconstruction+Riemann(+difference) sweep along *axis*,
        bound; *ids* comes from :func:`stencil_scheme_ids`."""
        recon_id, limiter_id, riemann_id = ids
        return cext.bind_face_flux(
            self._ffi, self._c_face_flux[axis], shape, axis, j0, n_faces,
            gamma=self.gamma, recon_id=recon_id, limiter_id=limiter_id,
            riemann_id=riemann_id, **params,
        )

    def face_flux(self, sweep, prim, out=None) -> np.ndarray:
        """Run a bound sweep over the stack *prim*: fluxes into *out* (or
        None), their difference into its ``div``; the int64 sanitize
        counters ``[velocity_rescaled, floored]``."""
        return sweep(prim, out)

    def bind_accumulate(self, shape, axis, n_ghost, lo, hi, dU, div):
        """``dU -= div`` over interior cells ``[lo, hi)`` of *axis*, bound."""
        return cext.bind_accumulate(
            self._ffi, self._c_accumulate, shape, axis, n_ghost, lo, hi, dU, div
        )

    def accumulate(self, bound, *args) -> None:
        """Run a bound accumulate: ``(dU, div, first)``."""
        bound(*args)

    def bind_rk_stage(self, shape, *buffers):
        """SSP-RK stage combinations of arrays shaped *shape*, bound."""
        return cext.bind_rk_stage(self._ffi, self._c_rk_stage, shape, *buffers)

    def rk_stage(self, bound, *args) -> None:
        """Run a bound stage combination ``(stage, U, V, dt, k, out)``, bit
        for bit :func:`~repro.time_integration.ssprk.combine_stage`."""
        bound(*args)

    def run_program(self, program, arrays) -> None:
        """One AMR gather program — a ghost fill or a reflux — in one
        compiled call, bound on its first; holding this hook puts
        :func:`~repro.mesh.amr.forest.run_program` on it."""
        if program.bound is None or program.bound[0] is not self._lib:
            program.bound = (self._lib, cext.bind_program(
                self._ffi, self._c_amr_program, program.code, program.values,
                program.reals, len(program.sizes),
            ))
        program.bound[1](arrays)

    def __repr__(self):
        return f"CompiledSRHDSystem(gamma={self.gamma}, ndim={self.ndim})"


def make_kernel_system(system: SRHDSystem, target: str) -> SRHDSystem:
    """Resolve ``SolverConfig.kernel_target`` to the system to run with.

    ``numpy`` returns *system* unchanged — the handwritten reference path
    — and so does an already resolved system (idempotent: a driver resolves once and every
    pipeline it builds passes through here for free).  ``flat`` and
    ``cext`` require the plain :class:`SRHDSystem` + ideal-gas combination
    the generator specializes for; anything else (tracer systems, exotic
    EOS) is refused with a :class:`ConfigurationError` naming the one
    target that runs it.  When the compiled module cannot be built or
    loaded (no cffi, no compiler, ``REPRO_CEXT_DISABLE=1``, a build error),
    ``cext`` falls back to ``flat`` with a logged warning rather than
    failing the run — the one fallback of the target; pipelines count it
    in ``codegen.target_fallbacks``.
    """
    if target in (None, "numpy") or isinstance(system, GeneratedSRHDSystem):
        return system
    if type(system) is not SRHDSystem or not isinstance(system.eos, IdealGasEOS):
        raise ConfigurationError(
            f"kernel_target={target!r} needs a plain SRHDSystem with an "
            f"ideal-gas EOS, got {type(system).__name__} with "
            f"{type(system.eos).__name__}; only kernel_target='numpy' runs "
            "this system"
        )
    gamma, ndim = system.eos.gamma, system.ndim
    if target == "cext":
        try:
            return CompiledSRHDSystem(gamma=gamma, ndim=ndim)
        except CodegenError as exc:
            _log.warning(
                "cext kernels unavailable (%s); falling back to "
                "kernel_target='flat'", exc,
            )
            target = "flat"
    if target == "flat":
        return GeneratedSRHDSystem(gamma=gamma, ndim=ndim)
    raise CodegenError(f"unknown kernel target {target!r}")
