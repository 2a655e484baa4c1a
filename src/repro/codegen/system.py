"""Drop-in SRHD systems backed by generated kernels.

Each system overrides exactly the methods a pipeline calls on its target;
everything else is the handwritten :class:`~repro.physics.srhd.SRHDSystem`,
so a resolved system converts data (``prim_to_con``, ``flux``,
``char_speeds``) bit for bit as the plain one does.

:class:`GeneratedSRHDSystem` (the ``flat`` target) adds the SymPy-generated
``face_side``: the Riemann solvers' per-side stage, one joint kernel over
SoA rows (the accelerator rehearsal path).

:class:`CompiledSRHDSystem` (the ``cext`` target) adds the row kernels of
the cffi-compiled C module of :mod:`repro.codegen.cext`: the one-pass
recovery sweep with its CFL scan, the fused ``face_flux`` sweep, the update
stage (``accumulate``, ``rk_stage``), the AMR gather program
(``run_program``: a ghost fill or a reflux in one call) and the cold-path
Newton loop (``c2p_newton``, which :func:`~repro.physics.con2prim.con_to_prim`
picks up).  Holding one is what puts a
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
from .cache import load_kernel
from .generator import (
    ACCUMULATE_KERNEL,
    AMR_PROGRAM_KERNEL,
    RECOVER_KERNEL,
    RK_STAGE_KERNEL,
    STENCIL_LIMITER_IDS,
    STENCIL_RECON_IDS,
    STENCIL_RIEMANN_IDS,
    KernelGenerator,
)

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
    the handwritten one."""

    target = "flat"

    def __init__(self, gamma: float = 5.0 / 3.0, ndim: int = 1):
        super().__init__(IdealGasEOS(gamma=gamma), ndim)
        self.gamma = float(gamma)
        self._k_side = [
            load_kernel("face_side", ndim, axis, "flat") for axis in range(ndim)
        ]

    def face_side(self, prim: np.ndarray, axis: int = 0, scratch=None, tag="side"):
        # Keep the reference implementation's admissibility guard.
        self.lorentz_factor(prim)
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
        from .cext import load_cext_module

        # The module first: a target that cannot load fails before the
        # interpreted kernels are generated.
        self._ffi, self._lib = load_cext_module(ndim)
        super().__init__(gamma, ndim)
        gen = KernelGenerator(ndim)
        self._c_face_flux = [
            getattr(self._lib, gen.stencil_kernel_name(ax)) for ax in range(ndim)
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
        from .cext import run_con2prim_newton

        return run_con2prim_newton(
            self._ffi, self._lib, D, S2, tau, p, p_lo,
            gamma=self.gamma, tol=tol, p_floor=p_floor, max_newton=max_newton,
        )

    def recover(self, cons, prim, n_ghost, seed, next_seed, **params) -> np.ndarray:
        """One recovery sweep in one compiled pass — conserved floors,
        momentum cap, seed, Newton, primitive floor and, given a *scan*
        array among *params*, the CFL scan of the recovered interiors, bit
        for bit :func:`~repro.time_integration.cfl.max_signal_per_axis` —
        over a stack of patches, returning each patch's counts
        (:func:`~repro.codegen.cext.run_recover`).  Holding this hook puts
        a :class:`~repro.core.pipeline.HydroPipeline` on that path."""
        from .cext import run_recover

        return run_recover(
            self._ffi, self._c_recover, cons, prim, n_ghost, seed, next_seed,
            gamma=self.gamma, **params,
        )

    def face_flux(self, prim, axis, j0, n_faces, out, *, ids, **params) -> np.ndarray:
        """One fused reconstruction+Riemann(+difference) sweep along *axis*
        of the interior rows of one patch or a stack
        (:func:`~repro.codegen.cext.run_face_flux`, ``n_ghost``,
        ``n_patches`` and the per-patch spacing row ``dx`` among *params*):
        fluxes into *out*, their difference over each patch's ``dx`` into
        ``div``, either may be None.
        Returns the int64 sanitize counters ``[velocity_rescaled,
        floored]``.  *ids* comes from :func:`stencil_scheme_ids`.
        """
        from .cext import run_face_flux

        recon_id, limiter_id, riemann_id = ids
        return run_face_flux(
            self._ffi, self._c_face_flux[axis], prim, axis, j0, n_faces, out,
            gamma=self.gamma, recon_id=recon_id, limiter_id=limiter_id,
            riemann_id=riemann_id, **params,
        )

    def accumulate(self, dU, axis, n_ghost, lo, hi, div, n_patches=1, first=False) -> None:
        """``dU -= div`` (*first*: ``dU = 0.0 - div``) over interior cells
        ``[lo, hi)`` of *axis*, every patch of a stack, in one compiled pass
        (:func:`~repro.codegen.cext.run_accumulate`)."""
        from .cext import run_accumulate

        run_accumulate(
            self._ffi, self._c_accumulate, dU, axis, n_ghost, lo, hi, div, n_patches, first
        )

    def rk_stage(self, stage, U, V, dt, k, out) -> None:
        """One SSP-RK stage combination into *out*, bit for bit
        :func:`~repro.time_integration.ssprk.combine_stage`
        (:func:`~repro.codegen.cext.run_rk_stage`)."""
        from .cext import run_rk_stage

        run_rk_stage(self._ffi, self._c_rk_stage, stage, U, V, dt, k, out)

    def run_program(self, code, arrays, values, reals) -> None:
        """One AMR gather program — a ghost fill or a reflux — in one
        compiled call (:func:`~repro.codegen.cext.run_program`); holding
        this hook puts :func:`~repro.mesh.amr.forest.run_program` on it."""
        from .cext import run_program

        run_program(self._ffi, self._c_amr_program, code, arrays, values, reals)

    def __repr__(self):
        return f"CompiledSRHDSystem(gamma={self.gamma}, ndim={self.ndim})"


def make_kernel_system(system: SRHDSystem, target: str) -> SRHDSystem:
    """Resolve ``SolverConfig.kernel_target`` to the system to run with.

    ``numpy`` returns *system* unchanged — the handwritten reference path,
    which the golden-stream fixtures pin bit-for-bit — and so does an
    already resolved system (idempotent: a driver resolves once and every
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
