"""Drop-in SRHD systems backed by generated kernels.

:class:`GeneratedSRHDSystem` has the same interface as
:class:`~repro.physics.srhd.SRHDSystem` but evaluates ``prim_to_con``,
``flux``, and ``char_speeds`` through the SymPy-generated kernels — i.e.
the generated code runs in the *production solver path*, not just in
micro-benchmarks.  It is the ``flat`` target (SoA marshalling, the
accelerator rehearsal path).  On ``flat`` and ``cext`` the Riemann solvers'
per-side work is the one joint ``face_side`` kernel; ``flux`` on its own
stays the handwritten reference there (nothing in the solver path calls
it).

:class:`CompiledSRHDSystem` is the same idea one step further: the
kernels are the cffi-compiled C module of :mod:`repro.codegen.cext` —
the pointwise algebra, the fused conservative-to-primitive Newton loop
(which :func:`~repro.physics.con2prim.con_to_prim` picks up through the
``c2p_newton`` hook), the fused ``face_flux`` sweep and the update stage
(``accumulate``, ``rk_stage``).  Holding one is what puts a
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
from .cache import load_kernel, run_flat_kernel
from .generator import (
    ACCUMULATE_KERNEL,
    MAX_SIGNAL_KERNEL,
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


def _side_rows(prim: np.ndarray, scratch, tag):
    """Output buffer of one ``face_side`` evaluation: its ``2 nvars + 2``
    contiguous rows, and the same memory as ``(cons, F, (lam-, lam+))``."""
    nv = prim.shape[0]
    side = scratch_buf(scratch, (tag, "side"), (2 * nv + 2,) + prim.shape[1:])
    return list(side), (side[:nv], side[nv : 2 * nv], (side[-2], side[-1]))


class GeneratedSRHDSystem(SRHDSystem):
    """SRHD system whose algebraic kernels are generated from SymPy: the
    ``flat`` target (SoA marshalling through
    :func:`~repro.codegen.cache.run_flat_kernel`)."""

    target = "flat"
    #: what the CFL scan calls (see ``cfl.max_signal_per_axis``)
    cfl_char_speeds = SRHDSystem.char_speeds

    def __init__(self, gamma: float = 5.0 / 3.0, ndim: int = 1):
        super().__init__(IdealGasEOS(gamma=gamma), ndim)
        self.gamma = float(gamma)
        self._k_prim_to_con = load_kernel("prim_to_con", ndim, 0, "flat")
        # Each side of a face is the joint kernel; ``flux`` alone stays the
        # inherited handwritten reference.
        self._k_side = [
            load_kernel("face_side", ndim, axis, "flat") for axis in range(ndim)
        ]
        self._k_char = [
            load_kernel("char_speeds", ndim, axis, "flat") for axis in range(ndim)
        ]

    def prim_to_con(self, prim: np.ndarray, out=None, scratch=None, tag="p2c") -> np.ndarray:
        # Keep the reference implementation's admissibility guard.
        self.lorentz_factor(prim)
        got = run_flat_kernel(self._k_prim_to_con, prim, self.nvars, self.gamma)
        if out is None:
            return got
        np.copyto(out, got)
        return out

    def face_side(self, prim: np.ndarray, axis: int = 0, scratch=None, tag="side"):
        # Keep the reference implementation's admissibility guard.
        self.lorentz_factor(prim)
        rows, split = _side_rows(prim, scratch, tag)
        self._k_side[axis](
            *(q.reshape(-1) for q in prim), *(r.reshape(-1) for r in rows),
            self.gamma,
        )
        return split

    def char_speeds(self, prim: np.ndarray, axis: int = 0, out=None, scratch=None, tag="cs"):
        lam = run_flat_kernel(self._k_char[axis], prim, 2, self.gamma)
        if out is None:
            return lam[0], lam[1]
        np.copyto(out[0], lam[0])
        np.copyto(out[1], lam[1])
        return out[0], out[1]

    def __repr__(self):
        return f"GeneratedSRHDSystem(gamma={self.gamma}, ndim={self.ndim})"


class CompiledSRHDSystem(SRHDSystem):
    """SRHD system backed by the cffi-compiled C kernels (``cext`` target).

    Construction raises :class:`~repro.utils.errors.CodegenError` when the
    compiled module cannot be built or loaded — callers that want the
    graceful fallback go through :func:`make_kernel_system`.
    """

    target = "cext"
    #: what the CFL scan calls (see ``cfl.max_signal_per_axis``)
    cfl_char_speeds = SRHDSystem.char_speeds

    def __init__(self, gamma: float = 5.0 / 3.0, ndim: int = 1):
        super().__init__(IdealGasEOS(gamma=gamma), ndim)
        self.gamma = float(gamma)
        from .cext import load_cext_module

        self._ffi, self._lib = load_cext_module(ndim)
        gen = KernelGenerator(ndim)
        self._c_prim_to_con = getattr(
            self._lib, gen.kernel_name("prim_to_con", 0, "cext")
        )
        self._c_side = [
            getattr(self._lib, gen.kernel_name("face_side", ax, "cext"))
            for ax in range(ndim)
        ]
        self._c_char = [
            getattr(self._lib, gen.kernel_name("char_speeds", ax, "cext"))
            for ax in range(ndim)
        ]
        self._c_face_flux = [
            getattr(self._lib, gen.stencil_kernel_name(ax)) for ax in range(ndim)
        ]
        self._c_recover = getattr(self._lib, RECOVER_KERNEL % ndim)
        self._c_max_signal = getattr(self._lib, MAX_SIGNAL_KERNEL % ndim)
        self._c_accumulate = getattr(self._lib, ACCUMULATE_KERNEL % ndim)
        self._c_rk_stage = getattr(self._lib, RK_STAGE_KERNEL)

    # -- marshalling ---------------------------------------------------------

    def _run(self, fn, in_rows, out_rows):
        ffi = self._ffi
        keep = []
        cins = []
        for a in in_rows:
            a = np.ascontiguousarray(a, dtype=np.float64)
            keep.append(a)
            cins.append(ffi.from_buffer("double*", a))
        couts = []
        copyback = []
        for o in out_rows:
            if o.flags.c_contiguous:
                couts.append(ffi.from_buffer("double*", o, require_writable=True))
            else:
                tmp = np.empty(o.shape, dtype=np.float64)
                copyback.append((o, tmp))
                couts.append(ffi.from_buffer("double*", tmp, require_writable=True))
        fn(int(in_rows[0].size), *cins, *couts, self.gamma)
        for dst, tmp in copyback:
            np.copyto(dst, tmp)

    def prim_to_con(self, prim: np.ndarray, out=None, scratch=None, tag="p2c") -> np.ndarray:
        # Keep the reference implementation's admissibility guard.
        self.lorentz_factor(prim)
        dst = np.empty_like(prim) if out is None else out
        self._run(
            self._c_prim_to_con,
            [prim[i] for i in range(self.nvars)],
            [dst[i] for i in range(self.nvars)],
        )
        return dst

    #: The handwritten reference — the compiled module carries no ``flux``
    #: of its own, ``face_side`` evaluates it.  Re-bound here because
    #: ``bench/trace.py`` patches ``CompiledSRHDSystem.__dict__["flux"]``.
    flux = SRHDSystem.flux

    def face_side(self, prim: np.ndarray, axis: int = 0, scratch=None, tag="side"):
        # Keep the reference implementation's admissibility guard.
        self.lorentz_factor(prim)
        rows, split = _side_rows(prim, scratch, tag)
        self._run(self._c_side[axis], list(prim), rows)
        return split

    def char_speeds(self, prim: np.ndarray, axis: int = 0, out=None, scratch=None, tag="cs"):
        lam = scratch_buf(scratch, (tag, "lam2"), (2,) + prim.shape[1:])
        self._run(
            self._c_char[axis],
            [prim[i] for i in range(self.nvars)],
            [lam[0], lam[1]],
        )
        if out is None:
            return lam[0], lam[1]
        np.copyto(out[0], lam[0])
        np.copyto(out[1], lam[1])
        return out[0], out[1]

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
        momentum cap, seed, Newton, primitive floor — returning its counts
        (:func:`~repro.codegen.cext.run_recover`).  Holding this hook puts
        a :class:`~repro.core.pipeline.HydroPipeline` on that path."""
        from .cext import run_recover

        return run_recover(
            self._ffi, self._c_recover, cons, prim, n_ghost, seed, next_seed,
            gamma=self.gamma, **params,
        )

    def max_signal(self, prim: np.ndarray, n_ghost: int) -> list[float]:
        """The CFL scan in one compiled reduction, bit for bit
        :func:`~repro.time_integration.cfl.max_signal_per_axis`."""
        from .cext import run_max_signal

        return run_max_signal(
            self._ffi, self._c_max_signal, prim, n_ghost, self.ndim, self.gamma
        )

    def face_flux(
        self, prim, axis, row_offsets, j0, n_faces, out, *, ids, **params
    ) -> np.ndarray:
        """One fused reconstruction+Riemann(+difference) sweep along *axis*
        (:func:`~repro.codegen.cext.run_face_flux`): fluxes into *out*,
        their difference over ``dx`` into ``div``, either may be None.
        Returns the int64 sanitize counters ``[velocity_rescaled,
        floored]``.  *ids* comes from :func:`stencil_scheme_ids`.
        """
        from .cext import run_face_flux

        recon_id, limiter_id, riemann_id = ids
        return run_face_flux(
            self._ffi, self._c_face_flux[axis], prim, axis, row_offsets, j0,
            n_faces, out, gamma=self.gamma, recon_id=recon_id,
            limiter_id=limiter_id, riemann_id=riemann_id, **params,
        )

    def accumulate(self, dU, axis, n_ghost, lo, hi, div) -> None:
        """``dU -= div`` over interior cells ``[lo, hi)`` of *axis* in one
        compiled pass (:func:`~repro.codegen.cext.run_accumulate`)."""
        from .cext import run_accumulate

        run_accumulate(self._ffi, self._c_accumulate, dU, axis, n_ghost, lo, hi, div)

    def rk_stage(self, stage, U, V, dt, k, out) -> None:
        """One SSP-RK stage combination into *out*, bit for bit
        :func:`~repro.time_integration.ssprk.combine_stage`
        (:func:`~repro.codegen.cext.run_rk_stage`)."""
        from .cext import run_rk_stage

        run_rk_stage(self._ffi, self._c_rk_stage, stage, U, V, dt, k, out)

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
    if target in (None, "numpy") or isinstance(
        system, (GeneratedSRHDSystem, CompiledSRHDSystem)
    ):
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
