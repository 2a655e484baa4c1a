"""Compilation and caching of generated kernels.

Generated source is executed into a private namespace (the Python analogue
of nvcc + dlopen) and memoized **by source hash**: every
:func:`load_kernel` call regenerates the source from the symbolic spec and
keys the compiled function on ``sha256(source)``, so editing
``symbols.py``/``generator.py`` (or monkeypatching the spec, as the
regression tests do) can never serve a stale kernel.  The compiled
``cext`` target gets the same treatment one layer down, in
:mod:`repro.codegen.cext`, where the on-disk artifact name embeds a hash
of the C source plus the toolchain fingerprint.

A verifier cross-checks every generated kernel against the handwritten
:class:`~repro.physics.srhd.SRHDSystem` reference — the guardrail any code
generator needs.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

from ..eos.ideal import IdealGasEOS
from ..physics.srhd import SRHDSystem
from ..utils.errors import CodegenError
from .generator import KernelGenerator

_cache: dict[tuple[str, str], Callable] = {}

#: number of exec-compilations this process performed (test hook)
compile_count = 0


def source_fingerprint(source: str) -> str:
    """The cache key of one kernel's generated source."""
    return hashlib.sha256(source.encode()).hexdigest()


def load_kernel(kind: str, ndim: int, axis: int = 0, target: str = "numpy") -> Callable:
    """Get (generating + compiling if needed) a kernel function.

    The source is regenerated on every call and the compiled function is
    memoized by its hash — a change in the generator or the symbolic spec
    is picked up immediately, at the cost of re-printing a few small SymPy
    expressions per call.
    """
    global compile_count
    if target == "cext":
        # Compiled kernels live in a shared library with a different calling
        # convention; repro.codegen.cext wraps them in flat-compatible
        # callables and owns the artifact cache.
        from .cext import load_cext_kernel

        return load_cext_kernel(kind, ndim, axis)
    gen = KernelGenerator(ndim)
    source = gen.generate(kind, axis, target)
    name = gen.kernel_name(kind, axis, target)
    key = (name, source_fingerprint(source))
    if key not in _cache:
        namespace: dict = {}
        try:
            exec(compile(source, f"<generated {name}>", "exec"), namespace)
        except SyntaxError as exc:  # pragma: no cover - generator bug guard
            raise CodegenError(f"generated source failed to compile: {exc}") from exc
        compile_count += 1
        _cache[key] = namespace[name]
    return _cache[key]


def clear_cache() -> None:
    _cache.clear()


def cache_size() -> int:
    return len(_cache)


def run_flat_kernel(kernel: Callable, prim: np.ndarray, n_out: int, gamma: float):
    """Drive a flat/SoA kernel from a stacked primitive array.

    Splits ``prim`` into per-variable flat views (zero-copy), allocates flat
    outputs, and restacks the result — the host-side marshalling a real GPU
    launch performs.  Works unchanged for the compiled ``cext`` wrappers,
    which share the flat calling convention.
    """
    shape = prim.shape[1:]
    ins = [prim[i].reshape(-1) for i in range(prim.shape[0])]
    outs = [np.empty(ins[0].shape) for _ in range(n_out)]
    kernel(*ins, *outs, gamma)
    return np.stack([o.reshape(shape) for o in outs])


#: All kernel targets, in emission order.
ALL_TARGETS = ("numpy", "flat", "cext")


def _sample_states(system: SRHDSystem, n_samples: int, rng) -> np.ndarray:
    prim = np.empty((system.nvars, n_samples))
    prim[system.RHO] = rng.uniform(0.1, 10.0, n_samples)
    budget = rng.uniform(0, 0.9**2, n_samples)
    direction = rng.normal(size=(system.ndim, n_samples))
    direction /= np.maximum(np.sqrt((direction**2).sum(axis=0)), 1e-12)
    for ax in range(system.ndim):
        prim[system.V(ax)] = direction[ax] * np.sqrt(budget)
    prim[system.P] = rng.uniform(0.01, 10.0, n_samples)
    return prim


def verify_kernels(
    ndim: int,
    gamma: float = 5.0 / 3.0,
    n_samples: int = 256,
    rtol: float = 1e-12,
    seed: int = 7,
    targets: tuple[str, ...] | None = None,
    con2prim_rtol: float = 1e-10,
) -> dict[str, float]:
    """Compare every generated kernel a solver evaluates on each target
    (:meth:`KernelGenerator.default_kinds_axes`) against the handwritten
    reference.

    *targets* defaults to ``("numpy", "flat")`` plus ``"cext"`` whenever the
    compiled target is actually buildable here — pass an explicit tuple to
    force (or forbid) it.  For ``cext`` the fused con2prim Newton kernel is
    additionally checked by running a full
    :func:`~repro.physics.con2prim.con_to_prim` recovery through
    :class:`~repro.codegen.system.CompiledSRHDSystem` and comparing the
    recovered primitives at *con2prim_rtol* (the inversion is iterative, so
    its tolerance is its convergence tolerance, not machine epsilon).

    Returns the max relative deviation per kernel; raises
    :class:`CodegenError` if any exceeds its tolerance.
    """
    if targets is None:
        from .cext import cext_available

        targets = ("numpy", "flat") + (("cext",) if cext_available(ndim) else ())

    rng = np.random.default_rng(seed)
    system = SRHDSystem(IdealGasEOS(gamma=gamma), ndim=ndim)
    prim = _sample_states(system, n_samples, rng)

    cons_ref = system.prim_to_con(prim)
    deviations: dict[str, float] = {}

    def check(name, got, ref, tol=rtol):
        scale = np.maximum(np.abs(ref), 1e-30)
        dev = float(np.max(np.abs(got - ref) / scale))
        deviations[name] = dev
        if dev > tol:
            raise CodegenError(f"kernel {name} deviates by {dev:.3e} (> {tol:.0e})")

    refs = {("prim_to_con", 0): cons_ref}
    for axis in range(ndim):
        F_ref = system.flux(prim, cons_ref, axis)
        lam_ref = np.stack(system.char_speeds(prim, axis))
        refs["flux", axis] = F_ref
        refs["char_speeds", axis] = lam_ref
        refs["face_side", axis] = np.concatenate([cons_ref, F_ref, lam_ref])

    for target in targets:
        for kind, axis in KernelGenerator(ndim).default_kinds_axes(target):
            ref = refs[kind, axis]
            k = load_kernel(kind, ndim, axis, target)
            if target == "numpy":
                got = k(prim, np.empty_like(ref), gamma)
            else:
                got = run_flat_kernel(k, prim, len(ref), gamma)
            label = kind if kind == "prim_to_con" else f"{kind}{axis}"
            check(f"{label}/{target}", got, ref)

        if target == "cext":
            from ..physics.con2prim import con_to_prim
            from .system import CompiledSRHDSystem

            compiled = CompiledSRHDSystem(gamma=gamma, ndim=ndim)
            prim_ref = con_to_prim(system, cons_ref.copy())
            prim_got = con_to_prim(compiled, cons_ref.copy())
            check(f"con2prim/{target}", prim_got, prim_ref, tol=con2prim_rtol)

    return deviations
