"""Automatic kernel generation from symbolic physics (SymPy).

Write the SRHD equations once (:class:`SRHDSymbols`), emit per-architecture
kernels (:class:`KernelGenerator`: ``numpy`` host flavour and ``flat`` SoA
accelerator flavour of every pointwise kind, and the ``cext`` module of
compiled row kernels), compile and cache them (:func:`load_kernel`,
:mod:`repro.codegen.cext`), and verify every generated kernel against the
handwritten reference (:func:`verify_kernels`).  A solver calls one
generated pointwise kernel, ``face_side`` on ``flat``; on ``cext`` the
same CSE'd list runs inside the compiled sweep.

Importing this package imports no SymPy: :class:`KernelGenerator` and
:class:`SRHDSymbols` are loaded when first named, and a warm ``cext`` start
serves its stored spec without generating.
"""

import importlib

from .cache import (
    cache_size,
    clear_cache,
    load_kernel,
    run_flat_kernel,
    verify_kernels,
)
from .cext import (
    cache_report,
    cext_available,
    load_cext_module,
    prune_cache,
)
from .system import (
    CompiledSRHDSystem,
    GeneratedSRHDSystem,
    make_kernel_system,
    stencil_scheme_ids,
)

__all__ = [
    "SRHDSymbols",
    "KernelGenerator",
    "GeneratedSRHDSystem",
    "CompiledSRHDSystem",
    "make_kernel_system",
    "stencil_scheme_ids",
    "load_kernel",
    "run_flat_kernel",
    "verify_kernels",
    "clear_cache",
    "cache_size",
    "cext_available",
    "load_cext_module",
    "cache_report",
    "prune_cache",
]

#: the exports that import SymPy, loaded when first named
_LAZY = {"KernelGenerator": ".generator", "SRHDSymbols": ".symbols"}


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module(_LAZY[name], __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
