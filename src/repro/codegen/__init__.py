"""Automatic kernel generation from symbolic physics (SymPy).

Write the SRHD equations once (:class:`SRHDSymbols`), emit per-architecture
kernels (:class:`KernelGenerator`: ``numpy`` host flavour, ``flat`` SoA
accelerator flavour, ``cext`` compiled-C flavour), compile and cache them
(:func:`load_kernel`, :mod:`repro.codegen.cext`), and verify every
generated kernel against the handwritten reference
(:func:`verify_kernels`).
"""

from .cache import (
    ALL_TARGETS,
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
from .generator import KernelGenerator
from .symbols import SRHDSymbols
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
    "ALL_TARGETS",
]
