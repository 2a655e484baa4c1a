"""Compiled C kernel target: cffi build, on-disk artifact cache, fallback.

The ``cext`` target turns the generated C module of
:meth:`~repro.codegen.generator.KernelGenerator.generate_c_module` —
pointwise kernels, con2prim Newton loop, one-pass recovery sweep, CFL scan,
fused face-flux sweep, update stage: one artifact per ndim — into a real shared
library via cffi.  Three layers of caching keep rebuilds rare and *correct*:

1. an in-process handle map, keyed by the artifact name;
2. an on-disk artifact cache (``$REPRO_CEXT_CACHE``, default
   ``~/.cache/repro/cext``) whose file names embed a SHA-256 over the
   **generated C source + cdef declarations + toolchain fingerprint +
   compile flags** (ours and ``$CFLAGS``) — so editing
   ``symbols.py``/``generator.py``, upgrading the compiler or changing a
   flag can never serve a stale binary;
3. the cffi build itself, executed in a private temp directory and
   installed into the cache with an atomic :func:`os.replace`, so
   concurrent worker processes racing to build the same module all end up
   importing one winner.

There is one fallback: missing cffi, a missing or failing C compiler, or
``REPRO_CEXT_DISABLE=1`` raise :class:`~repro.utils.errors.CodegenError`
here, which :func:`repro.codegen.system.make_kernel_system` turns into a
logged fallback of the whole target to ``flat``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

from ..utils.errors import CodegenError
from ..utils.logging import get_logger
from .generator import CON2PRIM_KERNEL, STENCIL_REACH, KernelGenerator

_log = get_logger("codegen.cext")

#: Set to any non-empty value to force the no-toolchain fallback path.
DISABLE_ENV = "REPRO_CEXT_DISABLE"
#: Overrides the on-disk artifact cache directory.
CACHE_DIR_ENV = "REPRO_CEXT_CACHE"

#: loaded compiled modules, keyed by artifact name (name embeds the hash)
_modules: dict[str, object] = {}

#: ``repro_simd_level()`` of a loaded module -> the sweep clone it names
_SIMD_LEVELS = ("baseline", "avx2")

#: number of actual cffi compilations this process performed (test hook)
build_count = 0

#: Flags of every build.  ``-ffp-contract=off`` is the bitwise contract
#: with the NumPy reference (no FMA contraction); a toolchain that rejects
#: it has no cext target — a build without it would break that contract
#: silently — and falls back to ``flat`` like a missing compiler does.
#: ``-fno-math-errno`` lets ``sqrt`` compile to the (equally correctly
#: rounded) instruction with no libm fallback call to spill registers around.
#: ``-O3`` turns on the vectoriser's full cost model (cffi appends these
#: after CPython's own flags, so ours decide); ``-fno-trapping-math`` lets
#: it if-convert a select whose arm holds a floating-point compare — it
#: licenses no value-changing transformation, and nothing reads the status
#: flags (the C is reached through cffi, not a ufunc).
CFLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fno-trapping-math")


def cext_disabled() -> bool:
    return bool(os.environ.get(DISABLE_ENV))


@functools.lru_cache(maxsize=None)
def _compiler_version(cc: str) -> str:
    """First line of ``cc --version``, memoized per command string;
    'unknown' when unprobeable."""
    try:
        out = subprocess.run(
            [cc.split()[0], "--version"],
            capture_output=True, text=True, timeout=10, check=False,
        )
        return (out.stdout or "unknown").splitlines()[0].strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def toolchain_fingerprint() -> str:
    """Identity of the compiler stack, baked into every artifact key.

    Raises :class:`CodegenError` when cffi is missing — without it there
    is no toolchain to fingerprint.
    """
    try:
        import cffi
    except ImportError as exc:  # pragma: no cover - image ships cffi
        raise CodegenError(f"cffi is not installed: {exc}") from exc
    # The compiler the build will run: distutils' ``customize_compiler``
    # lets ``$CC`` override the interpreter's own CC, so the key must too.
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return "|".join(
        [
            f"cffi={cffi.__version__}",
            f"python={sys.version_info.major}.{sys.version_info.minor}",
            f"cc={_compiler_version(cc)}",
            f"ext={sysconfig.get_config_var('EXT_SUFFIX')}",
        ]
    )


def cache_dir() -> Path:
    """The on-disk artifact cache directory (created on first use)."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        d = Path(env)
    else:
        base = os.environ.get("XDG_CACHE_HOME") or (Path.home() / ".cache")
        d = Path(base) / "repro" / "cext"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _artifact_name(prefix: str, source: str, cdef: str) -> str:
    """*prefix* plus a SHA-256 over everything that shapes the binary:
    source, declarations, toolchain, and the compile flags — ours and the
    ``CFLAGS`` cffi's build inherits from the environment."""
    key = [
        source, cdef, toolchain_fingerprint(),
        " ".join(CFLAGS), os.environ.get("CFLAGS", ""),
    ]
    digest = hashlib.sha256("\0".join(key).encode()).hexdigest()[:16]
    return f"{prefix}_{digest}"


def module_spec(ndim: int, kinds_axes=None) -> tuple[str, str, str]:
    """(artifact name, C source, cdef declarations) for one ndim's module.

    Any change to the symbolic spec, the emitter, the compiler stack or
    the compile flags changes the name and forces a rebuild.
    """
    gen = KernelGenerator(ndim)
    source = gen.generate_c_module(kinds_axes)
    cdef = gen.c_declarations(kinds_axes)
    return _artifact_name(f"_repro_cext_{ndim}d", source, cdef), source, cdef


def artifact_path(name: str) -> Path:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return cache_dir() / f"{name}{suffix}"


def _build(name: str, source: str, cdef: str, dest: Path) -> None:
    """Compile the module in a private temp dir, install atomically."""
    global build_count
    tmpdir = tempfile.mkdtemp(prefix="repro-cext-build-", dir=str(dest.parent))
    try:
        import cffi

        builder = cffi.FFI()
        builder.cdef(cdef)
        builder.set_source(name, source, extra_compile_args=list(CFLAGS))
        built = builder.compile(tmpdir=tmpdir, verbose=False)
        build_count += 1
        os.replace(built, dest)
    except Exception as exc:
        raise CodegenError(f"cext build failed: {exc}") from exc
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _import_artifact(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:  # pragma: no cover - loader guard
        raise CodegenError(f"cannot import compiled artifact {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_spec(name: str, source: str, cdef: str):
    """Load (building if needed) one compiled module by its content spec."""
    module = _modules.get(name)
    if module is None:
        path = artifact_path(name)
        if not path.exists():
            _log.info("building cext kernel module %s", name)
            _build(name, source, cdef, path)
        else:
            # LRU bookkeeping for `repro cache`: a served artifact is a
            # recently-used artifact, even across processes.
            try:
                os.utime(path)
            except OSError:
                pass
        try:
            module = _import_artifact(name, path)
        except Exception as exc:
            # A truncated or corrupt cached artifact (torn copy, partial
            # disk, bit rot) fails at dlopen: evict it and rebuild once
            # instead of crashing — same graceful posture as the
            # no-toolchain fallback.
            _log.warning(
                "cached cext artifact %s unloadable (%s); evicting and "
                "rebuilding", path, exc,
            )
            try:
                path.unlink()
            except OSError:
                pass
            _build(name, source, cdef, path)
            module = _import_artifact(name, path)
        _modules[name] = module
        if hasattr(module.lib, "repro_simd_level"):
            _log.info(
                "cext kernel module %s loaded, sweep clone: %s",
                name, _SIMD_LEVELS[module.lib.repro_simd_level()],
            )
    return module.ffi, module.lib


def load_cext_module(ndim: int, kinds_axes=None):
    """(ffi, lib) of the compiled kernel module for *ndim*.

    Builds (and disk-caches) on first use; raises
    :class:`~repro.utils.errors.CodegenError` when the target is disabled
    or no toolchain is available.
    """
    if cext_disabled():
        raise CodegenError(f"cext target disabled via {DISABLE_ENV}=1")
    return _load_spec(*module_spec(ndim, kinds_axes))


def simd_level(ndim: int) -> str:
    """Which clone of the fused sweep this host runs: ``"avx2"`` or
    ``"baseline"`` (no ifunc, not x86-64, or a CPU without AVX2)."""
    return _SIMD_LEVELS[load_cext_module(ndim)[1].repro_simd_level()]


def clear_modules() -> None:
    """Drop in-process module handles (test hook; disk artifacts remain)."""
    _modules.clear()


def cache_report() -> dict:
    """Inventory of the on-disk artifact cache, oldest (LRU) first.

    Each entry carries name, size, and mtime; mtime doubles as the
    recency signal (:func:`_load_spec` touches artifacts it serves).
    """
    d = cache_dir()
    artifacts = []
    for p in d.iterdir():
        if not p.is_file():
            continue
        try:
            st = p.stat()
        except OSError:
            continue
        artifacts.append({"name": p.name, "bytes": st.st_size, "mtime": st.st_mtime})
    artifacts.sort(key=lambda a: (a["mtime"], a["name"]))
    return {
        "dir": str(d),
        "n_artifacts": len(artifacts),
        "total_bytes": sum(a["bytes"] for a in artifacts),
        "artifacts": artifacts,
    }


def prune_cache(max_bytes: int) -> list[str]:
    """Evict least-recently-used artifacts until the cache fits *max_bytes*.

    Returns the evicted file names (oldest first). Artifacts that vanish
    or resist deletion mid-prune are skipped, not fatal — concurrent
    builders may be racing us.
    """
    if max_bytes < 0:
        raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
    report = cache_report()
    total = report["total_bytes"]
    removed: list[str] = []
    d = Path(report["dir"])
    for entry in report["artifacts"]:
        if total <= max_bytes:
            break
        try:
            (d / entry["name"]).unlink()
        except OSError:
            continue
        total -= entry["bytes"]
        removed.append(entry["name"])
    if removed:
        _log.info(
            "pruned %d cext artifact(s) (%d bytes remain, bound %d)",
            len(removed), total, max_bytes,
        )
    return removed


def cext_available(ndim: int = 1) -> bool:
    """Whether the compiled target can actually be loaded here."""
    try:
        load_cext_module(ndim)
        return True
    except CodegenError:
        return False


# -- Python-side kernel drivers ---------------------------------------------


def _in_buf(ffi, arr, keepalive):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    keepalive.append(arr)
    return ffi.from_buffer("double*", arr)


def _out_buf(ffi, arr, ctype="double*"):
    if not arr.flags.c_contiguous:
        raise CodegenError("cext output buffers must be C-contiguous")
    return ffi.from_buffer(ctype, arr, require_writable=True)


def load_cext_kernel(kind: str, ndim: int, axis: int = 0):
    """A Python callable with the flat/SoA calling convention.

    The returned function takes ``(*input_rows, *output_rows, gamma)`` flat
    float64 arrays exactly like a ``target="flat"`` kernel, so
    :func:`repro.codegen.cache.run_flat_kernel` can drive it unchanged.
    """
    gen = KernelGenerator(ndim)
    # A kind the solver's module does not carry (``flux``) still compiles
    # on demand, as a one-kernel module of its own.
    in_default = (kind, axis) in gen.default_kinds_axes("cext")
    ffi, lib = load_cext_module(ndim, None if in_default else [(kind, axis)])
    fn = getattr(lib, gen.kernel_name(kind, axis, "cext"))
    n_in = len(gen.symbols.input_names())

    def kernel(*args):
        *arrays, gamma = args
        ins, outs = arrays[:n_in], arrays[n_in:]
        keep: list = []
        cins = [_in_buf(ffi, a, keep) for a in ins]
        couts = [_out_buf(ffi, o) for o in outs]
        fn(ins[0].size, *cins, *couts, float(gamma))
        return outs[0] if len(outs) == 1 else tuple(outs)

    return kernel


def run_con2prim_newton(
    ffi,
    lib,
    D: np.ndarray,
    S2: np.ndarray,
    tau: np.ndarray,
    p: np.ndarray,
    p_lo: np.ndarray,
    *,
    gamma: float,
    tol: float,
    p_floor: float,
    max_newton: int,
):
    """Run the fused Newton kernel; returns (converged mask, max iters).

    *p* is updated in place (it must be a contiguous scratch buffer, which
    is what :func:`repro.physics.con2prim.con_to_prim` passes).
    """
    n = int(D.size)
    conv = np.zeros(n, dtype=np.uint8)
    iters = np.empty(n, dtype=np.int32)
    keep: list = []
    it_max = getattr(lib, CON2PRIM_KERNEL)(
        n,
        _in_buf(ffi, D, keep),
        _in_buf(ffi, S2, keep),
        _in_buf(ffi, tau, keep),
        _out_buf(ffi, p),
        _in_buf(ffi, p_lo, keep),
        _out_buf(ffi, conv, "unsigned char*"),
        _out_buf(ffi, iters, "int*"),
        float(gamma),
        float(tol),
        float(p_floor),
        int(max_newton),
    )
    return conv.view(bool), int(it_max)


def run_face_flux(
    ffi,
    fn,
    prim: np.ndarray,
    axis: int,
    row_offsets: np.ndarray | None,
    j0: int,
    n_faces: int,
    out: np.ndarray | None,
    *,
    axis_stride: int,
    gamma: float,
    vmax2: float,
    rho_atmo: float,
    p_atmo: float,
    recon_id: int,
    limiter_id: int,
    riemann_id: int,
    n_ghost: int | None = None,
    div: np.ndarray | None = None,
    dx: float = 1.0,
) -> np.ndarray:
    """Run one fused face-flux sweep; returns the sanitize counters.

    *prim* is the full ghosted primitive array (``(nvars, ...)``,
    C-contiguous).  *out* (or None) receives the fluxes as ``(nvars, n_out,
    n_faces)`` and *div* (or None) their difference over *dx* as ``(nvars,
    n_out, n_faces - 1)``.  Given *row_offsets*, those rows are swept and
    each written in place; given None and *n_ghost*, every ghosted row is
    swept (:func:`sweep_rows`) and the interior ones written, in C order.
    The returned int64 pair is ``[velocity_rescaled, floored]`` — the exact
    totals the interpreted sanitize stage counts, over every swept row.

    The sweep covers faces ``j0 .. j0 + n_faces - 1`` (by left cell) along
    *axis*; C reads ``STENCIL_REACH[recon_id]`` cells beyond them and
    writes its outputs unchecked, so a region whose stencil leaves the
    array, or an output of another size, is refused here.
    """
    if not prim.flags.c_contiguous:
        raise CodegenError("fused face_flux needs a C-contiguous prim array")
    left, right = STENCIL_REACH[recon_id]
    extent = prim.shape[axis + 1]
    if n_faces < 1 or j0 - left < 0 or j0 + n_faces + right > extent:
        raise CodegenError(
            f"fused face_flux region out of bounds on axis {axis}: faces "
            f"[{j0}, {j0 + n_faces}) with stencil reach (-{left}, +{right}) "
            f"need cells [{j0 - left}, {j0 + n_faces + right}) of {extent}"
        )
    out_row = None
    if row_offsets is None:
        row_offsets, out_row, interior = sweep_rows(prim.shape[1:], n_ghost, axis)
    n_out = row_offsets.size if out_row is None else interior.size
    for arr, width in ((out, n_faces), (div, n_faces - 1)):
        if arr is not None and arr.size != prim.shape[0] * n_out * width:
            raise CodegenError(
                f"fused face_flux output holds {arr.size} values, the sweep "
                f"writes {prim.shape[0]} x {n_out} x {width}"
            )
    counts = np.zeros(2, dtype=np.int64)
    keep: list = []
    fn(
        _in_buf(ffi, prim, keep),
        int(prim.strides[0] // prim.itemsize),
        int(axis_stride),
        ffi.from_buffer("long*", row_offsets),
        int(row_offsets.size),
        int(j0),
        int(n_faces),
        ffi.NULL if out_row is None else ffi.from_buffer("long*", out_row),
        int(n_out),
        ffi.NULL if out is None else _out_buf(ffi, out),
        ffi.NULL if div is None else _out_buf(ffi, div),
        float(dx),
        float(gamma),
        float(vmax2),
        float(rho_atmo),
        float(p_atmo),
        int(recon_id),
        int(limiter_id),
        int(riemann_id),
        _out_buf(ffi, counts, "long*"),
    )
    return counts


@functools.lru_cache(maxsize=64)
def sweep_rows(cell_shape: tuple, n_ghost: int, axis: int):
    """Row tables of a sweep along *axis* of a C-contiguous ghosted cell
    block, built once per layout and read-only: ``(row_offsets, out_row,
    interior_offsets)``.  ``row_offsets``: flat offset of every ghosted
    transverse row's first cell, in C order — the rows the interpreted slab
    sweep covers; ``out_row[r]``: the interior rows among them numbered in C
    order, -1 on a ghost row; ``interior_offsets``: each interior row's
    first *interior* cell, what ``accumulate`` walks.  C walks the tables
    unchecked, so a block with no interior is refused here."""
    g = int(n_ghost)
    if g < 0 or min(cell_shape) - 2 * g < 1:
        raise CodegenError(
            f"no interior in a block of shape {cell_shape} with {g} ghost layers"
        )
    cells = np.arange(int(np.prod(cell_shape)), dtype=np.int64).reshape(cell_shape)
    first = cells.take(0, axis=axis)
    inner = np.zeros(first.shape, dtype=bool)
    inner[tuple(slice(g, n - g) for n in first.shape)] = True
    offsets, inner = np.ascontiguousarray(first).reshape(-1), inner.reshape(-1)
    out_row = np.where(inner, np.cumsum(inner) - 1, -1)
    interior = offsets[inner] + g * (cells.strides[axis] // cells.itemsize)
    for table in (offsets, out_row, interior):
        table.setflags(write=False)
    return offsets, out_row, interior


def interior_rows(cell_shape: tuple, n_ghost: int) -> tuple[np.ndarray, tuple]:
    """``(row offsets, interior shape)`` of a C-contiguous ghosted cell
    block — the interior rows of a sweep along the last axis, whose length
    is that axis's interior extent: what ``recover``/``max_signal`` walk."""
    rows = sweep_rows(cell_shape, n_ghost, len(cell_shape) - 1)[2]
    return rows, tuple(n - 2 * int(n_ghost) for n in cell_shape)


def _state_buf(ffi, arr, like=None, writable=False):
    """Pointer to an array the row kernels index unchecked: it must be
    C-contiguous float64 (and shaped *like*)."""
    shape = arr.shape if like is None else like
    if arr.dtype != np.float64 or not arr.flags.c_contiguous or arr.shape != shape:
        raise CodegenError(
            f"compiled row kernels need a C-contiguous float64 array of shape "
            f"{shape}, got {arr.dtype} {arr.shape}"
        )
    return ffi.from_buffer("double*", arr, require_writable=writable)


def run_recover(
    ffi, fn, cons, prim, n_ghost, seed, next_seed, *,
    gamma, tol, p_floor, max_newton, rho_atmo, p_atmo, rho_reset, vmax,
    solve_only,
) -> np.ndarray:
    """Run one compiled recovery sweep (see
    :meth:`KernelGenerator.generate_c_recover`); returns the int64 counts
    ``[cons_floored, momentum_rescaled, n_unconverged, iters_max,
    prim_reset]``.

    *cons* is floored in place and *prim* receives the interior; *seed*
    (or None for the cold start) and *next_seed* are interior-shaped.
    """
    offsets, interior = interior_rows(cons.shape[1:], n_ghost)
    counts = np.zeros(5, dtype=np.int64)
    fn(
        _state_buf(ffi, cons, writable=True),
        _state_buf(ffi, prim, cons.shape, writable=True),
        cons[0].size,
        ffi.from_buffer("long*", offsets),
        offsets.size,
        interior[-1],
        ffi.NULL if seed is None else _state_buf(ffi, seed, interior),
        _state_buf(ffi, next_seed, interior, writable=True),
        gamma, tol, p_floor, max_newton, rho_atmo, p_atmo, rho_reset, vmax,
        bool(solve_only),
        ffi.from_buffer("long*", counts),
    )
    return counts


def run_max_signal(ffi, fn, prim, n_ghost, ndim: int, gamma: float) -> list[float]:
    """Per-axis largest |characteristic speed| over the interior of *prim*
    (see :meth:`KernelGenerator.generate_c_max_signal`)."""
    offsets, interior = interior_rows(prim.shape[1:], n_ghost)
    vmax = np.empty(ndim)
    fn(
        _state_buf(ffi, prim),
        prim[0].size,
        ffi.from_buffer("long*", offsets),
        offsets.size,
        interior[-1],
        gamma,
        ffi.from_buffer("double*", vmax),
    )
    return vmax.tolist()


def run_accumulate(ffi, fn, dU, axis: int, n_ghost: int, lo: int, hi: int, div) -> None:
    """``dU -= div`` over interior cells ``[lo, hi)`` of *axis*, every
    interior row (:meth:`KernelGenerator.generate_c_accumulate`); *div* is
    ``(nvars, *transverse_interior, hi - lo)``.  C walks both unchecked: a
    region leaving the interior or a *div* of another size is refused here."""
    rows = sweep_rows(dU.shape[1:], n_ghost, axis)[2]
    n_axis = dU.shape[axis + 1] - 2 * n_ghost
    if not 0 <= lo < hi <= n_axis or div.size != dU.shape[0] * rows.size * (hi - lo):
        raise CodegenError(
            f"accumulate region [{lo}, {hi}) of axis {axis} with a divergence "
            f"of shape {div.shape} does not fit the interior of {dU.shape}"
        )
    fn(
        _state_buf(ffi, dU, writable=True), dU[0].size,
        dU.strides[axis + 1] // dU.itemsize, ffi.from_buffer("long*", rows),
        rows.size, lo, hi - lo, _state_buf(ffi, div),
    )


def run_rk_stage(ffi, fn, stage, U, V, dt: float, k, out) -> None:
    """``out = combine_stage(stage, U, V, dt, k)`` in one compiled pass over
    same-shaped C-contiguous float64 arrays
    (:meth:`KernelGenerator.generate_c_rk_stage`).  The loop is compiled
    under ``restrict``: *out* aliasing an input is refused."""
    form, a, b = stage
    if any(np.may_share_memory(out, x) for x in (U, V, k)):
        raise CodegenError("rk_stage: out aliases an input")
    fn(
        U.size, form, a, b, dt,
        _state_buf(ffi, U), _state_buf(ffi, V, U.shape), _state_buf(ffi, k, U.shape),
        _state_buf(ffi, out, U.shape, writable=True),
    )
