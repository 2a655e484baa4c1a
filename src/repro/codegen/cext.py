"""Compiled C kernel target: cffi build, on-disk artifact cache, fallback.

The ``cext`` target turns the generated C module of
:meth:`~repro.codegen.generator.KernelGenerator.generate_c_module` into a
real shared library via cffi: one artifact per ndim, whose entry points are
the row kernels (one-pass recovery sweep with its CFL scan, fused
face-flux sweep per axis, ``accumulate``, ``rk_stage``), the AMR gather
program (a ghost fill or a reflux in one call), the cold-path con2prim
Newton loop and the clone and team probes.  Each row kernel and the
program are bound by one ``bind_*`` function below: it checks once what
is fixed for a stack (shapes, element types, stencil reach) and makes the
pointers to the buffers the stack keeps, and returns the call, which takes
only the arrays that change and checks and points to an array it was not
bound to.  There is no pointwise entry point: the per-side algebra runs
inside the sweep.  Four layers of caching keep generation and rebuilds rare
and *correct*:

1. an in-process handle map, keyed by the artifact name;
2. the stored spec: the generated ``(C source, cdef)`` pair of each ndim,
   written once, with its digest, under ``specs/`` in the artifact cache.
   Its key is a SHA-256 over the bytes of :data:`SPEC_FILES` (the emitter,
   the symbolic spec and the ABI they print), the installed SymPy version
   and the ndim, so editing one of those files or upgrading SymPy misses it.
   It is served only while ``KernelGenerator`` and ``SRHDSymbols`` hold the
   attributes their files define (an emitter patched in-process generates
   afresh and stores nothing), and a torn or tampered entry is regenerated.
   A warm start therefore imports no SymPy and runs no CSE;
3. an on-disk artifact cache (``$REPRO_CEXT_CACHE``, default
   ``~/.cache/repro/cext``) whose file names embed a SHA-256 over the
   **generated C source + cdef declarations + toolchain fingerprint +
   compile flags** (ours and ``$CFLAGS``) — the name is computed from the
   source however it was obtained, so a stored spec names the artifact
   :func:`module_spec` names, and a changed compiler or flag can never
   serve a stale binary;
4. the cffi build itself, executed in a private temp directory and
   installed into the cache with an atomic :func:`os.replace`, so
   concurrent worker processes racing to build the same module all end up
   importing one winner.  A pruned artifact rebuilds from its stored spec.

There is one fallback: missing cffi, a missing or failing C compiler, or
``REPRO_CEXT_DISABLE=1`` raise :class:`~repro.utils.errors.CodegenError`
here, which :func:`repro.codegen.system.make_kernel_system` turns into a
logged fallback of the whole target to ``flat``.

Threads: the artifact is built with ``-fopenmp``, and its four row kernels
(``recover``, the per-axis sweeps, ``accumulate``, ``rk_stage``; the AMR
program runs serially) split a large call over an OpenMP team — every
output element written by one thread, no floating-point reduction
reordered, so any team size gives the 1-thread bytes.  The team size is
the standard OpenMP one (``OMP_NUM_THREADS``, CPU affinity), read by :func:`threads`;
every fleet worker runs on one (``core.parallel._worker_main``).  A
compiler that rejects ``-fopenmp`` (probed once, :func:`openmp_supported`)
builds the same source without it: one thread, same bytes, no other path.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import weakref
from pathlib import Path

import numpy as np

from ..utils.errors import CodegenError
from ..utils.logging import get_logger
from .abi import CON2PRIM_KERNEL, STENCIL_REACH

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
#: flags (the C is reached through cffi, not a ufunc).  ``-fopenmp`` (also
#: a link flag) turns the kernels' team branches on; :func:`build_flags`
#: drops it where the compiler rejects it.
OPENMP_FLAG = "-fopenmp"
CFLAGS = (
    "-O3", "-ffp-contract=off", "-fno-math-errno", "-fno-trapping-math", OPENMP_FLAG,
)


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


def _cc() -> str:
    """The compiler the build will run: distutils' ``customize_compiler``
    lets ``$CC`` override the interpreter's own CC."""
    return os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"


@functools.lru_cache(maxsize=None)
def _openmp_probe(cc: str) -> bool:
    """Whether *cc* compiles and links an OpenMP shared object, memoized
    per command string."""
    with tempfile.TemporaryDirectory(prefix="repro-openmp-probe-") as d:
        src = Path(d) / "probe.c"
        src.write_text("#include <omp.h>\nint probe(void) { return omp_get_max_threads(); }\n")
        try:
            out = subprocess.run(
                [*cc.split(), OPENMP_FLAG, "-shared", "-fPIC", str(src), "-o",
                 str(Path(d) / "probe.so")],
                capture_output=True, timeout=60, check=False,
            )
        except (OSError, subprocess.SubprocessError):
            return False
        return out.returncode == 0


def openmp_supported() -> bool:
    """Whether this toolchain builds the kernels' team branches."""
    return _openmp_probe(_cc())


def build_flags() -> tuple[str, ...]:
    """:data:`CFLAGS` as this toolchain takes them: without ``-fopenmp``
    where the compiler rejects it, so the same source builds with its
    pragmas ignored and runs the 1-thread schedule."""
    if openmp_supported():
        return CFLAGS
    return tuple(f for f in CFLAGS if f != OPENMP_FLAG)


def toolchain_fingerprint() -> str:
    """Identity of the compiler stack, baked into every artifact key.

    Raises :class:`CodegenError` when cffi is missing — without it there
    is no toolchain to fingerprint.
    """
    try:
        import cffi
    except ImportError as exc:  # pragma: no cover - image ships cffi
        raise CodegenError(f"cffi is not installed: {exc}") from exc
    return "|".join(
        [
            f"cffi={cffi.__version__}",
            f"python={sys.version_info.major}.{sys.version_info.minor}",
            f"cc={_compiler_version(_cc())}",
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
    source, declarations, toolchain, and the compile flags — ours as the
    toolchain takes them (:func:`build_flags`) and the ``CFLAGS`` cffi's
    build inherits from the environment.  An artifact already built under
    the full :data:`CFLAGS` proves this toolchain takes ``-fopenmp``, so a
    warm load never pays for the OpenMP probe."""
    def name(flags):
        key = [
            source, cdef, toolchain_fingerprint(),
            " ".join(flags), os.environ.get("CFLAGS", ""),
        ]
        return f"{prefix}_{hashlib.sha256(chr(0).join(key).encode()).hexdigest()[:16]}"

    full = name(CFLAGS)
    return full if artifact_path(full).exists() else name(build_flags())


def _generate(ndim: int) -> tuple[str, str]:
    """(C source, cdef declarations) of one ndim's module, generated
    through SymPy."""
    from .generator import KernelGenerator

    gen = KernelGenerator(ndim)
    return gen.generate_c_module(), gen.c_declarations()


def _module_name(ndim: int, source: str, cdef: str) -> str:
    return _artifact_name(f"_repro_cext_{ndim}d", source, cdef)


def module_spec(ndim: int) -> tuple[str, str, str]:
    """(artifact name, C source, cdef declarations) for one ndim's module,
    generated afresh.

    Any change to the symbolic spec, the emitter, the compiler stack or
    the compile flags changes the name and forces a rebuild.
    """
    source, cdef = _generate(ndim)
    return _module_name(ndim, source, cdef), source, cdef


#: The files whose bytes key the stored spec: the emitter, the symbolic
#: spec and the ABI constants the emitter prints.  Every ``repro`` module
#: they import is one of these or shapes no generated byte
#: (:data:`SPEC_OUTPUT_FREE`).
SPEC_FILES = ("generator.py", "symbols.py", "abi.py")
SPEC_OUTPUT_FREE = ("repro.utils.errors",)
#: Subdirectory of the artifact cache holding the stored specs.
SPEC_DIR = "specs"
#: ``(module, class)`` of the spec files whose attributes a stored spec
#: assumes: each module records what its file defines as ``_DEFINED``.
_SPEC_CLASSES = (("generator", "KernelGenerator"), ("symbols", "SRHDSymbols"))


def sympy_version() -> str:
    """The installed SymPy's version, read from its ``release.py`` without
    importing it ("none" where SymPy is not installed)."""
    found = importlib.util.find_spec("sympy")
    if found is None:
        return "none"
    release = Path(found.origin).with_name("release.py")
    match = release.is_file() and re.search(
        r"""__version__\s*=\s*["']([^"']+)["']""", release.read_text()
    )
    if not match:  # pragma: no cover - a SymPy laid out otherwise
        from importlib.metadata import version

        return version("sympy")
    return match.group(1)


def spec_key(ndim: int) -> str:
    """SHA-256 over what generates one ndim's spec: the bytes of
    :data:`SPEC_FILES`, the SymPy version and *ndim*."""
    here = Path(__file__).parent
    parts = [(here / name).read_bytes() for name in SPEC_FILES]
    parts.append(f"sympy={sympy_version()}|ndim={int(ndim)}".encode())
    return hashlib.sha256(b"\0".join(parts)).hexdigest()


def spec_path(key: str, ndim: int) -> Path:
    return cache_dir() / SPEC_DIR / f"_repro_cext_{int(ndim)}d_{key[:16]}.json"


def _spec_digest(key: str, source: str, cdef: str) -> str:
    return hashlib.sha256(chr(0).join([key, source, cdef]).encode()).hexdigest()


def _spec_replaced() -> bool:
    """Whether a loaded spec class holds attributes other than those its
    file defines: an emitter or spec replaced in-process.  A module not
    imported yet has replaced nothing."""
    for module, cls in _SPEC_CLASSES:
        mod = sys.modules.get(f"{__package__}.{module}")
        if mod is not None and vars(getattr(mod, cls)) != mod._DEFINED:
            return True
    return False


def _read_spec(path: Path, key: str) -> tuple[str, str] | None:
    """The stored ``(source, cdef)`` at *path*, or None when it is missing,
    torn, or does not match its digest."""
    try:
        stored = json.loads(path.read_text())
        pair = stored["source"], stored["cdef"]
        whole = stored["digest"] == _spec_digest(key, *pair)
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _log.warning("stored cext spec %s unreadable (%s); regenerating", path, exc)
        return None
    if not whole:
        _log.warning("stored cext spec %s fails its digest; regenerating", path)
        return None
    return pair


def _write_spec(path: Path, key: str, source: str, cdef: str) -> None:
    """Store ``(source, cdef)`` at *path* atomically: written whole to a
    private temp file, then renamed into place.  A store that fails only
    costs the next process a generation."""
    entry = {"source": source, "cdef": cdef, "digest": _spec_digest(key, source, cdef)}
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=str(path.parent))
        try:
            with os.fdopen(fd, "w") as out:
                json.dump(entry, out)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        _log.warning("cannot store cext spec %s (%s)", path, exc)


def stored_spec(ndim: int) -> tuple[str, str, str]:
    """:func:`module_spec`, its source and declarations served from the spec
    store when they are there: generated (through SymPy) and stored only on
    a miss.  An emitter or spec replaced in-process is generated afresh and
    never stored."""
    if _spec_replaced():
        return module_spec(ndim)
    key = spec_key(ndim)
    path = spec_path(key, ndim)
    pair = _read_spec(path, key)
    if pair is None:
        pair = _generate(ndim)
        _write_spec(path, key, *pair)
    return (_module_name(ndim, *pair), *pair)


def artifact_path(name: str) -> Path:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return cache_dir() / f"{name}{suffix}"


def _build(name: str, source: str, cdef: str, dest: Path) -> None:
    """Compile the module in a private temp dir, install atomically."""
    global build_count
    tmpdir = tempfile.mkdtemp(prefix="repro-cext-build-", dir=str(dest.parent))
    try:
        import cffi

        flags = build_flags()
        builder = cffi.FFI()
        builder.cdef(cdef)
        builder.set_source(
            name, source, extra_compile_args=list(flags),
            extra_link_args=[OPENMP_FLAG] if OPENMP_FLAG in flags else [],
        )
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
        if hasattr(module.lib, "repro_threads") and _log.isEnabledFor(logging.INFO):
            _log.info(
                "cext kernel module %s loaded, sweep clone: %s, threads: %d%s",
                name, _SIMD_LEVELS[module.lib.repro_simd_level()],
                module.lib.repro_threads(0),
                "" if OPENMP_FLAG in build_flags()
                else f" (built without OpenMP: the compiler rejects {OPENMP_FLAG})",
            )
    return module.ffi, module.lib


def load_cext_module(ndim: int):
    """(ffi, lib) of the compiled kernel module for *ndim*.

    Its spec comes from the spec store (:func:`stored_spec`: no SymPy on a
    warm start); builds (and disk-caches) on first use; raises
    :class:`~repro.utils.errors.CodegenError` when the target is disabled
    or no toolchain is available.
    """
    if cext_disabled():
        raise CodegenError(f"cext target disabled via {DISABLE_ENV}=1")
    return _load_spec(*stored_spec(ndim))


def simd_level(ndim: int) -> str:
    """Which clone of the fused sweep this host runs: ``"avx2"`` or
    ``"baseline"`` (no ifunc, not x86-64, or a CPU without AVX2)."""
    return _SIMD_LEVELS[load_cext_module(ndim)[1].repro_simd_level()]


def threads(ndim: int, n: int = 0) -> int:
    """The OpenMP team this thread's calls into the compiled kernels split
    over (set to *n* first when ``n > 0``): ``OMP_NUM_THREADS``, else the
    CPUs this process may use; 1 in a module built without OpenMP.  Every
    module shares one OpenMP runtime, so *ndim* only names the module to
    ask (loading it if needed)."""
    return load_cext_module(ndim)[1].repro_threads(int(n))


def loaded_threads() -> int | None:
    """:func:`threads` as the modules already loaded report it — None
    before the first load — without loading (or building) one."""
    for module in _modules.values():
        if hasattr(module.lib, "repro_threads"):
            return module.lib.repro_threads(0)
    return None


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

#: the NumPy element type each pointer type of the kernels' signatures walks
_C_DTYPES = {
    "double*": np.dtype(np.float64), "long*": np.dtype(np.int64),
    "unsigned char*": np.dtype(np.uint8),
}


def _ptr(ffi, arr, shape=None, ctype="double*", writable=False):
    """Pointer to an array C indexes unchecked: C-contiguous, of the element
    type *ctype* points to, and shaped *shape* (an int: that many elements;
    None: any) — anything else is refused."""
    dtype, sized = _C_DTYPES[ctype], isinstance(shape, int)
    if arr.dtype != dtype or not arr.flags.c_contiguous or shape not in (
        None, arr.size if sized else arr.shape
    ):
        raise CodegenError(
            f"compiled kernels need a C-contiguous {dtype} array of "
            f"{'size' if sized else 'shape'} {shape}, got {arr.dtype} {arr.shape}"
        )
    return ffi.from_buffer(ctype, arr, require_writable=writable)


class _Pointers(dict):
    """The pointers of one bound call: ``id(array) -> (weak reference,
    pointer, shape, writable)`` of each array it was handed, checked
    (:func:`_ptr`) and pointed to once for as long as it lives; an array
    not seen (or seen only as an input, or under another shape) is checked
    and pointed to when passed.  A pointer holds no reference (an entry
    outlives its array, unread, until a new array prunes it); the arrays
    bound at bind time (:meth:`bind`) are kept."""

    def __init__(self, ffi):
        super().__init__()
        self.ffi, self.kept = ffi, []

    def bind(self, arr, shape=None, ctype="double*", writable=False):
        self.kept.append(arr)
        return self.of(arr, shape, ctype, writable)

    def of(self, arr, shape=None, ctype="double*", writable=False):
        hit = self.get(id(arr))
        if hit is not None and hit[0]() is arr and hit[2] == shape and hit[3] >= writable:
            return hit[1]
        ptr = _ptr(self.ffi, arr, shape, ctype, writable)
        if len(self) >= 16:
            for key in [key for key, hit in self.items() if hit[0]() is None]:
                del self[key]
        self[id(arr)] = (weakref.ref(arr), self.ffi.cast(ctype, ptr), shape, writable)
        return ptr


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
    is what :func:`repro.physics.con2prim.con_to_prim` passes).  C indexes
    every buffer by ``D.size`` unchecked: a *p* or an input of another size
    or a non-float64 *p* is refused before it runs.
    """
    n = int(D.size)
    sizes = [np.size(a) for a in (S2, tau, p, p_lo)]
    if p.dtype != np.float64 or sizes != [n] * 4:
        raise CodegenError(f"c2p_newton: {n} entries per buffer, a float64 p: {sizes} {p.dtype}")
    conv = np.zeros(n, dtype=np.uint8)
    inputs = [np.ascontiguousarray(a, dtype=np.float64) for a in (D, S2, tau, p_lo)]
    D, S2, tau, p_lo = (ffi.from_buffer("double*", a) for a in inputs)
    it_max = getattr(lib, CON2PRIM_KERNEL)(
        n, D, S2, tau, _ptr(ffi, p, writable=True), p_lo,
        _ptr(ffi, conv, ctype="unsigned char*", writable=True),
        float(gamma), float(tol), float(p_floor), int(max_newton),
    )
    return conv.view(bool), int(it_max)


def bind_face_flux(
    ffi, fn, shape: tuple, axis: int, j0: int, n_faces: int, *,
    n_ghost: int, dx: np.ndarray, div: np.ndarray | None = None,
    gamma: float, vmax2: float, rho_atmo: float, p_atmo: float,
    recon_id: int, limiter_id: int, riemann_id: int,
):
    """Bind one fused face-flux sweep of stacks shaped *shape* ``(P, nvars,
    *ghosted)``; returns the call ``(prim, out=None) -> counts``.

    It visits the interior transverse rows of every patch
    (:func:`sweep_rows`, C's ``j0`` counted from their first interior
    cell), in C order, patch after patch, over faces ``j0 .. j0 + n_faces -
    1`` (by left cell) along *axis*: *out* (or None) receives their fluxes
    as ``(nvars, n_rows, n_faces)`` and the bound *div* (or None) their
    difference over each patch's entry of the spacing row *dx*, ``(nvars,
    n_rows, n_faces - 1)``.  *counts*, which the next call overwrites, is
    the int64 ``[velocity_rescaled, floored]``: the interpreted sanitize
    stage's totals over the same rows.  C reads ``STENCIL_REACH[recon_id]``
    cells beyond the faces and writes its outputs unchecked, so a stencil
    leaving the array, a spacing row that is not one value per patch, or an
    output or *prim* that is not C-contiguous float64 of its size is
    refused.
    """
    n_patches, nvars, cells = shape[0], shape[1], shape[2:]
    left, right = STENCIL_REACH[recon_id]
    extent = cells[axis]
    if n_faces < 1 or j0 - left < 0 or j0 + n_faces + right > extent:
        raise CodegenError(
            f"fused face_flux region out of bounds on axis {axis}: faces "
            f"[{j0}, {j0 + n_faces}) with stencil reach (-{left}, +{right}) "
            f"need cells [{j0 - left}, {j0 + n_faces + right}) of {extent}"
        )
    dx = np.ascontiguousarray(dx, dtype=np.float64)
    if dx.shape != (n_patches,):
        raise CodegenError(
            f"fused face_flux needs one spacing per patch ({n_patches}), got {dx.shape}"
        )
    var = int(np.prod(cells))
    rows = sweep_rows(cells, n_ghost, axis, n_patches, nvars * var)
    n_out, counts, ptrs = nvars * rows.size * n_faces, np.zeros(2, dtype=np.int64), _Pointers(ffi)
    head = (var, int(np.prod(cells[axis + 1:])), ptrs.bind(rows, ctype="long*"),
            rows.size, j0 - n_ghost, n_faces)
    tail = (
        ffi.NULL if div is None
        else ptrs.bind(div, nvars * rows.size * (n_faces - 1), writable=True),
        ptrs.bind(dx), rows.size // n_patches, gamma, vmax2, rho_atmo, p_atmo,
        recon_id, limiter_id, riemann_id, ptrs.bind(counts, ctype="long*", writable=True),
    )

    def sweep(prim, out=None):  # stored fluxes are a fresh array per call: not kept
        out = ffi.NULL if out is None else _ptr(ffi, out, n_out, writable=True)
        counts.fill(0)
        fn(ptrs.of(prim, shape), *head, out, *tail)
        return counts

    return sweep


@functools.lru_cache(maxsize=64)
def sweep_rows(
    cell_shape: tuple, n_ghost: int, axis: int, n_patches: int = 1, patch_size: int = 0
) -> np.ndarray:
    """Flat offset of the first interior cell along *axis* of every
    interior transverse row of a C-contiguous ghosted cell block, in C
    order: the rows every row kernel walks (transverse ghost rows are never
    swept).  For a stack of *n_patches* blocks *patch_size* elements apart,
    the table repeats per patch shifted by its offset.  Built once per
    layout and read-only.  C walks it unchecked, so a block with no
    interior is refused here."""
    g = int(n_ghost)
    if g < 0 or min(cell_shape) - 2 * g < 1:
        raise CodegenError(
            f"no interior in a block of shape {cell_shape} with {g} ghost layers"
        )
    cells = np.arange(int(np.prod(cell_shape)), dtype=np.int64).reshape(cell_shape)
    first = np.asarray(cells[tuple(slice(g, n - g) for n in cell_shape)].take(0, axis=axis))
    shift = np.arange(n_patches, dtype=np.int64)[:, None] * int(patch_size)
    rows = (shift + first.reshape(-1)).reshape(-1)
    rows.setflags(write=False)
    return rows


def interior_rows(cell_shape: tuple, n_ghost: int) -> tuple[np.ndarray, tuple]:
    """``(row offsets, interior shape)`` of a C-contiguous ghosted cell
    block — the interior rows of a sweep along the last axis, whose length
    is that axis's interior extent: what ``recover`` walks."""
    rows = sweep_rows(cell_shape, n_ghost, len(cell_shape) - 1)
    return rows, tuple(n - 2 * int(n_ghost) for n in cell_shape)


def bind_recover(ffi, fn, shape: tuple, n_ghost: int, prim, seeds, warm, scan, **params):
    """Bind one compiled recovery sweep
    (:meth:`KernelGenerator.generate_c_recover`) of stacks shaped *shape*
    ``(P, nvars, *ghosted)`` to a stack's workspace *prim*, its two seed
    arrays *seeds* (the patches' interiors back to back, ``(P *
    interior[0], *interior[1:])``), its ``(P,)`` uint8 *warm* flags (a
    patch's *seed* is read where set) and its ``(P, ndim)`` *scan* buffer;
    *params* are the kernel's scalars (``gamma``, ``tol``, ``p_floor``,
    ``max_newton``, ``rho_atmo``, ``p_atmo``, ``rho_reset``, ``vmax``, in
    that order).  Returns the call ``(cons, prim, seed, next_seed,
    solve_only, scan=None) -> counts``: *cons* floored in place, *prim*'s
    interiors recovered, *next_seed* written, *scan* (or None: no scan)
    given each patch's per-axis largest |characteristic speed|, and the
    int64 ``[cons_floored, momentum_rescaled, n_unconverged, iters_max,
    prim_reset]`` of each patch, ``(P, 5)``, which the next call
    overwrites.  An array of another shape or type is refused."""
    n_patches, nvars, cells = shape[0], shape[1], shape[2:]
    offsets, interior = interior_rows(cells, n_ghost)
    seeds_shape = (n_patches * interior[0],) + interior[1:]
    scan_shape = (n_patches, nvars - 2)  # nvars = ndim + 2
    counts, ptrs = np.zeros((n_patches, 5), dtype=np.int64), _Pointers(ffi)
    ptrs.bind(prim, shape, writable=True)
    ptrs.bind(scan, scan_shape, writable=True)
    for seed in seeds:
        ptrs.bind(seed, seeds_shape, writable=True)
    rows = (n_patches, int(np.prod(cells)), ptrs.bind(offsets, ctype="long*"),
            offsets.size, interior[-1])
    warm = ptrs.bind(warm, (n_patches,), "unsigned char*")
    params = tuple(params[k] for k in (
        "gamma", "tol", "p_floor", "max_newton", "rho_atmo", "p_atmo", "rho_reset", "vmax"))
    counts_ptr = ptrs.bind(counts, ctype="long*", writable=True)

    def recover(cons, prim, seed, next_seed, solve_only, scan=None):
        scan = ffi.NULL if scan is None else ptrs.of(scan, scan_shape, writable=True)
        counts.fill(0)
        fn(
            ptrs.of(cons, shape, writable=True), ptrs.of(prim, shape, writable=True), *rows,
            ptrs.of(seed, seeds_shape), warm, ptrs.of(next_seed, seeds_shape, writable=True),
            *params, bool(solve_only), counts_ptr, scan,
        )
        return counts

    return recover


def bind_accumulate(ffi, fn, shape: tuple, axis: int, n_ghost: int, lo: int, hi: int, dU, div):
    """Bind ``dU -= div`` over interior cells ``[lo, hi)`` of *axis*, every
    interior row of every patch of stacks shaped *shape*
    (:meth:`KernelGenerator.generate_c_accumulate`), to a stack's *dU* and
    the region's *div* ``(nvars, P, *transverse_interior, hi - lo)``;
    returns the call ``(dU, div, first)`` (*first*: ``dU = 0.0 - div``).
    C walks both unchecked: a region leaving the interior, or a *dU* or
    *div* of another size or type, is refused."""
    n_patches, nvars, cells = shape[0], shape[1], shape[2:]
    rows = sweep_rows(cells, n_ghost, axis, n_patches, int(np.prod(shape[1:])))
    n_div = nvars * rows.size * (hi - lo)
    if not 0 <= lo < hi <= cells[axis] - 2 * n_ghost or div.size != n_div:
        raise CodegenError(
            f"accumulate region [{lo}, {hi}) of axis {axis} with a divergence "
            f"of shape {div.shape} does not fit the interior of {shape}"
        )
    ptrs = _Pointers(ffi)
    ptrs.bind(dU, shape, writable=True)
    ptrs.bind(div, n_div)
    region = (int(np.prod(cells)), int(np.prod(cells[axis + 1:])),
              ptrs.bind(rows, ctype="long*"), rows.size, lo, hi - lo)

    def accumulate(dU, div, first):
        fn(ptrs.of(dU, shape, writable=True), *region, ptrs.of(div, n_div), bool(first))

    return accumulate


def bind_rk_stage(ffi, fn, shape: tuple, *buffers):
    """Bind ``out = combine_stage(stage, U, V, dt, k)`` in one compiled pass
    (:meth:`KernelGenerator.generate_c_rk_stage`) over C-contiguous float64
    arrays shaped *shape*, to a stack's *buffers*; returns the call
    ``(stage, U, V, dt, k, out)``.  The loop is compiled under
    ``restrict``: an *out* aliasing an input is refused, as is an array of
    another shape or type."""
    ptrs, n = _Pointers(ffi), int(np.prod(shape))
    for buf in buffers:
        ptrs.bind(buf, shape, writable=True)

    def rk_stage(stage, U, V, dt, k, out):
        if np.may_share_memory(out, U) or np.may_share_memory(out, V) or np.may_share_memory(out, k):
            raise CodegenError("rk_stage: out aliases an input")
        fn(n, *stage, dt, ptrs.of(U, shape), ptrs.of(V, shape), ptrs.of(k, shape),
           ptrs.of(out, shape, writable=True))

    return rk_stage


def bind_program(ffi, fn, code, values, reals, n_arrays: int):
    """Bind one AMR gather program
    (:meth:`KernelGenerator.generate_c_amr_program`) — its *code*, its
    value buffer *values* ``(sites, nvars)``, its *reals* and a table of
    *n_arrays* pointers — and return the call ``(arrays)``, one C call.  C
    indexes *arrays* unchecked by *code*: ``mesh.amr.forest.run_program``
    checks them against the sizes the program was compiled for first."""
    table, ptrs = ffi.new("double*[]", n_arrays), _Pointers(ffi)
    args = (ptrs.bind(code, ctype="long*"), code.size, ptrs.bind(values, writable=True),
            ptrs.bind(reals))

    def program(arrays):
        table[0:n_arrays] = [ptrs.of(a, writable=True) for a in arrays]
        fn(table, *args)

    return program
