"""Kernel source generation from the symbolic SRHD specification.

Three targets model the architectures of a heterogeneous node:

- ``numpy`` — the host CPU flavour: one function over a stacked state array
  ``prim[(nvars, ...)]``, vectorized whole-array expressions.
- ``flat`` — the accelerator flavour: structure-of-arrays signature (one
  flat 1-D array per variable, separate output arrays), mirroring how a
  CUDA kernel receives raw device pointers. On this substrate it still
  executes through NumPy, but it exercises the same generation path and
  data layout a GPU emitter uses.
- ``cext`` — genuinely compiled C: one module of *row kernels*
  (:meth:`KernelGenerator.generate_c_module`), each walking whole rows of a
  ghosted patch or a stack of them — the recovery sweep (the CFL scan of
  the rows it recovered included), the fused reconstruction + Riemann +
  difference sweep per axis, the update stage and the cold-path Newton
  loop — built into a shared library by :mod:`repro.codegen.cext`.  The
  spec reaches it through the sweep's per-side tile stage, which prints the
  same CSE'd ``face_side`` list through SymPy's C99 printer that the
  ``flat`` kernel prints through NumPy's; there is no pointwise C entry
  point.

Common subexpression elimination (``sympy.cse``) is applied before
printing, exactly as production generators do to keep register pressure and
redundant transcendentals down.

SymPy is imported by the functions that print, never by importing this
module: a warm start reads the ABI through it and loads a stored spec
(:func:`repro.codegen.cext.load_cext_module`) without generating anything.
"""

from __future__ import annotations

import functools

from ..utils.errors import CodegenError
from .abi import (
    ACCUMULATE_KERNEL,
    AMR_PROGRAM_KERNEL,
    C2P_LANES,
    CON2PRIM_KERNEL,
    FACE_FLUX_KERNEL,
    RECOVER_KERNEL,
    RK_STAGE_KERNEL,
    SIMD_LEVEL_DECL,
    STENCIL_LIMITER_IDS,
    STENCIL_REACH,
    STENCIL_RECON_IDS,  # noqa: F401 - the ABI, also read from here
    STENCIL_RIEMANN_IDS,  # noqa: F401
    STENCIL_TILE,
    TEAM_COST,
    TEAM_MIN_WORK,
    THREADS_DECL,
)

_TARGETS = ("numpy", "flat")

#: Prologue of every generated C module.  ``REPRO_INLINE`` marks each helper
#: ``static inline`` and, where the compiler allows, forces the inlining:
#: the optimizer alone keeps the larger ones (tile stages, row fillers) out
#: of line once both axes' sweeps call them.  ``REPRO_CLONES`` compiles a
#: sweep once per ISA and lets the loader's ifunc resolver pick the widest
#: the host runs — a compile-time capability guard, empty where the
#: compiler or object format has no ``target_clones`` (never
#: ``-march=native``: the artifact cache may be shared between hosts and
#: its key does not name the CPU).  ``rmin``/``rmax``/``rclip`` are
#: ``np.minimum`` / ``np.maximum`` / ``np.clip`` on every non-NaN input,
#: signed zeros included — a tie returns the *second* argument (clip: ``x``
#: itself), which libm's ``fmin``/``fmax`` leave unspecified — and compile
#: to ``minsd``/``maxsd`` instead of a PLT call.  ``rmaxn`` is ``rmax`` that
#: also keeps a NaN first argument, as ``np.maximum`` and ``np.max`` do.
#: ``OUTLINE`` keeps a threaded kernel's body out of line: the serial branch
#: of its entry point and every thread of its team call the one copy
#: (inlined into both, the module took ~25% longer to compile).
#: ``team_chunk`` is a thread's static share of a parallel loop: one
#: contiguous range per thread, in thread order, never a dynamic schedule.
_PROLOGUE_C = """\
#include <math.h>
#ifdef _OPENMP
#include <omp.h>
#endif

#if defined(__GNUC__)
#define REPRO_INLINE static inline __attribute__((always_inline))
#define OUTLINE static __attribute__((noinline))
#else
#define REPRO_INLINE static inline
#define OUTLINE static
#endif

#if (defined(__clang__) ? __clang_major__ >= 14 : defined(__GNUC__)) \
    && defined(__x86_64__) && defined(__ELF__)
#define REPRO_CLONES __attribute__((target_clones("default", "avx2")))
REPRO_INLINE int simd_level(void) { return __builtin_cpu_supports("avx2") ? 1 : 0; }
#else
#define REPRO_CLONES
REPRO_INLINE int simd_level(void) { return 0; }
#endif

REPRO_INLINE double rmin(double a, double b) { return (a < b) ? a : b; }
REPRO_INLINE double rmax(double a, double b) { return (a > b) ? a : b; }
REPRO_INLINE double rclip(double x, double lo, double hi)
{
    return (x < lo) ? lo : ((x > hi) ? hi : x);
}
REPRO_INLINE double rmaxn(double a, double b)
{
    return (a > b || a != a) ? a : b;
}
""" + f"""
#define TEAM_MIN_WORK {TEAM_MIN_WORK}
#ifdef _OPENMP
REPRO_INLINE void team_chunk(long n, long* lo, long* hi)
{{
    const long t = omp_get_thread_num();
    const long nt = omp_get_num_threads();
    *lo = n * t / nt;
    *hi = n * (t + 1) / nt;
}}
#endif
"""


def _team_branch(kernel: str, work: str, body: str, head: str = "", tail: str = "") -> str:
    """An entry point's threaded branch: from *kernel*'s weighted *work*
    (``TEAM_COST[kernel] * work >= TEAM_MIN_WORK``) on a team of more than
    one thread, *head*, then *body* as one parallel region (each thread
    takes its ``team_chunk``), then *tail*, then the entry returns.  Below
    it — or built without OpenMP — control falls through to the serial
    branch after it, which calls into libgomp not at all."""
    return f"""\
#ifdef _OPENMP
    if ({TEAM_COST[kernel]} * ({work}) >= TEAM_MIN_WORK && omp_get_max_threads() > 1) {{
{head}#pragma omp parallel
        {{
{body}
        }}
{tail}        return;
    }}
#endif
"""


#: ``repro_threads`` (:data:`THREADS_DECL`).
_THREADS_C = f"""\
{THREADS_DECL}
{{
#ifdef _OPENMP
    if (n > 0) omp_set_num_threads(n);
    return omp_get_max_threads();
#else
    (void) n;
    return 1;
#endif
}}
"""

#: C template of the con2prim Newton iteration: one lane body that a tile of
#: :data:`C2P_LANES` cells runs in lockstep.  Operation order matches
#: :func:`repro.physics.con2prim.con_to_prim`'s vectorized Newton phase
#: exactly (same clips, same step, same convergence test), so when compiled
#: without FP contraction every lane is bit-identical to the NumPy
#: iteration.  A lane freezes ``p`` where it converges, as
#: ``np.where(converged, p, p_new)`` does, and recomputes the same ``rho``
#: and ``Q`` until no lane is active; the passes the tile ran are its
#: slowest lane's iteration count, the maximum both callers (this loop and
#: ``recover``) report.  They fill tile rows ``C_D .. C_P``.
_CON2PRIM_C = """\
#define C2P_LANES %(lanes)d
enum { C_D, C_S2, C_TAU, C_PLO, C_P, C_RHO, C_Q, C_ROWS };

REPRO_INLINE long newton_tile(double (*restrict c)[C2P_LANES], long* restrict done,
    long m, double gamma, double tol, double p_floor, int max_newton)
{
    long it = 0;
    for (long i = 0; i < m; ++i) done[i] = 0;
    for (long active = m; active && it < max_newton; ++it) {
        active = 0;
        for (long i = 0; i < m; ++i) { /* lanes */
            const double D = c[C_D][i], S2 = c[C_S2][i], tau = c[C_TAU][i], pi = c[C_P][i];
            const double Q = tau + D + pi;
            const double v2 = rclip(S2 / (Q * Q), 0.0, 1.0 - 1e-14);
            const double W = 1.0 / sqrt(1.0 - v2);
            const double rho = D / W;
            const double eps = rmax((Q * (1.0 - v2) - pi) / rho - 1.0, 0.0);
            const double f = (gamma - 1.0) * rho * eps - pi;
            const long hit = fabs(f) <= tol * rmax(pi, p_floor);
            const double epsc = rmax(eps, 1e-300);
            const double p_th = (gamma - 1.0) * rho * epsc;
            const double h = 1.0 + epsc + p_th / rho;
            const double cs2 = rclip(gamma * p_th / (rho * h), 0.0, 1.0 - 1e-12);
            const double dfdp = v2 * cs2 - 1.0;
            const double step = f / dfdp;
            const double p_new = rmax(pi - step, 0.5 * (pi + c[C_PLO][i]));
            c[C_RHO][i] = rho;
            c[C_Q][i] = Q;
            done[i] |= hit;
            c[C_P][i] = done[i] ? pi : p_new;
            active += !done[i];
        }
    }
    return it;
}

/* Returns the largest per-cell iteration count. */
REPRO_CLONES
long %(name)s(long n,
              const double* in_D, const double* in_S2, const double* in_tau,
              double* p, const double* p_lo,
              unsigned char* converged,
              double gamma, double tol, double p_floor,
              int max_newton)
{
    const double* const in[] = {in_D, in_S2, in_tau, p_lo, p}; /* rows C_D .. C_P */
    double c[C_ROWS][C2P_LANES];
    long done[C2P_LANES], iters_max = 0;
    for (long i0 = 0; i0 < n; i0 += C2P_LANES) {
        const long m = (n - i0 < C2P_LANES) ? n - i0 : C2P_LANES;
        for (int r = C_D; r <= C_P; ++r)
            for (long i = 0; i < m; ++i) c[r][i] = in[r][i0 + i];
        const long it = newton_tile(c, done, m, gamma, tol, p_floor, max_newton);
        if (it > iters_max) iters_max = it;
        for (long i = 0; i < m; ++i) {
            p[i0 + i] = c[C_P][i];
            converged[i0 + i] = (unsigned char) done[i];
        }
    }
    return iters_max;
}
"""


#: C helpers shared by every fused stencil kernel.  Each limiter mirrors
#: the vectorized implementation in :mod:`repro.reconstruct.tvd` operation
#: by operation (same comparisons, same multiply/divide order), so that —
#: compiled with ``-ffp-contract=off`` — the scalar evaluation is
#: bit-identical to the interpreted array sweep.
_STENCIL_COMMON_C = """\
REPRO_INLINE double repro_sign(double x)
{
    return (double)((x > 0.0) - (x < 0.0));
}

/* minmod(a, b) = where(a*b > 0, where(|a| < |b|, a, b), 0) */
REPRO_INLINE double slope_minmod(double a, double b)
{
    const double t = a * b;
    double out = (fabs(a) < fabs(b)) ? a : b;
    if (!(t > 0.0)) out = 0.0;
    return out;
}

/* minmod3: all three share a sign -> smallest magnitude, else 0 */
REPRO_INLINE double slope_minmod3(double a, double b, double c)
{
    const double sa = repro_sign(a);
    const int same = (sa == repro_sign(b)) && (repro_sign(b) == repro_sign(c))
        && (a != 0.0);
    double mag = rmin(fabs(b), fabs(c));
    mag = rmin(fabs(a), mag);
    double out = sa * mag;
    if (!same) out = 0.0;
    return out;
}

/* monotonized central: minmod3(2 dm, 2 dp, (dm + dp)/2) */
REPRO_INLINE double slope_mc(double dm, double dp)
{
    return slope_minmod3(dm * 2.0, dp * 2.0, (dm + dp) * 0.5);
}

REPRO_INLINE double slope_vanleer(double dm, double dp)
{
    const double prod = dm * dp;
    const double denom = dm + dp;
    const int safe = (prod > 0.0) && (fabs(denom) > 1e-300);
    double out = (prod * 2.0) / (safe ? denom : 1.0);
    if (!safe) out = 0.0;
    return out;
}

REPRO_INLINE double slope_superbee(double dm, double dp)
{
    const double s1 = slope_minmod(dm * 2.0, dp);
    const double s2 = slope_minmod(dm, dp * 2.0);
    return (fabs(s1) > fabs(s2)) ? s1 : s2;
}
"""

#: One WENO flavour's per-face helper and row filler.  The arithmetic
#: mirrors :func:`repro.reconstruct.weno._weno5_biased` /
#: ``_wenoz_biased`` term by term: ``x ** 2`` is ``x * x``, ``13.0 / 12.0``
#: folds to the one double Python folds it to, and ``_EPS_WENO`` is added
#: before squaring.
_WENO_C = """\
REPRO_INLINE double %(name)s_biased(double cm2, double cm1, double c0,
    double cp1, double cp2)
{
    const double p0 = (2.0 * cm2 - 7.0 * cm1 + 11.0 * c0) / 6.0;
    const double p1 = (-cm1 + 5.0 * c0 + 2.0 * cp1) / 6.0;
    const double p2 = (2.0 * c0 + 5.0 * cp1 - cp2) / 6.0;
    const double t0 = cm2 - 2.0 * cm1 + c0;
    const double u0 = cm2 - 4.0 * cm1 + 3.0 * c0;
    const double t1 = cm1 - 2.0 * c0 + cp1;
    const double u1 = cm1 - cp1;
    const double t2 = c0 - 2.0 * cp1 + cp2;
    const double u2 = 3.0 * c0 - 4.0 * cp1 + cp2;
    const double b0 = (13.0 / 12.0) * (t0 * t0) + 0.25 * (u0 * u0);
    const double b1 = (13.0 / 12.0) * (t1 * t1) + 0.25 * (u1 * u1);
    const double b2 = (13.0 / 12.0) * (t2 * t2) + 0.25 * (u2 * u2);
%(weights)s
    const double asum = a0 + a1 + a2;
    return (a0 * p0 + a1 * p1 + a2 * p2) / asum;
}

/* faces 0..m-1 of one variable; face i sits between cells c[i], c[i+1] */
REPRO_INLINE void %(name)s_row(const double* c, long m, double* qL,
    double* qR)
{
    for (long i = 0; i < m; ++i) { /* lanes */
        qL[i] = %(name)s_biased(c[i - 2], c[i - 1], c[i], c[i + 1], c[i + 2]);
        qR[i] = %(name)s_biased(c[i + 3], c[i + 2], c[i + 1], c[i], c[i - 1]);
    }
}
"""

_WENO_WEIGHTS_C = {
    "weno5": """\
    const double e0 = b0 + 1e-40;
    const double e1 = b1 + 1e-40;
    const double e2 = b2 + 1e-40;
    const double a0 = 0.1 / (e0 * e0);
    const double a1 = 0.6 / (e1 * e1);
    const double a2 = 0.3 / (e2 * e2);""",
    "wenoz": """\
    const double tau5 = fabs(b0 - b2);
    const double r0 = tau5 / (b0 + 1e-40);
    const double r1 = tau5 / (b1 + 1e-40);
    const double r2 = tau5 / (b2 + 1e-40);
    const double a0 = 0.1 * (1.0 + r0 * r0);
    const double a1 = 0.6 * (1.0 + r1 * r1);
    const double a2 = 0.3 * (1.0 + r2 * r2);""",
}

#: Every reconstruction as a *row* filler: given one variable's cells along
#: a row tile (contiguous, ``c[-left] .. c[m + right - 1]`` per
#: :data:`STENCIL_REACH`) it writes the left/right states of faces
#: ``0 .. m-1``, doing each piece of per-cell work once.  TVD computes one
#: limited slope per cell (face i's qL and face i-1's qR share it) with the
#: limiter chosen outside the loop.  PPM computes a half-slope per cell, a
#: 4th-order edge per face and one monotonized parabola per cell, in the
#: operation order of :func:`repro.reconstruct.ppm._monotonize` (both
#: overshoot masks decided before either edge is rewritten; the right
#: rewrite reads the rewritten left edge).  ``/* lanes */`` marks each loop
#: the compiler is expected to vectorise (``pc_row`` is a copy: it becomes
#: ``memcpy``); the tripwire in ``tests/test_codegen.py`` reads the marks.
_STENCIL_ROWS_C = (
    """\
REPRO_INLINE void pc_row(const double* c, long m, double* qL, double* qR)
{
    for (long i = 0; i < m; ++i) {
        qL[i] = c[i];
        qR[i] = c[i + 1];
    }
}

REPRO_INLINE void tvd_row(const double* c, long m, int limiter_id, double* s,
    double* qL, double* qR)
{
    switch (limiter_id) {
"""
    + "".join(
        f"""\
    case {lid}:
        for (long i = 0; i <= m; ++i) /* lanes */
            s[i] = slope_{name}(c[i] - c[i - 1], c[i + 1] - c[i]);
        break;
"""
        for name, lid in STENCIL_LIMITER_IDS.items()
    )
    + """\
    }
    for (long i = 0; i < m; ++i) { /* lanes */
        qL[i] = c[i] + s[i] * 0.5;
        qR[i] = c[i + 1] - s[i + 1] * 0.5;
    }
}

REPRO_INLINE void ppm_row(const double* c, long m, double* h, double* e,
    double* qL, double* qR)
{
    for (long i = -1; i <= m + 1; ++i) /* lanes */
        h[i + 1] = 0.5 * slope_mc(c[i] - c[i - 1], c[i + 1] - c[i]);
    for (long i = -1; i <= m; ++i) /* lanes */
        e[i + 1] = 0.5 * (c[i] + c[i + 1]) - (h[i + 2] - h[i + 1]) / 3.0;
    for (long i = 0; i <= m; ++i) { /* lanes */
        const double a = c[i];
        double aL = e[i];
        double aR = e[i + 1];
        if ((aR - a) * (a - aL) <= 0.0) {
            aL = a;
            aR = a;
        }
        const double d = aR - aL;
        const double dmid = d * (a - 0.5 * (aL + aR));
        const int over_l = dmid > d * d / 6.0;
        const int over_r = -(d * d) / 6.0 > dmid;
        if (over_l) aL = 3.0 * a - 2.0 * aR;
        if (over_r) aR = 3.0 * a - 2.0 * aL;
        if (i < m) qL[i] = aR;
        if (i > 0) qR[i - 1] = aL;
    }
}

"""
    + "\n".join(
        _WENO_C % {"name": name, "weights": weights}
        for name, weights in _WENO_WEIGHTS_C.items()
    )
)


@functools.cache
def _c_printer():
    """SymPy's C99 printer whose squares are products: ``(x*x)``,
    parenthesized so the grouping matches NumPy's ``x**2`` inside a larger
    product, and no ``pow`` call is left in the generated source.  The class
    is built on first use (it subclasses SymPy's printer)."""
    from sympy.printing.c import C99CodePrinter
    from sympy.printing.precedence import PRECEDENCE

    class _CPrinter(C99CodePrinter):
        def _print_Pow(self, expr):
            if expr.exp == 2:
                base = self.parenthesize(expr.base, PRECEDENCE["Mul"])
                return f"({base}*{base})"
            return super()._print_Pow(expr)

    return _CPrinter


class KernelGenerator:
    """Generates kernel source (Python or C) for one SRHD configuration."""

    def __init__(self, ndim: int):
        from .symbols import SRHDSymbols

        self.symbols = SRHDSymbols(ndim)
        self.ndim = ndim

    def kernel_name(self, kind: str, axis: int, target: str) -> str:
        suffix = "" if kind == "prim_to_con" else f"_ax{axis}"
        return f"{kind}{suffix}_{self.ndim}d_{target}"

    def _cse(self, kind: str, axis: int):
        """One joint ``sp.cse`` over a kind's named stages and outputs.

        Returns ``(assignments, outputs)``: the CSE temporaries and the
        stage definitions merged into dependency order, and the reduced
        output expressions.  Every emitter of every target prints exactly
        this list, which is what makes their arithmetic bitwise-equal.
        """
        import sympy as sp

        stages = self.symbols.stages(kind, axis)
        exprs = self.symbols.expressions(kind, axis)
        temps, reduced = sp.cse(
            [e for _, e in stages] + exprs, symbols=sp.numbered_symbols("t_")
        )
        pending = temps + [(s, e) for (s, _), e in zip(stages, reduced)]
        undefined = {s for s, _ in pending}
        assignments = []
        while pending:
            waiting = []
            for sym, expr in pending:
                if expr.free_symbols & undefined:
                    waiting.append((sym, expr))
                else:
                    assignments.append((sym, expr))
                    undefined.discard(sym)
            if len(waiting) == len(pending):  # pragma: no cover - spec bug guard
                raise CodegenError(f"cyclic stage definitions in {kind!r}")
            pending = waiting
        return assignments, reduced[len(stages):]

    def generate(self, kind: str, axis: int = 0, target: str = "numpy") -> str:
        """Return the complete Python source of one kernel function."""
        if target not in _TARGETS:
            raise CodegenError(f"unknown target {target!r}; choose from {_TARGETS}")
        sym = self.symbols
        in_names = sym.input_names()
        out_names = sym.output_names(kind, axis)
        name = self.kernel_name(kind, axis, target)
        lines = ["import numpy", ""]
        if target == "numpy":
            # prim-array signature: unpack rows, write into an out array.
            lines.append(f"def {name}(prim, out, gamma):")
            lines.append(f'    """Generated {kind} kernel (axis={axis}, '
                         f'{self.ndim}D, numpy target)."""')
            lines += [f"    {var} = prim[{i}]" for i, var in enumerate(in_names)]
            out_rows = [f"out[{i}]" for i in range(len(out_names))]
            ret = "out"
        else:
            # SoA flat signature: one pointer per variable, CUDA-style.
            out_rows = [f"out_{n}" for n in out_names]
            args = in_names + out_rows + ["gamma"]
            lines.append(f"def {name}({', '.join(args)}):")
            lines.append(f'    """Generated {kind} kernel (axis={axis}, '
                         f'{self.ndim}D, flat/SoA target)."""')
            ret = ", ".join(out_rows)
        from sympy.printing.numpy import NumPyPrinter

        printer = NumPyPrinter()
        assignments, outputs = self._cse(kind, axis)
        lines += [f"    {s} = {printer.doprint(e)}" for s, e in assignments]
        lines += [
            f"    {row}[...] = {printer.doprint(e)}"
            for row, e in zip(out_rows, outputs)
        ]
        lines.append(f"    return {ret}")
        return "\n".join(lines) + "\n"

    def kinds(self) -> list[tuple[str, int]]:
        """Every (kind, axis) pair the spec generates.  Of these a solver
        calls only ``face_side`` (on ``flat``); the rest are checked against
        the handwritten reference and timed by E12."""
        return [("prim_to_con", 0)] + [
            (kind, ax)
            for ax in range(self.ndim)
            for kind in ("flux", "char_speeds", "face_side")
        ]

    def generate_module(self, target: str = "numpy") -> str:
        """Source for a whole kernel module (all kinds, all axes)."""
        header = (
            '"""Auto-generated SRHD kernels — do not edit.\n\n'
            f"ndim={self.ndim}, target={target}. Generated by "
            'repro.codegen.KernelGenerator."""\n'
        )
        bodies = [self.generate(kind, axis, target) for kind, axis in self.kinds()]
        return header + "\n".join(bodies)

    # -- C target ------------------------------------------------------------

    def con2prim_c_signature(self) -> str:
        """C declaration of the fused con2prim Newton kernel."""
        return (
            f"long {CON2PRIM_KERNEL}(long n, const double* in_D, "
            "const double* in_S2, const double* in_tau, double* p, "
            "const double* p_lo, unsigned char* converged, "
            "double gamma, double tol, double p_floor, int max_newton)"
        )

    def generate_c_con2prim(self) -> str:
        """C source of the fused con2prim Newton kernel (template)."""
        return _CON2PRIM_C % {"name": CON2PRIM_KERNEL, "lanes": C2P_LANES}

    def generate_c_module(self) -> str:
        """Complete C source of the compiled module for this ndim: the
        con2prim Newton loop, the one-pass recovery sweep with its CFL scan,
        the fused face-flux sweep of every axis and the update stage — one
        translation unit, one artifact, row kernels only."""
        axes = range(self.ndim)
        parts = [
            "/* Auto-generated SRHD kernels -- do not edit.\n"
            f" * ndim={self.ndim}, target=cext. "
            "Generated by repro.codegen.KernelGenerator. */\n" + _PROLOGUE_C,
            self.generate_c_con2prim(),
            self.generate_c_recover(),
            _STENCIL_COMMON_C,
            _STENCIL_ROWS_C,
            self.generate_c_sanitize_tile(),
            *(self.generate_c_face_side_tile(ax) for ax in axes),
            *(self.generate_c_combine_tile(ax) for ax in axes),
            self.generate_c_fill_tile(),
            *(self.generate_c_face_flux(ax) for ax in axes),
            self.generate_c_accumulate(),
            self.generate_c_rk_stage(),
            self.generate_c_amr_program(),
            f"{SIMD_LEVEL_DECL} {{ return simd_level(); }}\n",
            _THREADS_C,
        ]
        return "\n".join(parts)

    def c_declarations(self) -> str:
        """cffi ``cdef`` declarations matching :meth:`generate_c_module`
        (entry points only; every helper is ``static``)."""
        decls = [self.con2prim_c_signature() + ";"]
        # The template kernels' declarations are the heads of their entry
        # points: the last definition of each source, after its helpers.
        decls += [
            (head := src[src.rindex("\nvoid ") + 1 :])[: head.index("\n{")] + ";"
            for src in (
                self.generate_c_recover(),
                *(self.generate_c_face_flux(ax) for ax in range(self.ndim)),
                self.generate_c_accumulate(),
                self.generate_c_rk_stage(),
                self.generate_c_amr_program(),
            )
        ]
        decls += [SIMD_LEVEL_DECL + ";", THREADS_DECL + ";"]
        return "\n".join(decls) + "\n"

    # -- recovery sweep and its CFL scan (C target only) ---------------------
    #
    # Both walk the interior of a C-contiguous ghosted ``(nvars, *cells)``
    # patch by rows (``cext.interior_rows``), so 1-/2-/3-D patches and a
    # trailing batch axis are the same loop; the entry point walks a stack
    # of ``n_patches`` such patches back to back.  On a team, a stack of
    # several patches is split by patches (each patch is one thread's, as
    # serially); a single patch splits its cells, then its rows.

    def generate_c_recover(self) -> str:
        """One recovery sweep, stage by stage the interpreted one.

        Per patch, over every ghosted cell, in place and branch-free:
        ``Atmosphere.apply_cons`` and ``HydroPipeline._limit_momentum``.
        Over the interior, per tile of :data:`C2P_LANES` cells of a row:
        ``S2``, ``p_lo`` and the seed as ``con_to_prim`` forms them (no seed
        is its cold start: *seed* NULL, or ``warm[q]`` 0 for patch *q*),
        the one Newton lane body (``newton_tile``) in lockstep, then per cell
        ``v_i = S_i / Q`` and — unless *solve_only* — ``Atmosphere.apply_prim``
        with the floored pressure stored as *next_seed*.  A cell that does
        not converge writes nothing.  Patch *q*'s ``counts[5q .. 5q + 4]``
        accumulate ``[cons_floored, momentum_rescaled, n_unconverged,
        iters_max, prim_reset]``; a single patch split over a team sums its
        threads' (``iters_max``: their maximum), exact in any order.

        Unless *scan* is NULL, the CFL scan follows as a loop of its own
        over the rows just recovered (inside the Newton row loop it made
        the scalar sweep ~1.7x slower), each tile's speeds computed in lanes
        and folded in row order: per axis ``max(max|lam-|, max|lam+|)`` of
        the interior into ``scan[q * ndim .. q * ndim + ndim - 1]``.  It
        mirrors the *handwritten* ``SRHDSystem.char_speeds``
        (``v_squared`` order, ``eps_from_pressure``,
        ``IdealGasEOS.sound_speed_sq``, both clips, the
        ``disc``/``root``/``denom`` sequence) — the kernel every target's dt
        is scanned with — not the generated ``char_speeds`` kind, which
        differs from it in the last bit.  A NaN poisons a maximum as it does
        ``np.max``.  A single patch on a team scans each thread's rows and
        folds the partial maxima with ``rmaxn``: the maximum of non-negative
        doubles is exact in any order, and a NaN stays.  The scan reads
        unconverged cells' unwritten primitives too: only a patch whose
        every cell converged has maxima to read.
        """
        nd, nv, tau = self.ndim, self.nvars, self.nvars - 1

        def lines(fmt, indent=8):  # one line per axis a (state row s)
            return "\n".join(" " * indent + fmt.format(a=a, s=a + 1) for a in range(nd))

        params = (
            "double gamma, double tol, double p_floor,\n    int max_newton, "
            "double rho_atmo, double p_atmo, double rho_reset,\n    double vmax, "
            "int solve_only"
        )
        args = "gamma, tol, p_floor, max_newton, rho_atmo, p_atmo, rho_reset, vmax, solve_only"
        team = _team_branch(
            "recover", "n_patches * n_cells",
            f"""\
            long lo, hi;
            if (n_patches > 1) {{
                team_chunk(n_patches, &lo, &hi);
                for (long q = lo; q < hi; ++q)
                    recover_patch_{nd}d(q, cons, prim, n_cells, row_offsets, n_rows,
                        row_len, seed, warm, next_seed, {args}, counts, scan);
            }} else {{
                long c[5] = {{0, 0, 0, 0, 0}};
                double tm[{nd}] = {{0.0}};
                double tp[{nd}] = {{0.0}};
                team_chunk(n_cells, &lo, &hi);
                recover_cells_{nd}d(cons, n_cells, lo, hi, rho_atmo, p_atmo, vmax, c);
#pragma omp barrier
                team_chunk(n_rows, &lo, &hi);
                recover_rows_{nd}d(cons, prim, n_cells, row_offsets, lo, hi, row_len,
                    (seed && (!warm || warm[0])) ? seed : 0, next_seed, {args}, c);
                if (scan)
                    max_signal_rows_{nd}d(prim, n_cells, row_offsets, lo, hi, row_len,
                        gamma, tm, tp);
#pragma omp critical
                {{
                    for (int s = 0; s < 5; ++s)
                        if (s != 3) counts[s] += c[s];
                    if (c[3] > counts[3]) counts[3] = c[3];
                    for (int a = 0; a < {nd}; ++a) {{
                        mm[a] = rmaxn(tm[a], mm[a]);
                        mp[a] = rmaxn(tp[a], mp[a]);
                    }}
                }}
            }}""",
            head=f"""\
        double mm[{nd}] = {{0.0}};
        double mp[{nd}] = {{0.0}};
""",
            tail=f"""\
        if (scan && n_patches == 1)
            for (int a = 0; a < {nd}; ++a) scan[a] = (mp[a] > mm[a]) ? mp[a] : mm[a];
""",
        )
        return f"""\
/* Atmosphere.apply_cons and the momentum cap over cells [lo, hi) */
REPRO_CLONES
OUTLINE void recover_cells_{nd}d(double* cons, long n_cells, long lo, long hi,
    double rho_atmo, double p_atmo, double vmax, long* counts)
{{
    double* restrict const D = cons;
{lines("double* restrict const S_{a} = cons + {s} * n_cells;", 4)}
    double* restrict const tau = cons + {tau} * n_cells;
    long n_floored = 0, n_capped = 0;
    for (long i = lo; i < hi; ++i) {{ /* lanes */
        const long bad_d = D[i] < rho_atmo;
        const long bad_tau = tau[i] < p_atmo;
        n_floored += bad_d | bad_tau;
        const double d = bad_d ? rho_atmo : D[i];
        const double t = bad_tau ? p_atmo : tau[i];
{lines("const double s_{a} = bad_d ? 0.0 : S_{a}[i];")}
        double S2 = 0.0;
{lines("S2 += s_{a} * s_{a};")}
        const double smax = vmax * (t + d + p_atmo);
        const long cap = S2 > smax * smax;
        n_capped += cap;
        const double scale = smax / sqrt(S2);
        D[i] = d;
        tau[i] = t;
{lines("S_{a}[i] = cap ? s_{a} * scale : s_{a};")}
    }}
    counts[0] += n_floored;
    counts[1] += n_capped;
}}

/* seed, Newton and the primitive floor over interior rows [lo, hi) */
REPRO_CLONES
OUTLINE void recover_rows_{nd}d(const double* cons, double* prim, long n_cells,
    const long* row_offsets, long lo, long hi, long row_len, const double* seed,
    double* next_seed, {params}, long* counts)
{{
    double c[C_ROWS][C2P_LANES];
    long done[C2P_LANES];
    for (long r = lo; r < hi; ++r) {{
        for (long j0 = 0; j0 < row_len; j0 += C2P_LANES) {{
            const long m = (row_len - j0 < C2P_LANES) ? row_len - j0 : C2P_LANES;
            const double* const u = cons + row_offsets[r] + j0;
            const long k0 = r * row_len + j0;
            for (long i = 0; i < m; ++i) {{ /* lanes */
                double S2 = 0.0;
                for (int a = 1; a <= {nd}; ++a) S2 += u[a * n_cells + i] * u[a * n_cells + i];
                const double D = c[C_D][i] = u[i];
                const double tau = c[C_TAU][i] = u[{tau} * n_cells + i];
                c[C_S2][i] = S2;
                c[C_PLO][i] = rmax((sqrt(S2) - tau - D) * (1.0 + 1e-10), p_floor);
                /* np.maximum keeps a NaN seed; Newton then never converges */
                c[C_P][i] = rmaxn(seed ? seed[k0 + i] : fabs(tau - sqrt(S2)) * 0.5 + p_floor,
                                  c[C_PLO][i]);
            }}
            const long it = newton_tile(c, done, m, gamma, tol, p_floor, max_newton);
            if (it > counts[3]) counts[3] = it;
            for (long j = 0; j < m; ++j) {{
                if (!done[j]) {{
                    counts[2] += 1;
                    continue;
                }}
                const long i = row_offsets[r] + j0 + j;
                double rho = c[C_RHO][j], p = c[C_P][j];
                double v[{nd}];
                for (int a = 0; a < {nd}; ++a) v[a] = cons[(1 + a) * n_cells + i] / c[C_Q][j];
                if (!solve_only) {{
                    if (rho < rho_reset) {{
                        rho = rho_atmo;
                        for (int a = 0; a < {nd}; ++a) v[a] = 0.0;
                        p = p_atmo;
                        counts[4] += 1;
                    }}
                    p = rmax(p, p_atmo);
                    rho = rmax(rho, rho_atmo);
                    next_seed[k0 + j] = p;
                }}
                prim[i] = rho;
                for (int a = 0; a < {nd}; ++a) prim[(1 + a) * n_cells + i] = v[a];
                prim[{tau} * n_cells + i] = p;
            }}
        }}
    }}
}}

/* fold interior rows [lo, hi) into the running maxima mm (lam-), mp (lam+) */
REPRO_CLONES
OUTLINE void max_signal_rows_{nd}d(const double* prim, long n_cells,
    const long* row_offsets, long lo, long hi, long row_len, double gamma,
    double* mm, double* mp)
{{
    double lam[{2 * nd}][C2P_LANES];
    for (long r = lo; r < hi; ++r) {{
        for (long j0 = 0; j0 < row_len; j0 += C2P_LANES) {{
            const long m = (row_len - j0 < C2P_LANES) ? row_len - j0 : C2P_LANES;
            const double* const q = prim + row_offsets[r] + j0;
            for (long i = 0; i < m; ++i) {{ /* lanes */
                const double rho = q[i];
                const double p = q[{tau} * n_cells + i];
                double v[{nd}], v2 = 0.0;
                for (int a = 0; a < {nd}; ++a) {{
                    v[a] = q[(1 + a) * n_cells + i];
                    v2 += v[a] * v[a];
                }}
                const double eps = p / ((gamma - 1.0) * rho);
                const double p_th = (gamma - 1.0) * rho * eps;
                const double h = 1.0 + eps + p_th / rho;
                const double cs2 = rclip(gamma * p_th / (rho * h), 0.0, 1.0 - 1e-12);
                const double w2 = rmaxn(1.0 - v2, 1e-16);
                const double denom = 1.0 - v2 * cs2;
                const double cs = sqrt(cs2);
                for (int a = 0; a < {nd}; ++a) {{
                    const double vk2 = v[a] * v[a];
                    const double disc = w2 * ((1.0 - vk2) - (v2 - vk2) * cs2);
                    const double b = cs * sqrt(rmaxn(disc, 0.0));
                    const double c = v[a] * (1.0 - cs2);
                    lam[2 * a][i] = fabs((c - b) / denom);
                    lam[2 * a + 1][i] = fabs((c + b) / denom);
                }}
            }}
            for (long i = 0; i < m; ++i)
                for (int a = 0; a < {nd}; ++a) {{
                    mm[a] = rmaxn(lam[2 * a][i], mm[a]);
                    mp[a] = rmaxn(lam[2 * a + 1][i], mp[a]);
                }}
        }}
    }}
}}

/* patch q of the stack, whole, then (unless scan is NULL) its CFL scan */
REPRO_INLINE void recover_patch_{nd}d(long q, double* cons, double* prim,
    long n_cells, const long* row_offsets, long n_rows, long row_len,
    const double* seed, const unsigned char* warm, double* next_seed,
    {params}, long* counts, double* scan)
{{
    const long n_interior = n_rows * row_len;
    cons += q * {nv} * n_cells;
    prim += q * {nv} * n_cells;
    recover_cells_{nd}d(cons, n_cells, 0, n_cells, rho_atmo, p_atmo, vmax,
        counts + 5 * q);
    recover_rows_{nd}d(cons, prim, n_cells, row_offsets, 0, n_rows, row_len,
        (seed && (!warm || warm[q])) ? seed + q * n_interior : 0,
        next_seed + q * n_interior, {args}, counts + 5 * q);
    if (!scan) return;
    double mm[{nd}] = {{0.0}};
    double mp[{nd}] = {{0.0}};
    max_signal_rows_{nd}d(prim, n_cells, row_offsets, 0, n_rows, row_len, gamma,
        mm, mp);
    for (int a = 0; a < {nd}; ++a)
        scan[q * {nd} + a] = (mp[a] > mm[a]) ? mp[a] : mm[a];
}}

void {RECOVER_KERNEL % nd}(double* cons, double* prim, long n_patches,
    long n_cells, const long* row_offsets, long n_rows, long row_len,
    const double* seed, const unsigned char* warm, double* next_seed,
    double gamma, double tol, double p_floor, int max_newton, double rho_atmo,
    double p_atmo, double rho_reset, double vmax, int solve_only, long* counts,
    double* scan)
{{
{team}    for (long q = 0; q < n_patches; ++q)
        recover_patch_{nd}d(q, cons, prim, n_cells, row_offsets, n_rows, row_len,
            seed, warm, next_seed, {args}, counts, scan);
}}
"""

    # -- fused stencil kernels (C target only) -------------------------------
    #
    # The sweep compiles the whole face-flux stage — reconstruction,
    # face-state sanitization, the joint per-side (U, F, lambda) evaluation
    # and the LLF/HLL/HLLC combine — into one per-axis sweep.  The per-side
    # algebra is the same CSE'd ``face_side`` list the ``flat`` kernel
    # prints; the handwritten pieces mirror the vectorized Python
    # implementations operation by operation, so with ``-ffp-contract=off``
    # the fused sweep is bit-identical to the interpreted pipeline.  After
    # the row fillers the tail is three stages, each a loop over the lanes
    # ``i < m`` of SoA tile rows (marked ``/* lanes */``) that the compiler
    # vectorises: IEEE add/mul/div/sqrt round per lane at any width and
    # nothing in the tail is a floating-point reduction, so the width the
    # host picks cannot move a bit.  Every tile stage is ``static inline``,
    # inlined into the one ``OUTLINE`` row walker per axis.

    @property
    def nvars(self) -> int:
        return self.ndim + 2

    def stencil_kernel_name(self, axis: int) -> str:
        return FACE_FLUX_KERNEL % (axis, self.ndim)

    def generate_c_sanitize_tile(self) -> str:
        """Face-state repair over one tile, op-for-op equal to
        :meth:`repro.core.pipeline.HydroPipeline.sanitize_face_states`.

        ``counts[0]`` accumulates velocity rescales, ``counts[1]`` floor
        applications (rho and p counted separately, *before* flooring) —
        the same totals the interpreted path feeds its metrics counters.
        The rescale is rare, so it is decided per tile: the lane loop counts
        and floors, and the hot path pays no speculative ``sqrt``/division.
        The rescale touches velocities only and the floors only rho and p,
        so running it after them changes nothing.
        """
        nd, p, T = self.ndim, self.nvars - 1, STENCIL_TILE
        v2 = "\n".join(
            f"        v2 += q[{1 + ax}][i] * q[{1 + ax}][i];" for ax in range(nd)
        )
        scale = "\n".join(f"            q[{1 + ax}][i] *= scale;" for ax in range(nd))
        return f"""\
REPRO_INLINE void sanitize_tile_{nd}d(double (*restrict q)[{T}], long m,
    double vmax2, double rho_atmo, double p_atmo, long* counts)
{{
    long n_rescale = 0;
    long n_floor = 0;
    for (long i = 0; i < m; ++i) {{ /* lanes */
        double v2 = 0.0;
{v2}
        n_rescale += (v2 > vmax2) ? 1 : 0;
        n_floor += (q[0][i] < rho_atmo) ? 1 : 0;
        n_floor += (q[{p}][i] < p_atmo) ? 1 : 0;
        q[0][i] = rmax(q[0][i], rho_atmo);
        q[{p}][i] = rmax(q[{p}][i], p_atmo);
    }}
    for (long i = 0; n_rescale && i < m; ++i) {{
        double v2 = 0.0;
{v2}
        if (v2 > vmax2) {{
            const double scale = sqrt(vmax2 / v2);
{scale}
        }}
    }}
    counts[0] += n_rescale;
    counts[1] += n_floor;
}}
"""

    def generate_c_face_side_tile(self, axis: int) -> str:
        """``face_side`` over one tile: rows ``q[v][i] -> o[k][i]`` holding
        ``U``, ``F`` and ``lambda_-+`` back to back.

        Same expressions and same CSE (:meth:`_cse`) as the ``flat``
        ``face_side`` kernel — which is what keeps the fused sweep
        bitwise-equal to the interpreted Riemann stage.  The rows are stack
        scratch, so ``restrict`` is true here.
        """
        T = STENCIL_TILE
        lines = [
            f"REPRO_INLINE void face_side_tile_ax{axis}_{self.ndim}d("
            f"double (*restrict q)[{T}],",
            f"    double (*restrict o)[{T}], long m, double gamma)",
            "{",
            "    for (long i = 0; i < m; ++i) { /* lanes */",
        ]
        for v, var in enumerate(self.symbols.input_names()):
            lines.append(f"        const double {var} = q[{v}][i];")
        printer = _c_printer()()
        assignments, outputs = self._cse("face_side", axis)
        lines += [
            f"        const double {s} = {printer.doprint(e)};" for s, e in assignments
        ]
        lines += [
            f"        o[{k}][i] = {printer.doprint(e)};" for k, e in enumerate(outputs)
        ]
        lines += ["    }", "}"]
        return "\n".join(lines) + "\n"

    def generate_c_combine_tile(self, axis: int) -> str:
        """The three Riemann combines over one tile, one lane loop each.

        Each mirrors the in-place NumPy implementation in
        :mod:`repro.riemann` exactly (clips, degenerate-fan guards, the
        Citardauq contact-speed form, supersonic sector selection), so the
        fused sweep reproduces the interpreted fluxes bitwise.  A lane loop
        vectorises only if its body is branch-free, so every lane branch is
        a select between values loaded or computed unconditionally.  HLLC's
        two star fluxes are one function of different arguments: selecting
        the *inputs* by sector and evaluating it once is the value the
        interpreted compute-both-then-select keeps.
        """
        nd, nv, T = self.ndim, self.nvars, STENCIL_TILE
        tau, Sx = nv - 1, 1 + axis
        head = "\n".join(
            [
                f"            const double uL{k} = sdL[{k}][i], uR{k} = sdR[{k}][i],"
                f" FL{k} = sdL[{nv + k}][i], FR{k} = sdR[{nv + k}][i];"
                for k in range(nv)
            ]
            + [
                f"            const double sL = rmin(sdL[{2 * nv}][i], sdR[{2 * nv}][i]);",
                f"            const double sR = rmax(sdL[{2 * nv + 1}][i],"
                f" sdR[{2 * nv + 1}][i]);",
            ]
        )

        def per_var(fmt, ks=range(nv)):
            return "\n".join(" " * 12 + fmt.format(k=k) for k in ks)

        star = per_var(
            "const double Fs{k} = FF{k} + (u{k} * factor - u{k}) * s;",
            [k for k in range(1, nd + 1) if k != Sx],
        )
        return f"""\
REPRO_INLINE void combine_tile_ax{axis}_{nd}d(int riemann_id,
    double (*restrict qL)[{T}], double (*restrict qR)[{T}],
    double (*restrict sdL)[{T}], double (*restrict sdR)[{T}], long m,
    double* restrict F, long fstride)
{{
    switch (riemann_id) {{
    case 0:
        for (long i = 0; i < m; ++i) {{ /* lanes */
{head}
            double smax = rmax(fabs(sL), fabs(sR));
            smax *= 0.5;
{per_var("F[{k} * fstride + i] = (FL{k} + FR{k}) * 0.5 - (uR{k} - uL{k}) * smax;")}
        }}
        break;
    case 1:
        for (long i = 0; i < m; ++i) {{ /* lanes */
{head}
            const double sLc = rmin(sL, 0.0);
            const double sRc = rmax(sR, 0.0);
            const double denom = sRc - sLc;
            const int ok = denom > 1e-300;
            const double safe = ok ? denom : 1.0;
            const double ss = sLc * sRc;
{per_var("const double t{k} = (FL{k} * sRc - FR{k} * sLc + (uR{k} - uL{k}) * ss) / safe;")}
{per_var("F[{k} * fstride + i] = ok ? t{k} : FL{k};")}
        }}
        break;
    default:
        for (long i = 0; i < m; ++i) {{ /* lanes */
{head}
            const double vL = qL[{Sx}][i], vR = qR[{Sx}][i];
            const double pL = qL[{tau}][i], pR = qR[{tau}][i];
            const double sLc = rmin(sL, -1e-12);
            const double sRc = rmax(sR, 1e-12);
            const double dS = sRc - sLc;
            const double EL = uL{tau} + uL0;
            const double ER = uR{tau} + uR0;
            const double FEL = FL{tau} + FL0;
            const double FER = FR{tau} + FR0;
            double S_hll = sRc * uR{Sx} - sLc * uL{Sx};
            S_hll += FL{Sx};
            S_hll -= FR{Sx};
            S_hll /= dS;
            double E_hll = sRc * ER - sLc * EL;
            E_hll += FEL;
            E_hll -= FER;
            E_hll /= dS;
            double FS_hll = sRc * FL{Sx} - sLc * FR{Sx};
            FS_hll += (sLc * sRc) * (uR{Sx} - uL{Sx});
            FS_hll /= dS;
            double FE_hll = sRc * FEL - sLc * FER;
            FE_hll += (sLc * sRc) * (ER - EL);
            FE_hll /= dS;
            /* contact speed: Citardauq root of FE lam^2 - (E + FS) lam + S = 0 */
            const double qb = -(E_hll + FS_hll);
            double disc = qb * qb - (FE_hll * 4.0) * S_hll;
            disc = rmax(disc, 0.0);
            disc = sqrt(disc);
            const double den = -qb + disc;
            const int ok = fabs(den) > 1e-12;
            double lam_star = (S_hll * 2.0) / (ok ? den : 1.0);
            lam_star = ok ? lam_star : 0.0;
            /* rclip as two selects in sequence (sLc < sRc always) */
            lam_star = (lam_star < sLc) ? sLc : lam_star;
            lam_star = (lam_star > sRc) ? sRc : lam_star;
            double p_star = -FE_hll;
            p_star *= lam_star;
            p_star += FS_hll;
            /* the sector that holds the interface picks the inputs */
            const int left = lam_star >= 0.0;
            const double s = left ? sLc : sRc;
            const double E = left ? EL : ER;
            const double FE = left ? FEL : FER;
            const double v = left ? vL : vR;
            const double p = left ? pL : pR;
{per_var("const double u{k} = left ? uL{k} : uR{k}, FF{k} = left ? FL{k} : FR{k};", range(nd + 1))}
            const double smv = s - v;
            const double smlam = s - lam_star;
            const double factor = smv / smlam;
            const double D_star = u0 * factor;
            double E_star = E * smv;
            E_star += p_star * lam_star;
            E_star -= p * v;
            E_star /= smlam;
            double Sx_star = u{Sx} * smv;
            Sx_star += p_star;
            Sx_star -= p;
            Sx_star /= smlam;
            const double Fs0 = FF0 + (D_star - u0) * s;
            const double Fs{Sx} = FF{Sx} + (Sx_star - u{Sx}) * s;
{star}
            const double Fs{tau} = (FE + (E_star - E) * s) - Fs0;
            /* supersonic: the fan misses the interface (sR <= 0 wins) */
            const int supL = sL >= 0.0;
            const int supR = sR <= 0.0;
{per_var("const double f{k} = supL ? FL{k} : Fs{k};")}
{per_var("F[{k} * fstride + i] = supR ? FR{k} : f{k};")}
        }}
    }}
}}
"""

    def generate_c_fill_tile(self) -> str:
        """Reconstruction of one tile, every variable: gather the cells the
        stencil reaches (:data:`STENCIL_REACH`) and let the selected row
        filler of ``_STENCIL_ROWS_C`` write the left/right states of faces
        ``0 .. m-1`` into ``q[0]`` / ``q[1]``.  No axis appears in it, so it
        is compiled once per ISA and called by every axis's sweep — one
        call per tile — instead of being inlined into each.
        """
        nv, T = self.nvars, STENCIL_TILE
        lefts = ", ".join(str(STENCIL_REACH[i][0]) for i in sorted(STENCIL_REACH))
        return f"""\
REPRO_CLONES
static void fill_tile_{self.ndim}d(const double* cv, long var_stride,
    long axis_stride, long m, int recon_id, int limiter_id,
    double (*restrict q)[{nv}][{T}])
{{
    static const long reach_left[] = {{{lefts}}};
    const long left = reach_left[recon_id];
    const long right = left + 1;
    double cells[{T} + 5];
    double* c = cells + 2;
    double h[{T} + 3];
    double e[{T} + 2];
    for (int v = 0; v < {nv}; ++v, cv += var_stride) {{
        for (long i = -left; i < m + right; ++i)
            c[i] = cv[i * axis_stride];
        switch (recon_id) {{
        case 0: pc_row(c, m, q[0][v], q[1][v]); break;
        case 1: tvd_row(c, m, limiter_id, h, q[0][v], q[1][v]); break;
        case 2: ppm_row(c, m, h, e, q[0][v], q[1][v]); break;
        case 3: weno5_row(c, m, q[0][v], q[1][v]); break;
        default: wenoz_row(c, m, q[0][v], q[1][v]);
        }}
    }}
}}
"""

    def generate_c_face_flux(self, axis: int) -> str:
        """The fused per-axis sweep: reconstruct -> sanitize -> Riemann ->
        difference.

        Walks cache-resident rows (``row_offsets``, ``cext.sweep_rows``:
        each interior transverse row's first interior cell in C order, ``j0``
        counted from it; ``axis_stride`` steps along the working axis) in
        tiles of :data:`STENCIL_TILE` faces: fill the tile's left/right
        states, then run the tile stages over its lanes — sanitize and
        ``face_side`` once per side, combine into the stack
        block ``Ft`` (slot 0 carries the previous tile's last face: a seam
        costs ``nvars`` doubles), then ``div = (Ft[i + 1] - Ft[i]) / dx[q]``
        — NumPy's subtract, then its divide, by the spacing of the row's
        patch *q* (``patch_rows`` rows each) — before the fluxes leave the
        cache; no interface-sized temporary anywhere.  Row *r* lands in row
        *r* of ``F`` (nvars, n_rows, n_faces) and ``div`` (nvars, n_rows,
        n_faces - 1); either output may be NULL.  One schedule serves all
        five reconstruction ids.  On a team the rows split — never the
        tiles of a row — each thread with its own ``q``/``sd``/``Ft`` blocks
        and counter pair, the pairs summed at the end.
        """
        nd, nv, T = self.ndim, self.nvars, STENCIL_TILE
        name = self.stencil_kernel_name(axis)
        rows = f"face_flux_rows_ax{axis}_{nd}d"
        args = (
            "prim, var_stride, axis_stride, row_offsets, n_rows, {lo}, {hi}, j0, "
            "n_faces, F, div,\n                dx, patch_rows, gamma, vmax2, rho_atmo, "
            "p_atmo, recon_id, limiter_id, riemann_id, {counts}"
        )
        team = _team_branch(
            "face_flux", "n_rows * n_faces",
            f"""\
            long lo, hi, c[2] = {{0, 0}};
            team_chunk(n_rows, &lo, &hi);
            {rows}({args.format(lo="lo", hi="hi", counts="c")});
#pragma omp atomic
            counts[0] += c[0];
#pragma omp atomic
            counts[1] += c[1];""",
        )
        return f"""\
/* rows [r_lo, r_hi) of n_rows */
REPRO_CLONES
OUTLINE void {rows}(const double* prim, long var_stride,
    long axis_stride, const long* row_offsets, long n_rows, long r_lo, long r_hi,
    long j0, long n_faces, double* F, double* div,
    const double* dx, long patch_rows, double gamma, double vmax2, double rho_atmo,
    double p_atmo, int recon_id, int limiter_id, int riemann_id, long* counts)
{{
    double q[2][{nv}][{T}];
    double sd[2][{2 * nv + 2}][{T}];
    double Ft[{nv}][{T} + 1];
    for (long r = r_lo; r < r_hi; ++r) {{
        const double* row = prim + row_offsets[r] + j0 * axis_stride;
        const double h = dx[r / patch_rows];
        for (long k0 = 0; k0 < n_faces; k0 += {T}) {{
            const long m = (n_faces - k0 < {T}) ? n_faces - k0 : {T};
            fill_tile_{nd}d(row + k0 * axis_stride, var_stride, axis_stride, m,
                         recon_id, limiter_id, q);
            for (int side = 0; side < 2; ++side) {{
                sanitize_tile_{nd}d(q[side], m, vmax2, rho_atmo, p_atmo, counts);
                face_side_tile_ax{axis}_{nd}d(q[side], sd[side], m, gamma);
            }}
            combine_tile_ax{axis}_{nd}d(riemann_id, q[0], q[1], sd[0], sd[1], m,
                                      &Ft[0][1], {T} + 1);
            for (int v = 0; v < {nv}; ++v) {{
                const double* f = Ft[v];
                if (F) {{
                    double* restrict Fr = F + (v * n_rows + r) * n_faces + k0;
                    for (long i = 0; i < m; ++i) Fr[i] = f[i + 1];
                }}
                if (div) {{
                    double* restrict d = div + (v * n_rows + r) * (n_faces - 1) + k0;
                    for (long i = (k0 == 0); i < m; ++i) /* lanes */
                        d[i - 1] = (f[i + 1] - f[i]) / h;
                }}
                Ft[v][0] = Ft[v][m];
            }}
        }}
    }}
}}

void {name}(const double* prim, long var_stride,
    long axis_stride, const long* row_offsets, long n_rows, long j0,
    long n_faces, double* F, double* div,
    const double* dx, long patch_rows, double gamma, double vmax2, double rho_atmo,
    double p_atmo, int recon_id, int limiter_id, int riemann_id, long* counts)
{{
{team}    {rows}({args.format(lo="0", hi="n_rows", counts="counts")});
}}
"""

    # -- the update stage (C target only) ------------------------------------

    def generate_c_accumulate(self) -> str:
        """``dU[cell] = dU[cell] - div`` — with *first* (the first axis)
        ``0.0 - div``, so ``dU`` needs no zeroing — over interior cells
        ``[k0, k0 + width)`` of one axis: ``HydroPipeline.accumulate_divergence``.
        ``rows[r]`` is the offset of interior row *r*'s first interior cell
        (``cext.sweep_rows``); ``div`` is (nvars, n_rows, width).  A row is
        one lane loop on the contiguous axis; across a strided one 16 rows
        advance together, so each line of ``dU`` and of ``div`` is touched
        once while resident.  On a team the rows split."""
        nd = self.ndim
        call = (
            "accumulate_rows_{nd}d(dU, var_stride, axis_stride, rows, n_rows, {lo}, "
            "{hi}, k0, width, div, first);"
        )
        team = _team_branch(
            "accumulate", "n_rows * width",
            f"""\
            long lo, hi;
            team_chunk(n_rows, &lo, &hi);
            {call.format(nd=nd, lo="lo", hi="hi")}""",
        )
        return f"""\
/* interior rows [r_lo, r_hi) */
REPRO_CLONES
OUTLINE void accumulate_rows_{nd}d(double* dU, long var_stride,
    long axis_stride, const long* rows, long n_rows, long r_lo, long r_hi,
    long k0, long width, const double* div, int first)
{{
    for (int v = 0; v < {self.nvars}; ++v) {{
        double* const u = dU + v * var_stride + k0 * axis_stride;
        const double* const d = div + v * n_rows * width;
        if (axis_stride == 1) {{
            for (long r = r_lo; r < r_hi; ++r) {{
                double* restrict t = u + rows[r];
                const double* restrict s = d + r * width;
                if (first)
                    for (long k = 0; k < width; ++k) /* lanes */
                        t[k] = 0.0 - s[k];
                else
                    for (long k = 0; k < width; ++k) /* lanes */
                        t[k] = t[k] - s[k];
            }}
            continue;
        }}
        for (long r0 = r_lo; r0 < r_hi; r0 += 16) {{
            const long r1 = (r_hi - r0 < 16) ? r_hi : r0 + 16;
            for (long k = 0; k < width; ++k)
                for (long r = r0; r < r1; ++r) {{
                    double* t = u + rows[r] + k * axis_stride;
                    *t = (first ? 0.0 : *t) - d[r * width + k];
                }}
        }}
    }}
}}

void {ACCUMULATE_KERNEL % nd}(double* dU, long var_stride,
    long axis_stride, const long* rows, long n_rows, long k0, long width,
    const double* div, int first)
{{
{team}    {call.format(nd=nd, lo="0", hi="n_rows")}
}}
"""

    def generate_c_rk_stage(self) -> str:
        """One SSP-RK stage combination over the flat ghosted state: the
        three forms of ``time_integration.ssprk.combine_stage``, operand for
        operand (``U / a`` stays a division; ``a``/``b`` arrive as the
        doubles Python folded).  *out* aliases no input.  On a team the flat
        index splits."""
        tail = "b * (V[i] + dt * k[i])"
        call = "rk_stage_range({lo}, {hi}, form, a, b, dt, U, V, k, out);"
        team = _team_branch(
            "rk_stage", f"n / {self.nvars}",
            f"""\
            long lo, hi;
            team_chunk(n, &lo, &hi);
            {call.format(lo="lo", hi="hi")}""",
        )
        return f"""\
REPRO_CLONES
OUTLINE void rk_stage_range(long lo, long hi, int form, double a, double b,
    double dt, const double* restrict U, const double* restrict V,
    const double* restrict k, double* restrict out)
{{
    switch (form) {{
    case 0:
        for (long i = lo; i < hi; ++i) /* lanes */
            out[i] = V[i] + dt * k[i];
        break;
    case 1:
        for (long i = lo; i < hi; ++i) /* lanes */
            out[i] = a * U[i] + {tail};
        break;
    default:
        for (long i = lo; i < hi; ++i) /* lanes */
            out[i] = U[i] / a + {tail};
    }}
}}

void {RK_STAGE_KERNEL}(long n, int form, double a, double b, double dt,
    const double* restrict U, const double* restrict V,
    const double* restrict k, double* restrict out)
{{
{team}    {call.format(lo="0", hi="n")}
}}
"""

    # -- the AMR gather program (C target only) ------------------------------

    def generate_c_amr_program(self) -> str:
        """The AMR gather program (``mesh.amr.forest.run_program``): segments
        of *code*, each a head ``[op, n, array, var_stride, side, real]`` and
        *n* records, run in order over the value buffer ``W`` (``(sites,
        nvars)``) and the table *arrs*, per variable: 0 load, 1 restrict ``2^d``
        sites, 2 prolong a ``3^d`` stencil to the child its mask names, 3
        copy a scalar (``~src``: times -1.0), 4 put, 5 reflux a ``dU`` cell.
        Element for element ``restrict_array`` / ``prolong_array``'s
        arithmetic: pairs summed from 0.0, as ``np.add.reduce`` does, axis 0
        first.  Serial: a fill is a few thousand cells."""
        nd, nv = self.ndim, self.nvars
        return f"""\
/* 2^k values in C order of their offsets -> their restriction */
REPRO_INLINE double amr_restrict(double* s, long m)
{{
    while (m > 1) {{
        m /= 2;
        for (long k = 0; k < m; ++k)
            s[k] = (0.0 + s[k] + s[k + m]) / 2.0;
    }}
    return s[0];
}}

/* the 3^{nd} stencil around a parent, C order -> the child *mask* names */
REPRO_INLINE double amr_prolong(double* s, long mask)
{{
    long m = {3 ** nd};
    for (int ax = 0; ax < {nd}; ++ax) {{
        m /= 3;
        const long hi = (mask >> ({nd - 1} - ax)) & 1;
        for (long k = 0; k < m; ++k) {{
            const double c = s[k + m], a = c - s[k], b = s[k + 2 * m] - c;
            const double sl = (a * b > 0.0) ? ((fabs(a) < fabs(b)) ? a : b) : 0.0;
            s[k] = hi ? c + 0.25 * sl : c - 0.25 * sl;
        }}
    }}
    return s[0];
}}

void {AMR_PROGRAM_KERNEL % nd}(double** arrs, const long* code, long n_code,
    double* W, const double* reals)
{{
    double s[{3 ** nd}];
    for (const long* c = code; c < code + n_code;) {{
        const long op = c[0], n = c[1], vs = c[3], side = c[4];
        double* const x = (c[2] < 0) ? 0 : arrs[c[2]];
        const double dx = reals[c[5]];
        c += 6;
        switch (op) {{
        case 0:
            for (long i = 0; i < n; ++i, c += 2)
                for (long v = 0; v < {nv}; ++v)
                    W[c[1] * {nv} + v] = x[c[0] + v * vs];
            break;
        case 1:
            for (long i = 0; i < n; ++i, c += 1 + {2 ** nd})
                for (long v = 0; v < {nv}; ++v) {{
                    for (int k = 0; k < {2 ** nd}; ++k) s[k] = W[c[1 + k] * {nv} + v];
                    W[c[0] * {nv} + v] = amr_restrict(s, {2 ** nd});
                }}
            break;
        case 2:
            for (long i = 0; i < n; ++i, c += 2 + {3 ** nd})
                for (long v = 0; v < {nv}; ++v) {{
                    for (int k = 0; k < {3 ** nd}; ++k) s[k] = W[c[2 + k] * {nv} + v];
                    W[c[0] * {nv} + v] = amr_prolong(s, c[1]);
                }}
            break;
        case 3:
            for (long i = 0; i < n; ++i, c += 2)
                W[c[0]] = (c[1] < 0) ? W[~c[1]] * -1.0 : W[c[1]];
            break;
        case 4:
            for (long i = 0; i < n; ++i, c += 2)
                for (long v = 0; v < {nv}; ++v)
                    x[c[0] + v * vs] = W[c[1] * {nv} + v];
            break;
        default:
            for (long i = 0; i < n; ++i, c += 2 + {2 ** (nd - 1)})
                for (long v = 0; v < {nv}; ++v) {{
                    for (int k = 0; k < {2 ** (nd - 1)}; ++k) s[k] = W[c[2 + k] * {nv} + v];
                    const double d = (amr_restrict(s, {2 ** (nd - 1)}) - W[c[1] * {nv} + v]) / dx;
                    double* const e = x + c[0] + v * vs;
                    *e = side ? *e - d : *e + d;
                }}
        }}
    }}
}}
"""


#: What this file defines on :class:`KernelGenerator`: a stored C spec is
#: served only while the class still holds exactly these attributes (an
#: emitter replaced in-process generates afresh, :mod:`repro.codegen.cext`).
_DEFINED = dict(vars(KernelGenerator))
