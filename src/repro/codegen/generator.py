"""Kernel source generation from the symbolic SRHD specification.

Three targets model the architectures of a heterogeneous node:

- ``numpy`` — the host CPU flavour: one function over a stacked state array
  ``prim[(nvars, ...)]``, vectorized whole-array expressions.
- ``flat`` — the accelerator flavour: structure-of-arrays signature (one
  flat 1-D array per variable, separate output arrays), mirroring how a
  CUDA kernel receives raw device pointers. On this substrate it still
  executes through NumPy, but it exercises the same generation path and
  data layout a GPU emitter uses.
- ``cext`` — genuinely compiled C: the same CSE'd expressions printed
  through SymPy's C99 printer into a per-cell loop with SoA pointer
  arguments, built into a shared library by :mod:`repro.codegen.cext`.
  The per-cell loop body is exactly the flat target's data layout, so the
  two differ only in who runs the loop (the C compiler vs. NumPy).

Common subexpression elimination (``sympy.cse``) is applied before
printing, exactly as production generators do to keep register pressure and
redundant transcendentals down.
"""

from __future__ import annotations

import sympy as sp
from sympy.printing.c import C99CodePrinter
from sympy.printing.precedence import PRECEDENCE
from sympy.printing.numpy import NumPyPrinter

from ..utils.errors import CodegenError
from .symbols import SRHDSymbols

_TARGETS = ("numpy", "flat", "cext")

#: Runtime dispatch ids baked into the fused stencil kernels.  The ids are
#: part of the compiled ABI: they select the reconstruction family, the
#: slope limiter, and the Riemann solver *per call*, so one compiled
#: ``face_flux`` entry point per axis serves every supported scheme combo
#: (instead of compiling the full cross product into separate symbols).
STENCIL_RECON_IDS = {"pc": 0, "tvd": 1, "ppm": 2, "weno5": 3, "wenoz": 4}
STENCIL_LIMITER_IDS = {"minmod": 0, "mc": 1, "vanleer": 2, "superbee": 3}
STENCIL_RIEMANN_IDS = {"llf": 0, "hll": 1, "hllc": 2}
#: Cells a sweep reads beyond its faces, ``(left, right)`` per recon id: a
#: sweep of ``n_faces`` faces whose first left cell is ``j0`` touches cells
#: ``j0 - left .. j0 + n_faces + right - 1`` along the working axis.
STENCIL_REACH = {0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (2, 3), 4: (2, 3)}
#: Faces per tile of the row schedule (sizes its stack scratch).
STENCIL_TILE = 128

#: Name of the fused conservative-to-primitive Newton kernel in the
#: compiled module (the one kernel not generated from the symbolic spec:
#: it is an iterative loop, not an expression list, so it is emitted from
#: a template that mirrors the vectorized Python iteration line by line).
CON2PRIM_KERNEL = "con2prim_newton_cext"

#: The one-pass recovery sweep and the CFL scan (templates, like the loop).
RECOVER_KERNEL = "recover_%dd_cext"
MAX_SIGNAL_KERNEL = "max_signal_%dd_cext"

#: The update stage: a region's divergence subtracted into ``dU``, and one
#: SSP-RK stage combination (ndim-independent: a flat loop over the state).
ACCUMULATE_KERNEL = "accumulate_%dd_cext"
RK_STAGE_KERNEL = "rk_stage_cext"

#: Which sweep clone the loader picked on this host: 1 = avx2, 0 = baseline.
SIMD_LEVEL_DECL = "int repro_simd_level(void)"

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
_PROLOGUE_C = """\
#include <math.h>

#if defined(__GNUC__)
#define REPRO_INLINE static inline __attribute__((always_inline))
#else
#define REPRO_INLINE static inline
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
"""

#: C template of the fused con2prim Newton loop.  Operation order matches
#: :func:`repro.physics.con2prim.con_to_prim`'s vectorized Newton phase
#: exactly (same clips, same step, same convergence test), so when
#: compiled without FP contraction the compiled iteration is bit-identical
#: to the NumPy one.  ``S2`` arrives precomputed, which keeps the body
#: ndim-independent.  The per-cell body is one helper shared by the two
#: kernels that run it (this loop and ``recover``); it also hands back
#: ``rho`` and ``Q`` of the last pressure it evaluated — on convergence,
#: what ``_eval_state`` recomputes there.
_CON2PRIM_C = """\
REPRO_INLINE int newton_cell(double D, double S2, double tau, double plo,
    double gamma, double tol, double p_floor, int max_newton,
    double* p, int* iters, double* rho_out, double* Q_out)
{
    double pi = *p;
    int conv = 0;
    int it = 0;
    for (it = 1; it <= max_newton; ++it) {
        const double Q = tau + D + pi;
        const double v2 = rclip(S2 / (Q * Q), 0.0, 1.0 - 1e-14);
        const double W = 1.0 / sqrt(1.0 - v2);
        const double rho = D / W;
        const double eps = rmax((Q * (1.0 - v2) - pi) / rho - 1.0, 0.0);
        const double f = (gamma - 1.0) * rho * eps - pi;
        *rho_out = rho;
        *Q_out = Q;
        if (fabs(f) <= tol * rmax(pi, p_floor)) { conv = 1; break; }
        const double epsc = rmax(eps, 1e-300);
        const double p_th = (gamma - 1.0) * rho * epsc;
        const double h = 1.0 + epsc + p_th / rho;
        const double cs2 = rclip(gamma * p_th / (rho * h), 0.0, 1.0 - 1e-12);
        const double dfdp = v2 * cs2 - 1.0;
        const double step = f / dfdp;
        pi = rmax(pi - step, 0.5 * (pi + plo));
    }
    if (it > max_newton) it = max_newton;
    *p = pi;
    *iters = it;
    return conv;
}

/* Returns the largest per-cell iteration count. */
long %(name)s(long n,
              const double* in_D, const double* in_S2, const double* in_tau,
              double* p, const double* p_lo,
              unsigned char* converged, int* iters,
              double gamma, double tol, double p_floor,
              int max_newton)
{
    long iters_max = 0;
    for (long i = 0; i < n; ++i) {
        double rho = 0.0, Q = 0.0;
        converged[i] = (unsigned char) newton_cell(in_D[i], in_S2[i],
            in_tau[i], p_lo[i], gamma, tol, p_floor, max_newton,
            &p[i], &iters[i], &rho, &Q);
        if (iters[i] > iters_max) iters_max = iters[i];
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


class _CPrinter(C99CodePrinter):
    """C99 printer whose squares are products: ``(x*x)``, parenthesized so
    the grouping matches NumPy's ``x**2`` inside a larger product, and no
    ``pow`` call is left in the generated source."""

    def _print_Pow(self, expr):
        if expr.exp == 2:
            base = self.parenthesize(expr.base, PRECEDENCE["Mul"])
            return f"({base}*{base})"
        return super()._print_Pow(expr)


class KernelGenerator:
    """Generates kernel source (Python or C) for one SRHD configuration."""

    def __init__(self, ndim: int):
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
        """Return the complete source of one kernel function.

        For the ``numpy`` and ``flat`` targets this is Python source; for
        ``cext`` it is the C function body that
        :func:`repro.codegen.cext.load_cext_module` compiles.
        """
        if target not in _TARGETS:
            raise CodegenError(f"unknown target {target!r}; choose from {_TARGETS}")
        if target == "cext":
            return self.generate_c(kind, axis)
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
        printer = NumPyPrinter()
        assignments, outputs = self._cse(kind, axis)
        lines += [f"    {s} = {printer.doprint(e)}" for s, e in assignments]
        lines += [
            f"    {row}[...] = {printer.doprint(e)}"
            for row, e in zip(out_rows, outputs)
        ]
        lines.append(f"    return {ret}")
        return "\n".join(lines) + "\n"

    def default_kinds_axes(self, target: str = "numpy") -> list[tuple[str, int]]:
        """Every (kind, axis) pair a solver on *target* evaluates.

        ``flat``/``cext`` Riemann solvers take both sides' (U, F, lambda)
        from ``face_side``; ``flux`` alone is only reached by the ``numpy``
        target, whose ``face_side`` is the three separate calls.
        """
        per_axis = ("flux", "char_speeds") if target == "numpy" else (
            "char_speeds", "face_side")
        return [("prim_to_con", 0)] + [
            (kind, ax) for ax in range(self.ndim) for kind in per_axis
        ]

    def generate_module(self, kinds_axes=None, target: str = "numpy") -> str:
        """Source for a whole kernel module (all kinds, all axes)."""
        if target == "cext":
            return self.generate_c_module(kinds_axes)
        if kinds_axes is None:
            kinds_axes = self.default_kinds_axes(target)
        header = (
            '"""Auto-generated SRHD kernels — do not edit.\n\n'
            f"ndim={self.ndim}, target={target}. Generated by "
            'repro.codegen.KernelGenerator."""\n'
        )
        bodies = [self.generate(kind, axis, target) for kind, axis in kinds_axes]
        return header + "\n".join(bodies)

    # -- C target ------------------------------------------------------------

    def _c_body(self, kind: str, axis: int, out_refs: list[str], indent: str):
        """The CSE'd C statements of one kernel: temporaries, then stores."""
        printer = _CPrinter()
        assignments, outputs = self._cse(kind, axis)
        lines = [
            f"{indent}const double {s} = {printer.doprint(e)};"
            for s, e in assignments
        ]
        lines += [
            f"{indent}{ref} = {printer.doprint(e)};"
            for ref, e in zip(out_refs, outputs)
        ]
        return lines

    def c_signature(self, kind: str, axis: int = 0) -> str:
        """The C declaration of one generated kernel (cffi ``cdef`` form)."""
        sym = self.symbols
        name = self.kernel_name(kind, axis, "cext")
        args = ["long n"]
        args += [f"const double* in_{v}" for v in sym.input_names()]
        args += [f"double* out_{o}" for o in sym.output_names(kind, axis)]
        args.append("double gamma")
        return f"void {name}({', '.join(args)})"

    def generate_c(self, kind: str, axis: int = 0) -> str:
        """C source of one kernel: a per-cell loop over SoA pointers."""
        sym = self.symbols
        lines = [
            self.c_signature(kind, axis),
            "{",
            "    for (long i = 0; i < n; ++i) {",
        ]
        for var in sym.input_names():
            lines.append(f"        const double {var} = in_{var}[i];")
        outs = [f"out_{o}[i]" for o in sym.output_names(kind, axis)]
        lines += self._c_body(kind, axis, outs, " " * 8)
        lines += ["    }", "}"]
        return "\n".join(lines) + "\n"

    def con2prim_c_signature(self) -> str:
        """C declaration of the fused con2prim Newton kernel."""
        return (
            f"long {CON2PRIM_KERNEL}(long n, const double* in_D, "
            "const double* in_S2, const double* in_tau, double* p, "
            "const double* p_lo, unsigned char* converged, int* iters, "
            "double gamma, double tol, double p_floor, int max_newton)"
        )

    def generate_c_con2prim(self) -> str:
        """C source of the fused con2prim Newton kernel (template)."""
        return _CON2PRIM_C % {"name": CON2PRIM_KERNEL}

    def generate_c_module(self, kinds_axes=None) -> str:
        """Complete C source of the compiled module for this ndim: the
        pointwise kernels (*kinds_axes*, default every kind a solver
        evaluates), the con2prim Newton loop, the one-pass recovery sweep,
        the CFL scan and the fused face-flux sweep of every axis — one
        translation unit, one artifact."""
        if kinds_axes is None:
            kinds_axes = self.default_kinds_axes("cext")
        axes = range(self.ndim)
        parts = [
            "/* Auto-generated SRHD kernels -- do not edit.\n"
            f" * ndim={self.ndim}, target=cext. "
            "Generated by repro.codegen.KernelGenerator. */\n" + _PROLOGUE_C,
            *(self.generate_c(kind, axis) for kind, axis in kinds_axes),
            self.generate_c_con2prim(),
            self.generate_c_recover(),
            self.generate_c_max_signal(),
            _STENCIL_COMMON_C,
            _STENCIL_ROWS_C,
            self.generate_c_sanitize_tile(),
            *(self.generate_c_face_side_tile(ax) for ax in axes),
            *(self.generate_c_combine_tile(ax) for ax in axes),
            self.generate_c_fill_tile(),
            *(self.generate_c_face_flux(ax) for ax in axes),
            self.generate_c_accumulate(),
            self.generate_c_rk_stage(),
            f"{SIMD_LEVEL_DECL} {{ return simd_level(); }}\n",
        ]
        return "\n".join(parts)

    def c_declarations(self, kinds_axes=None) -> str:
        """cffi ``cdef`` declarations matching :meth:`generate_c_module`
        (entry points only; every sweep helper is ``static inline``)."""
        if kinds_axes is None:
            kinds_axes = self.default_kinds_axes("cext")
        decls = [self.c_signature(kind, axis) + ";" for kind, axis in kinds_axes]
        decls.append(self.con2prim_c_signature() + ";")
        # The template kernels' declarations are the heads of their definitions.
        decls += [
            src[: src.index("\n{")].removeprefix("REPRO_CLONES\n") + ";"
            for src in (
                self.generate_c_recover(),
                self.generate_c_max_signal(),
                *(self.generate_c_face_flux(ax) for ax in range(self.ndim)),
                self.generate_c_accumulate(),
                self.generate_c_rk_stage(),
            )
        ]
        decls.append(SIMD_LEVEL_DECL + ";")
        return "\n".join(decls) + "\n"

    # -- recovery sweep and CFL scan (C target only) -------------------------
    #
    # Both walk the interior of a C-contiguous ghosted ``(nvars, *cells)``
    # array by rows (``cext.interior_rows``), so 1-/2-/3-D patches and a
    # trailing batch axis are the same loop.

    def generate_c_recover(self) -> str:
        """One recovery sweep, stage by stage the interpreted one.

        Over every ghosted cell, in place: ``Atmosphere.apply_cons`` and
        ``HydroPipeline._limit_momentum``.  Over the interior: ``S2``,
        ``p_lo`` and the seed as ``con_to_prim`` forms them (*seed* NULL is
        its cold start), the shared Newton body, ``v_i = S_i / Q``, then —
        unless *solve_only* — ``Atmosphere.apply_prim``, with the floored
        pressure stored as *next_seed*.  A cell that does not converge
        writes nothing.  ``counts`` accumulates ``[cons_floored,
        momentum_rescaled, n_unconverged, iters_max, prim_reset]``.
        """
        nd, tau = self.ndim, self.nvars - 1
        return f"""\
void {RECOVER_KERNEL % nd}(double* cons, double* prim, long n_cells,
    const long* row_offsets, long n_rows, long row_len, const double* seed,
    double* next_seed, double gamma, double tol, double p_floor,
    int max_newton, double rho_atmo, double p_atmo, double rho_reset,
    double vmax, int solve_only, long* counts)
{{
    for (long i = 0; i < n_cells; ++i) {{
        double* const D = cons + i;
        double* const S = D + n_cells;
        double* const tau = D + {tau} * n_cells;
        const int bad_d = *D < rho_atmo;
        const int bad_tau = *tau < p_atmo;
        counts[0] += bad_d | bad_tau;
        if (bad_d) {{
            *D = rho_atmo;
            for (int a = 0; a < {nd}; ++a) S[a * n_cells] = 0.0;
        }}
        if (bad_tau) *tau = p_atmo;
        double S2 = 0.0;
        for (int a = 0; a < {nd}; ++a) S2 += S[a * n_cells] * S[a * n_cells];
        const double smax = vmax * (*tau + *D + p_atmo);
        if (S2 > smax * smax) {{
            const double scale = smax / sqrt(S2);
            for (int a = 0; a < {nd}; ++a) S[a * n_cells] *= scale;
            counts[1] += 1;
        }}
    }}
    for (long r = 0; r < n_rows; ++r) {{
        for (long j = 0; j < row_len; ++j) {{
            const long i = row_offsets[r] + j;
            const long k = r * row_len + j;
            const double D = cons[i];
            const double* const S = cons + n_cells + i;
            const double tau = cons[{tau} * n_cells + i];
            double S2 = 0.0;
            for (int a = 0; a < {nd}; ++a) S2 += S[a * n_cells] * S[a * n_cells];
            const double plo = rmax((sqrt(S2) - tau - D) * (1.0 + 1e-10), p_floor);
            double p = seed ? seed[k] : fabs(tau - sqrt(S2)) * 0.5 + p_floor;
            /* np.maximum keeps a NaN seed; Newton then never converges */
            p = rmaxn(p, plo);
            double rho = 0.0, Q = 0.0;
            int it;
            const int conv = newton_cell(D, S2, tau, plo, gamma, tol, p_floor,
                max_newton, &p, &it, &rho, &Q);
            if (it > counts[3]) counts[3] = it;
            if (!conv) {{
                counts[2] += 1;
                continue;
            }}
            double v[{nd}];
            for (int a = 0; a < {nd}; ++a) v[a] = S[a * n_cells] / Q;
            if (!solve_only) {{
                if (rho < rho_reset) {{
                    rho = rho_atmo;
                    for (int a = 0; a < {nd}; ++a) v[a] = 0.0;
                    p = p_atmo;
                    counts[4] += 1;
                }}
                p = rmax(p, p_atmo);
                rho = rmax(rho, rho_atmo);
                next_seed[k] = p;
            }}
            prim[i] = rho;
            for (int a = 0; a < {nd}; ++a) prim[(1 + a) * n_cells + i] = v[a];
            prim[{tau} * n_cells + i] = p;
        }}
    }}
}}
"""

    def generate_c_max_signal(self) -> str:
        """Per-axis ``max(max|lam-|, max|lam+|)`` over the interior.

        Mirrors the *handwritten* ``SRHDSystem.char_speeds`` (``v_squared``
        order, ``eps_from_pressure``, ``IdealGasEOS.sound_speed_sq``, both
        clips, the ``disc``/``root``/``denom`` sequence) — the kernel every
        target's dt is scanned with — not the generated ``char_speeds``
        kind, which differs from it in the last bit.  A NaN poisons a
        maximum as it does ``np.max``.
        """
        nd, tau = self.ndim, self.nvars - 1
        vs = ", ".join(f"prim[{1 + a} * n_cells + i]" for a in range(nd))
        return f"""\
void {MAX_SIGNAL_KERNEL % nd}(const double* prim, long n_cells,
    const long* row_offsets, long n_rows, long row_len, double gamma,
    double* vmax)
{{
    double mm[{nd}] = {{0.0}};
    double mp[{nd}] = {{0.0}};
    for (long r = 0; r < n_rows; ++r) {{
        for (long j = 0; j < row_len; ++j) {{
            const long i = row_offsets[r] + j;
            const double rho = prim[i];
            const double p = prim[{tau} * n_cells + i];
            const double v[{nd}] = {{{vs}}};
            double v2 = 0.0;
            for (int a = 0; a < {nd}; ++a) v2 += v[a] * v[a];
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
                mm[a] = rmaxn(fabs((c - b) / denom), mm[a]);
                mp[a] = rmaxn(fabs((c + b) / denom), mp[a]);
            }}
        }}
    }}
    for (int a = 0; a < {nd}; ++a) vmax[a] = (mp[a] > mm[a]) ? mp[a] : mm[a];
}}
"""

    # -- fused stencil kernels (C target only) -------------------------------
    #
    # The sweep compiles the whole face-flux stage — reconstruction,
    # face-state sanitization, the joint per-side (U, F, lambda) evaluation
    # and the LLF/HLL/HLLC combine — into one per-axis sweep.  The per-side
    # algebra is the same CSE'd ``face_side`` list the pointwise kernels
    # print; the handwritten pieces mirror the vectorized Python
    # implementations operation by operation, so with ``-ffp-contract=off``
    # the fused sweep is bit-identical to the interpreted pipeline.  After
    # the row fillers the tail is three stages, each a loop over the lanes
    # ``i < m`` of SoA tile rows (marked ``/* lanes */``) that the compiler
    # vectorises: IEEE add/mul/div/sqrt round per lane at any width and
    # nothing in the tail is a floating-point reduction, so the width the
    # host picks cannot move a bit.  Every helper is ``static inline``.

    @property
    def nvars(self) -> int:
        return self.ndim + 2

    def stencil_kernel_name(self, axis: int) -> str:
        return f"face_flux_ax{axis}_{self.ndim}d_cext"

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

        Same expressions and same CSE as :meth:`generate_c` — which is what
        keeps the fused sweep bitwise-equal to the pointwise kernel.  The
        rows are stack scratch, so ``restrict`` is true here (the public
        pointwise entry points may be called with aliased arrays).
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
        outs = [f"o[{k}][i]" for k in range(2 * self.nvars + 2)]
        lines += self._c_body("face_side", axis, outs, " " * 8)
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

        Walks cache-resident rows (``row_offsets`` enumerates the ghosted
        transverse extent in C order, ``axis_stride`` steps along the
        working axis) in tiles of :data:`STENCIL_TILE` faces: fill the
        tile's left/right states, then run the tile stages over its lanes —
        sanitize and ``face_side`` once per side, combine into the stack
        block ``Ft`` (slot 0 carries the previous tile's last face: a seam
        costs ``nvars`` doubles), then ``div = (Ft[i + 1] - Ft[i]) / dx`` —
        NumPy's subtract, then its divide — before the fluxes leave the
        cache; no interface-sized temporary anywhere.  ``out_row[r]`` is
        the row of ``F`` (nvars, n_out, n_faces) and ``div`` (nvars, n_out,
        n_faces - 1) ghosted row *r* lands in (NULL: row *r*), -1 for a row
        nobody reads — still *evaluated*: the interpreted stages count its
        sanitize repairs.  Either output may be NULL.  One schedule serves
        all five reconstruction ids.
        """
        nd, nv, T = self.ndim, self.nvars, STENCIL_TILE
        return f"""\
REPRO_CLONES
void {self.stencil_kernel_name(axis)}(const double* prim, long var_stride,
    long axis_stride, const long* row_offsets, long n_rows, long j0,
    long n_faces, const long* out_row, long n_out, double* F, double* div,
    double dx, double gamma, double vmax2, double rho_atmo, double p_atmo,
    int recon_id, int limiter_id, int riemann_id, long* counts)
{{
    double q[2][{nv}][{T}];
    double sd[2][{2 * nv + 2}][{T}];
    double Ft[{nv}][{T} + 1];
    for (long r = 0; r < n_rows; ++r) {{
        const double* row = prim + row_offsets[r] + j0 * axis_stride;
        const long o = out_row ? out_row[r] : r;
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
            if (o < 0) continue;
            for (int v = 0; v < {nv}; ++v) {{
                const double* f = Ft[v];
                if (F) {{
                    double* restrict Fr = F + (v * n_out + o) * n_faces + k0;
                    for (long i = 0; i < m; ++i) Fr[i] = f[i + 1];
                }}
                if (div) {{
                    double* restrict d = div + (v * n_out + o) * (n_faces - 1) + k0;
                    for (long i = (k0 == 0); i < m; ++i) /* lanes */
                        d[i - 1] = (f[i + 1] - f[i]) / dx;
                }}
                Ft[v][0] = Ft[v][m];
            }}
        }}
    }}
}}
"""

    # -- the update stage (C target only) ------------------------------------

    def generate_c_accumulate(self) -> str:
        """``dU[cell] = dU[cell] - div`` over interior cells ``[k0, k0 +
        width)`` of one axis — ``HydroPipeline.accumulate_divergence``'s
        ``target -= div``.  ``rows[r]`` is the offset of interior row *r*'s
        first interior cell (``cext.sweep_rows``); ``div`` is (nvars, n_rows,
        width).  A row is one lane loop on the contiguous axis; across a
        strided one 16 rows advance together, so each line of ``dU`` and of
        ``div`` is touched once while resident."""
        return f"""\
REPRO_CLONES
void {ACCUMULATE_KERNEL % self.ndim}(double* dU, long var_stride,
    long axis_stride, const long* rows, long n_rows, long k0, long width,
    const double* div)
{{
    for (int v = 0; v < {self.nvars}; ++v) {{
        double* const u = dU + v * var_stride + k0 * axis_stride;
        const double* const d = div + v * n_rows * width;
        if (axis_stride == 1) {{
            for (long r = 0; r < n_rows; ++r) {{
                double* restrict t = u + rows[r];
                const double* restrict s = d + r * width;
                for (long k = 0; k < width; ++k) /* lanes */
                    t[k] = t[k] - s[k];
            }}
            continue;
        }}
        for (long r0 = 0; r0 < n_rows; r0 += 16) {{
            const long r1 = (n_rows - r0 < 16) ? n_rows : r0 + 16;
            for (long k = 0; k < width; ++k)
                for (long r = r0; r < r1; ++r)
                    u[rows[r] + k * axis_stride] -= d[r * width + k];
        }}
    }}
}}
"""

    def generate_c_rk_stage(self) -> str:
        """One SSP-RK stage combination over the flat ghosted state: the
        three forms of ``time_integration.ssprk.combine_stage``, operand for
        operand (``U / a`` stays a division; ``a``/``b`` arrive as the
        doubles Python folded).  *out* aliases no input."""
        tail = "b * (V[i] + dt * k[i])"
        return f"""\
REPRO_CLONES
void {RK_STAGE_KERNEL}(long n, int form, double a, double b, double dt,
    const double* restrict U, const double* restrict V,
    const double* restrict k, double* restrict out)
{{
    switch (form) {{
    case 0:
        for (long i = 0; i < n; ++i) /* lanes */
            out[i] = V[i] + dt * k[i];
        break;
    case 1:
        for (long i = 0; i < n; ++i) /* lanes */
            out[i] = a * U[i] + {tail};
        break;
    default:
        for (long i = 0; i < n; ++i) /* lanes */
            out[i] = U[i] / a + {tail};
    }}
}}
"""
