"""Tests for the SymPy kernel generator: generated kernels must match the
handwritten reference bit-for-bit (to round-off) on both targets."""

from __future__ import annotations

import contextlib
import logging
import os

import numpy as np
import pytest
import sympy as sp

from repro.codegen import (
    KernelGenerator,
    SRHDSymbols,
    cache_size,
    clear_cache,
    load_kernel,
    run_flat_kernel,
    verify_kernels,
)
from repro.eos import IdealGasEOS
from repro.physics.srhd import SRHDSystem
from repro.utils.errors import CodegenError

from .conftest import random_prim


@contextlib.contextmanager
def _log_records(name, level=logging.INFO):
    """Records emitted on logger *name* (the ``repro`` tree does not
    propagate to the root logger, so ``caplog`` never sees them)."""
    log = logging.getLogger(name)
    records: list[logging.LogRecord] = []
    handler = logging.Handler()
    handler.emit = records.append
    old_level = log.level
    log.addHandler(handler)
    log.setLevel(level)
    try:
        yield records
    finally:
        log.removeHandler(handler)
        log.setLevel(old_level)


def _tracer_system():
    from repro.physics.tracers import TracerSystem

    return TracerSystem(SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=1))


def _polytropic_system():
    from repro.eos import PolytropicEOS

    return SRHDSystem(PolytropicEOS(), ndim=1)


class TestSymbols:
    def test_invalid_ndim(self):
        with pytest.raises(CodegenError):
            SRHDSymbols(4)

    def test_conserved_count(self):
        for ndim in (1, 2, 3):
            assert len(SRHDSymbols(ndim).conserved()) == ndim + 2

    def test_lorentz_expression(self):
        sym = SRHDSymbols(1)
        W = sym.lorentz.subs({sym.v[0]: sp.Rational(3, 5)})
        assert sp.simplify(W - sp.Rational(5, 4)) == 0

    def test_static_conserved_reduce_correctly(self):
        """At v = 0: D = rho, S = 0, tau = rho*eps."""
        sym = SRHDSymbols(1)
        subs = {sym.v[0]: 0}
        D, S, tau = [sp.simplify(e.subs(subs)) for e in sym.conserved()]
        assert D == sym.rho
        assert S == 0
        eps = sym.eps
        assert sp.simplify(tau - sym.rho * eps.subs(subs)) == 0

    def test_flux_axis_out_of_range(self):
        with pytest.raises(CodegenError):
            SRHDSymbols(2).flux(2)

    def test_char_speeds_reduce_to_sound_speed_at_rest(self):
        sym = SRHDSymbols(1)
        lam_m, lam_p = sym.char_speeds(0)
        at_rest = {sym.v[0]: 0}
        cs = sp.sqrt(sym.sound_speed_sq)
        assert sp.simplify(lam_p.subs(at_rest) - cs.subs(at_rest)) == 0
        assert sp.simplify(lam_m.subs(at_rest) + cs.subs(at_rest)) == 0

    def test_unknown_kind(self):
        with pytest.raises(CodegenError):
            SRHDSymbols(1).expressions("sources")


class TestGeneratedSource:
    def test_source_is_valid_python(self):
        gen = KernelGenerator(2)
        for kind in ("prim_to_con", "flux", "char_speeds"):
            for target in ("numpy", "flat"):
                src = gen.generate(kind, axis=0, target=target)
                compile(src, "<test>", "exec")  # must not raise

    def test_cse_produces_temporaries(self):
        """CSE must fire: the Lorentz factor appears in every component."""
        src = KernelGenerator(2).generate("prim_to_con")
        assert "t_0" in src

    def test_module_generation(self):
        src = KernelGenerator(1).generate_module()
        ns: dict = {}
        exec(compile(src, "<module>", "exec"), ns)
        assert "prim_to_con_1d_numpy" in ns
        assert "flux_ax0_1d_numpy" in ns
        assert "char_speeds_ax0_1d_numpy" in ns

    def test_unknown_target(self):
        with pytest.raises(CodegenError):
            KernelGenerator(1).generate("flux", target="cuda")


class TestGeneratedCBudget:
    """What the generated C is allowed to cost, asserted on its source."""

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_face_side_op_budget(self, ndim):
        """One side's (U, F, lambda) from 2 sqrt and <= 6 divisions, on
        every target — the three separate kernels spent 7 and 13."""
        gen = KernelGenerator(ndim)
        for axis in range(ndim):
            sources = {
                "tile": gen.generate_c_face_side_tile(axis),
                "cext": gen.generate_c("face_side", axis),
                "flat": gen.generate("face_side", axis, "flat").split('"""')[2],
            }
            for where, src in sources.items():
                body = src[src.index("{") :] if where != "flat" else src
                body = body.replace("/* lanes */", "")
                divisions = body.count("/") + body.count("**(-1.0)")
                assert body.count("sqrt(") == 2, (where, axis, src)
                assert divisions <= 6, (where, axis, src)

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_no_libm_minmax_pow_and_every_helper_inline(self, ndim):
        import re

        from repro.codegen.generator import (
            ACCUMULATE_KERNEL,
            CON2PRIM_KERNEL,
            MAX_SIGNAL_KERNEL,
            RECOVER_KERNEL,
            RK_STAGE_KERNEL,
            SIMD_LEVEL_DECL,
        )

        gen = KernelGenerator(ndim)
        module = gen.generate_c_module()
        code = re.sub(r"/\*.*?\*/", "", module, flags=re.S)
        for token in ("fmin(", "fmax(", "pow("):
            assert token not in code, token
        assert "#define REPRO_INLINE static inline" in module
        # Column-0 definitions: the pointwise kernels, the Newton loop, the
        # recovery sweep, the CFL scan, the per-axis sweep entry points, the
        # update stage (accumulate, one RK stage combination) and the clone
        # probe, everything else a REPRO_INLINE helper or the one
        # `static` tile filler the sweeps share.  One sweep per axis — no
        # schedule twins — and one Newton body for the two kernels running it.
        defs = re.findall(r"^(?!#)(\w[^\n;{]*?)\s+\**(\w+)\(", code, flags=re.M)
        statics = [name for head, name in defs if head.startswith("static")]
        assert statics == [f"fill_tile_{ndim}d"]
        entries = [
            name for head, name in defs
            if not head.startswith(("REPRO_INLINE", "static"))
        ]
        assert entries == [
            *(gen.kernel_name(k, ax, "cext") for k, ax in gen.default_kinds_axes("cext")),
            CON2PRIM_KERNEL,
            RECOVER_KERNEL % ndim,
            MAX_SIGNAL_KERNEL % ndim,
            *(gen.stencil_kernel_name(ax) for ax in range(ndim)),
            ACCUMULATE_KERNEL % ndim,
            RK_STAGE_KERNEL,
            re.search(r"(\w+)\(", SIMD_LEVEL_DECL).group(1),
        ]
        # One tail, no scalar twin: nothing takes a per-face `double* q`
        # state, and none of the per-face helpers it replaced is left.
        assert not re.search(r"double\s*\*\s*q\s*[,)]", code)
        for gone in ("cell_side_ax", "sanitize_face_", "combine_llf", "combine_hll",
                     "hllc_side_"):
            assert gone not in code, gone
        assert code.count("const double dfdp =") == 1
        assert code.count("newton_cell(") == 3  # one definition, two callers
        assert len(defs) > len(entries) + 10
        # ... and the cdef declares exactly those entry points.
        assert re.findall(r"(\w+)\(", gen.c_declarations()) == entries

    def test_inline_minmax_are_numpy_minmax(self, tmp_path, monkeypatch):
        """rmin/rmax/rclip == np.minimum/np.maximum/np.clip on every pair of
        finite or infinite doubles, signed zeros and ties included."""
        from repro.codegen import cext as cext_mod
        from repro.codegen.generator import _PROLOGUE_C

        if not cext_mod.cext_available(1):
            pytest.skip("no C toolchain")
        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path))
        cdef = (
            "double t_min(double, double); double t_max(double, double);"
            "double t_clip(double, double, double);"
        )
        source = _PROLOGUE_C + (
            "double t_min(double a, double b) { return rmin(a, b); }\n"
            "double t_max(double a, double b) { return rmax(a, b); }\n"
            "double t_clip(double x, double lo, double hi)"
            " { return rclip(x, lo, hi); }\n"
        )
        _, lib = cext_mod._load_spec("_repro_test_minmax", source, cdef)
        vals = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, np.inf, -np.inf, 2.5]

        def same(x, y):
            return x == y and np.signbit(x) == np.signbit(y)

        for a in vals:
            for b in vals:
                assert same(lib.t_min(a, b), np.minimum(a, b)), (a, b)
                assert same(lib.t_max(a, b), np.maximum(a, b)), (a, b)
                for x in vals:
                    if a <= b:
                        assert same(lib.t_clip(x, a, b), np.clip(x, a, b)), (x, a, b)
        cext_mod.clear_modules()


class TestKernelCorrectness:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_verify_all_kernels(self, ndim):
        deviations = verify_kernels(ndim, rtol=1e-11)
        assert max(deviations.values()) < 1e-11
        # numpy and flat targets both covered.
        assert any("/numpy" in k for k in deviations)
        assert any("/flat" in k for k in deviations)

    def test_numpy_kernel_matches_reference(self, rng):
        system = SRHDSystem(IdealGasEOS(gamma=1.4), ndim=2)
        prim = random_prim(system, (8, 8), rng)
        kernel = load_kernel("prim_to_con", ndim=2)
        got = kernel(prim, np.empty_like(prim), 1.4)
        np.testing.assert_allclose(got, system.prim_to_con(prim), rtol=1e-12)

    def test_flat_kernel_matches_reference(self, rng):
        system = SRHDSystem(IdealGasEOS(gamma=1.4), ndim=1)
        prim = random_prim(system, (64,), rng)
        kernel = load_kernel("flux", ndim=1, axis=0, target="flat")
        got = run_flat_kernel(kernel, prim, n_out=3, gamma=1.4)
        cons = system.prim_to_con(prim)
        np.testing.assert_allclose(got, system.flux(prim, cons, 0), rtol=1e-12)

    def test_gamma_is_a_runtime_parameter(self, rng):
        """One generated kernel serves every Gamma-law EOS."""
        kernel = load_kernel("prim_to_con", ndim=1)
        system_a = SRHDSystem(IdealGasEOS(gamma=1.4), ndim=1)
        system_b = SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=1)
        prim = random_prim(system_a, (16,), rng)
        got_a = kernel(prim, np.empty_like(prim), 1.4)
        got_b = kernel(prim, np.empty_like(prim), 5.0 / 3.0)
        np.testing.assert_allclose(got_a, system_a.prim_to_con(prim), rtol=1e-12)
        np.testing.assert_allclose(got_b, system_b.prim_to_con(prim), rtol=1e-12)
        assert not np.allclose(got_a, got_b)


class TestGeneratedSystemInSolver:
    """Generated (``flat``) kernels driving the full production solver."""

    def test_shock_tube_matches_handwritten(self):
        from repro import Grid, Solver, SolverConfig
        from repro.codegen import GeneratedSRHDSystem
        from repro.physics.initial_data import RP1, shock_tube

        cfg = SolverConfig(cfl=0.4)
        grid = Grid((64,), ((0.0, 1.0),))

        ref_system = SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1)
        ref = Solver(ref_system, grid, shock_tube(ref_system, grid, RP1), cfg)
        ref.run(t_final=0.1)

        gen_system = GeneratedSRHDSystem(gamma=RP1.gamma, ndim=1)
        gen = Solver(gen_system, grid, shock_tube(gen_system, grid, RP1), cfg)
        gen.run(t_final=0.1)

        assert gen.summary.steps == ref.summary.steps
        np.testing.assert_allclose(
            gen.interior_primitives(), ref.interior_primitives(),
            rtol=1e-9, atol=1e-11,
        )

    def test_2d_evolution_stable(self):
        from repro import Grid, Solver, SolverConfig
        from repro.codegen import GeneratedSRHDSystem
        from repro.physics.initial_data import blast_wave_2d

        system = GeneratedSRHDSystem(ndim=2)
        grid = Grid((16, 16), ((0, 1), (0, 1)))
        prim0 = blast_wave_2d(system, grid, p_in=10.0, radius=0.2)
        solver = Solver(system, grid, prim0, SolverConfig(cfl=0.4))
        solver.run(t_final=0.03)
        assert np.all(np.isfinite(solver.interior_primitives()))

    def test_superluminal_guard_retained(self):
        from repro.codegen import GeneratedSRHDSystem
        from repro.utils.errors import ConfigurationError

        system = GeneratedSRHDSystem(ndim=1)
        with pytest.raises(ConfigurationError, match="superluminal"):
            system.prim_to_con(np.array([[1.0], [1.5], [1.0]]))


class TestCrossTargetParity:
    """Property tests: randomized states through every target, including the
    hostile corners — near-luminal velocities (Lorentz factors in the
    hundreds) and low-pressure atmosphere states."""

    N = 512

    @staticmethod
    def _hostile_prim(system, n, rng):
        """Random admissible states spanning three regimes: generic,
        near-luminal (|v| up to 1 - 1e-6), and cold atmosphere."""
        prim = np.empty((system.nvars, n))
        prim[system.RHO] = 10.0 ** rng.uniform(-6.0, 1.0, n)
        regime = rng.integers(0, 3, n)
        speed = np.where(
            regime == 1,
            1.0 - 10.0 ** rng.uniform(-6.0, -3.0, n),
            rng.uniform(0.0, 0.9, n),
        )
        direction = rng.normal(size=(system.ndim, n))
        direction /= np.maximum(
            np.sqrt((direction**2).sum(axis=0)), 1e-300
        )
        for ax in range(system.ndim):
            prim[system.V(ax)] = direction[ax] * speed
        prim[system.P] = np.where(
            regime == 2,
            10.0 ** rng.uniform(-12.0, -8.0, n),
            10.0 ** rng.uniform(-2.0, 1.0, n),
        )
        return prim

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_algebraic_kernels_agree_across_targets(self, ndim, rng):
        from repro.codegen import cext_available

        gamma = 5.0 / 3.0
        system = SRHDSystem(IdealGasEOS(gamma=gamma), ndim=ndim)
        prim = self._hostile_prim(system, self.N, rng)
        cons = system.prim_to_con(prim)
        have_cext = cext_available(ndim)

        cases = [("prim_to_con", 0, cons, system.nvars)]
        for ax in range(ndim):
            cases.append(("flux", ax, system.flux(prim, cons, ax), system.nvars))
            lam = np.stack(system.char_speeds(prim, ax))
            cases.append(("char_speeds", ax, lam, 2))
            side = np.concatenate([cons, system.flux(prim, cons, ax), lam])
            cases.append(("face_side", ax, side, len(side)))
        for kind, axis, ref, n_out in cases:
            k_np = load_kernel(kind, ndim, axis, "numpy")
            got_np = k_np(prim, np.empty((n_out, self.N)), gamma)
            np.testing.assert_allclose(
                got_np, ref, rtol=1e-9, atol=1e-12,
                err_msg=f"{kind}{axis}/numpy vs handwritten",
            )
            k_flat = load_kernel(kind, ndim, axis, "flat")
            got_flat = run_flat_kernel(k_flat, prim, n_out, gamma)
            np.testing.assert_allclose(
                got_flat, ref, rtol=1e-9, atol=1e-12,
                err_msg=f"{kind}{axis}/flat vs handwritten",
            )
            if have_cext:
                k_c = load_kernel(kind, ndim, axis, "cext")
                got_c = run_flat_kernel(k_c, prim, n_out, gamma)
                # Same CSE'd expression tree, contraction disabled: the C
                # kernels reproduce the flat target bit for bit.
                assert got_c.tobytes() == got_flat.tobytes(), (
                    f"{kind}{axis}: cext differs bitwise from flat"
                )

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_face_side_near_luminal_and_atmosphere(self, ndim):
        """The joint kernel shares one ``1 - v^2`` between W, rho h W^2 and
        the characteristic root, which changes its conditioning: drive it
        to the sanitize envelope — W up to ``w_max``, rho and p down to the
        atmosphere floors — in every direction."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.codegen import cext_available
        from repro.core.config import SolverConfig

        cfg = SolverConfig()
        gamma = 5.0 / 3.0
        system = SRHDSystem(IdealGasEOS(gamma=gamma), ndim=ndim)
        have_cext = cext_available(ndim)
        n_out = 2 * system.nvars + 2

        state = st.tuples(
            st.floats(1.0, cfg.w_max),
            st.floats(np.log10(cfg.rho_atmo), 1.0),
            st.floats(np.log10(cfg.p_atmo), 1.0),
            st.lists(st.floats(-1.0, 1.0), min_size=ndim, max_size=ndim).filter(
                lambda d: sum(x * x for x in d) > 1e-6
            ),
        )

        @given(states=st.lists(state, min_size=1, max_size=16))
        @settings(max_examples=40, deadline=None, database=None)
        def check(states):
            prim = np.empty((system.nvars, len(states)))
            for i, (W, log_rho, log_p, direction) in enumerate(states):
                d = np.asarray(direction)
                speed = np.sqrt(1.0 - 1.0 / W**2)
                prim[1 : 1 + ndim, i] = d / np.sqrt(d @ d) * speed
                prim[system.RHO, i] = 10.0**log_rho
                prim[system.P, i] = 10.0**log_p
            cons = system.prim_to_con(prim)
            for ax in range(ndim):
                ref = np.concatenate(
                    [cons, system.flux(prim, cons, ax),
                     np.stack(system.char_speeds(prim, ax))]
                )
                k_flat = load_kernel("face_side", ndim, ax, "flat")
                got = run_flat_kernel(k_flat, prim, n_out, gamma)
                # rtol 1e-9, plus round-off of the state's own scale: tau and
                # F_tau cancel from rho h W^2 (up to ~1e5) down to ~p, and in
                # 3-D the two forms sum v^2 in different orders, which
                # 1 - v^2 amplifies by W^2 (measured: 2e-12 of scale).
                scale = np.abs(ref[: 2 * system.nvars]).max(axis=0)
                atol = np.concatenate(
                    [np.tile(1e-11 * scale, (2 * system.nvars, 1)),
                     np.full((2, len(states)), 1e-12)]
                )
                assert np.all(np.abs(got - ref) <= 1e-9 * np.abs(ref) + atol), ax
                assert np.all(np.abs(got[-2:]) < 1.0), "superluminal signal speed"
                if have_cext:
                    k_c = load_kernel("face_side", ndim, ax, "cext")
                    got_c = run_flat_kernel(k_c, prim, n_out, gamma)
                    assert got_c.tobytes() == got.tobytes(), ax

        check()

    def test_compiled_face_side_is_the_flat_kernel(self, rng):
        """The interpreted Riemann stage on a compiled system evaluates each
        side through the compiled pointwise ``face_side`` — and that is the
        flat kernel, byte for byte."""
        from repro.codegen import cext_available
        from repro.codegen.system import CompiledSRHDSystem, GeneratedSRHDSystem

        if not cext_available(2):
            pytest.skip("no C toolchain")
        compiled = CompiledSRHDSystem(ndim=2)
        flat = GeneratedSRHDSystem(ndim=2)
        calls = []
        for ax, fn in enumerate(compiled._c_side):
            compiled._c_side[ax] = lambda *a, fn=fn: calls.append(1) or fn(*a)
        prim = self._hostile_prim(compiled, 257, rng).reshape(4, 1, 257)
        for ax in range(2):
            got = compiled.face_side(prim, ax)
            ref = flat.face_side(prim, ax)
            for a, b in zip((got[0], got[1], *got[2]), (ref[0], ref[1], *ref[2])):
                assert a.tobytes() == b.tobytes()
        assert len(calls) == 2

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_con2prim_recovery_compiled_matches_reference(self, ndim, rng):
        from repro.codegen import cext_available
        from repro.codegen.system import CompiledSRHDSystem
        from repro.physics.con2prim import con_to_prim

        if not cext_available(ndim):
            pytest.skip("no C toolchain: compiled con2prim unavailable")
        gamma = 5.0 / 3.0
        system = SRHDSystem(IdealGasEOS(gamma=gamma), ndim=ndim)
        # Recovery regime: fast but sub-0.99 flow, pressures down to 1e-8
        # (the full near-luminal corner is the algebraic kernels' job; the
        # Newton solve itself is exercised to its convergence tolerance).
        prim = self._hostile_prim(system, self.N, rng)
        for ax in range(ndim):
            prim[system.V(ax)] *= 0.99 / (1.0 + 1e-12)
        prim[system.P] = np.maximum(prim[system.P], 1e-8)
        cons = system.prim_to_con(prim)

        recovered_ref = con_to_prim(system, cons.copy())
        compiled = CompiledSRHDSystem(gamma=gamma, ndim=ndim)
        recovered_c = con_to_prim(compiled, cons.copy())
        np.testing.assert_allclose(
            recovered_c, recovered_ref, rtol=1e-8, atol=1e-12
        )
        # And both land back on the state we started from.
        np.testing.assert_allclose(recovered_ref, prim, rtol=1e-6, atol=1e-10)

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_verify_kernels_covers_cext(self, ndim):
        from repro.codegen import cext_available

        if not cext_available(ndim):
            pytest.skip("no C toolchain")
        # Default tolerance is 1e-12; verify_kernels raises on violation.
        deviations = verify_kernels(ndim)
        assert any(k.endswith("/cext") for k in deviations)
        assert "con2prim/cext" in deviations


class TestCacheInvalidation:
    """A changed symbolic spec or emitter must never serve a stale kernel:
    the in-process cache keys on the source hash, the cext artifact on the
    C source + toolchain fingerprint."""

    def test_spec_change_recompiles_interpreted_kernel(self, monkeypatch, rng):
        from repro.codegen import cache as cache_mod

        clear_cache()
        k1 = load_kernel("flux", ndim=1, axis=0)
        n0 = cache_mod.compile_count
        assert load_kernel("flux", ndim=1, axis=0) is k1
        assert cache_mod.compile_count == n0  # unchanged source: cache hit

        orig = SRHDSymbols.expressions

        def doubled(self, kind, axis=0):
            return [2 * e for e in orig(self, kind, axis)]

        monkeypatch.setattr(SRHDSymbols, "expressions", doubled)
        k2 = load_kernel("flux", ndim=1, axis=0)
        assert cache_mod.compile_count == n0 + 1, (
            "mutated spec did not trigger a recompile"
        )
        assert k2 is not k1
        system = SRHDSystem(IdealGasEOS(gamma=1.4), ndim=1)
        prim = random_prim(system, (32,), rng)
        a = k1(prim, np.empty_like(prim), 1.4)
        b = k2(prim, np.empty_like(prim), 1.4)
        np.testing.assert_allclose(b, 2 * a, rtol=1e-13)

        monkeypatch.undo()
        # Original spec again: its hash is still cached, no third compile.
        assert load_kernel("flux", ndim=1, axis=0) is k1
        assert cache_mod.compile_count == n0 + 1

    def test_cext_artifact_key_tracks_source_and_toolchain(self, monkeypatch):
        from repro.codegen import cext as cext_mod

        try:
            name1, _, _ = cext_mod.module_spec(1)
        except CodegenError:
            pytest.skip("no cffi: cext key unavailable")

        orig = KernelGenerator.generate_c_module
        monkeypatch.setattr(
            KernelGenerator,
            "generate_c_module",
            lambda self, kinds_axes=None: orig(self, kinds_axes) + "\n/* v2 */\n",
        )
        name2, _, _ = cext_mod.module_spec(1)
        assert name2 != name1, "emitter change did not change the artifact key"
        monkeypatch.undo()

        monkeypatch.setattr(
            cext_mod, "toolchain_fingerprint", lambda: "cc=other-compiler"
        )
        name3, _, _ = cext_mod.module_spec(1)
        assert name3 != name1, "toolchain change did not change the artifact key"
        monkeypatch.undo()

        # The flags shape the binary as much as the source does: ours ...
        monkeypatch.setattr(cext_mod, "CFLAGS", cext_mod.CFLAGS + ("-O3",))
        assert cext_mod.module_spec(1)[0] != name1
        monkeypatch.undo()
        # ... and the CFLAGS cffi's build inherits from the environment.
        monkeypatch.setenv("CFLAGS", "-ffp-contract=fast")
        assert cext_mod.module_spec(1)[0] != name1

    def test_cc_env_changes_the_artifact_name(self, monkeypatch, tmp_path, rng):
        """The key names the compiler the build runs — ``$CC`` first, as
        distutils picks it — so a module built by one compiler is never
        served, under the same name, to a process that asked for another."""
        import shutil
        import sysconfig

        from repro.codegen import cext as cext_mod

        if not cext_mod.cext_available(1):
            pytest.skip("no C toolchain")
        real = shutil.which((sysconfig.get_config_var("CC") or "cc").split()[0])
        wrapper = tmp_path / "wrapped-cc"
        wrapper.write_text(
            "#!/bin/sh\n"
            'if [ "$1" = "--version" ]; then echo "wrapped-cc 1.0"; exit 0; fi\n'
            f'exec {real} "$@"\n'
        )
        wrapper.chmod(0o755)
        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path / "cache"))
        monkeypatch.delenv("CC", raising=False)
        cext_mod.clear_modules()
        n0 = cext_mod.build_count
        name1 = cext_mod.module_spec(1)[0]
        k1 = cext_mod.load_cext_kernel("prim_to_con", 1)
        monkeypatch.setenv("CC", str(wrapper))
        assert "cc=wrapped-cc 1.0" in cext_mod.toolchain_fingerprint()
        assert cext_mod.module_spec(1)[0] != name1
        k2 = cext_mod.load_cext_kernel("prim_to_con", 1)
        assert cext_mod.build_count == n0 + 2, "the other compiler did not build"
        system = SRHDSystem(IdealGasEOS(gamma=1.4), ndim=1)
        rows = list(random_prim(system, (64,), rng))
        outs = [[np.empty(64) for _ in range(3)] for _ in range(2)]
        k1(*rows, *outs[0], 1.4)
        k2(*rows, *outs[1], 1.4)
        assert [o.tobytes() for o in outs[0]] == [o.tobytes() for o in outs[1]]
        cext_mod.clear_modules()

    def test_rejected_flags_fail_the_build_instead_of_dropping_them(
        self, monkeypatch, tmp_path
    ):
        """A toolchain that rejects the flags has no cext target: no retry
        without ``-ffp-contract=off`` may install an artifact under the key
        that promises it."""
        from repro.codegen import cext as cext_mod

        if not cext_mod.cext_available(1):
            pytest.skip("no C toolchain")
        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(
            cext_mod, "CFLAGS", cext_mod.CFLAGS + ("--no-such-compiler-flag",)
        )
        cext_mod.clear_modules()
        n0 = cext_mod.build_count
        with pytest.raises(CodegenError, match="build failed"):
            cext_mod.load_cext_module(1, [("prim_to_con", 0)])
        assert cext_mod.build_count == n0
        assert [p for p in tmp_path.iterdir() if p.is_file()] == []

    def test_cext_spec_change_rebuilds_artifact(self, monkeypatch, tmp_path):
        from repro.codegen import cext as cext_mod

        if not cext_mod.cext_available(1):
            pytest.skip("no C toolchain")
        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path))
        cext_mod.clear_modules()
        # A minimal one-kernel module keeps the two builds cheap.
        kinds_axes = [("prim_to_con", 0)]
        n0 = cext_mod.build_count
        cext_mod.load_cext_module(1, kinds_axes)
        assert cext_mod.build_count == n0 + 1
        cext_mod.load_cext_module(1, kinds_axes)  # in-process handle
        assert cext_mod.build_count == n0 + 1
        cext_mod.clear_modules()
        cext_mod.load_cext_module(1, kinds_axes)  # disk artifact hit
        assert cext_mod.build_count == n0 + 1

        orig = KernelGenerator.generate_c_module
        monkeypatch.setattr(
            KernelGenerator,
            "generate_c_module",
            lambda self, ka=None: orig(self, ka) + "\n/* spec v2 */\n",
        )
        cext_mod.load_cext_module(1, kinds_axes)  # new hash: full rebuild
        assert cext_mod.build_count == n0 + 2
        cext_mod.clear_modules()


class TestNoToolchainFallback:
    """REPRO_CEXT_DISABLE=1 models the no-toolchain host: the cext target
    must degrade to 'flat' with a logged warning, never fail the run."""

    def test_disable_env_forces_flat_fallback(self, monkeypatch):
        from repro.codegen import cext as cext_mod
        from repro.codegen.system import GeneratedSRHDSystem, make_kernel_system

        monkeypatch.setenv(cext_mod.DISABLE_ENV, "1")
        assert not cext_mod.cext_available(1)

        with _log_records("repro.codegen.system") as records:
            system = SRHDSystem(IdealGasEOS(gamma=1.4), ndim=1)
            resolved = make_kernel_system(system, "cext")
            assert isinstance(resolved, GeneratedSRHDSystem)
            assert resolved.target == "flat"
            assert any("falling back" in r.getMessage() for r in records)
            # Idempotent and silent: a resolved system comes back as it is,
            # whatever target is named.
            del records[:]
            for target in ("numpy", "flat", "cext"):
                assert make_kernel_system(resolved, target) is resolved
            assert records == []

    def test_disabled_cext_still_solves(self, monkeypatch):
        """The fallen-back run is the flat run — interpreted stencil stages,
        same bytes, same canonical stream — and the fallback is counted
        once per pipeline, not only logged."""
        from repro import Grid, Solver, SolverConfig
        from repro.codegen import cext as cext_mod
        from repro.obs import BufferSink, StepRecorder, canonical_stream
        from repro.physics.initial_data import RP1, shock_tube

        monkeypatch.setenv(cext_mod.DISABLE_ENV, "1")
        system = SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1)
        grid = Grid((32,), ((0.0, 1.0),))
        runs = {}
        for target in ("cext", "flat"):
            sink = BufferSink()
            solver = Solver(
                system, grid, shock_tube(system, grid, RP1),
                SolverConfig(cfl=0.4, kernel_target=target),
                recorder=StepRecorder(sink),
            )
            solver.run(t_final=0.05)
            runs[target] = solver, canonical_stream(sink.records)
        fell_back, stream = runs["cext"]
        flat, flat_stream = runs["flat"]
        assert np.all(np.isfinite(fell_back.interior_primitives()))
        assert fell_back.metrics.counter("codegen.target_fallbacks").value == 1
        assert "codegen.target_fallbacks" not in flat.metrics.snapshot()["counters"]
        assert "reconstruct" in fell_back.timers and "face_flux" not in fell_back.timers
        assert (
            fell_back.interior_primitives().tobytes()
            == flat.interior_primitives().tobytes()
        )
        assert stream == flat_stream


    def test_build_failure_is_the_same_fallback(self, monkeypatch, tmp_path):
        """A toolchain that is present but cannot build the module (here:
        it rejects a flag) takes the one fallback too — whole target to
        flat, logged and counted, nothing left in the cache."""
        from repro.codegen import cext as cext_mod

        if not cext_mod.cext_available(1):
            pytest.skip("no C toolchain")
        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(
            cext_mod, "CFLAGS", cext_mod.CFLAGS + ("--no-such-compiler-flag",)
        )
        cext_mod.clear_modules()
        with _log_records("repro.codegen.system") as records:
            pipe = TestFusedStencilParity._pipeline("cext", "mc", "hllc", ndim=1)
        assert any("build failed" in r.getMessage() for r in records)
        assert pipe.system.target == "flat" and pipe._fused_ids is None
        assert pipe.metrics.counter("codegen.target_fallbacks").value == 1
        assert [p for p in tmp_path.iterdir() if p.is_file()] == []


class TestUnsupportedSystemRefused:
    """A system the generator cannot specialise is refused by name, not run
    on the handwritten kernels under a ``flat`` / ``cext`` label: the target
    has one fallback (no toolchain) and one refusal (this one)."""

    @pytest.mark.parametrize(
        "make,target,named",
        [
            pytest.param(_tracer_system, "flat", "TracerSystem", id="tracer-flat"),
            pytest.param(_tracer_system, "cext", "TracerSystem", id="tracer-cext"),
            pytest.param(
                _polytropic_system, "flat", "PolytropicEOS", id="polytropic-flat"
            ),
        ],
    )
    def test_unsupported_system_raises_naming_numpy(self, make, target, named):
        from repro import Grid, Solver, SolverConfig
        from repro.codegen.system import make_kernel_system
        from repro.utils.errors import ConfigurationError

        system = make()
        grid = Grid((16,), ((0.0, 1.0),))
        prim = grid.allocate(system.nvars)
        prim[system.RHO] = prim[system.P] = 1.0
        with _log_records("repro.codegen.system") as records:
            with pytest.raises(ConfigurationError, match=f"{named}.*'numpy'"):
                Solver(system, grid, prim, SolverConfig(kernel_target=target))
            assert records == []  # refused, not warned about and run
        # The one target that runs it still does, on the object it was given.
        assert make_kernel_system(system, "numpy") is system
        solver = Solver(system, grid, prim, SolverConfig())
        assert solver.pipeline.system is system
        assert "codegen.target_fallbacks" not in solver.metrics.snapshot()["counters"]


class TestCache:
    def test_kernels_are_cached(self):
        clear_cache()
        k1 = load_kernel("prim_to_con", ndim=1)
        n = cache_size()
        k2 = load_kernel("prim_to_con", ndim=1)
        assert k1 is k2
        assert cache_size() == n

    def test_distinct_keys_cached_separately(self):
        clear_cache()
        load_kernel("flux", ndim=2, axis=0)
        load_kernel("flux", ndim=2, axis=1)
        load_kernel("flux", ndim=2, axis=0, target="flat")
        assert cache_size() == 3


class TestCextCacheCorruption:
    """A corrupt cached artifact must be evicted and rebuilt, not crash."""

    def test_corrupt_artifact_evicted_and_rebuilt(self, monkeypatch, tmp_path):
        import json
        import os
        import subprocess
        import sys

        from repro.codegen import cext as cext_mod

        if not cext_mod.cext_available(1):
            pytest.skip("no C toolchain")
        # Plant a corrupt artifact under the exact key a fresh process will
        # look up (CPython caches extension imports in-process, so the
        # eviction path only runs on a cold start — drive one).
        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path))
        kinds_axes = [("prim_to_con", 0)]
        name, _, _ = cext_mod.module_spec(1, kinds_axes)
        path = cext_mod.artifact_path(name)
        garbage = b"\x7fELF garbage, not a real shared object"
        path.write_bytes(garbage)

        env = dict(os.environ)
        env[cext_mod.CACHE_DIR_ENV] = str(tmp_path)
        probe = (
            "import json\n"
            "from repro.codegen import cext\n"
            "ffi, lib = cext.load_cext_module(1, [('prim_to_con', 0)])\n"
            "print(json.dumps({'builds': cext.build_count,"
            " 'loaded': lib is not None}))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, timeout=240, env=env,
        )
        assert out.returncode == 0, f"cold load crashed:\n{out.stderr}"
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result == {"builds": 1, "loaded": True}, (
            "corrupt artifact was not evicted and rebuilt"
        )
        assert path.read_bytes() != garbage, "corrupt artifact left in cache"


class TestFusedStencilParity:
    """The fused cext face-flux sweep vs the interpreted stages.

    Random smooth, discontinuous and near-luminal/atmosphere ghosted states
    through both pipelines for every reconstruction x Riemann combo: the
    compiled sweep must reproduce the interpreted divergence bitwise (FP
    contraction is off) *and* the sanitize counter totals exactly.
    """

    RECONS = ("pc", "minmod", "mc", "vanleer", "superbee", "ppm", "weno5", "wenoz")
    COMBOS = [
        (recon, riemann)
        for recon in RECONS
        for riemann in ("llf", "hll", "hllc")
    ]

    @staticmethod
    def _pipeline(
        target, recon, riemann, ndim=2, n_ghost=None, shape=None, n_batch=0, **kw
    ):
        from repro.boundary.conditions import BoundarySet
        from repro.core.batch import BatchGrid
        from repro.core.config import SolverConfig
        from repro.core.pipeline import HydroPipeline
        from repro.mesh.grid import Grid
        from repro.reconstruct import make_reconstruction

        if n_ghost is None:
            n_ghost = max(2, make_reconstruction(recon).required_ghosts)
        shape = shape or {1: (24,), 2: (12, 10), 3: (8, 6, 5)}[ndim]
        grid = Grid(shape, tuple((0.0, 1.0) for _ in shape), n_ghost=n_ghost)
        system = SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=len(shape))
        if n_batch:
            grid = BatchGrid(grid, n_batch)
        config = SolverConfig(
            reconstruction=recon, riemann=riemann, kernel_target=target, **kw
        )
        return HydroPipeline(system, grid, BoundarySet(), config)

    @staticmethod
    def _ghosted_prim(pipe, seed, discontinuous, extreme=False):
        rng = np.random.default_rng(seed)
        shape = (pipe.system.nvars,) + pipe.grid.shape_with_ghosts
        prim = np.zeros(shape)
        prim[pipe.system.RHO] = 10.0 ** rng.uniform(-4.0, 1.0, shape[1:])
        prim[pipe.system.P] = 10.0 ** rng.uniform(-6.0, 1.0, shape[1:])
        v = rng.uniform(-0.95, 0.95, (pipe.system.ndim,) + shape[1:])
        v2 = (v**2).sum(axis=0)
        cap = np.where(v2 > 0.98, np.sqrt(0.98 / np.maximum(v2, 1e-300)), 1.0)
        for ax in range(pipe.system.ndim):
            prim[pipe.system.V(ax)] = v[ax] * cap
        if discontinuous:
            # Axis-aligned jumps: the states TVD limiters are made for.
            prim[pipe.system.RHO, : shape[1] // 2] *= 1e3
            prim[pipe.system.P, ..., shape[-1] // 2 :] *= 1e4
        if extreme:
            # Near-luminal cells next to slow ones and rho/p scattered
            # around the atmosphere floors next to dense gas: face states
            # land past the W_max cap and below the floors, so both
            # sanitize repairs fire.
            fast = rng.random(shape[1:]) < 0.3
            for ax in range(pipe.system.ndim):
                prim[pipe.system.V(ax)][fast] = np.sign(v[ax][fast]) * np.sqrt(
                    0.99985 / pipe.system.ndim
                )
            thin = rng.random(shape[1:]) < 0.3
            n_thin = int(thin.sum())
            prim[pipe.system.RHO][thin] = pipe.config.rho_atmo * rng.uniform(0.5, 3.0, n_thin)
            prim[pipe.system.P][thin] = pipe.config.p_atmo * rng.uniform(0.5, 3.0, n_thin)
        return prim

    _COUNTERS = ("sanitize.velocity_rescaled", "sanitize.floored")

    @pytest.mark.parametrize("recon,riemann", COMBOS)
    def test_fused_sweep_bitwise_all_combos(self, recon, riemann):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.codegen import cext_available
        from repro.codegen.generator import STENCIL_TILE as T

        if not all(cext_available(nd) for nd in (1, 2, 3)):
            pytest.skip("no C toolchain")
        flat = self._pipeline("flat", recon, riemann)
        cext = self._pipeline("cext", recon, riemann)
        assert cext._fused_ids is not None, "fused sweep did not engage"
        # Tile edges: sweeps of 1 face .. two tiles and a remainder, along
        # each axis of a 1-/2-/3-D patch and a batched 1-D one (2T + 3 cells
        # long that way — dx is no power of two — 2 wide the others), built
        # on first draw.
        long_pairs: dict = {}

        def long_pair(ndim, n_batch, axis):
            key = (ndim, n_batch, axis)
            if key not in long_pairs:
                shape = tuple(2 * T + 3 if ax == axis else 2 for ax in range(ndim))
                long_pairs[key] = [
                    self._pipeline(t, recon, riemann, shape=shape, n_batch=n_batch)
                    for t in ("flat", "cext")
                ]
            return long_pairs[key]

        def stored_fluxes_agree(a, b):
            """b's stored face fluxes are a's, in arrays of their own."""
            assert list(a.last_face_fluxes) == list(b.last_face_fluxes)
            pool = [b.workspace.dU, b.workspace.prim, *b.workspace._bufs.values()]
            for ax, F in b.last_face_fluxes.items():
                assert F.tobytes() == a.last_face_fluxes[ax].tobytes(), ax
                assert not any(np.shares_memory(F, buf) for buf in pool)

        @given(
            seed=st.integers(min_value=0, max_value=2**32 - 1),
            discontinuous=st.booleans(),
            extreme=st.booleans(),
            store=st.booleans(),
            layout=st.sampled_from([(1, 0), (2, 0), (3, 0), (1, 1), (1, 5)]),
            n_faces=st.sampled_from(
                [1, 2, 3, 5, T - 1, T, T + 1, T + 2, 2 * T + 3, 2 * T + 4]
            ),
        )
        @settings(max_examples=10, deadline=None, database=None)
        def check(seed, discontinuous, extreme, store, layout, n_faces):
            prim = self._ghosted_prim(flat, seed, discontinuous, extreme)
            flat.store_fluxes = cext.store_fluxes = store
            with np.errstate(all="ignore"):
                div_flat = flat.flux_divergence(prim.copy())
            div_cext = cext.flux_divergence(prim.copy(), reuse=True)
            assert div_flat.tobytes() == div_cext.tobytes(), (
                f"{recon}/{riemann}: fused sweep differs bitwise"
            )
            stored_fluxes_agree(flat, cext)
            ndim, n_batch = layout
            axis = seed % ndim
            lflat, lcext = long_pair(ndim, n_batch, axis)
            prim = self._ghosted_prim(lflat, seed, discontinuous, extreme)
            lo = seed % (2 * T + 5 - n_faces)
            hi = lo + n_faces - 1
            with np.errstate(all="ignore"):
                ref = lflat._interpreted_face_flux(prim.copy(), axis, lo, hi, None)
            got = lcext._fused_face_flux(prim, axis, lo, hi, None)
            where = f"{recon}/{riemann}: {layout} axis {axis} faces [{lo}, {hi}]"
            assert got.tobytes() == np.ascontiguousarray(ref).tobytes(), where
            if n_faces > 1:
                # Differencing seams: the in-tile difference of a region
                # 1 .. 2T + 3 cells wide is the interpreted subtract/divide.
                lflat.store_fluxes = lcext.store_fluxes = store
                with np.errstate(all="ignore"):
                    ref = lflat.flux_divergence_region(prim.copy(), axis, lo, hi)
                got = lcext.flux_divergence_region(prim, axis, lo, hi, reuse=True)
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), where
                stored_fluxes_agree(lflat, lcext)
            for a, b in ((flat, cext), (lflat, lcext)):
                for counter in self._COUNTERS:
                    assert (
                        a.metrics.counter(counter).value
                        == b.metrics.counter(counter).value
                    ), f"{recon}/{riemann}: {counter} totals diverge"

        check()
        assert "reconstruct" not in cext.timers and "riemann" not in cext.timers

    def test_extreme_states_exercise_both_sanitize_repairs(self):
        """The near-luminal/atmosphere generator really drives the repairs
        whose counters the parity tests compare."""
        flat = self._pipeline("flat", "ppm", "hll")
        with np.errstate(all="ignore"):
            flat.flux_divergence(self._ghosted_prim(flat, 3, True, extreme=True))
        for counter in self._COUNTERS:
            assert flat.metrics.counter(counter).value > 0, counter

    @pytest.mark.parametrize("ndim", [1, 3])
    def test_fused_sweep_bitwise_other_ndims(self, ndim):
        from repro.codegen import cext_available

        if not cext_available(ndim):
            pytest.skip("no C toolchain")
        for recon in ("mc", "ppm", "weno5", "wenoz"):
            flat = self._pipeline("flat", recon, "hllc", ndim=ndim)
            cext = self._pipeline("cext", recon, "hllc", ndim=ndim)
            assert cext._fused_ids is not None
            for seed, extreme in ((1234, False), (4321, True)):
                prim = self._ghosted_prim(flat, seed, True, extreme)
                with np.errstate(all="ignore"):
                    div_flat = flat.flux_divergence(prim.copy())
                assert (
                    div_flat.tobytes() == cext.flux_divergence(prim.copy()).tobytes()
                ), f"{recon} {ndim}-D"
            for counter in self._COUNTERS:
                assert (
                    flat.metrics.counter(counter).value
                    == cext.metrics.counter(counter).value
                ), f"{recon} {ndim}-D: {counter}"

    @pytest.mark.parametrize("recon", ["mc", "ppm", "weno5", "wenoz"])
    def test_region_split_equals_full_sweep_slice(self, recon):
        """Any interior region [lo, hi) of the fused sweep is the matching
        slice of the full-axis sweep, on both axes — the property the
        overlapped solver's interior/strip split rests on."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.codegen import cext_available

        if not cext_available(2):
            pytest.skip("no C toolchain")
        flat = self._pipeline("flat", recon, "hll")
        cext = self._pipeline("cext", recon, "hll")

        @given(data=st.data(), seed=st.integers(0, 2**32 - 1), extreme=st.booleans())
        @settings(max_examples=8, deadline=None, database=None)
        def check(data, seed, extreme):
            prim = self._ghosted_prim(cext, seed, True, extreme)
            for axis, n in enumerate(cext.grid.shape):
                lo = data.draw(st.integers(0, n - 1))
                hi = data.draw(st.integers(lo + 1, n))
                full = cext.flux_divergence_region(prim, axis, 0, n).copy()
                part = cext.flux_divergence_region(prim, axis, lo, hi)
                assert part.tobytes() == full[..., lo:hi].tobytes(), (axis, lo, hi)
                with np.errstate(all="ignore"):
                    ref = flat.flux_divergence_region(prim, axis, lo, hi)
                assert part.tobytes() == ref.tobytes(), (axis, lo, hi)

        check()

    @pytest.mark.parametrize("limiter", ["minmod", "mc", "vanleer", "superbee"])
    def test_tvd_tile_seams(self, limiter):
        """pc/tvd ride the row tile too: sweeps that end just before, on and
        just after a tile boundary (and a single face) equal the interpreted
        faces byte for byte, along the contiguous and the strided axis."""
        from repro.boundary.conditions import BoundarySet
        from repro.codegen import cext_available
        from repro.codegen.generator import STENCIL_TILE
        from repro.core.config import SolverConfig
        from repro.core.pipeline import HydroPipeline
        from repro.mesh.grid import Grid

        if not cext_available(2):
            pytest.skip("no C toolchain")
        assert STENCIL_TILE == 128
        system = SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=2)
        for axis, shape in ((1, (3, 260)), (0, (260, 3))):
            grid = Grid(shape, ((0.0, 1.0), (0.0, 1.0)), n_ghost=2)
            pipes = [
                HydroPipeline(
                    system, grid, BoundarySet(),
                    SolverConfig(
                        reconstruction=limiter, riemann="hllc", kernel_target=t
                    ),
                )
                for t in ("flat", "cext")
            ]
            flat, cext = pipes
            prim = self._ghosted_prim(cext, 17, True, extreme=True)
            for n_faces in (1, 127, 128, 129, 257):
                for lo in (0, 3):
                    hi = lo + n_faces - 1
                    with np.errstate(all="ignore"):
                        ref = flat._interpreted_face_flux(prim.copy(), axis, lo, hi, None)
                    got = cext._fused_face_flux(prim, axis, lo, hi, None)
                    assert got.tobytes() == np.ascontiguousarray(ref).tobytes(), (
                        axis, n_faces, lo
                    )

    @pytest.mark.parametrize(
        "poison",
        ["nan", "+inf", "-inf", "superluminal", "negative_rho", "all_superluminal"],
    )
    def test_lanes_are_independent(self, poison):
        """One poisoned cell (astride a tile seam) changes only the faces
        whose stencil reaches it — every other face keeps the clean sweep's
        bytes — and those equal the interpreted faces, counters included: no
        tile-level repair and no select leaks across lanes.  With every cell
        superluminal the whole tile takes the rescale."""
        from itertools import product

        from repro.codegen import cext_available
        from repro.codegen.generator import (
            STENCIL_REACH,
            STENCIL_RECON_IDS,
            STENCIL_TILE,
        )

        if not cext_available(2):
            pytest.skip("no C toolchain")
        for (recon, riemann), (axis, shape) in product(
            product(("pc", "mc", "ppm", "wenoz"), ("llf", "hll", "hllc")),
            ((1, (2, 2 * STENCIL_TILE)), (0, (2 * STENCIL_TILE, 2))),
        ):
            flat = self._pipeline("flat", recon, riemann, shape=shape, n_ghost=3)
            cext = self._pipeline("cext", recon, riemann, shape=shape, n_ghost=3)
            system, g, n = cext.system, cext.grid.n_ghost, shape[axis]
            clean = self._ghosted_prim(cext, 23, False)
            bad = clean.copy()
            j = g - 1 + STENCIL_TILE  # left cell of the second tile's first face
            cell = [g, g]
            cell[axis] = j
            var, value = {
                "nan": (system.RHO, np.nan),
                "+inf": (system.P, np.inf),
                "-inf": (system.V(axis), -np.inf),
                "superluminal": (system.V(axis), 1.5),
                "negative_rho": (system.RHO, -1.0),
                "all_superluminal": (system.V(axis), 0.9999999),
            }[poison]
            want = cext._fused_face_flux(clean, axis, 0, n, None).copy()
            reached = np.zeros(want.shape, dtype=bool)  # (nvars, rows, faces)
            if poison == "all_superluminal":
                bad[var] = value
                reached[:] = True
            else:
                bad[(var, *cell)] = value
                left, right = STENCIL_REACH[
                    STENCIL_RECON_IDS.get(recon, STENCIL_RECON_IDS["tvd"])
                ]
                k = np.arange(n + 1) + g - 1  # left cell of each face
                reached[:, g, (k - left <= j) & (j <= k + right)] = True
            for pipe in (flat, cext):
                pipe.metrics.reset()
            with np.errstate(all="ignore"):
                ref = flat._interpreted_face_flux(bad.copy(), axis, 0, n, None)
            got = cext._fused_face_flux(bad, axis, 0, n, None)
            where = (poison, recon, riemann, axis)
            assert got[~reached].tobytes() == want[~reached].tobytes(), where
            assert (got[reached] != want[reached]).any(), where
            counts = [
                [p.metrics.counter(c).value for c in self._COUNTERS]
                for p in (flat, cext)
            ]
            if poison not in ("nan", "+inf", "-inf"):
                # rmin/rmax are np.minimum/np.maximum on non-NaN input only
                # (the prologue's contract) and an infinity is a NaN one
                # operation later, so those faces are not flat's; that the
                # NaN stays in them is asserted above.
                assert np.array_equal(got, ref, equal_nan=True), where
                assert counts[0] == counts[1], where
            if "superluminal" in poison:
                assert counts[1][0] >= (2 if poison == "superluminal" else 2 * n), where

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_every_combine_arm_equals_the_interpreted_solver(self, ndim):
        """The tile combines against ``RiemannSolver._combine`` on raw
        (state, flux, speed) rows — unphysical ones included, which is the
        only way into some arms: HLLC's ``|den| <= 1e-12``, ``lam_star``
        clipped at either end, each supersonic sector and both at once,
        HLL's collapsed fan."""
        from repro.codegen import cext as cext_mod
        from repro.codegen.generator import _PROLOGUE_C, STENCIL_TILE
        from repro.riemann import make_riemann_solver
        from repro.riemann.base import RiemannSolver

        if not cext_mod.cext_available(ndim):
            pytest.skip("no C toolchain")
        gen = KernelGenerator(ndim)
        nv, T = ndim + 2, STENCIL_TILE
        proto = (
            "void t_combine_ax%d(int riemann_id, const double* qin, "
            "const double* sdin, long m, double* F)"
        )
        body = f"""
{{
    double q[2][{nv}][{T}];
    double sd[2][{2 * nv + 2}][{T}];
    for (int r = 0; r < {2 * nv}; ++r)
        for (long i = 0; i < m; ++i) q[0][r][i] = qin[r * m + i];
    for (int r = 0; r < {2 * (2 * nv + 2)}; ++r)
        for (long i = 0; i < m; ++i) sd[0][r][i] = sdin[r * m + i];
    combine_tile_ax%d_{ndim}d(riemann_id, q[0], q[1], sd[0], sd[1], m, F, m);
}}
"""
        source = _PROLOGUE_C + "".join(
            gen.generate_c_combine_tile(ax) + proto % ax + body % ax
            for ax in range(ndim)
        )
        cdef = "".join(proto % ax + ";" for ax in range(ndim))
        name = cext_mod._artifact_name(f"_repro_test_combine_{ndim}d", source, cdef)
        ffi, lib = cext_mod._load_spec(name, source, cdef)

        rng = np.random.default_rng(5)
        m = T - 3
        q = rng.normal(size=(2, nv, m))
        sd = rng.normal(size=(2, 2 * nv + 2, m))
        lam = np.sort(rng.uniform(-1.0, 1.0, (2, 2, m)), axis=1)
        lam[:, :, 0:8] = np.abs(lam[:, :, 0:8]) + 0.01     # sL >= 0
        lam[:, :, 8:16] = -np.abs(lam[:, :, 8:16]) - 0.01  # sR <= 0
        lam[:, 0, 16:20], lam[:, 1, 16:20] = 0.1, -0.1     # both at once
        lam[:, :, 20:24] = 0.0                             # collapsed fan
        sd[:, 2 * nv :] = lam
        sd[:, : 2 * nv, 24:28] = 0.0                       # den == 0
        sd[:, : 2 * nv, 28:32] *= 1e-14                    # |den| <= 1e-12
        system = SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=ndim)
        for axis in range(ndim):
            fn = getattr(lib, f"t_combine_ax{axis}")
            for rid, solver in enumerate(("llf", "hll", "hllc")):
                got = np.empty((nv, m))
                fn(rid, ffi.from_buffer("double*", q), ffi.from_buffer("double*", sd),
                   m, ffi.from_buffer("double*", got))
                sL, sR = RiemannSolver._davis(lam[0].copy(), lam[1].copy())
                with np.errstate(all="ignore"):
                    ref = make_riemann_solver(solver)._combine(
                        system, q[0], q[1], sd[0, :nv].copy(), sd[1, :nv].copy(),
                        sd[0, nv : 2 * nv].copy(), sd[1, nv : 2 * nv].copy(),
                        sL, sR, axis, out=np.empty((nv, m)),
                    )
                assert got.tobytes() == ref.tobytes(), (ndim, axis, solver)
            # The arms these rows are meant to reach, recomputed plainly.
            (uL, FL), (uR, FR) = ((side[:nv], side[nv : 2 * nv]) for side in sd)
            sL, sR = RiemannSolver._davis(lam[0].copy(), lam[1].copy())
            assert (sL >= 0).any() and (sR <= 0).any() and ((sL >= 0) & (sR <= 0)).any()
            assert (np.maximum(sR, 0.0) - np.minimum(sL, 0.0) <= 1e-300).any()
            lo, hi, x = np.minimum(sL, -1e-12), np.maximum(sR, 1e-12), 1 + axis

            def hll(a, b, Fa, Fb):  # (state, flux) HLL averages
                return ((hi * b - lo * a + Fa - Fb) / (hi - lo),
                        (hi * Fa - lo * Fb + lo * hi * (b - a)) / (hi - lo))

            S, FS = hll(uL[x], uR[x], FL[x], FR[x])
            E, FE = hll(uL[-1] + uL[0], uR[-1] + uR[0], FL[-1] + FL[0], FR[-1] + FR[0])
            den = (E + FS) + np.sqrt(np.maximum((E + FS) ** 2 - 4.0 * FE * S, 0.0))
            ok = np.abs(den) > 1e-12
            lam_star = 2.0 * S[ok] / den[ok]
            assert (~ok).sum() == 8
            for arm in (lam_star < lo[ok], lam_star > hi[ok],
                        (lam_star >= 0) & (lam_star < hi[ok]),
                        (lam_star < 0) & (lam_star > lo[ok])):
                assert arm.sum() >= 4

    def test_clones_agree_bytewise(self):
        """The sweep the loader picked (avx2 here) against the same source
        built without ``REPRO_CLONES``: identical fluxes and counters on
        the hostile state, every reconstruction x Riemann id."""
        from repro.codegen import cext as cext_mod
        from repro.codegen.generator import (
            STENCIL_LIMITER_IDS,
            STENCIL_RECON_IDS,
            STENCIL_RIEMANN_IDS,
        )

        if not cext_mod.cext_available(2):
            pytest.skip("no C toolchain")
        if cext_mod.simd_level(2) == "baseline":
            pytest.skip("this host runs the default clone: nothing to compare")
        _, source, cdef = cext_mod.module_spec(2)
        # the tile filler, two sweeps, accumulate, the RK stage combination
        assert source.count("\nREPRO_CLONES\n") == 5
        plain = source.replace("\nREPRO_CLONES\n", "\n")
        libs = [
            cext_mod.load_cext_module(2),
            cext_mod._load_spec(
                cext_mod._artifact_name("_repro_test_noclone_2d", plain, cdef), plain, cdef
            ),
        ]
        pipe = self._pipeline("cext", "mc", "hllc", shape=(40, 150), n_ghost=3)
        prim = self._ghosted_prim(pipe, 11, True, extreme=True)
        rng = np.random.default_rng(11)
        prim[pipe.system.RHO][rng.random(prim.shape[1:]) < 0.01] *= -1.0
        prim[1:-1] *= rng.uniform(0.0, 1.3, prim.shape[1:])
        schemes = [(STENCIL_RECON_IDS["pc"], 0)] + [
            (STENCIL_RECON_IDS["tvd"], lim) for lim in STENCIL_LIMITER_IDS.values()
        ] + [(STENCIL_RECON_IDS[r], 0) for r in ("ppm", "weno5", "wenoz")]
        for axis, (recon_id, limiter_id), riemann_id in (
            (ax, sch, rid)
            for ax in (0, 1) for sch in schemes for rid in STENCIL_RIEMANN_IDS.values()
        ):
            offs = pipe._face_row_offsets(prim, axis)
            n_faces = pipe.grid.shape[axis] + 1
            results = []
            for ffi, lib in libs:
                out = np.empty((4, offs.size, n_faces))
                counts = cext_mod.run_face_flux(
                    ffi, getattr(lib, f"face_flux_ax{axis}_2d_cext"), prim, axis,
                    offs, 2, n_faces, out,
                    axis_stride=prim.strides[axis + 1] // prim.itemsize,
                    gamma=5.0 / 3.0, vmax2=1.0 - 1e-4, rho_atmo=1e-10, p_atmo=1e-12,
                    recon_id=recon_id, limiter_id=limiter_id, riemann_id=riemann_id,
                )
                results.append((out.tobytes(), counts.tolist()))
            assert results[0] == results[1], (axis, recon_id, limiter_id, riemann_id)
            assert min(results[0][1]) > 0

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_every_lane_loop_is_vectorised(self, ndim):
        """Tripwire: gcc reports "loop vectorized" for every loop the
        generator marks ``/* lanes */`` — the three tail stages and the row
        fillers.  A branch, a conditional load or a call added to one of
        them fails here, not in a benchmark three PRs later."""
        import re
        import subprocess
        import sysconfig

        from repro.codegen import cext as cext_mod

        cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
        if not cext_mod.cext_available(ndim):
            pytest.skip("no C toolchain")
        if "gcc" not in cext_mod._compiler_version(cc).lower():
            pytest.skip("the vectorisation report read here is gcc's")
        source = KernelGenerator(ndim).generate_c_module()
        marked = [
            i for i, line in enumerate(source.splitlines(), 1) if "/* lanes */" in line
        ]
        # sanitize + face_side, three combines and the in-tile difference
        # per axis; 4 limiters and the tvd edges, 3 ppm loops, weno5, wenoz;
        # the contiguous accumulate row and the three RK stage forms
        assert len(marked) == 1 + 5 * ndim + 10 + 1 + 3
        proc = subprocess.run(
            [*cc.split(), *cext_mod.CFLAGS, "-fopt-info-vec-optimized", "-x", "c",
             "-c", "-", "-o", os.devnull],
            input=source, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        vectorised = {
            int(line) for line in
            re.findall(r"^<stdin>:(\d+):\d+: optimized: loop vectorized", proc.stderr, re.M)
        }
        missing = [
            (i, source.splitlines()[i - 1].strip()) for i in marked if i not in vectorised
        ]
        assert not missing, missing

    def test_unsupported_scheme_keeps_interpreted_path(self):
        """A scheme the emitter has never seen — here subclasses the
        scheme->ids map matches out; every registered scheme is compiled —
        has an interpreted form only: the map is total and refuses it by
        name, so it can never ride the compiled sweep silently."""
        from repro.codegen import cext_available, stencil_scheme_ids
        from repro.reconstruct import PPM
        from repro.riemann import make_riemann_solver

        if not cext_available(2):
            pytest.skip("no C toolchain")

        class SteepenedPPM(PPM):
            name = "steepened-ppm"

        hll = make_riemann_solver("hll")

        class Exotic(type(hll)):
            name = "exotic"

        with pytest.raises(CodegenError, match="reconstruction.*steepened-ppm"):
            stencil_scheme_ids(SteepenedPPM(), hll)
        with pytest.raises(CodegenError, match="Riemann solver"):
            stencil_scheme_ids(PPM(), Exotic())
        assert stencil_scheme_ids(PPM(), hll) is not None

        fused = self._pipeline("cext", "ppm", "hll")
        plain = self._pipeline("flat", "ppm", "hll")
        plain.reconstruction = SteepenedPPM()
        prim = self._ghosted_prim(fused, 5, False)
        assert (
            plain.flux_divergence(prim.copy()).tobytes()
            == fused.flux_divergence(prim.copy()).tobytes()
        )
        assert "reconstruct" in plain.timers and "face_flux" not in plain.timers

    def test_out_of_bounds_region_is_refused_before_c(self):
        """The C sweep reads its stencil unchecked; a region whose reach
        leaves the array must raise in Python, naming axis/region/reach."""
        from repro.codegen import cext_available

        if not cext_available(2):
            pytest.skip("no C toolchain")
        pipe = self._pipeline("cext", "ppm", "hll")
        prim = self._ghosted_prim(pipe, 1, False)
        n = pipe.grid.shape[1]
        pipe.flux_divergence_region(prim, 1, 0, n)  # the full sweep fits
        with pytest.raises(CodegenError, match=r"axis 1.*reach \(-2, \+3\)"):
            pipe.flux_divergence_region(prim, 1, 0, n + 1)
        with pytest.raises(CodegenError, match="axis 0"):
            pipe.flux_divergence_region(prim, 0, -1, 4)
        # The same region is legal for a narrower stencil on the same grid.
        narrow = self._pipeline("cext", "mc", "hll", n_ghost=3)
        narrow.flux_divergence_region(prim, 1, 0, n + 1)

    def test_strided_prim_is_copied_contiguous(self):
        """C walks raw offsets, so a fused pipeline handed a non-contiguous
        prim sweeps a contiguous copy: bytes unchanged, still compiled."""
        from repro.codegen import cext_available

        if not cext_available(2):
            pytest.skip("no C toolchain")
        pipe = self._pipeline("cext", "ppm", "hll")
        prim = self._ghosted_prim(pipe, 8, True)
        want = pipe.flux_divergence(prim.copy()).tobytes()
        strided = np.empty(prim.shape + (2,))[..., 0]
        strided[...] = prim
        assert not strided.flags.c_contiguous
        assert pipe.flux_divergence(strided).tobytes() == want
        assert "reconstruct" not in pipe.timers


class TestCompiledRecovery:
    """One compiled pass per recovery sweep and per CFL scan: ``cext`` is
    ``flat`` byte for byte — primitives (ghosts included), the floored
    conserved state, the next seed, every metric by name — on the hot path
    and on each route off it."""

    LAYOUTS = ("1d", "2d", "3d", "batch1", "batch5")
    _RESOLVED: dict = {}

    @staticmethod
    def _grid_system(layout):
        from repro.core.batch import BatchGrid
        from repro.mesh.grid import Grid

        shape = {"1d": (24,), "2d": (10, 12), "3d": (6, 5, 7)}.get(layout, (16,))
        grid = Grid(shape, tuple((0.0, 1.0) for _ in shape), n_ghost=3)
        system = SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=len(shape))
        if layout.startswith("batch"):
            grid = BatchGrid(grid, int(layout[5:]))
        return grid, system

    @classmethod
    def _pair(cls, layout, injector=None, **cfg):
        """``{"flat": pipeline, "cext": pipeline}`` on one layout (skips
        without a C toolchain)."""
        from repro.boundary import make_boundaries
        from repro.codegen import cext_available
        from repro.core.batch import batch_boundaries
        from repro.core.config import SolverConfig
        from repro.core.pipeline import HydroPipeline, resolve_kernel_system

        grid, system = cls._grid_system(layout)
        if not cext_available(system.ndim):
            pytest.skip("no C toolchain")
        bcs = make_boundaries("outflow")
        if layout.startswith("batch"):
            bcs = batch_boundaries(bcs, grid)
        # Resolved once per (ndim, target): a resolution regenerates and
        # hashes the C source, and the properties build many pipelines.
        resolved = cls._RESOLVED.setdefault(system.ndim, {})
        for target in ("flat", "cext"):
            if target not in resolved:
                resolved[target] = resolve_kernel_system(system, target)
        pipes = {
            target: HydroPipeline(
                resolved[target], grid, bcs,
                SolverConfig(kernel_target=target, **cfg),
                fault_injector=injector() if injector else None,
            )
            for target in ("flat", "cext")
        }
        assert hasattr(pipes["cext"].system, "recover")
        assert not hasattr(pipes["flat"].system, "recover")
        return pipes

    @staticmethod
    def _cons(pipe, seed, pokes=()):
        """A ghosted conserved state every cell of which Newton recovers,
        then *pokes* ``(kind, where)`` that each force one branch of the
        floors, on two cells: the one *where* (in [0, 1)) of the way through
        the ghosted block and the one that far through the interior."""
        system, grid, atmo = pipe.system, pipe.grid, pipe.atmosphere
        rng = np.random.default_rng(seed)
        prim = random_prim(system, grid.shape_with_ghosts, rng, vmax=0.9)
        cons = SRHDSystem.prim_to_con(system, prim)
        flat = cons.reshape(system.nvars, -1)
        S = slice(1, 1 + system.ndim)
        cells = np.arange(flat.shape[1]).reshape(grid.shape_with_ghosts)
        inner = grid.interior_of(cells[None])[0].ravel()
        for kind, where in pokes:
            i = [int(where * cells.size), inner[int(where * inner.size)]]
            if kind == "d_floor":  # D < rho_atmo: D floored, S zeroed
                flat[system.D, i] = 0.5 * atmo.rho_atmo
            elif kind == "tau_floor":  # tau < p_atmo (and negative)
                flat[:, i] = np.array([[1e-9, *[0.0] * system.ndim, -1.0]]).T
            elif kind == "cap":  # |S| far above the w_max cap, on a hot cell
                flat[:, i] = np.array([[1.0, -1e3, *[0.0] * (system.ndim - 1), 10.0]]).T
            elif kind == "thin":  # recovers rho under the reset threshold
                flat[:, i] = np.array([[5.0 * atmo.rho_atmo, *[0.0] * system.ndim, 1e-9]]).T
            elif kind == "negzero":  # signed zeros survive S / Q
                flat[S, i] = -0.0
        return cons

    @staticmethod
    def _sweep(pipe, cons, reuse):
        """Everything one sweep leaves behind, comparable with ``==``."""
        from repro.utils.errors import RecoveryError

        cons = cons.copy()
        try:
            with np.errstate(all="ignore"):
                prim = pipe.recover_primitives(cons, reuse=reuse).tobytes()
        except RecoveryError as exc:
            prim = ("raised", exc.n_failed, np.asarray(exc.indices).tolist())
        seed = pipe.warm_state()
        return {
            "prim": prim,
            "cons": cons.tobytes(),
            "seed": None if seed is None else seed.tobytes(),
            "metrics": pipe.metrics.snapshot(),
        }

    @staticmethod
    def _interpreted_solves(monkeypatch):
        """Calls of the interpreted ``con_to_prim`` from any pipeline."""
        import repro.core.pipeline as pipeline_mod

        calls = []
        real = pipeline_mod.con_to_prim

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "con_to_prim", counting)
        return calls

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_every_floor_branch_on_the_hot_path(self, layout, monkeypatch):
        # A low cap keeps the capped cells (W = 4) within Newton's reach.
        pipes = self._pair(layout, w_max=4.0)
        kinds = ("d_floor", "tau_floor", "cap", "thin", "negzero")
        pokes = [(k, (2 * j + 1) / 20) for j, k in enumerate(kinds)]
        pokes += [(k, 0.5 + (2 * j + 1) / 21) for j, k in enumerate(kinds)]
        cons = self._cons(pipes["flat"], 3, pokes)
        assert (np.signbit(cons[1]) & (cons[1] == 0.0)).any()
        got = {}
        for reuse in (True, False):
            for target, pipe in pipes.items():
                calls = self._interpreted_solves(monkeypatch)
                # cold seed, then warm seed on a nudged state
                got[target] = [
                    self._sweep(pipe, cons, reuse),
                    self._sweep(pipe, cons * 1.01, reuse),
                ]
                assert len(calls) == (2 if target == "flat" else 0)
                monkeypatch.undo()
            assert got["cext"] == got["flat"], reuse
        counters = got["cext"][-1]["metrics"]["counters"]
        for name in ("atmo.cons_floored", "limiter.momentum_rescaled", "atmo.prim_reset"):
            assert counters[name] > 0, name
        assert counters["con2prim.bisection"] == counters["con2prim.failed"] == 0

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_recover_parity_property(self, layout):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        poke = st.tuples(
            st.sampled_from(
                ["d_floor", "tau_floor", "cap", "thin", "negzero", "hard"]
            ),
            st.floats(0.0, 1.0, exclude_max=True),
        )

        @given(
            seed=st.integers(0, 2**32 - 1),
            pokes=st.lists(poke, max_size=8),
            reuse=st.booleans(),
            warm=st.booleans(),
            w_max=st.sampled_from([4.0, 100.0]),
        )
        @settings(max_examples=25, deadline=None, database=None)
        def check(seed, pokes, reuse, warm, w_max):
            pipes = self._pair(layout, w_max=w_max)
            cons = self._cons(pipes["flat"], seed, pokes)
            flat = cons.reshape(cons.shape[0], -1)
            for kind, where in pokes:
                if kind == "hard":  # W ~ 60, cold: Newton runs out, bisection
                    i = int(where * flat.shape[1])
                    cell = np.zeros((cons.shape[0], 1))
                    cell[0], cell[1], cell[-1] = 1e-3, np.sqrt(1 - 1 / 60.0**2), 1e-9
                    flat[:, i] = SRHDSystem.prim_to_con(pipes["flat"].system, cell)[:, 0]
            got = {}
            for target, pipe in pipes.items():
                got[target] = [self._sweep(pipe, cons, reuse)]
                if warm:
                    got[target].append(self._sweep(pipe, cons * 0.99, reuse))
            assert got["cext"] == got["flat"]

        check()

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_max_signal_is_the_handwritten_scan(self, layout):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.time_integration.cfl import max_signal_per_axis

        pipes = self._pair(layout)
        grid, plain = self._grid_system(layout)

        @given(seed=st.integers(0, 2**32 - 1), vmax=st.sampled_from([0.5, 0.99, 0.99999]))
        @settings(max_examples=15, deadline=None, database=None)
        def check(seed, vmax):
            rng = np.random.default_rng(seed)
            prim = random_prim(plain, grid.shape_with_ghosts, rng, vmax=vmax)
            prim[plain.P] *= 10.0 ** rng.uniform(-9, 2, prim[0].shape)
            want = max_signal_per_axis(plain, grid, prim)
            assert pipes["cext"].max_signal_per_axis(prim) == want
            # ... and so does flat, whose own char_speeds is the generated kind
            assert pipes["flat"].max_signal_per_axis(prim) == want

        check()
        prim = random_prim(plain, grid.shape_with_ghosts, np.random.default_rng(1))
        grid.interior_of(prim)[plain.P].flat[3] = np.nan
        ghost_only = prim.copy()
        for target in ("flat", "cext"):
            assert np.isnan(pipes[target].max_signal_per_axis(prim)).all(), target
        ghost_only[...] = np.nan
        grid.interior_of(ghost_only)[...] = 1.0
        grid.interior_of(ghost_only)[1 : 1 + plain.ndim] = 0.0
        assert pipes["cext"].max_signal_per_axis(ghost_only) == max_signal_per_axis(
            plain, grid, ghost_only
        )

    def _hard_cons(self, pipe, fail=False):
        """Newton-hostile cells: the atmosphere-scale state of
        ``test_srhd.py::test_bisection_at_atmosphere_scale``, cold W ~ 60
        cells that need bisection, and (*fail*) one cell outside the
        admissible set that nothing recovers (ROADMAP direction 1)."""
        system, grid = pipe.system, pipe.grid
        cons = self._cons(pipe, 11, [("cap", 0.3)])
        interior = grid.interior_of(cons)
        cell = np.array([[1e-8, 1e-3, 1e-3], [0.0, 0.99986, -0.99986], [1e-12, 1e-9, 1e-9]])
        interior[:, 2:5] = SRHDSystem.prim_to_con(system, cell)
        if fail:
            interior[:, 12] = [6.53e-3, 6.531e-3, 1e-12]
        return cons

    @pytest.mark.parametrize("failsafe_frac", [0.0, 0.25])
    @pytest.mark.parametrize("fail", [False, True])
    def test_unconverged_cells_take_the_interpreted_solve(
        self, fail, failsafe_frac, monkeypatch
    ):
        pipes = self._pair("1d", failsafe_frac=failsafe_frac)
        cons = self._hard_cons(pipes["flat"], fail)
        calls = self._interpreted_solves(monkeypatch)
        got = {t: self._sweep(pipe, cons, True) for t, pipe in pipes.items()}
        assert len(calls) == 2  # cext fell back to the same interpreted solve
        assert got["cext"] == got["flat"]
        counters = got["cext"]["metrics"]["counters"]
        assert counters["con2prim.bisection"] >= 2
        assert counters["con2prim.failed"] == (1 if fail else 0)
        assert counters["limiter.momentum_rescaled"] >= 1  # once, not twice
        if fail and not failsafe_frac:
            assert got["cext"]["prim"] == ("raised", 1, [12])
            assert got["cext"]["seed"] is None  # nothing committed
        else:
            assert counters.get("resilience.failsafe_cells", 0) == (1 if fail else 0)
        # The next sweep is warm (or still cold) on both, and equal again.
        again = {t: self._sweep(pipe, cons * 1.001, True) for t, pipe in pipes.items()}
        assert again["cext"] == again["flat"]

    @pytest.mark.parametrize("n_burst", [3, 20])
    def test_injected_burst_sits_between_solve_and_floor(self, n_burst, monkeypatch):
        from repro.resilience.faults import Con2PrimFault, FaultInjector, FaultPlan

        def injector():
            return FaultInjector(
                FaultPlan(con2prim=[Con2PrimFault(sweep=1, n_cells=n_burst)])
            )

        pipes = self._pair("2d", injector=injector, failsafe_frac=0.1)
        cons = self._cons(pipes["flat"], 5, [("thin", 0.4)])
        calls = self._interpreted_solves(monkeypatch)
        got = {
            t: [self._sweep(pipe, cons * f, True) for f in (1.0, 1.01, 1.02)]
            for t, pipe in pipes.items()
        }
        assert len(calls) == 3  # flat's; cext solved compiled, finished interpreted
        assert got["cext"] == got["flat"]
        assert pipes["cext"].fault_injector._sweep == pipes["flat"].fault_injector._sweep == 2
        if n_burst == 3:  # within budget: reset, counted, p_atmo in the seed
            counters = got["cext"][-1]["metrics"]["counters"]
            assert counters["resilience.failsafe_cells"] == 3
            assert counters["atmo.prim_reset"] >= 4
        else:
            assert got["cext"][1]["prim"][0] == "raised"

    def test_noncontiguous_cons_is_floored_in_place_not_copied(self, monkeypatch):
        pipes = self._pair("2d")
        cons = self._cons(pipes["flat"], 9, [("d_floor", 0.5), ("cap", 0.7)])
        want = self._sweep(pipes["flat"], cons, False)
        strided = np.asfortranarray(cons)
        assert not strided.flags.c_contiguous
        calls = self._interpreted_solves(monkeypatch)
        prim = pipes["cext"].recover_primitives(strided)
        assert len(calls) == 1
        assert prim.tobytes() == want["prim"]
        assert np.ascontiguousarray(strided).tobytes() == want["cons"]  # floors landed
        assert pipes["cext"].metrics.snapshot() == want["metrics"]

    def test_rows_that_leave_the_block_are_refused_before_c(self):
        from repro.codegen import cext as cext_mod

        offsets, interior = cext_mod.interior_rows((8, 9), 2)
        assert interior == (4, 5) and offsets.tolist() == [2 * 9 + 2 + 9 * r for r in range(4)]
        assert not offsets.flags.writeable
        for shape, g in (((4, 9), 2), ((8, 4), 2), ((8,), -1)):
            with pytest.raises(CodegenError, match="no interior"):
                cext_mod.interior_rows(shape, g)
        pipes = self._pair("2d")
        system, grid = pipes["cext"].system, pipes["cext"].grid
        cons = self._cons(pipes["cext"], 1)
        prim = np.zeros_like(cons)
        seed = np.empty(grid.shape)
        params = dict(
            tol=1e-12, p_floor=1e-16, max_newton=50, rho_atmo=1e-10, p_atmo=1e-12,
            rho_reset=1e-9, vmax=0.99, solve_only=False,
        )
        for bad in (
            dict(prim=prim[:, 1:]),  # another shape
            dict(prim=np.asfortranarray(prim)),
            dict(next_seed=seed[1:]),
            dict(seed=seed.astype(np.float32)),
        ):
            args = dict(cons=cons, prim=prim, seed=None, next_seed=seed) | bad
            before = cons.copy()
            with pytest.raises(CodegenError, match="C-contiguous float64"):
                system.recover(
                    args["cons"], args["prim"], grid.n_ghost, args["seed"],
                    args["next_seed"], **params,
                )
            assert cons.tobytes() == before.tobytes()  # refused before C ran


class TestCompiledUpdate:
    """The compiled update stage — ``accumulate`` and ``rk_stage`` — against
    the interpreted expressions it replaces on ``cext``, bytewise.  (The
    third piece, the sweep's in-tile difference, rides
    ``TestFusedStencilParity::test_fused_sweep_bitwise_all_combos``.)"""

    LAYOUTS = [(1, 0), (2, 0), (3, 0), (1, 1), (1, 5)]
    POISONS = (np.nan, np.inf, -np.inf, -0.0)

    @staticmethod
    def _pair(layout):
        ndim, n_batch = layout
        return [
            TestFusedStencilParity._pipeline(t, "mc", "hll", ndim=ndim, n_batch=n_batch)
            for t in ("flat", "cext")
        ]

    def test_any_partition_accumulates_to_the_full_sweep(self):
        """Every axis cut into arbitrary regions, each differenced by the
        sweep and accumulated in ascending axis order by the kernel, is
        ``flat``'s ``dU`` (3-D included), ghosts still exactly +0.0; and a
        NaN / +-inf / -0.0 entry of a region's divergence lands in its own
        cell only, as the interpreted ``target -= div`` puts it there."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.codegen import cext_available

        if not all(cext_available(nd) for nd in (1, 2, 3)):
            pytest.skip("no C toolchain")
        pairs = {layout: self._pair(layout) for layout in self.LAYOUTS}

        @given(
            data=st.data(),
            seed=st.integers(0, 2**32 - 1),
            layout=st.sampled_from(self.LAYOUTS),
            poison=st.sampled_from(self.POISONS),
        )
        @settings(max_examples=25, deadline=None, database=None)
        def check(data, seed, layout, poison):
            flat, cext = pairs[layout]
            assert cext._accumulate_kernel is not None and flat._accumulate_kernel is None
            prim = TestFusedStencilParity._ghosted_prim(cext, seed, True)
            with np.errstate(all="ignore"):
                want = flat.flux_divergence(prim.copy())
            regions = []
            for axis in range(cext.system.ndim):
                n = cext.grid.shape[axis]
                cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=3)))
                regions += [(axis, lo, hi) for lo, hi in zip([0, *cuts], [*cuts, n])]
            divs = [
                (axis, lo, hi, cext.flux_divergence_region(prim, axis, lo, hi).copy())
                for axis, lo, hi in data.draw(st.permutations(regions))
            ]
            divs.sort(key=lambda e: e[0])
            dU = cext.begin_flux_divergence(reuse=True)
            for axis, lo, hi, div in divs:
                cext.accumulate_divergence(dU, axis, lo, hi, div)
            assert dU.tobytes() == want.tobytes(), (layout, regions)
            ghosts = np.ones(dU.shape, dtype=bool)
            cext.grid.interior_of(ghosts)[...] = False
            assert dU[ghosts].tobytes() == np.zeros(int(ghosts.sum())).tobytes()
            # One poisoned entry per region, through both accumulates.
            rng = np.random.default_rng(seed)
            for _axis, _lo, _hi, div in divs:
                div.reshape(-1)[rng.integers(div.size)] = poison
            got, ref = (p.begin_flux_divergence() for p in (cext, flat))
            with np.errstate(all="ignore"):
                for axis, lo, hi, div in divs:
                    cext.accumulate_divergence(got, axis, lo, hi, div)
                    flat.accumulate_divergence(ref, axis, lo, hi, div)
            assert got.tobytes() == ref.tobytes(), (layout, poison)
            changed = got.view(np.uint64) != dU.view(np.uint64)
            assert changed.sum() <= len(divs) and not changed[ghosts].any()

        check()

    def test_strided_state_takes_the_interpreted_pass_uncopied(self):
        """A non-contiguous ``dU`` / ``div`` / state is never copied
        contiguous: the interpreted pass writes the array it was handed."""
        from repro.codegen import cext_available

        if not cext_available(2):
            pytest.skip("no C toolchain")
        flat, cext = self._pair((2, 0))
        calls = []
        for hook in ("_accumulate_kernel", "_rk_stage_kernel"):
            inner = getattr(cext, hook)
            setattr(cext, hook, lambda *a, _inner=inner: (calls.append(1), _inner(*a))[1])
        prim = TestFusedStencilParity._ghosted_prim(cext, 4, True)
        n = cext.grid.shape[0]
        div = cext.flux_divergence_region(prim, 0, 0, n).copy()
        want = flat.begin_flux_divergence()
        flat.accumulate_divergence(want, 0, 0, n, div)
        wide = np.zeros(want.shape + (2,))
        cext.accumulate_divergence(wide[..., 0], 0, 0, n, div)
        assert not calls and not wide[..., 1].any()
        assert np.ascontiguousarray(wide[..., 0]).tobytes() == want.tobytes()
        dU = cext.begin_flux_divergence()
        cext.accumulate_divergence(dU, 0, 0, n, np.asfortranarray(div))
        assert not calls and dU.tobytes() == want.tobytes()
        stage = (1, 0.75, 0.25)
        out = cext.combine_stage(stage, wide[..., 0], want, 0.1, dU)
        assert not calls
        assert out.tobytes() == (0.75 * wide[..., 0] + 0.25 * (want + 0.1 * dU)).tobytes()
        cext.combine_stage(stage, want, want, 0.1, dU)
        cext.accumulate_divergence(dU, 0, 0, n, div)
        assert len(calls) == 2  # ... and contiguous float64 arrays do reach C

    def test_regions_that_leave_the_interior_are_refused_before_c(self):
        from repro.codegen import cext_available

        if not cext_available(2):
            pytest.skip("no C toolchain")
        _, cext = self._pair((2, 0))
        system, g, (nx, ny) = cext.system, cext.grid.n_ghost, cext.grid.shape
        dU = cext.begin_flux_divergence()
        div = np.ones((system.nvars, ny, nx))
        for lo, hi, d in ((0, nx + 1, div), (-1, nx - 1, div), (3, 3, div[..., :0]),
                          (0, nx, div[..., 1:]), (0, nx, div[:, 1:])):
            with pytest.raises(CodegenError, match="does not fit the interior"):
                system.accumulate(dU, 0, g, lo, hi, np.ascontiguousarray(d))
        assert not dU.any()
        state = np.zeros((3, 8))
        for out in (state, state[:2], np.zeros((3, 8), dtype=np.float32)):
            with pytest.raises(CodegenError, match="aliases|C-contiguous float64"):
                system.rk_stage((0, 1.0, 1.0), state, state, 0.1, state + 1.0, out)
        with pytest.raises(CodegenError, match="aliases"):
            system.rk_stage((1, 0.5, 0.5), state, state + 1.0, 0.1, state + 2.0, state[1:2])
        assert not state.any()

    @pytest.mark.parametrize("name", ["euler", "ssprk2", "ssprk3"])
    def test_every_stage_is_the_numpy_expression(self, name):
        """``rk_stage`` == ``combine_stage`` bytewise, stage by stage of each
        integrator's table, on random, denormal, signed-zero, infinite and
        NaN inputs; the table reproduces the integrator's abscissae and the
        three formulas written out."""
        from repro.codegen import cext_available
        from repro.time_integration.ssprk import combine_stage, make_integrator

        integ = make_integrator(name)
        # c_0 = 0; a stage advances the previous one by dt and weighs it b.
        c, abscissae = 0.0, []
        for form, a, b in integ.table:
            abscissae.append(c)
            c = b * (c + 1.0)
            assert (1.0 / a if form == 2 else a) + b == pytest.approx(1.0 + (form == 0))
        assert tuple(abscissae) == integ.stage_fractions and c == 1.0
        u = np.array([1.0, -2.5])
        want = {
            "euler": lambda k: u + 0.3 * k(u),
            "ssprk2": lambda k: 0.5 * u + 0.5 * ((u + 0.3 * k(u)) + 0.3 * k(u + 0.3 * k(u))),
            "ssprk3": lambda k: u / 3.0 + (2.0 / 3.0) * (
                (u2 := 0.75 * u + 0.25 * ((u1 := u + 0.3 * k(u)) + 0.3 * k(u1)))
                + 0.3 * k(u2)
            ),
        }[name](np.cos)
        assert integ.step(u, 0.3, np.cos).tobytes() == want.tobytes()
        if not cext_available(1):
            pytest.skip("no C toolchain")
        pipe = TestFusedStencilParity._pipeline("cext", "mc", "hll", ndim=1)
        rng = np.random.default_rng(5)
        shape = (pipe.system.nvars,) + pipe.grid.shape_with_ghosts
        special = np.array([0.0, -0.0, 5e-324, -2e-310, np.inf, -np.inf, np.nan, 1e308])
        U, V, k = (
            np.where(rng.random(shape) < 0.4, rng.choice(special, shape),
                     rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, shape))
            for _ in range(3)
        )
        for i, stage in enumerate(integ.table):
            final = i + 1 == len(integ.table)
            prev = U if i == 0 else V
            with np.errstate(all="ignore"):
                ref = combine_stage(stage, U, prev, 0.37, k)
            got = pipe.combine_stage(stage, U, prev, 0.37, k, final)
            assert got.tobytes() == ref.tobytes(), stage
            in_ws = any(got is b for b in pipe.workspace._bufs.values())
            assert in_ws != final  # intermediates recycled, the result owned
            V = got

    @pytest.mark.parametrize("integrator", ["euler", "ssprk2", "ssprk3"])
    def test_five_steps_every_driver_cext_equals_flat(self, integrator):
        """The whole update stage end to end: every driver's state after
        five steps of every integrator, ``cext`` against ``flat``."""
        from repro.boundary import make_boundaries
        from repro.codegen import cext_available
        from repro.core.amr_solver import AMRConfig, AMRSolver
        from repro.core.batch import BatchSolver
        from repro.core.config import SolverConfig
        from repro.core.distributed import DistributedSolver
        from repro.core.solver import Solver
        from repro.mesh.grid import Grid
        from repro.physics.initial_data import RP1, RP2, blast_wave_2d, shock_tube

        if not (cext_available(1) and cext_available(2)):
            pytest.skip("no C toolchain")
        system2 = SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=2)
        grid2 = Grid((24, 20), ((0.0, 1.0), (0.0, 1.0)))
        blast = dict(p_in=10.0, p_out=1.0, radius=0.2)
        prim2 = blast_wave_2d(system2, grid2, **blast)
        system1 = SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1)
        grid1 = Grid((64,), ((0.0, 1.0),))
        tubes = [shock_tube(system1, grid1, rp) for rp in (RP1, RP2, RP1)]

        def states(target):
            config = SolverConfig(kernel_target=target, integrator=integrator, cfl=0.4)
            periodic = make_boundaries("periodic")
            solver = Solver(system2, grid2, prim2.copy(), config, periodic)
            batch = BatchSolver(
                system1, grid1, [p.copy() for p in tubes], config,
                make_boundaries("outflow"),
            )
            ranks = [
                DistributedSolver(
                    system2, grid2, prim2.copy(), (2, 2), boundaries=periodic,
                    config=SolverConfig(
                        kernel_target=target, integrator=integrator, cfl=0.4,
                        overlap_exchange=overlap,
                    ),
                )
                for overlap in (False, True)
            ]
            amr = AMRSolver(
                system2, Grid((32, 32), ((0, 1), (0, 1))),
                lambda s, g: blast_wave_2d(s, g, **blast), config,
                AMRConfig(block_size=8, max_levels=2, regrid_interval=2),
            )
            out = []
            for driver in (solver, batch, *ranks, amr):
                for _ in range(5):
                    driver.step()
                out.append(driver.t)
            out += [solver.cons.tobytes(), batch.cons.tobytes()]
            out += [r.cons[k].tobytes() for r in ranks for k in sorted(r.cons)]
            out += [amr.forest.leaves[k].cons.tobytes() for k in sorted(amr.forest.leaves)]
            return out

        assert states("cext") == states("flat")


class TestFusedSolverDigest:
    """End to end: a wide-stencil cext run is the flat run, byte for byte."""

    def test_kh_ppm_hll_20_steps_cext_equals_flat(self):
        import hashlib

        from repro.boundary import make_boundaries
        from repro.codegen import cext_available
        from repro.core.config import SolverConfig
        from repro.core.solver import Solver
        from repro.mesh.grid import Grid
        from repro.physics.initial_data import kelvin_helmholtz_2d

        if not cext_available(2):
            pytest.skip("no C toolchain")
        system = SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=2)
        grid = Grid((48, 48), ((0.0, 1.0), (0.0, 1.0)), n_ghost=3)
        prim0 = kelvin_helmholtz_2d(system, grid, seed=7)
        digests = {}
        for target in ("flat", "cext"):
            config = SolverConfig(
                kernel_target=target, cfl=0.4, reconstruction="ppm", riemann="hll"
            )
            solver = Solver(
                system, grid, prim0.copy(), config, make_boundaries("periodic")
            )
            for _ in range(20):
                solver.step()
            digests[target] = hashlib.sha256(
                np.ascontiguousarray(solver.interior_primitives()).tobytes()
            ).hexdigest()
            if target == "cext":
                assert solver.pipeline._fused_ids is not None
                assert "face_flux" in solver.pipeline.timers
                assert "reconstruct" not in solver.pipeline.timers
        assert digests["cext"] == digests["flat"]


    @pytest.mark.parametrize("case", ["rp1_1d", "blast_3d", "batch4"])
    def test_five_steps_cext_equals_flat(self, case):
        """The compiled recovery sweep and CFL scan end to end: state, time
        and every metric after five steps, on the layouts the KH run does
        not cover."""
        from repro.boundary import make_boundaries
        from repro.codegen import cext_available
        from repro.core.batch import BatchSolver
        from repro.core.config import SolverConfig
        from repro.core.solver import Solver
        from repro.mesh.grid import Grid
        from repro.physics.initial_data import RP1, RP2, shock_tube

        if case == "blast_3d":
            system = SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=3)
            grid = Grid((12, 10, 8), ((0.0, 1.0),) * 3)
            prim0 = grid.allocate(system.nvars)
            r2 = sum(
                (np.moveaxis(grid.coords_with_ghosts(ax)[:, None, None], 0, ax) - 0.5) ** 2
                for ax in range(3)
            )
            prim0[system.RHO] = 1.0
            prim0[system.P] = np.where(r2 < 0.25**2, 10.0, 0.1)
        else:
            system = SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1)
            grid = Grid((96,), ((0.0, 1.0),))
            prim0 = shock_tube(system, grid, RP1)
        if not cext_available(system.ndim):
            pytest.skip("no C toolchain")
        runs = {}
        for target in ("flat", "cext"):
            config = SolverConfig(kernel_target=target)
            if case == "batch4":
                prims = [prim0, shock_tube(system, grid, RP2), prim0 * 0.5, prim0]
                solver = BatchSolver(
                    system, grid, [p.copy() for p in prims], config,
                    make_boundaries("outflow"),
                )
            else:
                solver = Solver(
                    system, grid, prim0.copy(), config, make_boundaries("outflow")
                )
            for _ in range(5):
                solver.step()
            runs[target] = (
                solver.primitives().tobytes(), solver.cons.tobytes(), solver.t,
                solver.pipeline.warm_state().tobytes(), solver.metrics.snapshot(),
            )
        assert runs["cext"] == runs["flat"]


class TestCacheMaintenance:
    """`repro cache`'s engine: report + LRU pruning over the artifact dir."""

    @staticmethod
    def _plant(tmp_path, name, size, mtime):
        p = tmp_path / name
        p.write_bytes(b"x" * size)
        os.utime(p, (mtime, mtime))
        return p

    def test_cache_report_lists_lru_first(self, monkeypatch, tmp_path):
        from repro.codegen import cext as cext_mod

        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path))
        self._plant(tmp_path, "new.so", 100, 2000.0)
        self._plant(tmp_path, "old.so", 300, 1000.0)
        report = cext_mod.cache_report()
        assert report["dir"] == str(tmp_path)
        assert report["n_artifacts"] == 2
        assert report["total_bytes"] == 400
        assert [a["name"] for a in report["artifacts"]] == ["old.so", "new.so"]

    def test_prune_evicts_lru_until_bound(self, monkeypatch, tmp_path):
        from repro.codegen import cext as cext_mod

        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path))
        self._plant(tmp_path, "a.so", 400, 1000.0)  # oldest
        self._plant(tmp_path, "b.so", 400, 2000.0)
        self._plant(tmp_path, "c.so", 400, 3000.0)  # newest
        removed = cext_mod.prune_cache(900)
        assert removed == ["a.so"]
        assert not (tmp_path / "a.so").exists()
        assert (tmp_path / "b.so").exists() and (tmp_path / "c.so").exists()
        # Already under the bound: no-op.
        assert cext_mod.prune_cache(900) == []
        # Zero bound empties the cache.
        assert sorted(cext_mod.prune_cache(0)) == ["b.so", "c.so"]
        assert cext_mod.cache_report()["n_artifacts"] == 0

    def test_prune_rejects_negative_bound(self, monkeypatch, tmp_path):
        from repro.codegen import cext as cext_mod

        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path))
        with pytest.raises(ValueError):
            cext_mod.prune_cache(-1)

    def test_served_artifact_is_touched(self, monkeypatch, tmp_path):
        """Loading an existing artifact refreshes its mtime, so long-lived
        hot kernels survive LRU pruning."""
        from repro.codegen import cext as cext_mod
        from repro.codegen import cext_available

        if not cext_available(1):
            pytest.skip("no C toolchain")
        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path))
        kinds_axes = [("prim_to_con", 0)]
        cext_mod.load_cext_module(1, kinds_axes)
        name, _, _ = cext_mod.module_spec(1, kinds_axes)
        path = cext_mod.artifact_path(name)
        assert path.exists()
        os.utime(path, (1000.0, 1000.0))
        cext_mod.clear_modules()
        cext_mod.load_cext_module(1, kinds_axes)
        assert path.stat().st_mtime > 1000.0
