"""Tests for the SymPy kernel generator: generated kernels must match the
handwritten reference bit-for-bit (to round-off) on both targets."""

from __future__ import annotations

import contextlib
from collections import Counter
import logging
import os
from pathlib import Path

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

from .conftest import random_prim, require_cext
from .lattice import KERNEL_LAYOUTS, STACKS, TEAMS, kernel_pipeline, kernel_team, legacy


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


def _set_team(n):
    """Team size *n* for the compiled kernels (every module shares one
    OpenMP runtime); skips, with the reason, where it cannot exceed 1."""
    from repro.codegen import cext as cext_mod

    got = cext_mod.threads(1, n)
    if got != n:
        pytest.skip(f"the compiled kernels cannot run {n} threads here (team: {got})")


@pytest.fixture(params=TEAMS, ids=lambda n: f"threads{n}")
def team(request):
    """The compiled kernels on a team of 2 or 4 threads, small calls
    included (:func:`~tests.lattice.kernel_team`).  On a team of 1 they take
    the serial branch, which each property's production-build test runs
    already: the ``threads1`` ids run no property."""
    if request.param == 1:
        yield 1
        return
    with kernel_team(request.param):
        yield request.param


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
        """One side's (U, F, lambda) from 2 sqrt and <= 6 divisions, in the
        compiled sweep's tile stage and the flat kernel — the three separate
        kernels spent 7 and 13."""
        gen = KernelGenerator(ndim)
        for axis in range(ndim):
            sources = {
                "tile": gen.generate_c_face_side_tile(axis),
                "flat": gen.generate("face_side", axis, "flat").split('"""')[2],
            }
            for where, src in sources.items():
                body = src[src.index("{") :] if where == "tile" else src
                body = body.replace("/* lanes */", "")
                divisions = body.count("/") + body.count("**(-1.0)")
                assert body.count("sqrt(") == 2, (where, axis, src)
                assert divisions <= 6, (where, axis, src)

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_no_libm_minmax_pow_and_every_helper_inline(self, ndim):
        import re

        from repro.codegen.generator import (
            ACCUMULATE_KERNEL,
            AMR_PROGRAM_KERNEL,
            CON2PRIM_KERNEL,
            RECOVER_KERNEL,
            RK_STAGE_KERNEL,
            SIMD_LEVEL_DECL,
            THREADS_DECL,
        )

        gen = KernelGenerator(ndim)
        module = gen.generate_c_module()
        code = re.sub(r"/\*.*?\*/", "", module, flags=re.S)
        for token in ("fmin(", "fmax(", "pow("):
            assert token not in code, token
        assert "#define REPRO_INLINE static inline" in module
        # Column-0 definitions: the Newton loop, the recovery sweep (its CFL
        # scan included), the per-axis sweep entry points, the update stage
        # (accumulate, one RK stage combination), the AMR gather program
        # and the clone and team probes — no pointwise kernel — everything
        # else a REPRO_INLINE
        # helper, the one
        # `static` tile filler the sweeps share, or the OUTLINE body
        # of a threaded kernel — written once, called by its entry point's
        # serial branch and by every thread of its team.  One sweep per
        # axis — no schedule twins — and one Newton body for the two
        # kernels running it.
        defs = re.findall(r"^(?!#)(\w[^\n;{]*?)\s+\**(\w+)\(", code, flags=re.M)
        statics = [name for head, name in defs if head.startswith("static")]
        assert statics == [f"fill_tile_{ndim}d"]
        outlines = [name for head, name in defs if head.startswith("OUTLINE")]
        assert outlines == [
            f"recover_cells_{ndim}d", f"recover_rows_{ndim}d", f"max_signal_rows_{ndim}d",
            *(f"face_flux_rows_ax{ax}_{ndim}d" for ax in range(ndim)),
            f"accumulate_rows_{ndim}d", "rk_stage_range",
        ]
        entries = [
            name for head, name in defs
            if not head.startswith(("REPRO_INLINE", "static", "OUTLINE"))
        ]
        assert entries == [
            CON2PRIM_KERNEL,
            RECOVER_KERNEL % ndim,
            *(gen.stencil_kernel_name(ax) for ax in range(ndim)),
            ACCUMULATE_KERNEL % ndim,
            RK_STAGE_KERNEL,
            AMR_PROGRAM_KERNEL % ndim,
            re.search(r"(\w+)\(", SIMD_LEVEL_DECL).group(1),
            re.search(r"(\w+)\(", THREADS_DECL).group(1),
        ]
        # One tail, no scalar twin: nothing takes a per-face `double* q`
        # state, and none of the per-face helpers it replaced is left.
        assert not re.search(r"double\s*\*\s*q\s*[,)]", code)
        for gone in ("cell_side_ax", "sanitize_face_", "combine_llf", "combine_hll",
                     "hllc_side_"):
            assert gone not in code, gone
        assert code.count("const double dfdp =") == 1
        # One Newton lane body, no scalar twin: one definition, two callers.
        assert code.count("newton_tile(") == 3
        assert "newton_cell" not in code
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
        gamma = 5.0 / 3.0
        system = SRHDSystem(IdealGasEOS(gamma=gamma), ndim=ndim)
        prim = self._hostile_prim(system, self.N, rng)
        cons = system.prim_to_con(prim)

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

    @staticmethod
    def _envelope_state(ndim):
        """One state of the sanitize envelope, ``(W, log10 rho, log10 p,
        direction)``: W up to ``w_max``, rho and p down to the atmosphere
        floors, any direction."""
        from hypothesis import strategies as st

        from repro.core.config import SolverConfig

        cfg = SolverConfig()
        return st.tuples(
            st.floats(1.0, cfg.w_max),
            st.floats(np.log10(cfg.rho_atmo), 1.0),
            st.floats(np.log10(cfg.p_atmo), 1.0),
            st.lists(st.floats(-1.0, 1.0), min_size=ndim, max_size=ndim).filter(
                lambda d: sum(x * x for x in d) > 1e-6
            ),
        )

    @staticmethod
    def _envelope_prim(system, states):
        """``(nvars, len(states))`` primitives of :meth:`_envelope_state`
        draws."""
        prim = np.empty((system.nvars, len(states)))
        for i, (W, log_rho, log_p, direction) in enumerate(states):
            d = np.asarray(direction)
            speed = np.sqrt(1.0 - 1.0 / W**2)
            prim[1 : 1 + system.ndim, i] = d / np.sqrt(d @ d) * speed
            prim[system.RHO, i] = 10.0**log_rho
            prim[system.P, i] = 10.0**log_p
        return prim

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_face_side_near_luminal_and_atmosphere(self, ndim):
        """The joint kernel shares one ``1 - v^2`` between W, rho h W^2 and
        the characteristic root, which changes its conditioning: drive it
        to the sanitize envelope — W up to ``w_max``, rho and p down to the
        atmosphere floors — in every direction."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        gamma = 5.0 / 3.0
        system = SRHDSystem(IdealGasEOS(gamma=gamma), ndim=ndim)
        n_out = 2 * system.nvars + 2

        @given(states=st.lists(self._envelope_state(ndim), min_size=1, max_size=16))
        @settings(max_examples=40, deadline=None, database=None)
        def check(states):
            prim = self._envelope_prim(system, states)
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

        check()

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_compiled_sweep_near_luminal_and_atmosphere(self, ndim):
        """The compiled per-side algebra on the same envelope: a ``pc``
        patch of those states — every cell one of the drawn states, so
        every face a pair of them — swept by the compiled ``face_flux``
        under llf, hll and hllc equals the ``flat`` interpreted stages byte
        for byte along every axis, sanitize counters included."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.codegen import cext_available

        if not cext_available(ndim):
            pytest.skip("no C toolchain")
        pairs = {
            riemann: [
                kernel_pipeline(target, f"{ndim}d", reconstruction="pc", riemann=riemann)
                for target in ("flat", "cext")
            ]
            for riemann in ("llf", "hll", "hllc")
        }

        @given(
            states=st.lists(self._envelope_state(ndim), min_size=1, max_size=16),
            seed=st.integers(0, 2**32 - 1),
        )
        @settings(max_examples=40, deadline=None, database=None)
        def check(states, seed):
            for riemann, (flat, cext) in pairs.items():
                assert cext._fused_ids is not None
                cells = np.random.default_rng(seed).integers(
                    0, len(states), flat.grid.shape_with_ghosts
                )
                prim = self._envelope_prim(flat.system, states)[:, cells][None]
                with np.errstate(all="ignore"):
                    ref = flat.flux_divergence(prim.copy())
                got = cext.flux_divergence(prim.copy())
                assert got.tobytes() == ref.tobytes(), riemann
                for counter in TestFusedStencilParity._COUNTERS:
                    assert (
                        flat.metrics.counter(counter).value
                        == cext.metrics.counter(counter).value
                    ), (riemann, counter)

        check()

    def test_compiled_face_side_is_the_flat_kernel(self, rng):
        """The interpreted Riemann stage on a compiled system evaluates each
        side through ``face_side``: the flat kernel itself, inherited — one
        generated body, the same bytes."""
        from repro.codegen import cext_available
        from repro.codegen.system import CompiledSRHDSystem, GeneratedSRHDSystem

        if not cext_available(2):
            pytest.skip("no C toolchain")
        assert CompiledSRHDSystem.face_side is GeneratedSRHDSystem.face_side
        compiled = CompiledSRHDSystem(ndim=2)
        flat = GeneratedSRHDSystem(ndim=2)
        prim = self._hostile_prim(compiled, 257, rng).reshape(4, 1, 257)
        for ax in range(2):
            got = compiled.face_side(prim, ax)
            ref = flat.face_side(prim, ax)
            for a, b in zip((got[0], got[1], *got[2]), (ref[0], ref[1], *ref[2])):
                assert a.tobytes() == b.tobytes()

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
            lambda self: orig(self) + "\n/* v2 */\n",
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
        builds = [cext_mod.load_cext_module(1)]
        monkeypatch.setenv("CC", str(wrapper))
        assert "cc=wrapped-cc 1.0" in cext_mod.toolchain_fingerprint()
        assert cext_mod.module_spec(1)[0] != name1
        builds.append(cext_mod.load_cext_module(1))
        assert cext_mod.build_count == n0 + 2, "the other compiler did not build"
        U, V, k = (rng.normal(size=(3, 64)) for _ in range(3))
        outs = [np.empty_like(U) for _ in builds]
        for (ffi, lib), out in zip(builds, outs):
            rk_stage = cext_mod.bind_rk_stage(ffi, lib.rk_stage_cext, U.shape)
            rk_stage((1, 0.75, 0.25), U, V, 0.01, k, out)
        assert outs[0].tobytes() == outs[1].tobytes()
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
            cext_mod.load_cext_module(1)
        assert cext_mod.build_count == n0
        assert [p for p in tmp_path.iterdir() if p.is_file()] == []

    def test_cext_spec_change_rebuilds_artifact(self, monkeypatch, tmp_path):
        from repro.codegen import cext as cext_mod

        if not cext_mod.cext_available(1):
            pytest.skip("no C toolchain")
        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path))
        cext_mod.clear_modules()
        n0 = cext_mod.build_count
        cext_mod.load_cext_module(1)
        assert cext_mod.build_count == n0 + 1
        cext_mod.load_cext_module(1)  # in-process handle
        assert cext_mod.build_count == n0 + 1
        cext_mod.clear_modules()
        cext_mod.load_cext_module(1)  # disk artifact hit
        assert cext_mod.build_count == n0 + 1

        orig = KernelGenerator.generate_c_module
        monkeypatch.setattr(
            KernelGenerator,
            "generate_c_module",
            lambda self: orig(self) + "\n/* spec v2 */\n",
        )
        cext_mod.load_cext_module(1)  # new hash: full rebuild
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
        from repro.boundary import make_boundaries
        from repro.codegen import cext as cext_mod
        from repro.core.config import SolverConfig
        from repro.core.pipeline import HydroPipeline
        from repro.mesh.grid import Grid

        if not cext_mod.cext_available(1):
            pytest.skip("no C toolchain")
        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(
            cext_mod, "CFLAGS", cext_mod.CFLAGS + ("--no-such-compiler-flag",)
        )
        cext_mod.clear_modules()
        with _log_records("repro.codegen.system") as records:
            pipe = HydroPipeline(
                SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=1), Grid((24,), ((0.0, 1.0),)),
                make_boundaries("outflow"), SolverConfig(kernel_target="cext"),
            )
        assert any("build failed" in r.getMessage() for r in records)
        assert pipe.system.target == "flat" and pipe._fused_ids is None
        assert pipe.metrics.counter("codegen.target_fallbacks").value == 1
        assert [p for p in tmp_path.iterdir() if p.is_file()] == []

    def test_toolchain_without_openmp_builds_the_same_source(self, monkeypatch, tmp_path):
        """A compiler that rejects ``-fopenmp`` is not a fallback: the same
        source builds without it (another artifact name), runs one thread,
        says so on the load line, and its bytes are the threaded build's."""
        from repro.boundary import make_boundaries
        from repro.codegen import cext as cext_mod
        from repro.core.batch import BatchSolver
        from repro.core.config import SolverConfig
        from repro.mesh.grid import Grid
        from repro.physics.initial_data import RP1, RP2, shock_tube

        if not cext_mod.cext_available(1):
            pytest.skip("no C toolchain")
        system = SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1)
        grid = Grid((600,), ((0.0, 1.0),))
        tubes = [shock_tube(system, grid, rp) for rp in (RP1, RP2) * 4]

        def run():
            solver = BatchSolver(
                system, grid, [p.copy() for p in tubes],
                SolverConfig(kernel_target="cext", cfl=0.4), make_boundaries("outflow"),
            )
            assert hasattr(solver.pipeline.system, "recover")
            for _ in range(5):
                solver.step()
            return solver.cons.tobytes(), solver.metrics.snapshot()

        threaded_name = cext_mod.module_spec(1)[0]
        before = cext_mod.threads(1)
        try:
            _set_team(2)
            want = run()
        finally:
            cext_mod.threads(1, before)
        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(cext_mod, "openmp_supported", lambda: False)
        assert cext_mod.OPENMP_FLAG not in cext_mod.build_flags()
        assert cext_mod.module_spec(1)[0] != threaded_name
        with _log_records("repro.codegen.cext") as records:
            assert cext_mod.threads(1) == 1
            assert cext_mod.threads(1, 2) == 1
        assert any("built without OpenMP" in r.getMessage() for r in records)
        assert run() == want


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
        name, _, _ = cext_mod.module_spec(1)
        path = cext_mod.artifact_path(name)
        garbage = b"\x7fELF garbage, not a real shared object"
        path.write_bytes(garbage)

        env = dict(os.environ)
        env[cext_mod.CACHE_DIR_ENV] = str(tmp_path)
        probe = (
            "import json\n"
            "from repro.codegen import cext\n"
            "ffi, lib = cext.load_cext_module(1)\n"
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

    def test_concurrent_cold_builders_leave_one_whole_artifact(self, tmp_path):
        """Three processes race a cold build of one module into an empty
        cache: each builds in a private temp dir and installs with an
        atomic rename, so every one loads a whole artifact (the same
        clone, the same team) and the cache ends holding exactly one file
        and no temp dir.  The generated spec is stored the same way: the
        spec store ends holding exactly one whole spec and no temp file."""
        import json
        import subprocess
        import sys

        from repro.codegen import cext as cext_mod

        if not cext_mod.cext_available(1):
            pytest.skip("no C toolchain")
        env = dict(os.environ)
        env[cext_mod.CACHE_DIR_ENV] = str(tmp_path)
        probe = (
            "import json\n"
            "from repro.codegen import cext\n"
            "ffi, lib = cext.load_cext_module(1)\n"
            "print(json.dumps([lib.repro_simd_level(), lib.repro_threads(0)]))\n"
        )
        procs = [
            subprocess.Popen([sys.executable, "-c", probe], env=env, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for _ in range(3)
        ]
        outs = [proc.communicate(timeout=300) for proc in procs]
        for proc, (_, err) in zip(procs, outs):
            assert proc.returncode == 0, err
        loaded = [json.loads(out.strip().splitlines()[-1]) for out, _ in outs]
        assert loaded[0] == loaded[1] == loaded[2]
        left = sorted(p.name for p in tmp_path.iterdir())
        name, source, cdef = cext_mod.module_spec(1)
        assert left == sorted([cext_mod.artifact_path(name).name, cext_mod.SPEC_DIR]), left
        key = cext_mod.spec_key(1)
        stored = tmp_path / cext_mod.SPEC_DIR / cext_mod.spec_path(key, 1).name
        assert list((tmp_path / cext_mod.SPEC_DIR).iterdir()) == [stored]
        assert cext_mod._read_spec(stored, key) == (source, cdef)


def _probe(script: str, **env) -> dict:
    """Run *script* in a fresh interpreter (with *env* on top of ours) and
    return the JSON object its last line prints."""
    import json
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=600,
        env={**os.environ, **env},
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


#: a warm start's work: step a cext Solver and AMRSolver, drain a batch
#: service; whether SymPy was imported, and what was built
_WARM_PROBE = """\
import json, sys
from repro import Grid, IdealGasEOS, Solver, SolverConfig, SRHDSystem
from repro.boundary import make_boundaries
from repro.codegen import cext
from repro.core.amr_solver import AMRConfig, AMRSolver
from repro.physics.initial_data import blast_wave_2d
from repro.serve import BatchService

def blast(system, grid):
    return blast_wave_2d(system, grid, p_in=10.0, p_out=1.0)

s = SRHDSystem(IdealGasEOS(), ndim=2)
g = Grid((16, 16), ((0.0, 1.0), (0.0, 1.0)))
cfg = SolverConfig(kernel_target="cext", cfl=0.4)
solver = Solver(s, g, blast(s, g), cfg, make_boundaries("periodic"))
amr = AMRSolver(s, g, blast, cfg, AMRConfig(block_size=8, max_levels=2, regrid_interval=2),
                make_boundaries("periodic"))
for _ in range(3):
    solver.step()
    amr.step()
tube = dict(kind="shock_tube", problem="RP1", nx=64, t_final=0.01, cfl=0.4, kernel_target="cext")
reqs = BatchService(max_batch=4).sweep([tube] * 2)
print(json.dumps({
    "sympy": "sympy" in sys.modules, "builds": cext.build_count,
    "compiled": [hasattr(p.system, "recover")
                 for p in [solver.pipeline] + [st.pipeline for st in amr._stacks]],
    "served": [r.status for r in reqs],
}))
"""


class TestWarmStart:
    """A warm start generates nothing: the compiled module loads from its
    stored spec (``cext.stored_spec``) without importing SymPy, the stored
    spec and the name it serves are :func:`module_spec`'s byte for byte,
    and whatever changes the generated source misses the store."""

    @staticmethod
    def _warm_cache(dest, ndims=(1, 2)):
        """*dest* holding this session's built artifacts and stored specs of
        *ndims* (a copy: no cold build)."""
        import shutil

        from repro.codegen import cext as cext_mod

        (dest / cext_mod.SPEC_DIR).mkdir(parents=True)
        for nd in ndims:
            require_cext(nd)
            name = cext_mod.stored_spec(nd)[0]
            shutil.copy2(cext_mod.artifact_path(name), dest)
            shutil.copy2(cext_mod.spec_path(cext_mod.spec_key(nd), nd), dest / cext_mod.SPEC_DIR)

    def test_importing_repro_loads_no_sympy(self):
        got = _probe(
            "import json, sys\n"
            "import repro, repro.core, repro.serve, repro.codegen.system\n"
            "from repro.codegen import cext, load_kernel\n"
            "print(json.dumps('sympy' in sys.modules))\n"
        )
        assert got is False

    def test_a_warm_start_imports_no_sympy(self, tmp_path):
        from repro.codegen import cext as cext_mod

        if cext_mod.cext_disabled():
            pytest.skip(f"{cext_mod.DISABLE_ENV} set: cext falls back to flat, which "
                        "generates through SymPy")
        self._warm_cache(tmp_path)
        got = _probe(_WARM_PROBE, **{cext_mod.CACHE_DIR_ENV: str(tmp_path)})
        assert got == {"sympy": False, "builds": 0, "compiled": [True] * len(got["compiled"]),
                       "served": ["ok", "ok"]}

    def test_flat_generates_on_its_first_face_side(self):
        """``flat`` (and a ``cext`` request that fell back to it) still
        generates through SymPy: on the first ``face_side``, not at
        construction."""
        got = _probe(
            "import json, sys\n"
            "from repro import Grid, IdealGasEOS, Solver, SolverConfig, SRHDSystem\n"
            "from repro.physics.initial_data import RP1, shock_tube\n"
            "s = SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1)\n"
            "g = Grid((32,), ((0.0, 1.0),))\n"
            "solver = Solver(s, g, shock_tube(s, g, RP1), SolverConfig(kernel_target='flat'))\n"
            "built = 'sympy' in sys.modules\n"
            "solver.step()\n"
            "print(json.dumps([built, 'sympy' in sys.modules]))\n"
        )
        assert got == [False, True]

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_the_stored_spec_is_the_generated_one(self, ndim, monkeypatch, tmp_path):
        from repro.codegen import cext as cext_mod

        pytest.importorskip("cffi")
        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path))
        want = cext_mod.module_spec(ndim)
        assert cext_mod.stored_spec(ndim) == want  # a miss: generated, stored
        key = cext_mod.spec_key(ndim)
        assert cext_mod._read_spec(cext_mod.spec_path(key, ndim), key) == want[1:]

        def generate(nd):
            raise AssertionError("a stored spec was generated again")

        monkeypatch.setattr(cext_mod, "_generate", generate)
        assert cext_mod.stored_spec(ndim) == want  # a hit: served

    def test_what_changes_the_source_misses_the_store(self, monkeypatch, tmp_path):
        """An edited copy of a key file and another SymPy version are other
        keys, so they miss; an emitter replaced in-process is generated
        afresh and never stored."""
        import shutil

        from repro.codegen import cext as cext_mod

        pytest.importorskip("cffi")
        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path / "cache"))
        generated = []
        real = cext_mod._generate
        monkeypatch.setattr(cext_mod, "_generate", lambda nd: generated.append(nd) or real(nd))
        key = cext_mod.spec_key(1)
        want = cext_mod.stored_spec(1)
        assert generated == [1]

        copy = tmp_path / "copy"
        copy.mkdir()
        for name in cext_mod.SPEC_FILES:
            shutil.copy2(Path(cext_mod.__file__).with_name(name), copy)
        with monkeypatch.context() as m:
            m.setattr(cext_mod, "__file__", str(copy / "cext.py"))
            assert cext_mod.spec_key(1) == key  # the copy as it is: the same key
            for name in cext_mod.SPEC_FILES:
                original = (copy / name).read_bytes()
                (copy / name).write_bytes(original + b"\n# edited\n")
                assert cext_mod.spec_key(1) != key, f"an edit of {name} kept the key"
                (copy / name).write_bytes(original)
            (copy / "symbols.py").write_bytes(b"# edited\n" + (copy / "symbols.py").read_bytes())
            assert cext_mod.stored_spec(1) == want
            assert generated == [1, 1]

        with monkeypatch.context() as m:
            m.setattr(cext_mod, "sympy_version", lambda: "0.0-other")
            assert cext_mod.spec_key(1) != key
            assert cext_mod.stored_spec(1) == want
            assert generated == [1, 1, 1]

        with monkeypatch.context() as m:
            orig = KernelGenerator.generate_c_module
            m.setattr(KernelGenerator, "generate_c_module",
                      lambda self: orig(self) + "\n/* replaced */\n")
            name, source, _ = cext_mod.stored_spec(1)
            assert source.endswith("/* replaced */\n") and name != want[0]
            stored = cext_mod._read_spec(cext_mod.spec_path(key, 1), key)
            assert stored == want[1:], "a replaced emitter's source was stored"
            assert generated == [1] * 4
        assert cext_mod.stored_spec(1) == want  # the file's emitter again: served
        assert generated == [1] * 4

    @pytest.mark.parametrize("damage", ["truncated", "tampered"])
    def test_a_damaged_spec_is_regenerated(self, damage, monkeypatch, tmp_path):
        import json

        from repro.codegen import cext as cext_mod

        pytest.importorskip("cffi")
        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path))
        want = cext_mod.stored_spec(1)
        path = cext_mod.spec_path(cext_mod.spec_key(1), 1)
        whole = path.read_text()
        if damage == "truncated":
            path.write_text(whole[: len(whole) // 2])
        else:
            entry = json.loads(whole)
            entry["source"] = entry["source"].replace("rmin", "rmax", 1)
            path.write_text(json.dumps(entry))
        generated = []
        real = cext_mod._generate
        monkeypatch.setattr(cext_mod, "_generate", lambda nd: generated.append(nd) or real(nd))
        with _log_records("repro.codegen.cext") as records:
            assert cext_mod.stored_spec(1) == want
        assert generated == [1]
        assert any("regenerating" in r.getMessage() for r in records)
        assert path.read_text() == whole

    def test_a_pruned_artifact_rebuilds_without_sympy(self, tmp_path):
        from repro.codegen import cext as cext_mod

        if cext_mod.cext_disabled():
            pytest.skip(f"{cext_mod.DISABLE_ENV} set: no artifact is built")
        self._warm_cache(tmp_path, ndims=(1,))
        got = _probe(
            "import json, sys\n"
            "from repro.codegen import cext\n"
            "pruned = cext.prune_cache(0)\n"
            "cext.load_cext_module(1)\n"
            "print(json.dumps([len(pruned), cext.build_count, 'sympy' in sys.modules]))\n",
            **{cext_mod.CACHE_DIR_ENV: str(tmp_path)},
        )
        assert got == [1, 1, False]

    def test_the_key_covers_every_module_the_generator_reads(self):
        """Every ``repro`` module the key files import — at any depth, in a
        function too — is a key file or declared output-free."""
        import ast

        from repro.codegen import cext as cext_mod

        here = Path(cext_mod.__file__).parent
        keyed = {f"repro.codegen.{Path(name).stem}" for name in cext_mod.SPEC_FILES}
        for name in cext_mod.SPEC_FILES:
            tree = ast.parse((here / name).read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level:
                    base = "repro.codegen".rsplit(".", node.level - 1)[0]
                    imported = f"{base}.{node.module}" if node.module else base
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [node.module] if isinstance(node, ast.ImportFrom) else [
                        a.name for a in node.names]
                    imported = next((n for n in names if n.split(".")[0] == "repro"), None)
                    if imported is None:
                        continue
                else:
                    continue
                assert imported in keyed or imported in cext_mod.SPEC_OUTPUT_FREE, (
                    f"{name} imports {imported}, which neither keys the stored spec "
                    "nor is declared output-free"
                )


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
        flat = kernel_pipeline("flat", reconstruction=recon, riemann=riemann)
        cext = kernel_pipeline("cext", reconstruction=recon, riemann=riemann)
        assert cext._fused_ids is not None, "fused sweep did not engage"
        # Tile edges: sweeps of 1 face .. two tiles and a remainder, along
        # each axis of a 1-/2-/3-D patch and a batched 1-D one (2T + 3 cells
        # long that way — dx is no power of two — 2 wide the others), built
        # on first draw.
        long_pairs: dict = {}

        def long_pair(layout, axis):
            if (layout, axis) not in long_pairs:
                ndim = KERNEL_LAYOUTS[layout][0]
                shape = tuple(2 * T + 3 if ax == axis else 2 for ax in range(ndim))
                long_pairs[layout, axis] = [
                    kernel_pipeline(t, layout, shape=shape, reconstruction=recon, riemann=riemann)
                    for t in ("flat", "cext")
                ]
            return long_pairs[layout, axis]

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
            layout=st.sampled_from(list(KERNEL_LAYOUTS)),
            n_faces=st.sampled_from(
                [1, 2, 3, 5, T - 1, T, T + 1, T + 2, 2 * T + 3, 2 * T + 4]
            ),
        )
        @settings(max_examples=10, deadline=None, database=None)
        def check(seed, discontinuous, extreme, store, layout, n_faces):
            prim = self._ghosted_prim(flat, seed, discontinuous, extreme)
            flat.store_fluxes = cext.store_fluxes = store
            with np.errstate(all="ignore"):
                div_flat = flat.flux_divergence(prim[None].copy())
            div_cext = cext.flux_divergence(prim[None].copy())
            assert div_flat.tobytes() == div_cext.tobytes(), (
                f"{recon}/{riemann}: fused sweep differs bitwise"
            )
            stored_fluxes_agree(flat, cext)
            axis = seed % KERNEL_LAYOUTS[layout][0]
            lflat, lcext = long_pair(layout, axis)
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
                    ref = lflat.flux_divergence_region(prim[None].copy(), axis, lo, hi)
                got = lcext.flux_divergence_region(prim[None], axis, lo, hi)
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
        flat = kernel_pipeline("flat", reconstruction="ppm", riemann="hll")
        with np.errstate(all="ignore"):
            flat.flux_divergence(self._ghosted_prim(flat, 3, True, extreme=True)[None])
        for counter in self._COUNTERS:
            assert flat.metrics.counter(counter).value > 0, counter

    @pytest.mark.parametrize("ndim", [1, 3])
    def test_fused_sweep_bitwise_other_ndims(self, ndim):
        from repro.codegen import cext_available

        if not cext_available(ndim):
            pytest.skip("no C toolchain")
        for recon in ("mc", "ppm", "weno5", "wenoz"):
            flat = kernel_pipeline("flat", f"{ndim}d", reconstruction=recon, riemann="hllc")
            cext = kernel_pipeline("cext", f"{ndim}d", reconstruction=recon, riemann="hllc")
            assert cext._fused_ids is not None
            for seed, extreme in ((1234, False), (4321, True)):
                prim = self._ghosted_prim(flat, seed, True, extreme)[None]
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
        flat = kernel_pipeline("flat", reconstruction=recon, riemann="hll")
        cext = kernel_pipeline("cext", reconstruction=recon, riemann="hll")

        @given(data=st.data(), seed=st.integers(0, 2**32 - 1), extreme=st.booleans())
        @settings(max_examples=8, deadline=None, database=None)
        def check(data, seed, extreme):
            prim = self._ghosted_prim(cext, seed, True, extreme)[None]
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
        from repro.codegen.generator import STENCIL_TILE

        assert STENCIL_TILE == 128
        for axis, shape in ((1, (3, 260)), (0, (260, 3))):
            flat, cext = (
                kernel_pipeline(t, shape=shape, n_ghost=2, reconstruction=limiter, riemann="hllc")
                for t in ("flat", "cext")
            )
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
            flat = kernel_pipeline("flat", shape=shape, reconstruction=recon, riemann=riemann)
            cext = kernel_pipeline("cext", shape=shape, reconstruction=recon, riemann=riemann)
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
                # the poisoned cell's row: the first interior one (row 0)
                reached[:, 0, (k - left <= j) & (j <= k + right)] = True
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
        the hostile state, every reconstruction x Riemann id — and the
        same floors, primitives, seeds, counts and CFL maxima from the
        recovery, and the same Newton iterates from ``c2p_newton``, on the
        conserved state of it."""
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
        # the tile filler, two sweeps, accumulate, the RK stage combination;
        # the Newton loop and the recovery's floors, rows and scan
        assert source.count("\nREPRO_CLONES\n") == 9
        plain = source.replace("\nREPRO_CLONES\n", "\n")
        libs = [
            cext_mod.load_cext_module(2),
            cext_mod._load_spec(
                cext_mod._artifact_name("_repro_test_noclone_2d", plain, cdef), plain, cdef
            ),
        ]
        pipe = kernel_pipeline("cext", shape=(40, 150), reconstruction="mc", riemann="hllc")
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
            rows = cext_mod.sweep_rows(prim.shape[1:], 3, axis)
            n_faces = pipe.grid.shape[axis] + 1
            results = []
            for ffi, lib in libs:
                out = np.empty((4, rows.size, n_faces))
                sweep = cext_mod.bind_face_flux(
                    ffi, getattr(lib, f"face_flux_ax{axis}_2d_cext"), (1,) + prim.shape,
                    axis, 2, n_faces, n_ghost=3, dx=np.ones(1),
                    gamma=5.0 / 3.0, vmax2=1.0 - 1e-4, rho_atmo=1e-10, p_atmo=1e-12,
                    recon_id=recon_id, limiter_id=limiter_id, riemann_id=riemann_id,
                )
                counts = sweep(prim[None], out)
                results.append((out.tobytes(), counts.tolist()))
            assert results[0] == results[1], (axis, recon_id, limiter_id, riemann_id)
            assert min(results[0][1]) > 0
        # The conserved state of the admissible part, then every floor, the
        # cap and NaN lanes poked in.
        cons0 = SRHDSystem.prim_to_con(
            pipe.system, self._ghosted_prim(pipe, 11, True, extreme=True)
        )
        cells = cons0.reshape(4, -1)
        poked = rng.permutation(cells.shape[1])[:400].reshape(4, 100)
        cells[0, poked[0]] *= -1.0
        cells[3, poked[1]] = -1.0
        cells[1, poked[2]] *= 1e3
        cells[:, poked[3]] = np.nan
        interior = pipe.grid.interior_of(prim)[-1]
        recovered = []
        for ffi, lib in libs:
            runs = []
            for warm in (0, 1):  # cold, then seeded
                cons, out = cons0.copy()[None], np.zeros((1,) + cons0.shape)
                seed, next_seed = np.abs(interior), np.zeros(interior.shape)
                scan = np.zeros((1, 2))
                recover = cext_mod.bind_recover(
                    ffi, lib.recover_2d_cext, cons.shape, 3, out, (seed, next_seed),
                    np.full(1, warm, dtype=np.uint8), scan,
                    gamma=5.0 / 3.0, tol=1e-12, p_floor=1e-16, max_newton=50,
                    rho_atmo=1e-10, p_atmo=1e-12, rho_reset=1e-9, vmax=0.9999,
                )
                counts = recover(cons, out, seed, next_seed, False, scan)
                runs.append([a.tobytes() for a in (cons, out, next_seed, counts, scan)])
            cons = cons[0]
            D, tau = cons[0].ravel(), cons[-1].ravel()
            S2 = cons[1].ravel() ** 2 + cons[2].ravel() ** 2
            p = np.abs(tau - np.sqrt(S2)) * 0.5 + 1e-16
            conv, it_max = cext_mod.run_con2prim_newton(
                ffi, lib, D, S2, tau, p, np.full(D.size, 1e-16),
                gamma=5.0 / 3.0, tol=1e-12, p_floor=1e-16, max_newton=50,
            )
            runs.append([p.tobytes(), conv.tobytes(), it_max])
            recovered.append(runs)
        assert recovered[0] == recovered[1]
        counts = np.frombuffer(recovered[0][0][3], np.int64)
        assert min(counts[:4]) > 0  # floors, caps, unconverged lanes, iterations

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
        # the contiguous accumulate row (first axis and later axes), the
        # three RK stage forms; the recovery's floors, tile load, Newton
        # iteration and scan speeds
        assert len(marked) == 1 + 5 * ndim + 10 + 2 + 3 + 4
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

        fused = kernel_pipeline("cext", reconstruction="ppm", riemann="hll")
        plain = kernel_pipeline("flat", reconstruction="ppm", riemann="hll")
        plain.reconstruction = SteepenedPPM()
        prim = self._ghosted_prim(fused, 5, False)[None]
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
        pipe = kernel_pipeline("cext", reconstruction="ppm", riemann="hll")
        prim = self._ghosted_prim(pipe, 1, False)[None]
        n = pipe.grid.shape[1]
        pipe.flux_divergence_region(prim, 1, 0, n)  # the full sweep fits
        with pytest.raises(CodegenError, match=r"axis 1.*reach \(-2, \+3\)"):
            pipe.flux_divergence_region(prim, 1, 0, n + 1)
        with pytest.raises(CodegenError, match="axis 0"):
            pipe.flux_divergence_region(prim, 0, -1, 4)
        # The same region is legal for a narrower stencil on the same grid.
        narrow = kernel_pipeline("cext", reconstruction="mc", riemann="hll")
        narrow.flux_divergence_region(prim, 1, 0, n + 1)

    def test_strided_prim_is_copied_contiguous(self):
        """C walks raw offsets, so a fused pipeline handed a non-contiguous
        prim sweeps a contiguous copy: bytes unchanged, still compiled."""
        from repro.codegen import cext_available

        if not cext_available(2):
            pytest.skip("no C toolchain")
        pipe = kernel_pipeline("cext", reconstruction="ppm", riemann="hll")
        prim = self._ghosted_prim(pipe, 8, True)[None]
        want = pipe.flux_divergence(prim.copy()).tobytes()
        strided = np.empty(prim.shape + (2,))[..., 0]
        strided[...] = prim
        assert not strided.flags.c_contiguous
        assert pipe.flux_divergence(strided).tobytes() == want
        assert "reconstruct" not in pipe.timers


class TestCompiledRecovery:
    """One compiled pass per recovery sweep, the CFL scan of a fresh array
    included: ``cext`` is ``flat`` byte for byte — primitives (ghosts
    included), the floored conserved state, the next seed, every metric by
    name, the scan's maxima — on the hot path and on each route off it,
    over stacks of P patches and on teams of threads."""

    @staticmethod
    def _pair(layout, n_patches=1, **kw):
        """``{target: kernel_pipeline(target, ...)}`` of flat and cext."""
        pipes = {t: kernel_pipeline(t, layout, n_patches, **kw) for t in ("flat", "cext")}
        assert hasattr(pipes["cext"].system, "recover")
        assert not hasattr(pipes["flat"].system, "recover")
        return pipes

    @staticmethod
    def _cons(pipe, seed, pokes=(), vmax=0.9, spread=False):
        """A ghosted conserved state every cell of which Newton recovers
        (flow up to *vmax*; with *spread*, pressures over eleven decades),
        then *pokes* ``(kind, where)`` that each force one branch of the
        floors or of the solve, on two cells: the one *where* (in [0, 1))
        of the way through the ghosted block and the one that far through
        the interior."""
        system, grid, atmo = pipe.system, pipe.grid, pipe.atmosphere
        rng = np.random.default_rng(seed)
        prim = random_prim(system, grid.shape_with_ghosts, rng, vmax=vmax)
        if spread:
            prim[system.P] *= 10.0 ** rng.uniform(-9, 2, prim[0].shape)
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
            elif kind == "hard":  # W ~ 60, cold: Newton runs out, bisection
                cell = np.zeros((system.nvars, 1))
                cell[0], cell[1], cell[-1] = 1e-3, np.sqrt(1 - 1 / 60.0**2), 1e-9
                flat[:, i] = SRHDSystem.prim_to_con(system, cell)
            elif kind == "nan":  # nothing recovers it: failsafe or raise
                flat[:, i] = np.nan
        return cons

    @staticmethod
    def _sweep(pipe, cons, reuse):
        """Everything one sweep leaves behind, comparable with ``==``."""
        from repro.utils.errors import RecoveryError

        cons = cons.reshape(pipe._state_shape).copy()  # a patch, or the stack
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
    def _interpreted(monkeypatch, name="con_to_prim"):
        """Calls of the interpreted ``con_to_prim`` (or ``cfl.max_signal_per_axis``:
        *name* ``"max_signal_per_axis"``) from any pipeline."""
        import repro.core.pipeline as pipeline_mod

        calls = []
        real = getattr(pipeline_mod, name)

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, name, counting)
        return calls

    @staticmethod
    def _kernel_counts(pipe):
        """Per recovery of *pipe* from now on, the count rows its kernel
        returned, one per patch (``_recover_compiled`` reads them; column 2
        counts the cells that did not converge); none without a kernel."""
        rows = []
        real = pipe._recover_compiled

        def spy(*args):
            counts, complete = real(*args)
            if counts is not None:
                rows.append(counts.tolist())
            return counts, complete

        pipe._recover_compiled = spy
        return rows

    @pytest.mark.parametrize("layout", KERNEL_LAYOUTS)
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
                calls = self._interpreted(monkeypatch)
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

    @staticmethod
    def _recovery_draws():
        """What the recover and scan properties draw: every floor branch and
        solve route (cold W ~ 60 and NaN cells, Newton capped at 1 or 3
        iterations, a fault injector's solve-only kernel), near-luminal flow
        and pressures over eleven decades, warm, cold and mixed seeds, a
        fresh or a reused array, stacks of P patches."""
        from hypothesis import strategies as st

        kinds = ["d_floor", "tau_floor", "cap", "thin", "negzero", "hard", "nan"]
        poke = st.tuples(st.sampled_from(kinds), st.floats(0.0, 1.0, exclude_max=True))
        per_patch = dict(min_size=max(STACKS), max_size=max(STACKS))
        return dict(
            seed=st.integers(0, 2**32 - 1),
            n_patches=st.sampled_from(STACKS),
            pokes=st.lists(st.lists(poke, max_size=4), **per_patch),
            cold=st.lists(st.booleans(), **per_patch),
            reuse=st.booleans(),
            w_max=st.sampled_from([4.0, 100.0]),
            vmax=st.sampled_from([0.5, 0.9, 0.99999]),
            spread=st.booleans(),
            max_newton=st.sampled_from([50, 3, 1]),
            solve_only=st.booleans(),
        )

    @classmethod
    def _recover_property(cls, layout):
        """``recover`` on a ``cext`` stack of P patches (the draws of
        :meth:`_recovery_draws`) is the ``flat`` pipeline run patch by
        patch: each patch's primitives, floored conserved state and next
        seed, and the metrics by name.  Each patch's row of the kernel's
        counts is that of a ``cext`` call over the patch alone, so a patch
        that does not converge fails alone."""
        from hypothesis import given, settings

        import repro.core.pipeline as pipeline_mod
        from repro.resilience.faults import FaultInjector, FaultPlan

        @given(**cls._recovery_draws())
        @settings(max_examples=25, deadline=None, database=None)
        def check(seed, n_patches, pokes, cold, reuse, w_max, vmax, spread, max_newton,
                  solve_only):
            injector = (lambda: FaultInjector(FaultPlan())) if solve_only else None
            kw = dict(injector=injector, w_max=w_max, failsafe_frac=0.5)
            stack = kernel_pipeline("cext", layout, n_patches, **kw)
            one = kernel_pipeline("cext", layout, **kw)
            flat = kernel_pipeline("flat", layout, **kw)
            rows, one_rows = cls._kernel_counts(stack), cls._kernel_counts(one)
            cons = np.stack([
                cls._cons(flat, seed + i, pokes[i], vmax, spread)
                for i in range(n_patches)
            ])
            seeds = [None] * n_patches
            with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
                mp.setitem(pipeline_mod._NEWTON, "max_newton", max_newton)
                for scale in (0.99, 1.0):  # all cold, then all warm but *cold*'s
                    got = cons * scale
                    prim = stack.recover_primitives(got, reuse=reuse)
                    for i in range(n_patches):
                        flat.install_warm_state(seeds[i])
                        one.install_warm_state(seeds[i])
                        want = cons[i : i + 1] * scale
                        one.recover_primitives(want.copy(), reuse=reuse)
                        assert rows[-1][i] == one_rows[-1][0], (i, scale)
                        ref = flat.recover_primitives(want, reuse=reuse)
                        assert prim[i].tobytes() == ref.tobytes(), i
                        assert got[i].tobytes() == want.tobytes(), i
                        seeds[i] = flat.warm_state()
                        assert stack.warm_state(i).tobytes() == seeds[i].tobytes(), i
                        if cold[i]:
                            seeds[i] = None
                            stack.install_warm_state(None, i)
                    assert stack.metrics.snapshot() == flat.metrics.snapshot()

        check()

    @classmethod
    def _scan_property(cls, layout):
        """The CFL scan of each recovery of a ``cext`` stack of P patches
        (the draws of :meth:`_recovery_draws`) is the handwritten scan —
        ``flat``'s — of each patch's primitives byte for byte: read off the
        kernel for a patch it completed, interpreted for any other, and for
        every patch of a reused array or under a fault injector."""
        from hypothesis import given, settings

        import repro.core.pipeline as pipeline_mod
        from repro.resilience.faults import FaultInjector, FaultPlan
        from repro.time_integration.cfl import max_signal_per_axis

        @given(**cls._recovery_draws())
        @settings(max_examples=20, deadline=None, database=None)
        def check(seed, n_patches, pokes, cold, reuse, w_max, vmax, spread, max_newton,
                  solve_only):
            injector = (lambda: FaultInjector(FaultPlan())) if solve_only else None
            stack = kernel_pipeline(
                "cext", layout, n_patches, injector=injector, w_max=w_max, failsafe_frac=0.5
            )
            plain = SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=stack.system.ndim)
            cons = np.stack([
                cls._cons(stack, seed + i, pokes[i], vmax, spread) for i in range(n_patches)
            ])
            rows = cls._kernel_counts(stack)
            with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
                mp.setitem(pipeline_mod._NEWTON, "max_newton", max_newton)
                calls = cls._interpreted(mp, "max_signal_per_axis")
                for scale in (0.99, 1.0):  # all cold, then all warm but *cold*'s
                    prim = stack.recover_primitives(cons * scale, reuse=reuse)
                    calls.clear()
                    got = stack.max_signal_per_axis(prim)
                    want = [max_signal_per_axis(plain, stack.grid, p) for p in prim]
                    assert np.array(got).tobytes() == np.array(want).tobytes()
                    interpreted = sum(row[2] > 0 for row in rows[-1])
                    assert len(calls) == (n_patches if reuse or solve_only else interpreted)
                    for i in range(n_patches):
                        if cold[i]:
                            stack.install_warm_state(None, i)

        check()

    @pytest.mark.parametrize("layout", KERNEL_LAYOUTS)
    def test_recover_parity_property(self, layout):
        """The recover property on the production build."""
        self._recover_property(layout)

    @pytest.mark.parametrize("layout", KERNEL_LAYOUTS)
    def test_on_a_team(self, layout, team):
        """The recover property with every call on a team of *team* threads
        (a stack splits by patches, a single patch by rows)."""
        if team > 1:
            self._recover_property(layout)

    @pytest.mark.parametrize("layout", KERNEL_LAYOUTS)
    def test_the_recovery_scan_property(self, layout):
        """The scan property on the production build."""
        self._scan_property(layout)

    @pytest.mark.parametrize("layout", KERNEL_LAYOUTS)
    def test_the_recovery_scan_on_a_team(self, layout, team):
        """The scan property with every recovery on a team of *team*
        threads, each thread scanning its own rows or patches and the
        partial maxima folded."""
        if team > 1:
            self._scan_property(layout)

    @pytest.mark.parametrize("layout", KERNEL_LAYOUTS)
    def test_max_signal_is_the_handwritten_scan(self, layout):
        """The scan a fresh recovery made is the handwritten scan of the
        primitives it recovered — near-luminal flow, pressures over eleven
        decades, NaN conserved ghosts (the scan reads the interior only) —
        and so is flat's, which has no compiled recovery to ride."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.time_integration.cfl import max_signal_per_axis

        pipes = self._pair(layout)
        grid = pipes["flat"].grid
        plain = SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=pipes["flat"].system.ndim)
        ghosts = np.ones(grid.shape_with_ghosts, dtype=bool)
        grid.interior_of(ghosts[None])[...] = False

        @given(seed=st.integers(0, 2**32 - 1), vmax=st.sampled_from([0.5, 0.99, 0.99999]))
        @settings(max_examples=15, deadline=None, database=None)
        def check(seed, vmax):
            rng = np.random.default_rng(seed)
            prim = random_prim(plain, grid.shape_with_ghosts, rng, vmax=vmax)
            prim[plain.P] *= 10.0 ** rng.uniform(-9, 2, prim[0].shape)
            cons = SRHDSystem.prim_to_con(plain, prim)
            cons[:, ghosts] = np.nan
            for target, pipe in pipes.items():
                rows = self._kernel_counts(pipe)
                with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
                    got = pipe.recover_primitives(cons[None].copy())
                    calls = self._interpreted(mp, "max_signal_per_axis")
                    maxima = pipe.max_signal_per_axis(got)
                assert maxima.tolist() == [max_signal_per_axis(plain, grid, got[0])], target
                assert len(calls) == (not rows or rows[-1][0][2] > 0), target

        check()

    def test_other_arrays_and_patches_scan_interpreted(self, monkeypatch):
        """The kernel's maxima answer only for the fresh array of the last
        recovery and the patches it completed: an unconverged patch, a
        workspace array, a copy, an array a later recovery outdated and
        every patch of a pipeline with a fault injector scan interpreted."""
        from repro.resilience.faults import FaultInjector, FaultPlan
        from repro.time_integration.cfl import max_signal_per_axis

        pipes = self._pair("1d", n_patches=3, failsafe_frac=0.25)
        pipe = pipes["cext"]
        grid, plain = pipe.grid, SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=1)
        cons = np.stack([self._cons(pipe, 4), self._hard_cons(pipe), self._cons(pipe, 5)])
        with np.errstate(all="ignore"):
            prim = pipe.recover_primitives(cons.copy())
        want = [max_signal_per_axis(plain, grid, p) for p in prim]
        calls = self._interpreted(monkeypatch, "max_signal_per_axis")
        assert pipe.max_signal_per_axis(prim).tolist() == want
        assert len(calls) == 1  # the patch that needed bisection
        with np.errstate(all="ignore"):
            reused = pipe.recover_primitives(cons.copy(), reuse=True)
        injected = self._pair(
            "1d", injector=lambda: FaultInjector(FaultPlan()), n_patches=3, failsafe_frac=0.25
        )["cext"]
        with np.errstate(all="ignore"):
            burst_free = injected.recover_primitives(cons.copy())
        # prim.copy(), the workspace array, prim outdated by that recovery
        for owner, other in ((pipe, prim.copy()), (pipe, reused), (pipe, prim),
                             (injected, burst_free)):
            calls.clear()
            assert owner.max_signal_per_axis(other).tolist() == [
                max_signal_per_axis(plain, grid, p) for p in other
            ]
            assert len(calls) == 3

    def test_compute_dt_reads_the_recovery_scan_on_every_driver(self, monkeypatch):
        """From step 1 on — a constructor commits no primitives to scan —
        ``compute_dt`` on every cext driver reads the maxima its recovery
        computed, and makes no interpreted scan."""
        from repro.boundary import make_boundaries
        from repro.codegen import cext_available
        from repro.core.amr_solver import AMRConfig, AMRSolver
        from repro.core.batch import BatchSolver
        from repro.core.config import SolverConfig
        from repro.core.distributed import DistributedSolver
        from repro.core.solver import Solver
        from repro.mesh.grid import Grid
        from repro.physics.initial_data import RP1, blast_wave_2d, shock_tube

        if not (cext_available(1) and cext_available(2)):
            pytest.skip("no C toolchain")
        system2 = SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=2)
        grid2 = Grid((24, 20), ((0.0, 1.0), (0.0, 1.0)))
        blast = dict(p_in=10.0, p_out=1.0, radius=0.2)
        prim2 = blast_wave_2d(system2, grid2, **blast)
        system1 = SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1)
        grid1 = Grid((64,), ((0.0, 1.0),))
        config = SolverConfig(kernel_target="cext", cfl=0.4)
        periodic = make_boundaries("periodic")
        drivers = [
            Solver(system2, grid2, prim2.copy(), config, periodic),
            DistributedSolver(system2, grid2, prim2.copy(), (2, 2), config, periodic),
            AMRSolver(
                system2, Grid((32, 32), ((0, 1), (0, 1))),
                lambda s, g: blast_wave_2d(s, g, **blast), config,
                AMRConfig(block_size=8, max_levels=2, regrid_interval=2),
            ),
            BatchSolver(
                system1, grid1, [shock_tube(system1, grid1, RP1)] * 3, config,
                make_boundaries("outflow"),
            ),
        ]
        calls = self._interpreted(monkeypatch, "max_signal_per_axis")
        for driver in drivers:
            calls.clear()
            for _ in range(3):
                driver.step()
            assert not calls, type(driver).__name__

    @pytest.mark.parametrize("n", [1, 7, 15, 16, 17, 33])
    def test_lanes_are_the_interpreted_recovery(self, n):
        """The lane property on the production build."""
        self._lanes_property(n)

    def test_lanes_on_a_team(self, team):
        """The lane property with every ``recover`` on a team of *team*
        threads: a stack of four splits by patches, a single patch by rows."""
        for n in (7, 17) if team > 1 else ():
            self._lanes_property(n)

    def _lanes_property(self, n):
        """Newton in lockstep over tiles of ``C2P_LANES`` cells is the
        interpreted recovery byte for byte, for rows of *n* cells across the
        lane width: converged, Newton-exhausted (``max_newton`` 1 or 3, or
        W ~ 60 cold) and NaN lanes in one tile, cold and warm seeds,
        ``solve_only`` (a fault injector), stacks of 1 and 4 — through
        ``recover`` (cext pipeline against flat) and through ``c2p_newton``
        (``con_to_prim`` of the compiled system against the plain one, whose
        bisection starts from the pressure Newton left)."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        import repro.core.pipeline as pipeline_mod
        from repro.codegen.generator import C2P_LANES
        from repro.physics.con2prim import RecoveryStats, con_to_prim
        from repro.resilience.faults import FaultInjector, FaultPlan
        from repro.utils.errors import RecoveryError

        assert 1 < C2P_LANES < 33

        def seeds(pipe):  # every patch's (_sweep keeps the first's)
            kept = map(pipe.warm_state, range(len(pipe.patches)))
            return [w if w is None else w.tobytes() for w in kept]

        hard = np.array([1e-3, np.sqrt(1 - 1 / 60.0**2), 1e-9])  # rho, W ~ 60, p

        @given(
            seed=st.integers(0, 2**32 - 1),
            lanes=st.lists(st.sampled_from(["ok", "ok", "hard", "nan"]), min_size=n, max_size=n),
            warm=st.booleans(),
            solve_only=st.booleans(),
            n_patches=st.sampled_from([1, 4]),
            max_newton=st.sampled_from([1, 3, 50]),
        )
        @settings(max_examples=12, deadline=None, database=None)
        def check(seed, lanes, warm, solve_only, n_patches, max_newton):
            injector = (lambda: FaultInjector(FaultPlan())) if solve_only else None
            pipes = self._pair(
                "2d", n_patches, shape=(2, n), injector=injector, failsafe_frac=0.5
            )
            flat = pipes["flat"]
            cons = np.stack([self._cons(flat, seed + q) for q in range(n_patches)])
            cell = SRHDSystem.prim_to_con(flat.system, np.insert(hard, 2, 0.0)[:, None])[:, 0]
            for q in range(n_patches):
                row = flat.grid.interior_of(cons[q])[:, q % 2]
                for j, kind in enumerate(lanes):
                    if kind != "ok":
                        row[:, j] = cell if kind == "hard" else np.nan
            with pytest.MonkeyPatch.context() as mp:
                mp.setitem(pipeline_mod._NEWTON, "max_newton", max_newton)
                got = {
                    target: [
                        (self._sweep(pipe, c, False), seeds(pipe))
                        for c in (cons, cons * 0.99)[: 1 + warm]
                    ]
                    for target, pipe in pipes.items()
                }
            assert got["cext"] == got["flat"]
            interior = flat.grid.interior_of(cons[0]).copy()
            guess = np.abs(interior[-1]) if warm else None
            solved = []
            for system in (flat.system, pipes["cext"].system):
                stats = RecoveryStats()
                try:
                    with np.errstate(all="ignore"):
                        prim = con_to_prim(
                            system, interior.copy(), p_guess=guess, stats=stats,
                            tol=pipeline_mod.RECOVERY_TOL, max_newton=max_newton,
                        ).tobytes()
                except RecoveryError as exc:
                    prim = ("raised", exc.n_failed, np.asarray(exc.indices).tolist())
                solved.append((prim, stats))
            assert solved[0] == solved[1]

        check()

    def test_c2p_newton_refuses_buffers_it_would_overrun(self):
        """C indexes the Newton kernel's buffers by ``D.size`` unchecked: a
        ``p`` that is not float64 of that many entries, or an input of
        another size, is refused before C runs, and ``p`` is untouched."""
        system = self._pair("1d")["cext"].system
        rng = np.random.default_rng(3)
        D, S2, tau = rng.uniform(1.0, 2.0, (3, 8))
        p_lo = np.full(8, 1e-16)
        kw = dict(tol=1e-12, p_floor=1e-16, max_newton=50)
        backing = np.zeros(16, np.float32)
        with pytest.raises(CodegenError, match="8 entries per buffer, a float64 p"):
            system.c2p_newton(D, S2, tau, backing[:8], p_lo, **kw)
        assert not backing.any()
        p = np.ones(8)
        with pytest.raises(CodegenError, match=r"\[4, 8, 8, 8\]"):
            system.c2p_newton(D, S2[:4], tau, p, p_lo, **kw)
        assert (p == 1.0).all()
        converged, _ = system.c2p_newton(D, S2, tau, p, p_lo, **kw)
        assert converged.all()

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
        calls = self._interpreted(monkeypatch)
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
        calls = self._interpreted(monkeypatch)
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
        calls = self._interpreted(monkeypatch)
        prim = pipes["cext"].recover_primitives(strided[None])
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
        cons = self._cons(pipes["cext"], 1)[None]
        prim = np.zeros_like(cons)
        seed, next_seed = np.ones(grid.shape), np.empty(grid.shape)
        warm, scan = np.ones(1, dtype=np.uint8), np.empty((1, system.ndim))
        params = dict(
            tol=1e-12, p_floor=1e-16, max_newton=50, rho_atmo=1e-10, p_atmo=1e-12,
            rho_reset=1e-9, vmax=0.99,
        )
        bound = dict(prim=prim, seeds=(seed, next_seed), warm=warm, scan=scan)
        for bad in (
            dict(prim=prim[:, :, 1:]),  # another shape
            dict(prim=np.asfortranarray(prim)),
            dict(seeds=(seed, next_seed[1:])),
            dict(seeds=(seed.astype(np.float32), next_seed)),
            dict(warm=np.ones(2, dtype=np.uint8)),  # a flag per patch
            dict(warm=np.ones(1, dtype=bool)),
            dict(scan=np.empty((1, system.ndim + 1))),  # a row per patch, ndim wide
        ):
            args = bound | bad
            with pytest.raises(CodegenError, match="C-contiguous"):
                system.bind_recover(
                    cons.shape, grid.n_ghost, args["prim"], args["seeds"], args["warm"],
                    args["scan"], **params,
                )
        call = system.bind_recover(cons.shape, grid.n_ghost, **bound, **params)
        for bad in (
            dict(cons=cons[:, :, 1:].copy()),  # another shape
            dict(cons=np.asfortranarray(cons)),
            dict(cons=cons.astype(np.float32)),
            dict(prim=prim[:, :, :, 1:]),
            dict(next_seed=next_seed[1:]),
            dict(seed=seed.astype(np.float32)),
            dict(scan=np.empty((1, system.ndim + 1))),
        ):
            args = dict(cons=cons, prim=prim, seed=seed, next_seed=next_seed, scan=scan) | bad
            before = cons.copy()
            with pytest.raises(CodegenError, match="C-contiguous float64"):
                system.recover(
                    call, args["cons"], args["prim"], args["seed"], args["next_seed"],
                    False, args["scan"],
                )
            assert cons.tobytes() == before.tobytes()  # refused before C ran


@legacy("test_codegen.py::TestCompiledUpdate")
class TestCompiledUpdate:
    """The compiled update stage — ``accumulate`` and ``rk_stage`` — against
    the interpreted expressions it replaces: a ``cext`` stack of P patches
    is the ``flat`` pipeline run patch by patch, over every layout of
    ``KERNEL_LAYOUTS``; what it leaves to the interpreted pass and what it
    refuses before C runs.  (The sweep's in-tile difference:
    ``TestPatchStacks``; whole runs of every driver, the lattice's ``cext``
    cells.)"""

    @staticmethod
    def _accumulate_property(layout):
        """Every axis cut into arbitrary regions, each differenced by the
        sweep and accumulated in ascending axis order, is each patch's whole
        ``flat`` sweep, ghosts still exactly +0.0; and a NaN, +-inf or -0.0
        entry of a region's divergence lands in its own cell only, as the
        interpreted ``target -= div`` puts it there."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        ndim = KERNEL_LAYOUTS[layout][0]

        @given(
            data=st.data(),
            seed=st.integers(0, 2**32 - 1),
            n_patches=st.sampled_from(STACKS),
            poison=st.sampled_from([np.nan, np.inf, -np.inf, -0.0]),
        )
        @settings(max_examples=5, deadline=None, database=None)
        def check(data, seed, n_patches, poison):
            kw = dict(reconstruction="mc", riemann="hll")
            stack = kernel_pipeline("cext", layout, n_patches, **kw)
            flat = kernel_pipeline("flat", layout, **kw)
            assert hasattr(stack.system, "accumulate") and not hasattr(flat.system, "accumulate")
            prim = np.stack([
                TestFusedStencilParity._ghosted_prim(flat, seed + i, True)
                for i in range(n_patches)
            ])
            regions = []
            for axis, n in enumerate(flat.grid.shape[:ndim]):
                cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=3)))
                regions += [(axis, lo, hi) for lo, hi in zip([0, *cuts], [*cuts, n])]
            divs = sorted(
                ((axis, lo, hi, stack.flux_divergence_region(prim, axis, lo, hi).copy())
                 for axis, lo, hi in data.draw(st.permutations(regions))),
                key=lambda e: e[0],
            )
            dU = stack.begin_flux_divergence().copy()
            for axis, lo, hi, div in divs:
                stack.accumulate_divergence(dU, axis, lo, hi, div)
            ghosts = np.ones(dU.shape, dtype=bool)
            for patch in ghosts:
                flat.grid.interior_of(patch)[...] = False
            assert dU[ghosts].tobytes() == np.zeros(int(ghosts.sum())).tobytes()
            # One poisoned entry per region, through both accumulates.
            rng = np.random.default_rng(seed)
            for *_, div in divs:
                div.reshape(-1)[rng.integers(div.size)] = poison
            got = stack.begin_flux_divergence()
            with np.errstate(all="ignore"):
                for axis, lo, hi, div in divs:
                    stack.accumulate_divergence(got, axis, lo, hi, div)
                for i in range(n_patches):
                    whole = flat.flux_divergence(prim[i : i + 1].copy())
                    assert dU[i].tobytes() == whole.tobytes(), (i, regions)
                    ref = flat.begin_flux_divergence()
                    for axis, lo, hi, div in divs:
                        flat.accumulate_divergence(ref, axis, lo, hi, div[:, i : i + 1])
                    assert got[i].tobytes() == ref.tobytes(), (i, poison)
            changed = got.view(np.uint64) != dU.view(np.uint64)
            assert changed.sum() <= len(divs) and not changed[ghosts].any()

        check()

    @staticmethod
    def _rk_stage_property(layout, names=("euler", "ssprk2", "ssprk3")):
        """Stage by stage of each integrator's table (*names*), on random,
        denormal, signed-zero, infinite and NaN inputs: each patch's
        combination, the intermediates in the workspace and the result
        owned."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.time_integration.ssprk import make_integrator

        special = np.array([0.0, -0.0, 5e-324, -2e-310, np.inf, -np.inf, np.nan, 1e308])

        @given(seed=st.integers(0, 2**32 - 1), n_patches=st.sampled_from(STACKS))
        @settings(max_examples=3, deadline=None, database=None)
        def check(seed, n_patches):
            stack = kernel_pipeline("cext", layout, n_patches)
            flat = kernel_pipeline("flat", layout)
            rng = np.random.default_rng(seed)
            shape = stack._state_shape
            U, V, k = (
                np.where(rng.random(shape) < 0.4, rng.choice(special, shape),
                         rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, shape))
                for _ in range(3)
            )
            for table in (make_integrator(n).table for n in names):
                for j, stage in enumerate(table):
                    final = j + 1 == len(table)
                    prev = U if j == 0 else V
                    with np.errstate(all="ignore"):
                        got = stack.combine_stage(stage, U, prev, 0.37, k, final)
                        for i in range(n_patches):
                            one = slice(i, i + 1)
                            ref = flat.combine_stage(stage, U[one], prev[one], 0.37, k[one], final)
                            assert got[i].tobytes() == ref.tobytes(), (stage, i)
                    in_ws = any(got is b for b in stack.workspace._bufs.values())
                    assert in_ws != final  # intermediates recycled, the result owned
                    V = got

        check()

    def test_any_partition_accumulates_to_the_full_sweep(self):
        """The accumulate property on the production build."""
        for layout in KERNEL_LAYOUTS:
            self._accumulate_property(layout)

    def test_on_a_team(self, team):
        """The accumulate and stage properties with every call on a team of
        *team* threads."""
        for layout in KERNEL_LAYOUTS if team > 1 else ():
            self._accumulate_property(layout)
            self._rk_stage_property(layout)

    def test_strided_state_takes_the_interpreted_pass_uncopied(self, monkeypatch):
        """A non-contiguous ``dU`` / ``div`` / state is never copied
        contiguous: the interpreted pass writes the array it was handed."""
        from repro.codegen import cext_available

        if not cext_available(2):
            pytest.skip("no C toolchain")
        flat, cext = (kernel_pipeline(t, reconstruction="mc", riemann="hll") for t in ("flat", "cext"))
        calls = []  # the compiled calls that ran (a refused one raises before C)
        for hook in ("accumulate", "rk_stage"):
            inner = getattr(cext.system, hook)
            monkeypatch.setattr(
                cext.system, hook, lambda *a, _inner=inner: (_inner(*a), calls.append(1))[0]
            )
        prim = TestFusedStencilParity._ghosted_prim(cext, 4, True)[None]
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
        cext = kernel_pipeline("cext", reconstruction="mc", riemann="hll")
        system, g, (nx, ny) = cext.system, cext.grid.n_ghost, cext.grid.shape
        dU = cext.begin_flux_divergence()
        div = np.ones((system.nvars, 1, ny, nx))
        for lo, hi, d in ((0, nx + 1, div), (-1, nx - 1, div), (3, 3, div[..., :0]),
                          (0, nx, div[..., 1:]), (0, nx, div[:, :, 1:])):
            with pytest.raises(CodegenError, match="does not fit the interior"):
                system.bind_accumulate(dU.shape, 0, g, lo, hi, dU, np.ascontiguousarray(d))
        assert not dU.any()
        state = np.zeros((3, 8))
        rk_stage = system.bind_rk_stage(state.shape)
        for out in (state, state[:2], np.zeros((3, 8), dtype=np.float32)):
            with pytest.raises(CodegenError, match="aliases|C-contiguous float64"):
                system.rk_stage(rk_stage, (0, 1.0, 1.0), state, state, 0.1, state + 1.0, out)
        with pytest.raises(CodegenError, match="aliases"):
            system.rk_stage(
                rk_stage, (1, 0.5, 0.5), state, state + 1.0, 0.1, state + 2.0, state[1:2]
            )
        assert not state.any()

    @pytest.mark.parametrize("name", ["euler", "ssprk2", "ssprk3"])
    def test_every_stage_is_the_numpy_expression(self, name):
        """The table ``rk_stage`` and ``combine_stage`` read reproduces the
        integrator's abscissae and the three formulas written out."""
        from repro.time_integration.ssprk import make_integrator

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
        for layout in KERNEL_LAYOUTS:  # ... and so does the production kernel
            self._rk_stage_property(layout, (name,))


class TestPatchStacks:
    """One ``face_flux`` call over a stack of P same-shape patches, each of
    its own spacing, with its in-tile difference, is the ``flat`` sweep of
    each patch, byte for byte: the property over every layout of
    ``KERNEL_LAYOUTS``."""

    @staticmethod
    def _face_flux_property(layout):
        """Every reconstruction x Riemann solver, a region of 1, 2, T - 1,
        T + 1 or T + 3 cells anywhere along any axis of a patch T + 3 cells
        long that way, each patch's spacing drawn, smooth, discontinuous or
        near-luminal states, one patch maybe poisoned: each patch's
        divergence (over its own spacing) and the sanitize counts.  A NaN patch's own faces are not flat's (the prologue's
        ``rmin``/``rmax`` contract, ``test_lanes_are_independent``): the
        other patches' are, and every patch's, the NaN patch's included,
        are those of a ``cext`` call over that patch alone."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.codegen.generator import STENCIL_TILE as T

        ndim = KERNEL_LAYOUTS[layout][0]

        @given(
            data=st.data(),
            seed=st.integers(0, 2**32 - 1),
            n_patches=st.sampled_from(STACKS),
            combo=st.sampled_from(TestFusedStencilParity.COMBOS),
            axis=st.integers(0, ndim - 1),
            width=st.sampled_from([1, 2, T - 1, T + 1, T + 3]),
            extreme=st.booleans(),
            poison=st.sampled_from([None, "nan", "superluminal", "negative_rho"]),
        )
        @settings(max_examples=6, deadline=None, database=None)
        def check(data, seed, n_patches, combo, axis, width, extreme, poison):
            recon, riemann = combo
            shape = tuple(T + 3 if ax == axis else 3 for ax in range(ndim))
            kw = dict(shape=shape, reconstruction=recon, riemann=riemann)
            extents = data.draw(st.lists(
                st.floats(0.01, 100.0), min_size=n_patches, max_size=n_patches
            ))
            stack = kernel_pipeline("cext", layout, n_patches, extents=extents, **kw)
            ones = [kernel_pipeline("cext", layout, extents=[e], **kw) for e in extents]
            flats = [kernel_pipeline("flat", layout, extents=[e], **kw) for e in extents]
            flat = flats[0]
            prim = np.stack([
                TestFusedStencilParity._ghosted_prim(flat, seed + i, True, extreme)
                for i in range(n_patches)
            ])
            victim, system, g = seed % n_patches, flat.system, flat.grid.n_ghost
            if poison:
                var, value = {
                    "nan": (system.RHO, np.nan), "superluminal": (system.V(axis), 1.5),
                    "negative_rho": (system.RHO, -1.0),
                }[poison]
                prim[(victim, var) + (g,) * len(flat.grid.shape)] = value
            lo = data.draw(st.integers(0, T + 3 - width))
            with np.errstate(all="ignore"):
                div = stack.flux_divergence_region(prim, axis, lo, lo + width)
                for i, (one, interpreted) in enumerate(zip(ones, flats)):
                    alone = one.flux_divergence_region(prim[i : i + 1], axis, lo, lo + width)
                    assert div[:, i].tobytes() == alone.tobytes(), (recon, riemann, i, lo)
                    ref = interpreted.flux_divergence_region(prim[i : i + 1], axis, lo, lo + width)
                    if poison != "nan" or i != victim:
                        assert div[:, i].tobytes() == ref.tobytes(), (recon, riemann, i, lo)

            def counters(pipes):
                total = Counter()
                for pipe in pipes:
                    total.update(pipe.metrics.snapshot()["counters"])
                return dict(total)

            assert stack.metrics.snapshot()["counters"] == counters(ones)
            if poison != "nan":
                assert stack.metrics.snapshot()["counters"] == counters(flats)

        check()

    def test_a_spacing_row_of_another_length_is_refused(self):
        """C reads one spacing per patch unchecked: a row of another length
        (or a bare number) is refused before the call."""
        stack = kernel_pipeline("cext", "2d", 2, reconstruction="mc", riemann="hll")
        prim = np.stack([
            TestFusedStencilParity._ghosted_prim(stack, i, True) for i in range(2)
        ])
        g, n = stack.grid.n_ghost, stack.grid.shape[0]
        for dx in (np.ones(1), np.ones(3), np.ones((2, 1)), 0.5):
            with pytest.raises(CodegenError, match="one spacing per patch"):
                stack.system.bind_face_flux(
                    prim.shape, 0, g - 1, n + 1, ids=stack._fused_ids,
                    vmax2=0.99, rho_atmo=1e-10, p_atmo=1e-12, n_ghost=g, dx=dx,
                )

    def test_a_stack_is_its_patches(self):
        """The sweep property on the production build."""
        for layout in KERNEL_LAYOUTS:
            self._face_flux_property(layout)

    def test_a_stack_is_its_patches_on_a_team(self, team):
        """The sweep property with every call on a team of *team* threads:
        a stack of several patches splits by patches, a single patch by
        cells and rows."""
        for layout in KERNEL_LAYOUTS if team > 1 else ():
            self._face_flux_property(layout)


@legacy("test_codegen.py::TestThreadCounts")
class TestThreadCounts:
    """The production build at 1, 2 and 4 threads: a recovery's scan over
    calls that reach the team.  (Whole runs at 2 threads: the lattice's
    ``threads`` cells.)"""

    def test_the_recovery_scan_at_any_team_size(self, monkeypatch):
        """The scan a recovery makes over a 64^2 patch (the single-patch row
        split) and a stack of four 32^2 patches (the patch split), the last
        with a cell Newton cannot recover: the handwritten scan of the
        recovered primitives at every team size, that patch's
        interpreted."""
        from repro.boundary import make_boundaries
        from repro.codegen import cext as cext_mod
        from repro.core.config import SolverConfig
        from repro.core.pipeline import HydroPipeline
        from repro.mesh.grid import Grid
        from repro.time_integration.cfl import max_signal_per_axis

        if not cext_mod.cext_available(2):
            pytest.skip("no C toolchain")
        plain = SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=2)
        config = SolverConfig(kernel_target="cext", failsafe_frac=0.01)
        bcs = make_boundaries("outflow")
        rng = np.random.default_rng(3)
        calls = TestCompiledRecovery._interpreted(monkeypatch, "max_signal_per_axis")
        before = cext_mod.threads(2)
        try:
            for n_patches, n, victims in ((1, 64, []), (4, 32, [3])):
                grid = Grid((n, n), ((0.0, 1.0), (0.0, 1.0)), n_ghost=3)
                pipe = HydroPipeline(plain, grid, bcs, config, patches=[(grid, bcs)] * n_patches)
                cons = np.stack([
                    SRHDSystem.prim_to_con(plain, random_prim(plain, grid.shape_with_ghosts, rng))
                    for _ in range(n_patches)
                ])
                for victim in victims:  # one cell nothing recovers: failsafe reset
                    grid.interior_of(cons[victim])[:, n // 2, n // 3] = [
                        6.53e-3, 6.531e-3, 0.0, 1e-12
                    ]
                got = []
                for threads in (1, 2, 4):
                    _set_team(threads)
                    prim = pipe.recover_primitives(cons.copy())
                    calls.clear()
                    got.append(np.array(pipe.max_signal_per_axis(prim)).tobytes())
                    assert len(calls) == len(victims), threads
                    want = [max_signal_per_axis(plain, grid, p) for p in prim]
                    assert got[-1] == np.array(want).tobytes(), threads
                    for i in range(n_patches):  # every patch starts cold again
                        pipe.install_warm_state(None, i)
                assert got[1:] == got[:1] * 2
        finally:
            cext_mod.threads(2, before)

    def test_a_wide_batch_accumulates_on_a_team_as_on_one_thread(self, monkeypatch):
        """``serve_sweep96``'s layout, a 1-D batch of 32 members of 512
        cells, clears the weighted team threshold, and its accumulate — on
        a strided axis, whose rows a team splits — gives the 1-thread bytes
        at 2 and 4 threads, NaN, infinities and signed zeros included."""
        from repro.codegen import cext as cext_mod
        from repro.codegen.generator import TEAM_COST, TEAM_MIN_WORK

        monkeypatch.setattr("tests.lattice.KERNEL_LAYOUTS", dict(KERNEL_LAYOUTS, batch32=(1, 32)))
        pipe = kernel_pipeline("cext", "batch32", shape=(512,), reconstruction="mc", riemann="hll")
        rng = np.random.default_rng(5)
        shape = (pipe.system.nvars, 1, 32, 512)
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324])
        div = np.where(rng.random(shape) < 0.05, rng.choice(special, shape), rng.normal(size=shape))
        assert TEAM_COST["accumulate"] * 32 * 512 >= TEAM_MIN_WORK
        before, got = cext_mod.threads(1), []
        try:
            for threads in (1, 2, 4):
                _set_team(threads)
                dU = rng.normal(size=pipe._state_shape) if not got else got[0][1].copy()
                start = dU.copy()
                with np.errstate(all="ignore"):
                    pipe.accumulate_divergence(dU, 0, 0, 512, div)
                got.append((dU.tobytes(), start))
        finally:
            cext_mod.threads(1, before)
        assert [b for b, _ in got[1:]] == [got[0][0]] * 2


@legacy("test_codegen.py::TestFusedSolverDigest")
class TestFusedSolverDigest:
    """End to end: a cext run is the flat run, byte for byte — cells of the
    equivalence lattice (``tests/lattice.py``)."""


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
        cext_mod.clear_modules()
        cext_mod.load_cext_module(1)
        name, _, _ = cext_mod.module_spec(1)
        path = cext_mod.artifact_path(name)
        assert path.exists()
        os.utime(path, (1000.0, 1000.0))
        cext_mod.clear_modules()
        cext_mod.load_cext_module(1)
        assert path.stat().st_mtime > 1000.0
        cext_mod.clear_modules()


class TestBoundCalls:
    """Each compiled kernel is bound once per stack — shapes, element types
    and stencil reach checked, the pointers to the buffers the stack keeps
    made — and a call checks and points to only an array it has not seen:
    what a binding and a call refuse, that no binding outlives its buffer,
    and the pointers a steady step makes."""

    @staticmethod
    def _stack():
        pipe = kernel_pipeline("cext", "2d", 2, reconstruction="mc", riemann="hllc")
        prim = np.stack([TestFusedStencilParity._ghosted_prim(pipe, i, True) for i in range(2)])
        return pipe, prim

    @pytest.mark.parametrize("dtype", [np.float32, np.int32])
    @pytest.mark.parametrize("output", ["out", "div"])
    def test_a_sweep_output_of_another_element_type_is_refused(self, output, dtype):
        """C writes 8 bytes per element of a sweep's outputs: an ``out`` or
        ``div`` of 4-byte elements, of the right element count, would be
        written past its end."""
        pipe, prim = self._stack()
        g, (n, ny) = pipe.grid.n_ghost, pipe.grid.shape
        kw = dict(ids=pipe._fused_ids, vmax2=0.99, rho_atmo=1e-10, p_atmo=1e-12,
                  n_ghost=g, dx=pipe.dx[0])
        bad = np.zeros((pipe.system.nvars, 2 * ny, n + (output == "out")), dtype=dtype)
        with pytest.raises(CodegenError, match="C-contiguous float64"):
            if output == "div":
                pipe.system.bind_face_flux(prim.shape, 0, g - 1, n + 1, div=bad, **kw)
            else:
                sweep = pipe.system.bind_face_flux(prim.shape, 0, g - 1, n + 1, **kw)
                pipe.system.face_flux(sweep, prim, bad)
        assert not bad.any()

    @pytest.mark.parametrize("kernel", ["sweep", "recover", "accumulate", "rk_stage", "program"])
    def test_a_bound_call_refuses_a_state_it_cannot_walk(self, kernel):
        """A state of another shape, a non-contiguous state and a non-float64
        state are each refused before C runs — by the call, once bound, as
        they were per call before; a gather program by its ``MeshError``."""
        from repro import Grid, SolverConfig
        from repro.boundary import make_boundaries
        from repro.core.amr_solver import AMRConfig, AMRSolver
        from repro.mesh.amr.forest import run_program
        from repro.physics.initial_data import blast_wave_2d
        from repro.utils.errors import MeshError

        pipe, prim = self._stack()
        system, g, n = pipe.system, pipe.grid.n_ghost, pipe.grid.shape[0]
        cons = np.stack([SRHDSystem.prim_to_con(system, p) for p in prim])
        refused = CodegenError
        if kernel == "sweep":
            state = prim
            call = lambda s: system.face_flux(pipe._region(0, 0, n)[1], s)  # noqa: E731
        elif kernel == "recover":
            state = cons
            pipe.recover_primitives(cons.copy())  # binds the recovery
            call = lambda s: system.recover(  # noqa: E731
                pipe._recover_call, s, pipe.workspace.prim, pipe._p_cache, pipe._seed_spare, False
            )
        elif kernel == "accumulate":
            div = pipe.flux_divergence_region(prim, 0, 0, n)
            state = pipe.begin_flux_divergence()
            bound = system.bind_accumulate(prim.shape, 0, g, 0, n, state, div)
            call = lambda s: system.accumulate(bound, s, div, True)  # noqa: E731
        elif kernel == "rk_stage":
            state = cons
            call = lambda s: system.rk_stage(  # noqa: E731
                pipe._rk_call, (0, 1.0, 1.0), s, cons, 0.1, pipe.workspace.dU, np.empty(cons.shape)
            )
        else:
            plain = SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=2)
            amr = AMRSolver(
                plain, Grid((16, 16), ((0.0, 1.0), (0.0, 1.0))),
                lambda s, grid: blast_wave_2d(s, grid, p_in=10.0, p_out=1.0),
                SolverConfig(kernel_target="cext"), AMRConfig(block_size=8, max_levels=1),
                make_boundaries("periodic"),
            )
            program, _ = amr._get_ghost_plan()
            state, refused = amr._prims().stacks[0], MeshError
            call = lambda s: run_program(program, [s], amr._kernel_system)  # noqa: E731
        call(state)  # binds what the call keeps
        with np.errstate(over="ignore"):
            narrow = state.astype(np.float32)
        for bad in (state[..., 1:].copy(), np.asfortranarray(state), narrow):
            before = bad.copy()
            with pytest.raises(refused, match="C-contiguous"):
                call(bad)
            assert bad.tobytes() == before.tobytes()  # refused before C ran

    def test_no_binding_outlives_its_buffer(self):
        """Bindings follow array identity: an AMR run across a refining
        regrid and through a ``state()``/``install_state()`` round trip, and
        a seed installed into a cold patch, give the bytes of the ``flat``
        runs, which bind nothing."""
        from repro import Grid, SolverConfig
        from repro.boundary import make_boundaries
        from repro.core.amr_solver import AMRConfig, AMRSolver
        from repro.physics.initial_data import blast_wave_2d

        runs = {}
        for target in ("cext", "flat"):
            amr = AMRSolver(
                SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=2),
                Grid((32, 32), ((0.0, 1.0), (0.0, 1.0))),
                lambda s, grid: blast_wave_2d(s, grid, center=(0.4, 0.45), p_in=10.0, p_out=1.0),
                SolverConfig(kernel_target=target, cfl=0.4),
                AMRConfig(block_size=8, max_levels=2, regrid_interval=2,
                          refine_threshold=0.05, coarsen_threshold=0.01),
                make_boundaries("periodic"),
            )
            if target == "cext" and not hasattr(amr._kernel_system, "run_program"):
                pytest.skip("no C toolchain")
            leaves = [len(amr.forest.leaves)]
            for _ in range(5):
                amr.step()
                leaves.append(len(amr.forest.leaves))
            amr.install_state(amr.state())
            for _ in range(3):
                amr.step()
            runs[target] = [
                (key, cons.tobytes(), None if seed is None else seed.tobytes())
                for key, (cons, seed) in amr.state()["patches"].items()
            ]
        assert len(set(leaves)) > 1, "no regrid changed the forest"
        assert runs["cext"] == runs["flat"]

        pipes = {t: kernel_pipeline(t, "2d", 2, reconstruction="mc", riemann="hllc") for t in ("cext", "flat")}
        cons = np.stack([
            SRHDSystem.prim_to_con(pipes["flat"].system, TestFusedStencilParity._ghosted_prim(pipes["flat"], i, True))
            for i in range(2)
        ])
        got = {}
        for target, pipe in pipes.items():
            pipe.recover_primitives(cons.copy())
            seed = pipe.warm_state(0)
            pipe.install_warm_state(None, 1)
            cold = pipe.recover_primitives(cons.copy()).tobytes()
            pipe.install_warm_state(seed * 1.01, 1)
            warm = pipe.recover_primitives(cons.copy()).tobytes()
            got[target] = (cold, warm, pipe.warm_state(0).tobytes(), pipe.warm_state(1).tobytes())
        assert got["cext"] == got["flat"]

    @pytest.mark.parametrize("driver, budget, calls", [("solver", 30, 18), ("amr", 45, 24.05)])
    def test_a_steady_step_makes_few_pointers(self, monkeypatch, driver, budget, calls):
        """``ffi.from_buffer`` calls per steady step: what is bound once per
        stack is not pointed to again — at most *budget* on a 96² periodic
        ``Solver`` step (79 when every call bound its arguments) and on the
        ``amr_blast2d`` configuration (117) — while the compiled calls per
        step stay *calls*."""
        from repro import Grid, Solver, SolverConfig
        from repro.boundary import make_boundaries
        from repro.codegen.system import CompiledSRHDSystem
        from repro.core.amr_solver import AMRConfig, AMRSolver
        from repro.physics.initial_data import blast_wave_2d, kelvin_helmholtz_2d

        require_cext(2)
        made = Counter()

        class CountingFFI:
            def __init__(self, ffi):
                self._ffi = ffi

            def from_buffer(self, *args, **kwargs):
                made["from_buffer"] += 1
                return self._ffi.from_buffer(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self._ffi, name)

        real_init = CompiledSRHDSystem.__init__

        def counting_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            self._ffi = CountingFFI(self._ffi)

        monkeypatch.setattr(CompiledSRHDSystem, "__init__", counting_init)
        for hook in ("recover", "face_flux", "accumulate", "rk_stage", "run_program"):
            def counting(self, *args, _real=getattr(CompiledSRHDSystem, hook)):
                made["calls"] += 1
                return _real(self, *args)

            monkeypatch.setattr(CompiledSRHDSystem, hook, counting)
        system = SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=2)
        if driver == "solver":
            grid = Grid((96, 96), ((0.0, 1.0), (0.0, 1.0)))
            solver = Solver(
                system, grid, kelvin_helmholtz_2d(system, grid, seed=0),
                SolverConfig(kernel_target="cext", cfl=0.4), make_boundaries("periodic"),
            )
        else:
            solver = AMRSolver(
                system, Grid((32, 32), ((0.0, 1.0), (0.0, 1.0))),
                lambda s, grid: blast_wave_2d(s, grid, center=(0.4, 0.45), p_in=10.0, p_out=1.0),
                SolverConfig(kernel_target="cext", cfl=0.4),
                AMRConfig(block_size=8, max_levels=2, regrid_interval=2,
                          refine_threshold=0.4, coarsen_threshold=0.1),
                make_boundaries("periodic"),
            )
        steps = 40
        solver.step()
        made.clear()
        for _ in range(steps):
            solver.step()
        # (an AMR step makes 23 or 26, and one in a while a recovery more;
        # a step after a regrid that changed no leaf fills one ghost set less)
        assert made["calls"] / steps == pytest.approx(calls, abs=0.05)
        assert made["from_buffer"] / steps <= budget, made
