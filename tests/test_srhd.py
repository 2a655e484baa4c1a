"""Unit and property tests for the SRHD system and con2prim recovery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eos import HybridEOS, IdealGasEOS
from repro.physics.atmosphere import Atmosphere
from repro.physics.con2prim import RecoveryStats, con_to_prim
from repro.physics.srhd import SRHDSystem
from repro.utils.errors import ConfigurationError, RecoveryError

from .conftest import random_prim


class TestSRHDSystem:
    def test_variable_counts(self, eos):
        for ndim in (1, 2, 3):
            assert SRHDSystem(eos, ndim).nvars == ndim + 2

    def test_invalid_ndim(self, eos):
        with pytest.raises(ConfigurationError):
            SRHDSystem(eos, 4)

    def test_static_state_conserved_values(self, system1d):
        """At v = 0: D = rho, S = 0, tau = rho eps."""
        prim = np.array([[1.0], [0.0], [2.0 / 3.0]])  # rho=1, v=0, p=2/3 -> eps=1
        cons = system1d.prim_to_con(prim)
        assert cons[0, 0] == pytest.approx(1.0)
        assert cons[1, 0] == pytest.approx(0.0)
        assert cons[2, 0] == pytest.approx(1.0)  # tau = rho*eps = 1

    def test_lorentz_factor(self, system1d):
        prim = np.array([[1.0], [0.6], [1.0]])
        assert system1d.lorentz_factor(prim)[0] == pytest.approx(1.25)

    def test_superluminal_rejected(self, system1d):
        prim = np.array([[1.0], [1.0], [1.0]])
        with pytest.raises(ConfigurationError, match="superluminal"):
            system1d.lorentz_factor(prim)

    def test_flux_static_state(self, system1d):
        """Static fluid: only the momentum flux (pressure) is nonzero."""
        prim = np.array([[1.0], [0.0], [0.5]])
        cons = system1d.prim_to_con(prim)
        F = system1d.flux(prim, cons, 0)
        assert F[0, 0] == 0.0
        assert F[1, 0] == pytest.approx(0.5)
        assert F[2, 0] == 0.0

    def test_char_speeds_static(self, system1d, eos):
        """At rest the characteristics are +-cs."""
        prim = np.array([[1.0], [0.0], [0.5]])
        eps = eos.eps_from_pressure(1.0, 0.5)
        cs = float(np.sqrt(eos.sound_speed_sq(1.0, eps)))
        lam_m, lam_p = system1d.char_speeds(prim, 0)
        assert lam_m[0] == pytest.approx(-cs)
        assert lam_p[0] == pytest.approx(cs)

    def test_char_speeds_subluminal(self, system2d, rng):
        prim = random_prim(system2d, (8, 8), rng, vmax=0.99)
        for ax in range(2):
            lam_m, lam_p = system2d.char_speeds(prim, ax)
            assert np.all(np.abs(lam_m) < 1.0)
            assert np.all(np.abs(lam_p) < 1.0)
            assert np.all(lam_m <= lam_p)

    def test_char_speeds_ordering_with_flow(self, system1d):
        """A moving fluid drags both characteristics in the flow direction."""
        still = np.array([[1.0], [0.0], [0.5]])
        moving = np.array([[1.0], [0.5], [0.5]])
        _, lam_p0 = system1d.char_speeds(still, 0)
        _, lam_p1 = system1d.char_speeds(moving, 0)
        assert lam_p1[0] > lam_p0[0]

    def test_max_signal_speed_all_axes(self, system2d, rng):
        prim = random_prim(system2d, (4, 4), rng)
        vmax = system2d.max_signal_speed(prim)
        per_axis = max(
            system2d.max_signal_speed(prim, 0), system2d.max_signal_speed(prim, 1)
        )
        assert vmax == pytest.approx(per_axis)

    def test_total_energy(self, system1d):
        prim = np.array([[2.0], [0.3], [1.0]])
        cons = system1d.prim_to_con(prim)
        E = system1d.total_energy(cons)
        assert E[0] == pytest.approx(cons[2, 0] + cons[0, 0])


class TestCon2Prim:
    def test_round_trip_1d(self, system1d, rng):
        prim = random_prim(system1d, (128,), rng, vmax=0.95)
        cons = system1d.prim_to_con(prim)
        recovered = con_to_prim(system1d, cons)
        np.testing.assert_allclose(recovered, prim, rtol=1e-9, atol=1e-11)

    def test_round_trip_2d(self, system2d, rng):
        prim = random_prim(system2d, (16, 16), rng, vmax=0.9)
        cons = system2d.prim_to_con(prim)
        recovered = con_to_prim(system2d, cons)
        np.testing.assert_allclose(recovered, prim, rtol=1e-9, atol=1e-11)

    def test_round_trip_3d(self, eos, rng):
        system = SRHDSystem(eos, ndim=3)
        prim = random_prim(system, (6, 6, 6), rng, vmax=0.9)
        cons = system.prim_to_con(prim)
        recovered = con_to_prim(system, cons)
        np.testing.assert_allclose(recovered, prim, rtol=1e-9, atol=1e-11)

    def test_ultrarelativistic(self, system1d):
        """W ~ 22 (v = 0.999): the regime the paper's solvers must survive."""
        prim = np.array([[1.0], [0.999], [0.1]])
        cons = system1d.prim_to_con(prim)
        recovered = con_to_prim(system1d, cons)
        np.testing.assert_allclose(recovered, prim, rtol=1e-8)

    def test_high_pressure_ratio(self, system1d):
        prim = np.array([[1.0, 1.0], [0.0, 0.0], [1000.0, 1e-8]])
        cons = system1d.prim_to_con(prim)
        recovered = con_to_prim(system1d, cons)
        np.testing.assert_allclose(recovered, prim, rtol=1e-8, atol=1e-14)

    def test_guess_accelerates(self, system1d, rng):
        prim = random_prim(system1d, (64,), rng)
        cons = system1d.prim_to_con(prim)
        stats_cold = RecoveryStats()
        con_to_prim(system1d, cons, stats=stats_cold)
        stats_warm = RecoveryStats()
        con_to_prim(system1d, cons, p_guess=prim[system1d.P], stats=stats_warm)
        assert stats_warm.max_iterations <= stats_cold.max_iterations

    def test_stats_accounting(self, system1d, rng):
        prim = random_prim(system1d, (32,), rng)
        cons = system1d.prim_to_con(prim)
        stats = RecoveryStats()
        con_to_prim(system1d, cons, stats=stats)
        assert stats.n_cells == 32
        assert stats.n_newton_converged + stats.n_bisection == 32

    def test_hybrid_eos_round_trip(self, rng):
        system = SRHDSystem(HybridEOS(K=1.0, gamma=2.0), ndim=1)
        prim = np.empty((3, 32))
        prim[0] = rng.uniform(0.1, 1.0, 32)
        prim[1] = rng.uniform(-0.5, 0.5, 32)
        # Hot states strictly above the cold isentrope.
        eps = system.eos.cold.eps_from_rho(prim[0]) + rng.uniform(0.1, 1.0, 32)
        prim[2] = system.eos.pressure(prim[0], eps)
        cons = system.prim_to_con(prim)
        recovered = con_to_prim(system, cons)
        np.testing.assert_allclose(recovered, prim, rtol=1e-7)

    @settings(max_examples=50, deadline=None)
    @given(
        rho=st.floats(min_value=1e-4, max_value=1e3),
        v=st.floats(min_value=-0.99, max_value=0.99),
        p=st.floats(min_value=1e-8, max_value=1e4),
    )
    def test_property_round_trip(self, rho, v, p):
        """con2prim inverts prim2con across the admissible state space.

        For cold ultrarelativistic states the achievable pressure accuracy
        is limited by catastrophic cancellation in eps = (Q(1-v^2)-p)/rho-1:
        Delta_p / p ~ (gamma - 1) * eps_machine * Q / p. The velocity and
        density bounds stay tight because v = S/Q barely feels Delta_p.
        """
        system = SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=1)
        prim = np.array([[rho], [v], [p]])
        cons = system.prim_to_con(prim)
        recovered = con_to_prim(system, cons)
        Q = float(cons[2, 0] + cons[0, 0] + p)
        p_rtol = max(1e-7, 10.0 * (2.0 / 3.0) * 2.3e-16 * Q / p)
        np.testing.assert_allclose(recovered[:2], prim[:2], rtol=1e-7, atol=1e-12)
        np.testing.assert_allclose(recovered[2], prim[2], rtol=p_rtol)

    def test_unphysical_state_raises(self, system1d):
        # tau too small for the momentum: no admissible pressure reproduces
        # a consistent EOS state, so recovery must fail loudly.
        cons = np.array([[1.0], [10.0], [0.1]])
        with pytest.raises(RecoveryError):
            con_to_prim(system1d, cons, max_newton=5, max_bisect=5)

    def test_stats_populated_on_failure(self, system1d):
        """The failing sweep's accounting must be available to the caller:
        stats are filled (including n_failed) before RecoveryError."""
        cons = np.empty((3, 3))
        cons[:, 0] = [1.0, 10.0, 0.1]  # unphysical: fails both solvers
        cons[:, 1] = [1.0, 0.0, 1.0]  # fine
        cons[:, 2] = [1.0, 0.3, 2.0]  # fine
        stats = RecoveryStats()
        with pytest.raises(RecoveryError) as excinfo:
            con_to_prim(system1d, cons, max_newton=5, max_bisect=5, stats=stats)
        assert stats.n_cells == 3
        assert stats.n_failed == excinfo.value.n_failed >= 1
        assert (
            stats.n_newton_converged + stats.n_bisection + stats.n_failed
            == stats.n_cells
        )

    def test_bisection_at_atmosphere_scale(self, system1d):
        """Forced bisection recovers atmosphere-level pressures accurately.

        The old bracket seed ``hi = max(4p, 2 lo + 1.0)`` started ~12 orders
        of magnitude above the root for p ~ 1e-12, so a bisection budget of
        40 left a 100% pressure error that the absolute acceptance term then
        silently waved through. The scale-relative seed converges tightly.
        """
        prim = np.array([[1e-8], [0.0], [1e-12]])
        cons = system1d.prim_to_con(prim)
        stats = RecoveryStats()
        recovered = con_to_prim(
            system1d, cons, max_newton=1, max_bisect=40, stats=stats
        )
        assert stats.n_bisection == 1  # Newton was denied; bisection did it
        assert stats.n_unbracketed == 0
        np.testing.assert_allclose(recovered[system1d.P], prim[2], rtol=1e-6)
        np.testing.assert_allclose(recovered[system1d.RHO], prim[0], rtol=1e-9)


class TestAtmosphere:
    def test_floors_low_density(self, system1d):
        atmo = Atmosphere(rho_atmo=1e-6, threshold_factor=10.0, p_atmo=1e-8)
        prim = np.array([[1e-7, 1.0], [0.5, 0.5], [1e-9, 1.0]])
        mask = atmo.apply_prim(system1d, prim)
        assert mask[0] and not mask[1]
        assert prim[0, 0] == 1e-6
        assert prim[1, 0] == 0.0  # velocity zeroed in floored cell
        assert prim[1, 1] == 0.5  # untouched elsewhere

    def test_pressure_floor_applied_everywhere(self, system1d):
        atmo = Atmosphere(rho_atmo=1e-6, p_atmo=1e-8)
        prim = np.array([[1.0], [0.0], [1e-12]])
        atmo.apply_prim(system1d, prim)
        assert prim[2, 0] == 1e-8

    def test_cons_floor(self, system1d):
        atmo = Atmosphere(rho_atmo=1e-6, p_atmo=1e-8)
        cons = np.array([[-1.0, 1.0], [0.3, 0.0], [-0.5, 1.0]])
        mask = atmo.apply_cons(system1d, cons)
        assert mask[0] and not mask[1]
        assert cons[0, 0] == 1e-6
        assert cons[1, 0] == 0.0
        assert cons[2, 0] == 1e-8
