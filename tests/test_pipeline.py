"""Unit tests for the HydroPipeline internals (guards and bookkeeping)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Grid, IdealGasEOS, SolverConfig, SRHDSystem
from repro.boundary import make_boundaries
from repro.core.pipeline import HydroPipeline
from repro.physics.initial_data import RP1, shock_tube, smooth_wave
from repro.utils.errors import ConfigurationError

from .conftest import require_cext


@pytest.fixture
def pipeline(system1d):
    grid = Grid((32,), ((0.0, 1.0),))
    return HydroPipeline(
        system1d, grid, make_boundaries("periodic"), SolverConfig(cfl=0.4)
    )


class TestConstruction:
    def test_ghost_requirement_enforced(self, system1d):
        grid = Grid((32,), ((0.0, 1.0),), n_ghost=1)
        with pytest.raises(ConfigurationError, match="ghost"):
            HydroPipeline(
                system1d, grid, make_boundaries(), SolverConfig(reconstruction="weno5")
            )


class TestSanitizeFaceStates:
    def test_superluminal_rescaled_to_cap(self, pipeline, system1d):
        q = np.array([[1.0], [0.8], [1.0]])
        q[1, 0] = 1.2  # unphysical reconstruction overshoot
        pipeline.sanitize_face_states(q)
        v = abs(q[1, 0])
        w_cap = pipeline.config.w_max
        assert v < 1.0
        assert 1.0 / np.sqrt(1 - v**2) == pytest.approx(w_cap, rel=1e-6)

    def test_2d_velocity_magnitude_capped(self, system2d):
        grid = Grid((8, 8), ((0, 1), (0, 1)))
        pipe = HydroPipeline(
            system2d, grid, make_boundaries(), SolverConfig(w_max=10.0)
        )
        q = np.zeros((4, 1))
        q[0] = 1.0
        q[1] = 0.9  # each component subluminal...
        q[2] = 0.9  # ...magnitude 1.27 is not
        q[3] = 1.0
        pipe.sanitize_face_states(q)
        v2 = q[1, 0] ** 2 + q[2, 0] ** 2
        assert v2 < 1.0
        # Direction preserved under the rescale.
        assert q[1, 0] == pytest.approx(q[2, 0])

    def test_floors_applied(self, pipeline):
        q = np.array([[1e-30], [0.0], [-1.0]])
        pipeline.sanitize_face_states(q)
        assert q[0, 0] >= pipeline.atmosphere.rho_atmo
        assert q[2, 0] >= pipeline.atmosphere.p_atmo

    def test_physical_states_untouched(self, pipeline):
        q = np.array([[1.0, 2.0], [0.3, -0.5], [1.0, 2.0]])
        before = q.copy()
        pipeline.sanitize_face_states(q)
        np.testing.assert_array_equal(q, before)


class TestLimitMomentum:
    def test_inadmissible_momentum_rescaled(self, pipeline, system1d):
        cons = np.array([[1.0], [100.0], [1.0]])  # |S| >> tau + D
        pipeline._limit_momentum(cons)
        vmax = np.sqrt(1 - 1 / pipeline.config.w_max**2)
        bound = vmax * (cons[2, 0] + cons[0, 0] + pipeline.atmosphere.p_atmo)
        assert abs(cons[1, 0]) <= bound * (1 + 1e-12)
        assert cons[0, 0] == 1.0 and cons[2, 0] == 1.0  # D, tau untouched

    def test_admissible_momentum_untouched(self, pipeline, system1d):
        prim = np.array([[1.0], [0.5], [1.0]])
        cons = system1d.prim_to_con(prim)
        before = cons.copy()
        pipeline._limit_momentum(cons)
        np.testing.assert_array_equal(cons, before)


class TestRhsBookkeeping:
    def test_ghost_entries_of_rhs_are_zero(self, pipeline, system1d):
        grid = pipeline.grid
        prim = smooth_wave(system1d, grid, amplitude=0.2, velocity=0.4)
        cons = system1d.prim_to_con(prim)
        dU = pipeline.rhs(cons)
        g = grid.n_ghost
        assert np.all(dU[:, :g] == 0.0)
        assert np.all(dU[:, -g:] == 0.0)

    def test_face_fluxes_not_stored_by_default(self, pipeline, system1d):
        grid = pipeline.grid
        prim = smooth_wave(system1d, grid)
        pipeline.rhs(system1d.prim_to_con(prim))
        assert pipeline.last_face_fluxes == {}

    def test_face_fluxes_stored_on_request(self, pipeline, system1d):
        pipeline.store_fluxes = True
        grid = pipeline.grid
        prim = smooth_wave(system1d, grid)
        pipeline.rhs(system1d.prim_to_con(prim))
        assert 0 in pipeline.last_face_fluxes
        assert pipeline.last_face_fluxes[0].shape == (3, grid.shape[0] + 1)

    def test_flux_divergence_telescopes(self, pipeline, system1d):
        """Interior sum of dU equals the boundary-flux difference (discrete
        conservation of the divergence operator)."""
        pipeline.store_fluxes = True
        grid = pipeline.grid
        prim = smooth_wave(system1d, grid, amplitude=0.3, velocity=0.4)
        cons = system1d.prim_to_con(prim)
        prim_full = pipeline.recover_primitives(cons)
        dU = pipeline.flux_divergence(prim_full)
        F = pipeline.last_face_fluxes[0]
        total = grid.interior_of(dU).sum(axis=1) * grid.dx[0]
        np.testing.assert_allclose(total, F[:, 0] - F[:, -1], atol=1e-13)

    def test_recovery_stats_accumulate(self, pipeline, system1d):
        grid = pipeline.grid
        prim = smooth_wave(system1d, grid)
        cons = system1d.prim_to_con(prim)
        cells = pipeline.metrics.counter("con2prim.cells")
        pipeline.recover_primitives(cons)
        n1 = cells.value
        pipeline.recover_primitives(cons)
        assert cells.value == 2 * n1


class TestRecoveryInstrumentation:
    def _cons(self, pipeline, system1d):
        prim = smooth_wave(system1d, pipeline.grid)
        return system1d.prim_to_con(prim)

    def test_warm_start_reuses_pressure_cache(
        self, pipeline, system1d, monkeypatch
    ):
        import repro.core.pipeline as mod

        guesses = []
        real = mod.con_to_prim

        def spy(system, cons, p_guess=None, **kw):
            guesses.append(None if p_guess is None else p_guess.copy())
            return real(system, cons, p_guess=p_guess, **kw)

        monkeypatch.setattr(mod, "con_to_prim", spy)
        cons = self._cons(pipeline, system1d)
        prim1 = pipeline.recover_primitives(cons.copy())
        pipeline.recover_primitives(cons.copy())
        assert guesses[0] is None
        # The second sweep is seeded with the first sweep's pressures.
        np.testing.assert_array_equal(
            guesses[1], pipeline.grid.interior_of(prim1)[system1d.P]
        )

    def test_metrics_counters_populated(self, pipeline, system1d):
        cons = self._cons(pipeline, system1d)
        pipeline.recover_primitives(cons)
        snap = pipeline.metrics.snapshot()["counters"]
        n = pipeline.grid.shape[0]
        assert snap["con2prim.cells"] == n
        assert (
            snap["con2prim.newton_converged"]
            + snap["con2prim.bisection"]
            + snap["con2prim.failed"]
            == snap["con2prim.cells"]
        )

    def test_atmosphere_resets_counted(self, pipeline, system1d):
        cons = self._cons(pipeline, system1d)
        # Push a few interior cells below the conserved-density floor.
        interior = pipeline.grid.interior_of(cons)
        interior[system1d.D, :3] = 1e-30
        interior[system1d.S(0), :3] = 0.0
        interior[system1d.TAU, :3] = 1e-30
        pipeline.recover_primitives(cons)
        snap = pipeline.metrics.snapshot()["counters"]
        assert snap["atmo.cons_floored"] >= 3
        assert snap["atmo.prim_reset"] >= 3

    def test_sanitize_counts_rescales_and_floors(self, pipeline):
        q = np.array([[1.0, 1e-30], [1.2, 0.0], [1.0, -1.0]])
        pipeline.sanitize_face_states(q)
        snap = pipeline.metrics.snapshot()["counters"]
        assert snap["sanitize.velocity_rescaled"] == 1
        assert snap["sanitize.floored"] == 2  # rho and p of the second cell

    def test_failure_still_accounted(self, pipeline, system1d, monkeypatch):
        """A raising sweep must leave counters and stats populated (and the
        con2prim timer aborted, not accumulated)."""
        import repro.core.pipeline as mod
        from repro.utils.errors import RecoveryError

        def failing(system, cons, p_guess=None, stats=None, **kw):
            n = cons.shape[1]
            stats.n_cells, stats.n_newton_converged, stats.n_failed = n, n - 2, 2
            raise RecoveryError("forced", n_failed=2)

        monkeypatch.setattr(mod, "con_to_prim", failing)
        cons = self._cons(pipeline, system1d)
        with pytest.raises(RecoveryError):
            pipeline.recover_primitives(cons)
        n = pipeline.grid.shape[0]
        snap = pipeline.metrics.snapshot()["counters"]
        assert snap["con2prim.failed"] == 2
        assert snap["con2prim.cells"] == n
        assert snap["con2prim.newton_converged"] == n - 2
        assert pipeline.timers["con2prim"].aborted == 1
        assert pipeline.timers["con2prim"].count == 0


def _solver_kit(system, config):
    from repro import Solver

    grid = Grid((64,), ((0.0, 1.0),))

    def make():
        return Solver(system, grid, shock_tube(system, grid, RP1), config)

    return make, lambda d: d.cons.tobytes()


def _distributed_kit(system, config):
    from repro.core import DistributedSolver

    grid = Grid((64,), ((0.0, 1.0),))

    def make():
        return DistributedSolver(system, grid, shock_tube(system, grid, RP1), (2,), config)

    return make, lambda d: b"".join(d.cons[r].tobytes() for r in d.local_ranks)


def _amr_kit(system, config):
    from repro.core.amr_solver import AMRConfig, AMRSolver

    grid = Grid((64,), ((0.0, 1.0),))
    amr = AMRConfig(block_size=8, max_levels=2, regrid_interval=2)

    def make():
        return AMRSolver(system, grid, lambda s, g: shock_tube(s, g, RP1), config, amr)

    return make, lambda d: b"".join(
        repr(k).encode() + leaf.cons.tobytes() for k, leaf in d.forest.leaves.items()
    )


@pytest.mark.parametrize("target", ["numpy", "cext"])
@pytest.mark.parametrize("kit", [_solver_kit, _distributed_kit, _amr_kit])
def test_warm_state_is_a_snapshot(kit, target, system1d):
    """What ``warm_state()`` hands out is the caller's: later sweeps leave
    its bytes alone (the compiled sweep recycles its seed buffers), and
    installing it — with the conserved state — into a fresh driver
    reproduces the uninterrupted run bit for bit."""
    if target == "cext":
        require_cext(1)
    make, state = kit(system1d, SolverConfig(kernel_target=target, cfl=0.4))
    driver = make()
    for _ in range(3):
        driver.step()
    def held(cap):
        return [p.tobytes() for _, p in cap["patches"].values() if p is not None]

    cap = driver.state()
    before = held(cap)
    for _ in range(2):
        driver.step()
    assert held(cap) == before
    assert held(driver.state()) != before  # the run's own seeds moved on
    resumed = make()
    resumed.install_state(cap)
    for _ in range(2):
        resumed.step()
    assert held(cap) == before
    assert (resumed.t, state(resumed)) == (driver.t, state(driver))
