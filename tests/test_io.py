"""Tests for checkpoint/restart and solution output.

The gold-standard property: a run interrupted by checkpoint + restore must
finish bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest

from repro import Grid, IdealGasEOS, Solver, SolverConfig, SRHDSystem
from repro.core.amr_solver import AMRConfig, AMRSolver
from repro.core.distributed import DistributedSolver
from repro.io import checkpoint as checkpoint_mod
from repro.io import (
    load_checkpoint,
    load_solution,
    read_curve,
    save_checkpoint,
    save_solution,
    write_curve,
)
from repro.physics.initial_data import RP1, shock_tube, smooth_wave
from repro.utils.errors import CheckpointError, ConfigurationError


class TestUnigridCheckpoint:
    def test_restart_is_bit_identical(self, system1d, tmp_path):
        grid = Grid((64,), ((0.0, 1.0),))
        cfg = SolverConfig(cfl=0.4)
        prim0 = shock_tube(system1d, grid, RP1)

        # Uninterrupted run to t = 0.2.
        ref = Solver(system1d, grid, prim0.copy(), cfg)
        ref.run(t_final=0.1)
        ref.run(t_final=0.2)

        # Interrupted run: checkpoint at t = 0.1, restore, continue.
        first = Solver(system1d, grid, prim0.copy(), cfg)
        first.run(t_final=0.1)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(first, path)
        restored = load_checkpoint(path, system1d)
        assert restored.t == first.t
        restored.run(t_final=0.2)

        np.testing.assert_array_equal(restored.cons, ref.cons)
        np.testing.assert_array_equal(
            restored.interior_primitives(), ref.interior_primitives()
        )

    def test_reloaded_run_keeps_its_summary(self, tmp_path):
        """The archive carries what the run summary measures from (initial
        totals, dt range), so a restarted run reports the uninterrupted
        run's conservation drift and dt range exactly — not drift against
        the placeholder state the loader builds on."""
        system = SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1)
        grid = Grid((64,), ((0.0, 1.0),))
        cfg = SolverConfig(cfl=0.4)
        ref = Solver(system, grid, shock_tube(system, grid, RP1), cfg)
        expected = ref.run(t_final=1.0, max_steps=15)
        path = tmp_path / "rp1.npz"
        first = Solver(system, grid, shock_tube(system, grid, RP1), cfg)
        first.run(t_final=1.0, max_steps=10, checkpoint_every=7, checkpoint_path=path)
        restored = load_checkpoint(path, system)
        assert restored.steps == 7
        summary = restored.run(t_final=1.0, max_steps=15)
        assert restored.cons.tobytes() == ref.cons.tobytes()
        assert summary.conservation_drift == expected.conservation_drift
        assert (summary.dt_min, summary.dt_max) == (expected.dt_min, expected.dt_max)
        assert summary.steps == expected.steps == 15

    def test_metadata_round_trip(self, system1d, tmp_path):
        grid = Grid((32,), ((0.25, 0.75),), n_ghost=3)
        cfg = SolverConfig(cfl=0.3, reconstruction="weno5", riemann="hll")
        solver = Solver(system1d, grid, smooth_wave(system1d, grid), cfg)
        solver.run(t_final=0.01)
        path = tmp_path / "c.npz"
        save_checkpoint(solver, path)
        restored = load_checkpoint(path, system1d)
        assert restored.grid == grid
        assert restored.config == cfg
        assert restored.summary.steps == solver.summary.steps

    def test_dimension_mismatch_rejected(self, system1d, system2d, tmp_path):
        grid = Grid((32,), ((0.0, 1.0),))
        solver = Solver(system1d, grid, smooth_wave(system1d, grid))
        path = tmp_path / "c.npz"
        save_checkpoint(solver, path)
        with pytest.raises(ConfigurationError, match="1D"):
            load_checkpoint(path, system2d)

    def test_wrong_kind_rejected(self, system1d, tmp_path):
        """The one loader builds the driver an archive names; a kind no
        driver writes is refused by name."""
        grid = Grid((64,), ((0.0, 1.0),))
        amr = AMRSolver(
            system1d,
            grid,
            lambda s, g: shock_tube(s, g, RP1),
            SolverConfig(cfl=0.4),
            AMRConfig(block_size=16, max_levels=2),
        )
        path = tmp_path / "amr.npz"
        save_checkpoint(amr, path)
        assert type(load_checkpoint(path, system1d)) is AMRSolver
        _rewrite_meta(path, kind="batch")
        with pytest.raises(ConfigurationError, match="'batch'"):
            load_checkpoint(path, system1d)


class TestAMRCheckpoint:
    def test_restart_is_bit_identical(self, system1d, tmp_path):
        grid = Grid((64,), ((0.0, 1.0),))
        cfg = SolverConfig(cfl=0.4)
        amr_cfg = AMRConfig(block_size=16, max_levels=3, refine_threshold=0.05)
        ic = lambda s, g: shock_tube(s, g, RP1)

        ref = AMRSolver(system1d, grid, ic, cfg, amr_cfg)
        ref.run(t_final=0.05)
        ref.run(t_final=0.1)

        first = AMRSolver(system1d, grid, ic, cfg, amr_cfg)
        first.run(t_final=0.05)
        path = tmp_path / "amr.npz"
        save_checkpoint(first, path)
        restored = load_checkpoint(path, system1d)
        assert restored.t == first.t
        assert set(restored.forest.leaves) == set(first.forest.leaves)
        restored.run(t_final=0.1)

        assert set(restored.forest.leaves) == set(ref.forest.leaves)
        for key in ref.forest.leaves:
            np.testing.assert_array_equal(
                restored.forest.leaves[key].cons, ref.forest.leaves[key].cons
            )
        assert restored.cells_updated == ref.cells_updated

    def test_distributed_driver_writes_the_serial_archive(self, system1d, tmp_path):
        """The rank loop is bit-identical at every rank count, so a 2-rank
        checkpoint is the 1-rank archive entry for entry (ownership is not
        archived); only ``meta`` differs, in the rank count it records —
        which is the rank count the archive reloads at."""
        grid = Grid((64,), ((0.0, 1.0),))
        ic = lambda s, g: shock_tube(s, g, RP1)
        amr_cfg = AMRConfig(block_size=8, max_levels=2, regrid_interval=2)
        archives, metas = [], []
        for n_ranks in (1, 2):
            solver = AMRSolver(system1d, grid, ic, amr=amr_cfg, n_ranks=n_ranks)
            solver.run(t_final=1.0, max_steps=5)
            path = tmp_path / f"ranks{n_ranks}.npz"
            solver.write_checkpoint(path)
            with np.load(path, allow_pickle=False) as data:
                metas.append(json.loads(str(data["meta"])))
                archives.append({
                    name: data[name].tobytes() for name in data.files if name != "meta"
                })
        assert archives[0] == archives[1]
        assert [meta.pop("n_ranks") for meta in metas] == [1, 2]
        assert metas[0] == metas[1]
        restored = load_checkpoint(path, system1d)
        assert (restored.steps, restored.n_ranks) == (5, 2)

    def test_archive_without_rank_count_loads_at_one_rank(self, system1d, tmp_path):
        grid = Grid((64,), ((0.0, 1.0),))
        amr_cfg = AMRConfig(block_size=8, max_levels=2)
        solver = AMRSolver(
            system1d, grid, lambda s, g: shock_tube(s, g, RP1), amr=amr_cfg,
            n_ranks=2,
        )
        solver.run(t_final=1.0, max_steps=2)
        path = tmp_path / "amr.npz"
        solver.write_checkpoint(path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays.pop("meta")))
        del meta["n_ranks"]
        np.savez_compressed(path, meta=json.dumps(meta), **arrays)
        restored = load_checkpoint(path, system1d)
        assert (restored.steps, restored.n_ranks) == (2, 1)
        assert set(restored.assignment.values()) == {0}

    def test_topology_preserved(self, system1d, tmp_path):
        grid = Grid((64,), ((0.0, 1.0),))
        amr = AMRSolver(
            system1d,
            grid,
            lambda s, g: shock_tube(s, g, RP1),
            SolverConfig(cfl=0.4),
            AMRConfig(block_size=16, max_levels=3),
        )
        path = tmp_path / "amr.npz"
        save_checkpoint(amr, path)
        restored = load_checkpoint(path, system1d)
        assert restored.forest.refined == amr.forest.refined
        assert restored.leaf_count_by_level() == amr.leaf_count_by_level()
        assert restored.forest.is_balanced()


def _rewrite_meta(path, **changes):
    """Rewrite entries of an archive's json ``meta`` in place."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(str(arrays.pop("meta")))
    for key, value in changes.items():
        if isinstance(value, dict):
            meta[key].update(value)
        else:
            meta[key] = value
    np.savez_compressed(path, meta=json.dumps(meta), **arrays)


def _add_legacy_stats(path):
    """Add the ``c2p_stats*`` int64 member a pre-PR-21 writer stored beside
    every patch's conserved array."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    stats = np.asarray([96, 90, 6, 0, 1, 0, 50], dtype=np.int64)
    for name in list(arrays):
        if name == "cons":
            arrays["c2p_stats"] = stats
        elif name.startswith("rank_"):
            arrays["c2p_stats_" + name.removeprefix("rank_")] = stats
        elif name.startswith("leaf_"):
            arrays["c2p_stats_" + name] = stats
    np.savez_compressed(path, **arrays)


_KINDS = ("unigrid", "distributed", "amr")

#: id suffix -> (retired config keys as archived, whether dropping them warns)
_RETIRED_CASES = {
    "": ({"scratch_workspace": False, "fused_stencils": True,
          "overlap_link": "ethernet-10g"}, False),
    "-c2p_tuned_false": ({"c2p_tuned": False}, False),
    "-c2p_tuned_true": ({"c2p_tuned": True}, True),
    # what every archive held while these were SolverConfig fields
    "-constants": ({"recovery_tol": 1e-12, "atmo_threshold": 10.0,
                    "max_steps": 1_000_000}, False),
}


class TestArchivePrologue:
    """One ``format`` / ``kind`` / ``ndim`` prologue for all three kinds."""

    KINDS = _KINDS

    @staticmethod
    def _solver(kind, system1d):
        """A fresh *kind* driver and the archive loader (one for all kinds)."""
        grid = Grid((32,), ((0.0, 1.0),))
        if kind == "unigrid":
            return Solver(system1d, grid, smooth_wave(system1d, grid)), load_checkpoint
        if kind == "distributed":
            return DistributedSolver(
                system1d, grid, smooth_wave(system1d, grid), (2,)
            ), load_checkpoint
        return AMRSolver(
            system1d, grid, lambda s, g: shock_tube(s, g, RP1),
            amr=AMRConfig(block_size=8, max_levels=2),
        ), load_checkpoint

    @classmethod
    def _archive(cls, kind, system1d, path):
        """Write a *kind* archive; returns its loader."""
        solver, load = cls._solver(kind, system1d)
        solver.write_checkpoint(path)
        return load

    @staticmethod
    def _state_bytes(kind, solver) -> bytes:
        if kind == "unigrid":
            return solver.cons.tobytes()
        if kind == "distributed":
            return b"".join(solver.cons[r].tobytes() for r in range(solver.size))
        return repr(list(solver.forest.leaves)).encode() + b"".join(
            leaf.cons.tobytes() for leaf in solver.forest.leaves.values()
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_foreign_format_kind_ndim_rejected(
        self, kind, system1d, system2d, tmp_path
    ):
        path = tmp_path / "c.npz"
        load = self._archive(kind, system1d, path)
        driver = load(path, system1d)
        assert driver.t == 0.0
        assert type(driver) is type(self._solver(kind, system1d)[0])
        with pytest.raises(ConfigurationError, match="1D"):
            load(path, system2d)
        foreign = tmp_path / "foreign.npz"
        self._archive(kind, system1d, foreign)
        _rewrite_meta(foreign, kind=f"not {kind}")
        with pytest.raises(ConfigurationError, match=f"not {kind}"):
            load(foreign, system1d)
        _rewrite_meta(path, format=checkpoint_mod.FORMAT_VERSION + 1)
        with pytest.raises(ConfigurationError, match="unsupported checkpoint format"):
            load(path, system1d)

    @pytest.mark.parametrize(
        "kind,retired,warns",
        [
            pytest.param(kind, keys, warns, id=kind + suffix)
            for kind in _KINDS
            for suffix, (keys, warns) in _RETIRED_CASES.items()
        ],
    )
    def test_retired_config_keys_are_dropped(
        self, kind, retired, warns, system1d, tmp_path, caplog
    ):
        """Archives written while ``scratch_workspace`` / ``fused_stencils``
        / ``overlap_link`` / ``c2p_tuned`` were SolverConfig fields (and a
        ``c2p_stats*`` vector rode beside every patch) still load: exactly
        those keys go, the vectors are ignored, a dropped key that changed
        solution bytes warns, and the run continues on the uninterrupted
        run's bytes."""
        path = tmp_path / "c.npz"
        ref, load = self._solver(kind, system1d)
        ref.run(t_final=1.0, max_steps=3)
        ref.write_checkpoint(path)
        _rewrite_meta(path, config=retired)
        _add_legacy_stats(path)
        logger = logging.getLogger("repro.io")
        logger.addHandler(caplog.handler)
        try:
            with caplog.at_level(logging.INFO, logger="repro.io"):
                solver = load(path, system1d)
        finally:
            logger.removeHandler(caplog.handler)
        assert solver.config == SolverConfig()
        dropped = [r for r in caplog.records if "retired config keys" in r.getMessage()]
        assert [r.levelno for r in dropped] == [logging.INFO]
        warned = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warned) == (1 if warns else 0)
        assert all("c2p_tuned" in r.getMessage() for r in warned)
        ref.run(t_final=1.0, max_steps=6)
        solver.run(t_final=1.0, max_steps=6)
        assert solver.steps == ref.steps == 6
        assert self._state_bytes(kind, solver) == self._state_bytes(kind, ref)
        _rewrite_meta(path, config={"no_such_knob": 1})
        with pytest.raises(ConfigurationError):
            load(path, system1d)


    def test_retired_constant_that_differs_warns(self, system1d, tmp_path, caplog):
        """An archived ``recovery_tol`` / ``atmo_threshold`` / ``max_steps``
        other than the module constant the code now always runs with is
        dropped with one WARNING naming it."""
        path = tmp_path / "c.npz"
        self._archive("unigrid", system1d, path)
        _rewrite_meta(path, config={"recovery_tol": 1e-10, "max_steps": 1_000_000})
        logger = logging.getLogger("repro.io")
        logger.addHandler(caplog.handler)
        try:
            with caplog.at_level(logging.INFO, logger="repro.io"):
                load_checkpoint(path, system1d)
        finally:
            logger.removeHandler(caplog.handler)
        warned = [
            r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING
        ]
        assert len(warned) == 1
        assert "recovery_tol" in warned[0] and "max_steps" not in warned[0]


class TestSolutionOutput:
    def test_snapshot_round_trip(self, system2d, tmp_path):
        grid = Grid((8, 8), ((0, 1), (0, 2)))
        rng = np.random.default_rng(0)
        prim = rng.normal(size=(4,) + grid.shape)
        path = tmp_path / "snap.npz"
        save_solution(path, grid, prim, t=1.5, field_names=["rho", "vx", "vy", "p"])
        grid2, prim2, t, names = load_solution(path)
        assert grid2 == grid
        assert t == 1.5
        assert names == ["rho", "vx", "vy", "p"]
        np.testing.assert_array_equal(prim2, prim)

    def test_snapshot_shape_checked(self, tmp_path):
        grid = Grid((8,), ((0, 1),))
        with pytest.raises(ConfigurationError):
            save_solution(tmp_path / "x.npz", grid, np.zeros((3, 9)), t=0.0)

    def test_curve_round_trip(self, tmp_path):
        path = tmp_path / "profile.dat"
        x = np.linspace(0, 1, 11)
        rho = np.sin(x)
        write_curve(path, {"x": x, "rho": rho}, comment="test profile")
        back = read_curve(path)
        np.testing.assert_allclose(back["x"], x)
        np.testing.assert_allclose(back["rho"], rho)

    def test_curve_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_curve(tmp_path / "bad.dat", {"a": np.zeros(3), "b": np.zeros(4)})


class TestCrashSafeCheckpoint:
    """Checkpoint writes are atomic; torn archives fail loudly, not weirdly."""

    def _small_solver(self, system1d):
        grid = Grid((32,), ((0.0, 1.0),))
        solver = Solver(system1d, grid, shock_tube(system1d, grid, RP1))
        solver.run(t_final=1.0, max_steps=2)
        return solver

    def test_truncated_checkpoint_raises_checkpoint_error(
        self, system1d, tmp_path
    ):
        solver = self._small_solver(system1d)
        path = tmp_path / "torn.npz"
        save_checkpoint(solver, path)
        blob = path.read_bytes()
        for cut in (len(blob) // 2, 10, 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError, match="torn.npz"):
                load_checkpoint(path, system1d)

    def test_garbage_checkpoint_raises_checkpoint_error(
        self, system1d, tmp_path
    ):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"\x00" * 512)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, system1d)

    def test_missing_checkpoint_stays_file_not_found(self, system1d, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.npz", system1d)

    def test_failed_save_preserves_previous_checkpoint(
        self, system1d, tmp_path, monkeypatch
    ):
        solver = self._small_solver(system1d)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(solver, path)
        good = path.read_bytes()

        def torn_savez(fh, **arrays):
            fh.write(b"PK\x03\x04 partial")
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint_mod.np, "savez_compressed", torn_savez)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(solver, path)
        assert path.read_bytes() == good, "failed save damaged the archive"
        litter = list(tmp_path.glob(".ckpt-*"))
        assert not litter, f"temp files left behind: {litter}"
        monkeypatch.undo()
        restored = load_checkpoint(path, system1d)
        assert restored.t == solver.t
