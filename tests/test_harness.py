"""Tests for the experiment harness: reports, calibration, scaling model,
and small instances of the experiment drivers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness import (
    EXPERIMENTS,
    Report,
    calibrated_cost_model,
    efficiencies,
    simulate_step,
    speedups,
    strong_scaling,
    weak_scaling,
)
from repro.mesh.grid import Grid
from repro.runtime.cluster import cpu_cluster, gpu_cluster
from repro.utils.errors import ConfigurationError


class TestReport:
    def test_row_arity_checked(self):
        r = Report("E0", "t", ["a", "b"])
        with pytest.raises(ConfigurationError):
            r.add_row(1)

    def test_column_access(self):
        r = Report("E0", "t", ["a", "b"])
        r.add_row(1, 2)
        r.add_row(3, 4)
        assert r.column("b") == [2, 4]
        with pytest.raises(ConfigurationError):
            r.column("c")

    def test_render_contains_everything(self):
        r = Report("E0 (Table X)", "demo title", ["name", "value"])
        r.add_row("alpha", 0.123456)
        r.add_note("a note")
        text = str(r)
        assert "E0 (Table X)" in text
        assert "demo title" in text
        assert "alpha" in text
        assert "0.1235" in text
        assert "note: a note" in text

    def test_float_formatting(self):
        r = Report("E0", "t", ["v"])
        r.add_row(1.23456789e-8)
        assert "1.235e-08" in str(r)


class TestCalibration:
    def test_model_cached(self):
        a = calibrated_cost_model()
        b = calibrated_cost_model()
        assert a is b

    def test_throughputs_positive(self):
        model = calibrated_cost_model()
        assert all(v > 0 for v in model.cpu.throughput.values())


class TestScalingModel:
    @pytest.fixture(scope="class")
    def model(self):
        return calibrated_cost_model()

    def test_strong_scaling_monotone_time(self, model):
        grid = Grid((256, 256), ((0, 1), (0, 1)))
        costs = strong_scaling(
            grid, (1, 4, 16), lambda n: cpu_cluster(n, model), model, prefer_gpu=False
        )
        times = [c.total_s for c in costs]
        assert times[0] > times[1] > times[2]

    def test_speedups_and_efficiencies(self, model):
        grid = Grid((256, 256), ((0, 1), (0, 1)))
        costs = strong_scaling(
            grid, (1, 4), lambda n: cpu_cluster(n, model), model, prefer_gpu=False
        )
        sp = speedups(costs)
        assert sp[0] == 1.0 and 1.0 < sp[1] <= 4.0
        eff = efficiencies(costs)
        assert eff[1] == pytest.approx(sp[1] / 4)
        with pytest.raises(ConfigurationError):
            efficiencies(costs, mode="sideways")

    def test_weak_scaling_grid_grows(self, model):
        costs = weak_scaling(
            64, (1, 4), lambda n: cpu_cluster(n, model), model, prefer_gpu=False
        )
        assert costs[0].local_cells_max == costs[1].local_cells_max == 64 * 64

    def test_gpu_faster_than_cpu(self, model):
        grid = Grid((512, 512), ((0, 1), (0, 1)))
        cpu = simulate_step(grid, cpu_cluster(4, model), model, prefer_gpu=False)
        gpu = simulate_step(grid, gpu_cluster(4, model), model, prefer_gpu=True)
        assert gpu.total_s < cpu.total_s

    def test_overlap_never_slower(self, model):
        grid = Grid((512, 512), ((0, 1), (0, 1)))
        for n in (4, 16):
            plain = simulate_step(grid, gpu_cluster(n, model), model, overlap=False)
            lapped = simulate_step(grid, gpu_cluster(n, model), model, overlap=True)
            assert lapped.total_s <= plain.total_s + 1e-15

    def test_cost_breakdown_consistent(self, model):
        grid = Grid((256, 256), ((0, 1), (0, 1)))
        cost = simulate_step(grid, cpu_cluster(4, model), model, prefer_gpu=False)
        assert cost.total_s == pytest.approx(
            cost.compute_s + cost.halo_s + cost.allreduce_s, rel=1e-9
        )


class TestExperimentRegistry:
    def test_all_experiments_registered(self):
        """The 12 reconstructed paper artifacts plus E13 (model validation)
        and E14 (SFC partitioning), and the four ablations — one registry."""
        assert list(EXPERIMENTS) == [f"E{i}" for i in range(1, 15)] + [
            f"A{i}" for i in range(1, 5)
        ]

    def test_e2_small_instance(self):
        report = EXPERIMENTS["E2"](n=50)
        assert len(report.rows) == 3
        assert all(np.isfinite(report.column("rel L1(rho)")))

    def test_e8_small_instance(self):
        report = EXPERIMENTS["E8"](block_cells=1000)
        speed = dict(zip(report.column("kernel"), report.column("speedup")))
        assert speed["update"] > 1.0

    def test_e6_small_instance(self):
        report = EXPERIMENTS["E6"](grid_shape=(128, 128), node_counts=(1, 4))
        assert report.column("cpu_speedup")[0] == 1.0

    def test_e12_small_instance(self):
        report = EXPERIMENTS["E12"](n_cells=5000, repeats=2)
        assert len(report.rows) == 9  # 3 kernels x 3 variants
