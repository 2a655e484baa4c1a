"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.io import load_solution


class TestRun:
    def test_rp1_run(self, capsys):
        assert main(["run", "rp1", "--n", "50", "--t-final", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "steps" in out
        assert "rel L1(rho) vs exact" in out

    def test_blast2d_run(self, capsys):
        assert main(["run", "blast2d", "--n", "16", "--t-final", "0.02"]) == 0
        assert "rho range" in capsys.readouterr().out

    def test_scheme_options(self, capsys):
        assert (
            main(
                [
                    "run",
                    "rp1",
                    "--n",
                    "50",
                    "--t-final",
                    "0.05",
                    "--reconstruction",
                    "weno5",
                    "--riemann",
                    "hll",
                    "--cfl",
                    "0.3",
                ]
            )
            == 0
        )

    def test_snapshot_written(self, tmp_path, capsys):
        snap = tmp_path / "out.npz"
        assert (
            main(
                ["run", "rp1", "--n", "50", "--t-final", "0.05", "--snapshot", str(snap)]
            )
            == 0
        )
        grid, prim, t, names = load_solution(snap)
        assert t == pytest.approx(0.05)
        assert names == ["rho", "v0", "p"]
        assert np.all(np.isfinite(prim))

    def test_checkpoint_written(self, tmp_path, system1d):
        ckpt = tmp_path / "c.npz"
        assert (
            main(
                ["run", "rp1", "--n", "50", "--t-final", "0.05", "--checkpoint", str(ckpt)]
            )
            == 0
        )
        from repro.io import load_checkpoint

        restored = load_checkpoint(ckpt, system1d)
        assert restored.t == pytest.approx(0.05)

    def test_metrics_out_written(self, tmp_path, capsys):
        path = tmp_path / "metrics.jsonl"
        assert (
            main(
                [
                    "run",
                    "rp1",
                    "--n",
                    "50",
                    "--t-final",
                    "0.05",
                    "--metrics-out",
                    str(path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "run metrics summary" in out
        assert "kernel.con2prim [s]" in out
        from repro.obs import read_events, steps_of

        records = read_events(path)
        assert records[0]["event"] == "run_start"
        assert records[0]["meta"]["problem"] == "rp1"
        assert records[-1]["event"] == "run_end"
        steps = steps_of(records)
        assert steps and steps[-1]["t"] == pytest.approx(0.05)
        for s in steps:
            assert "con2prim" in s["kernel_seconds"]
            assert s["counters"]["con2prim.cells"] > 0

    def test_unknown_problem_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "warp-drive"])


class TestAMR:
    """The adaptive-forest driver: serial, simulated ranks, and the real
    process executor, all through ``repro amr``."""

    # The canonical golden-stream scenario: topology churn trips the
    # rebalance threshold mid-run at >= 2 ranks.
    ARGS = [
        "amr", "rp1", "--n", "64", "--max-steps", "20",
        "--block-size", "8", "--max-levels", "3",
        "--refine-threshold", "0.05", "--coarsen-threshold", "0.02",
        "--regrid-interval", "4", "--rebalance-threshold", "1.05",
    ]

    def test_serial_amr_run(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "rp1 [amr]" in out
        assert "forest" in out and "leaves" in out and "regrids" in out
        assert "rho range" in out
        assert "balance" not in out  # no ranks -> no rebalance bookkeeping

    def test_distributed_ranks_report_rebalance(self, capsys):
        assert main(self.ARGS + ["--ranks", "2"]) == 0
        out = capsys.readouterr().out
        assert "ranks     : 2 (serial executor, sfc partitioner)" in out
        assert "repartition(s)" in out and "migrated" in out

    def test_process_executor_runs_and_reports(self, capsys):
        assert main(self.ARGS + ["--executor", "process", "--ranks", "2",
                                 "--max-rank-restarts", "1"]) == 0
        out = capsys.readouterr().out
        assert "ranks     : 2 (process executor, sfc partitioner)" in out
        assert "supervise : 0 rank respawn(s) of 1 allowed" in out

    def test_executors_print_one_report(self, capsys):
        """Both executors report from ``interior_primitives()`` and the
        forest counts: the same forest line (regrids included) and rho
        range."""

        def report(extra):
            assert main(["amr", "rp1", "--n", "64", "--max-steps", "20", *extra]) == 0
            out = capsys.readouterr().out
            return [line for line in out.splitlines() if "forest" in line or "rho" in line]

        serial = report([])
        assert len(serial) == 2 and "regrids" in serial[0]
        assert report(["--executor", "process", "--ranks", "2"]) == serial

    def test_metrics_out_written(self, tmp_path, capsys):
        path = tmp_path / "amr.jsonl"
        # 40 steps: enough shock travel for the rebalance threshold to trip.
        argv = [a if a != "20" else "40" for a in self.ARGS]
        assert main(argv + ["--ranks", "2", "--metrics-out", str(path)]) == 0
        assert "run metrics summary" in capsys.readouterr().out
        from repro.obs import read_events, steps_of

        records = read_events(path)
        assert records[0]["meta"]["problem"] == "rp1-amr"
        steps = steps_of(records)
        assert steps and steps[-1]["amr"]["n_leaves"] > 0
        assert steps[-1]["amr"]["repartitions"] >= 1

    @pytest.mark.parametrize(
        "argv,both",
        [
            # --ranks is the one rank count: --workers no longer exists
            (["amr", "rp1", "--executor", "process", "--workers", "2"],
             ("--workers",)),
            (["amr", "rp1", "--executor", "process", "--ranks", "0"],
             ("--ranks",)),
            (["amr", "rp1", "--ranks", "2", "--max-rank-restarts", "1"],
             ("--max-rank-restarts", "--executor process")),
            (["amr", "rp1", "--max-rank-restarts", "1"],
             ("--max-rank-restarts", "--executor process")),
        ],
    )
    def test_contradictory_flags_fail_fast(self, argv, both, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        for flag in both:
            assert flag in err


class TestFlagCombos:
    """Silently-contradictory flag pairs must die with an argparse error
    naming both flags, not run something other than what was asked."""

    @pytest.mark.parametrize(
        "argv,both",
        [
            # --ranks is the one rank count: --workers no longer exists
            (["run", "rp1", "--executor", "process", "--workers", "2"], ("--workers",)),
            (["run", "rp1", "--overlap"], ("--overlap", "--ranks")),
            (["run", "rp1", "--executor", "process"], ("--executor process", "--ranks")),
            (
                ["run", "rp1", "--ranks", "2", "--max-rank-restarts", "1"],
                ("--max-rank-restarts", "--executor process"),
            ),
            (
                ["run", "rp1", "--checkpoint-every", "5"],
                ("--checkpoint-every", "--checkpoint"),
            ),
            (
                ["run", "rp1", "--max-rank-restarts", "1"],
                ("--max-rank-restarts", "--executor process"),
            ),
            (["run", "rp1", "--degrade"], ("--degrade", "--max-rank-restarts")),
            (["run", "rp1", "--ranks", "-2"], ("--ranks",)),
        ],
    )
    def test_contradictory_flags_fail_fast(self, argv, both, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        for flag in both:
            assert flag in err

    def test_valid_combo_still_runs(self, capsys):
        assert main(["run", "rp1", "--n", "50", "--t-final", "0.02",
                     "--ranks", "2", "--overlap"]) == 0
        assert "overlapped" in capsys.readouterr().out


class TestServe:
    def test_serve_requests_file(self, tmp_path, capsys):
        import json

        reqs = tmp_path / "reqs.json"
        reqs.write_text(json.dumps([
            {"kind": "shock_tube", "problem": "RP1", "nx": 64, "t_final": 0.05},
            {"kind": "shock_tube", "problem": "RP2", "nx": 64, "t_final": 0.05},
        ]))
        out = tmp_path / "out.json"
        assert main(["serve", str(reqs), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "ok 2" in text
        assert "latency" in text
        payload = json.loads(out.read_text())
        assert [r["status"] for r in payload["results"]] == ["ok", "ok"]

    def test_serve_jsonl_requests(self, tmp_path, capsys):
        import json

        reqs = tmp_path / "reqs.jsonl"
        reqs.write_text(
            '{"kind": "shock_tube", "nx": 64, "t_final": 0.05}\n'
            '{"kind": "smooth_wave", "nx": 64, "t_final": 0.05}\n'
        )
        assert main(["serve", str(reqs)]) == 0
        assert "ok 2" in capsys.readouterr().out

    def test_serve_rejects_overflow_nonzero_exit(self, tmp_path, capsys):
        import json

        reqs = tmp_path / "reqs.json"
        reqs.write_text(json.dumps(
            [{"kind": "shock_tube", "nx": 64, "t_final": 0.05}] * 3
        ))
        assert main(["serve", str(reqs), "--max-queue", "2"]) == 1
        assert "rejected 1" in capsys.readouterr().out


class TestSweep:
    def test_sweep_vary_writes_results(self, tmp_path, capsys):
        import json

        out = tmp_path / "sweep.json"
        assert main(["sweep", "rp1", "--count", "4", "--n", "64",
                     "--t-final", "0.05", "--vary", "left.p:8:14",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "left.p in [8, 14]" in text
        assert "throughput" in text
        payload = json.loads(out.read_text())
        assert len(payload["results"]) == 4
        varied = [r["spec"]["left"]["p"] for r in payload["results"]]
        assert varied == pytest.approx(list(np.linspace(8, 14, 4)))

    def test_sweep_metrics_stream(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        assert main(["sweep", "rp1", "--count", "2", "--n", "64",
                     "--t-final", "0.05", "--metrics-out", str(path)]) == 0
        from repro.obs import read_events

        records = read_events(path)
        events = [r["event"] for r in records]
        assert events.count("serve.request") == 2
        assert "serve.batch" in events

    @pytest.mark.parametrize(
        "vary", ["bogus", "left.q:1:2", "middle.p:1:2", "left.p:1", "left.p:a:b"]
    )
    def test_sweep_bad_vary_fails_fast(self, vary, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "rp1", "--vary", vary])
        assert excinfo.value.code == 2
        assert "--vary" in capsys.readouterr().err


class TestExperiment:
    def test_e8_runs(self, capsys):
        assert main(["experiment", "e8"]) == 0
        assert "Table III" in capsys.readouterr().out

    def test_ablation_runs(self, capsys):
        assert main(["experiment", "a4"]) == 0
        assert "Ablation: CFL number" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().out


class TestInfo:
    def test_lists_everything(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "rp1" in out
        assert "weno5" in out
        assert "hllc" in out
        assert "E12" in out


class TestCache:
    """``repro cache``: artifact-cache report and LRU pruning."""

    @staticmethod
    def _planted_cache(tmp_path, monkeypatch, sizes):
        import os

        from repro.codegen import cext as cext_mod

        cache_dir = tmp_path / "cext-cache"
        cache_dir.mkdir()
        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(cache_dir))
        for i, n_bytes in enumerate(sizes):
            path = cache_dir / f"_repro_cext_fake{i}d_0.so"
            path.write_bytes(b"x" * n_bytes)
            os.utime(path, (1000.0 + i, 1000.0 + i))  # fake0 is oldest
        return cache_dir

    def test_cache_report(self, tmp_path, monkeypatch, capsys):
        self._planted_cache(tmp_path, monkeypatch, [100, 200])
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "artifacts : 2" in out
        assert "_repro_cext_fake0d_0.so" in out

    def test_cache_prune_lru(self, tmp_path, monkeypatch, capsys):
        cache_dir = self._planted_cache(tmp_path, monkeypatch, [100, 200, 300])
        assert main(["cache", "--max-bytes", "500"]) == 0
        out = capsys.readouterr().out
        assert "pruned    : 1 artifact(s)" in out
        assert not (cache_dir / "_repro_cext_fake0d_0.so").exists()
        assert (cache_dir / "_repro_cext_fake2d_0.so").exists()

    def test_cache_json_with_suffix(self, tmp_path, monkeypatch, capsys):
        import json

        self._planted_cache(tmp_path, monkeypatch, [1024, 2048])
        assert main(["cache", "--max-bytes", "2K", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_artifacts"] == 1
        assert report["total_bytes"] == 2048
        assert report["pruned"] == ["_repro_cext_fake0d_0.so"]

    def test_cache_bad_size_fails_fast(self, tmp_path, monkeypatch, capsys):
        self._planted_cache(tmp_path, monkeypatch, [100])
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "--max-bytes", "lots"])
        assert excinfo.value.code == 2
        assert "--max-bytes" in capsys.readouterr().err
