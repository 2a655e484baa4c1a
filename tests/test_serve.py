"""Tests for the scenario-sweep batch service (repro.serve)."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.core.pipeline as pipeline_mod
from repro.obs import BufferSink, StepRecorder
from repro.serve import BatchService, Request, ScenarioSpec
from repro.utils.errors import AdmissionError, ConfigurationError, RecoveryError

from .conftest import require_cext


def _spec(**kwargs):
    base = dict(kind="shock_tube", problem="RP1", nx=64, t_final=0.05)
    base.update(kwargs)
    return ScenarioSpec(**base)


class TestScenarioSpec:
    def test_from_dict_round_trip(self):
        spec = ScenarioSpec.from_dict(
            {"kind": "shock_tube", "nx": 64, "t_final": 0.05,
             "left": {"rho": 2.0, "v": 0.0, "p": 5.0}}
        )
        again = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec

    def test_problem_name_case_insensitive(self):
        lower = ScenarioSpec.from_dict({"kind": "shock_tube", "problem": "rp2"})
        upper = ScenarioSpec.from_dict({"kind": "shock_tube", "problem": "RP2"})
        assert lower == upper
        assert lower.problem == "RP2"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario keys"):
            ScenarioSpec.from_dict({"nx": 64, "wibble": 3})

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "warp_core"},
            {"reconstruction": "psychic"},
            {"nx": 2},
            {"t_final": -1.0},
            {"gamma": 0.5},
            {"cfl": 2.0},
            {"kernel_target": "cuda"},
            {"problem": "RP9"},
            {"left": {"rho": 1.0}},
            {"left": {"rho": 1.0, "v": 0.0, "p": 1.0, "q": 2.0}},
            {"ny": 16},  # ny only applies to blast_wave_2d
        ],
    )
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            _spec(**bad)

    def test_batch_key_groups_compatible_specs(self):
        a = _spec(left={"rho": 5.0, "v": 0.0, "p": 10.0})
        b = _spec(left={"rho": 7.0, "v": 0.0, "p": 12.0})
        assert a.batch_key() == b.batch_key()  # initial data may differ
        assert a.batch_key() != _spec(nx=96).batch_key()
        assert a.batch_key() != _spec(reconstruction="minmod").batch_key()
        assert a.batch_key() != _spec(t_final=0.06).batch_key()
        assert a.batch_key() != _spec(kernel_target="flat").batch_key()


class TestAdmission:
    def test_empty_queue_drains_cleanly(self):
        svc = BatchService()
        assert svc.drain() == []
        assert svc.drain() == []  # and again
        snap = svc.metrics.snapshot()
        assert snap["counters"].get("serve.batches", 0) == 0

    def test_bounded_depth_rejects_with_admission_error(self):
        svc = BatchService(max_queue_depth=2)
        svc.submit(_spec())
        svc.submit(_spec())
        with pytest.raises(AdmissionError, match="queue full"):
            svc.submit(_spec())
        assert svc.metrics.snapshot()["counters"]["serve.rejected"] == 1
        # Draining frees the slots again.
        svc.drain()
        svc.submit(_spec())

    def test_malformed_spec_costs_no_slot(self):
        svc = BatchService(max_queue_depth=1)
        with pytest.raises(ConfigurationError):
            svc.submit({"nx": 64, "bogus": 1})
        assert svc.queue_depth == 0


class TestService:
    def test_sweep_returns_per_request_results(self):
        svc = BatchService()
        specs = [
            _spec(left={"rho": 10.0, "v": 0.0, "p": 10.0 + i}) for i in range(4)
        ]
        reqs = svc.sweep(specs)
        assert [r.status for r in reqs] == ["ok"] * 4
        for r in reqs:
            assert r.result["steps"] > 0
            assert r.result["t"] == pytest.approx(0.05)
            assert r.queue_wait_s >= 0
            assert r.latency_s >= r.solve_s > 0
        # One compatible group -> one batch.
        counters = svc.metrics.snapshot()["counters"]
        assert counters["serve.batches"] == 1
        assert counters["serve.completed"] == 4

    def test_incompatible_specs_split_batches(self):
        svc = BatchService()
        svc.sweep([_spec(), _spec(nx=96), _spec()])
        counters = svc.metrics.snapshot()["counters"]
        assert counters["serve.batches"] == 2

    def test_max_batch_splits_large_groups(self):
        svc = BatchService(max_batch=2)
        reqs = svc.sweep([_spec() for _ in range(5)])
        assert [r.status for r in reqs] == ["ok"] * 5
        counters = svc.metrics.snapshot()["counters"]
        assert counters["serve.batches"] == 3

    def test_kernel_cache_hits(self):
        svc = BatchService()
        svc.sweep([_spec() for _ in range(3)])
        svc.sweep([_spec() for _ in range(3)])
        counters = svc.metrics.snapshot()["counters"]
        assert counters["serve.kernel_cache.misses"] == 1
        assert counters["serve.kernel_cache.hits"] == 1  # one lookup per batch

    def test_flat_kernel_target_serves(self):
        svc = BatchService()
        reqs = svc.sweep([_spec(kernel_target="flat") for _ in range(2)])
        assert [r.status for r in reqs] == ["ok", "ok"]

    def test_cext_requests_run_the_fused_sweep(self, monkeypatch):
        """The service hands its batch solvers the spec's real target: a
        ``cext`` batch runs the compiled face-flux sweep, no interpreted
        reconstruct/Riemann stage — and serves the flat batch's numbers."""
        from repro.core.batch import BatchSolver

        require_cext(1)
        solvers = []
        real_run = BatchSolver.run

        def run(self, *args, **kwargs):
            solvers.append(self)
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(BatchSolver, "run", run)
        svc = BatchService()
        results = {}
        for target in ("cext", "flat"):
            reqs = svc.sweep(
                [
                    _spec(kernel_target=target, left={"rho": 10.0, "v": 0.0, "p": p})
                    for p in (11.0, 13.0, 15.0)
                ]
            )
            assert [r.status for r in reqs] == ["ok"] * 3
            results[target] = [r.result for r in reqs]
        cext, flat = solvers
        assert cext.config.kernel_target == "cext"
        assert "face_flux" in cext.timers
        assert "reconstruct" not in cext.timers and "riemann" not in cext.timers
        assert "reconstruct" in flat.timers and "face_flux" not in flat.timers
        assert results["cext"] == results["flat"]

    def test_metrics_schema(self):
        svc = BatchService()
        svc.sweep([_spec() for _ in range(2)])
        hists = svc.metrics.snapshot()["histograms"]
        for name in (
            "serve.queue_wait_s",
            "serve.solve_s",
            "serve.request_latency_s",
            "serve.batch_size",
            "serve.scenarios_per_sec",
        ):
            assert name in hists, name
        assert hists["serve.batch_size"]["max"] == 2
        assert hists["serve.request_latency_s"]["count"] == 2
        assert hists["serve.request_latency_s"]["p99"] > 0

    def test_recorder_stream_carries_request_events(self):
        sink = BufferSink()
        svc = BatchService(recorder=StepRecorder(sink, meta={"mode": "test"}))
        svc.sweep([_spec() for _ in range(2)])
        events = [r["event"] for r in sink.records]
        assert events.count("serve.request") == 2
        assert events.count("serve.batch") == 1
        req_events = [r for r in sink.records if r["event"] == "serve.request"]
        assert all(r["status"] == "ok" for r in req_events)
        assert all(r["latency_s"] > 0 for r in req_events)


class TestPerRequestIsolation:
    def test_mid_batch_recovery_error_fails_only_that_request(self, monkeypatch):
        svc = BatchService()
        real = pipeline_mod.con_to_prim
        calls = {"n": 0}

        def fail_scenario_1(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                # Flat interior indices over (nx, n_batch=3): column 1.
                raise RecoveryError("poisoned request", n_failed=2, indices=[1, 4])
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "con_to_prim", fail_scenario_1)
        reqs = svc.sweep([_spec() for _ in range(3)])
        assert [r.status for r in reqs] == ["ok", "failed", "ok"]
        assert "poisoned request" in reqs[1].error
        assert reqs[1].result is None
        for i in (0, 2):
            assert reqs[i].result["steps"] > 0
        counters = svc.metrics.snapshot()["counters"]
        assert counters["serve.completed"] == 2
        assert counters["serve.failed"] == 1

    def test_unattributable_error_fails_batch_not_service(self, monkeypatch):
        svc = BatchService()

        def always_fail(*args, **kwargs):
            raise RecoveryError("collapse", n_failed=1, indices=[0])

        monkeypatch.setattr(pipeline_mod, "con_to_prim", always_fail)
        reqs = svc.sweep([_spec()])
        assert [r.status for r in reqs] == ["failed"]
        # The service survives and serves the next (clean) drain.
        monkeypatch.undo()
        clean = svc.sweep([_spec()])
        assert [r.status for r in clean] == ["ok"]


class TestRequestSummary:
    def test_summary_is_json_serializable(self):
        svc = BatchService()
        (req,) = svc.sweep([_spec()])
        assert isinstance(req, Request)
        payload = json.loads(json.dumps(req.summary()))
        assert payload["status"] == "ok"
        assert payload["spec"]["kind"] == "shock_tube"
        assert np.isfinite(payload["result"]["rho_max"])
