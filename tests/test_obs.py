"""Tests for the observability layer (repro.obs) and its solver threading."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Grid, IdealGasEOS, Solver, SolverConfig, SRHDSystem
from repro.boundary import make_boundaries
from repro.core import DistributedSolver
from repro.core.amr_solver import AMRConfig, AMRSolver
from repro.harness.report import Report
from repro.obs import (
    BufferSink,
    JsonlEventSink,
    MetricsRegistry,
    StepRecorder,
    TeeSink,
    counter_deltas,
    read_events,
    steps_of,
)
from repro.physics.initial_data import RP1, shock_tube, smooth_wave
from repro.utils.errors import ConfigurationError


class TestMetricsPrimitives:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("cells")
        c.inc()
        c.inc(41)
        assert c.value == 42
        assert reg.counter("cells") is c

    def test_counter_rejects_decrease(self):
        with pytest.raises(ConfigurationError, match="decrease"):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_set_and_max(self):
        g = MetricsRegistry().gauge("iters")
        g.set(3.0)
        g.max(7)
        g.max(2)
        assert g.value == 7.0

    def test_histogram_summary(self):
        h = MetricsRegistry().histogram("dt")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3
        assert s["min"] == 1.0 and s["max"] == 3.0
        assert s["mean"] == pytest.approx(2.0)

    def test_histogram_quantiles_from_buckets(self):
        h = MetricsRegistry().histogram("iters")
        for v in range(1, 101):  # 1..100, uniform
            h.observe(float(v))
        s = h.summary()
        # Bucket edges are 2**(i/4): the p50/p99 representatives sit within
        # one bucket width (~19%) of the true sample quantiles.
        assert 50.0 <= s["p50"] <= 50.0 * 2 ** 0.25
        assert 99.0 <= s["p99"] <= s["max"]
        assert s["nonpos"] == 0
        assert sum(s["buckets"].values()) == 100
        # JSON round-trip preserves the summary exactly (str bucket keys).
        import json

        assert json.loads(json.dumps(s)) == s

    def test_histogram_nonpositive_bucket(self):
        h = MetricsRegistry().histogram("x")
        for v in (-1.0, 0.0, 4.0):
            h.observe(v)
        s = h.summary()
        assert s["nonpos"] == 2
        assert s["p50"] == -1.0  # rank 2 of 3 is still in the underflow pool
        assert s["p99"] == 4.0

    def test_histogram_merge_matches_single_registry(self):
        from repro.obs import merge_histogram_summaries, summary_quantile

        a = MetricsRegistry().histogram("h")
        b = MetricsRegistry().histogram("h")
        whole = MetricsRegistry().histogram("h")
        samples = [float((7 * k) % 23 + 1) for k in range(200)]
        for v in samples[:90]:
            a.observe(v)
        for v in samples[90:]:
            b.observe(v)
        for v in samples:
            whole.observe(v)
        merged = merge_histogram_summaries(a.summary(), b.summary())
        assert merged == whole.summary()
        assert summary_quantile(merged, 0.99) == merged["p99"]
        # Empty sides are identity elements.
        empty = MetricsRegistry().histogram("e").summary()
        assert merge_histogram_summaries(empty, merged) == merged
        assert merge_histogram_summaries(None, None) == empty

    def test_quantile_mixed_int_str_bucket_keys(self):
        # Regression: a summary holding both 3 and "3" (a live registry
        # merged with a JSON round-trip) silently dropped one form's
        # samples from the quantile scan.
        from repro.obs import summary_quantile

        h = MetricsRegistry().histogram("h")
        for v in [float((7 * k) % 23 + 1) for k in range(200)]:
            h.observe(v)
        clean = h.summary()
        mixed = dict(clean)
        # Re-key half the buckets as ints; int(k) collides with the str form.
        buckets = {}
        for i, (k, v) in enumerate(clean["buckets"].items()):
            half = v // 2
            if half:
                buckets[int(k)] = half
                buckets[k] = v - half
            else:
                buckets[k] = v
        mixed["buckets"] = buckets
        for q in (0.1, 0.5, 0.9, 0.99):
            assert summary_quantile(mixed, q) == summary_quantile(clean, q)

    def test_merge_one_sided_rederives_quantiles(self):
        # Regression: the one-sided merge path returned the surviving
        # summary as-is, so stale or missing p50/p99 survived the merge.
        from repro.obs import merge_histogram_summaries

        h = MetricsRegistry().histogram("h")
        for v in (1.0, 2.0, 4.0, 8.0, 16.0):
            h.observe(v)
        good = h.summary()
        stale = dict(good)
        stale["p50"] = -123.0
        del stale["p99"]
        for merged in (
            merge_histogram_summaries(stale, None),
            merge_histogram_summaries(None, stale),
        ):
            assert merged["p50"] == good["p50"]
            assert merged["p99"] == good["p99"]
        # Mixed-key buckets are normalized (and counts preserved) too.
        mixed = dict(good)
        mixed["buckets"] = {
            **{int(k): v for k, v in list(good["buckets"].items())[:1]},
            **dict(list(good["buckets"].items())[1:]),
        }
        merged = merge_histogram_summaries(mixed, None)
        assert sum(merged["buckets"].values()) == good["count"]
        assert merge_histogram_summaries(merged, None) == merge_histogram_summaries(good, None)

    def test_merge_two_sided_sums_mixed_key_collisions(self):
        # Regression: the two-sided bucket merge dict comprehension let a
        # str key overwrite its int twin instead of summing the counts.
        from repro.obs import merge_histogram_summaries

        a = MetricsRegistry().histogram("h")
        b = MetricsRegistry().histogram("h")
        whole = MetricsRegistry().histogram("h")
        for v in (1.0, 2.0, 3.0, 5.0, 9.0):
            a.observe(v)
            whole.observe(v)
        for v in (1.5, 2.5, 4.0, 20.0):
            b.observe(v)
            whole.observe(v)
        sa = a.summary()
        sa["buckets"] = {int(k): v for k, v in sa["buckets"].items()}
        merged = merge_histogram_summaries(sa, b.summary())
        assert merged == whole.summary()

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError, match="different kind"):
            reg.gauge("x")

    def test_snapshot_and_deltas(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(5)
        before = reg.snapshot()
        reg.counter("a").inc(3)
        reg.counter("b").inc(2)
        after = reg.snapshot()
        deltas = counter_deltas(after, before)
        assert deltas == {"a": 3, "b": 2}
        # None previous snapshot: full values.
        assert counter_deltas(after, None) == {"a": 8, "b": 2}

    def test_deltas_rebaseline_after_reset(self):
        """A registry reset between snapshots must not produce negative or
        dropped deltas: the counter re-baselines from zero and the delta is
        its full post-reset value."""
        reg = MetricsRegistry()
        reg.counter("a").inc(5)
        reg.counter("b").inc(3)
        before = reg.snapshot()
        reg.reset()
        reg.counter("a").inc(2)
        after = reg.snapshot()
        deltas = counter_deltas(after, before)
        assert deltas == {"a": 2, "b": 0}
        assert all(v >= 0 for v in deltas.values())

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(5)
        reg.gauge("g").set(1.0)
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"]["a"] == 0
        assert snap["gauges"]["g"] == 0.0


class TestEventSinks:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with JsonlEventSink(path) as sink:
            sink.emit({"event": "step", "step": 1, "dt": 0.5})
            sink.emit({"event": "step", "step": 2, "nested": {"a": [1, 2]}})
        records = read_events(path)
        assert records == [
            {"event": "step", "step": 1, "dt": 0.5},
            {"event": "step", "step": 2, "nested": {"a": [1, 2]}},
        ]

    def test_emit_after_close_rejected(self, tmp_path):
        sink = JsonlEventSink(tmp_path / "m.jsonl")
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(ConfigurationError, match="closed"):
            sink.emit({"event": "step"})

    def test_tee_fans_out(self):
        a, b = BufferSink(), BufferSink()
        tee = TeeSink(a, b)
        tee.emit({"event": "x"})
        assert a.records == b.records == [{"event": "x"}]

    def test_steps_of_filters(self):
        records = [{"event": "run_start"}, {"event": "step", "step": 1}]
        assert steps_of(records) == [{"event": "step", "step": 1}]


class TestStepRecorder:
    def test_run_start_carries_meta(self):
        sink = BufferSink()
        StepRecorder(sink, meta={"problem": "rp1"})
        assert sink.records[0]["event"] == "run_start"
        assert sink.records[0]["meta"] == {"problem": "rp1"}
        assert sink.records[0]["source"] == "measured"

    def test_counters_and_timers_are_deltas(self):
        from repro.utils.timers import TimerRegistry

        sink = BufferSink()
        rec = StepRecorder(sink)
        reg = MetricsRegistry()
        timers = TimerRegistry()
        timers("k").elapsed = 1.0
        reg.counter("c").inc(10)
        rec.record_step(
            step=1, t=0.1, dt=0.1, wall_seconds=0.0, timers=timers, metrics=reg
        )
        timers("k").elapsed = 1.5
        reg.counter("c").inc(4)
        rec.record_step(
            step=2, t=0.2, dt=0.1, wall_seconds=0.0, timers=timers, metrics=reg
        )
        s1, s2 = steps_of(sink.records)
        assert s1["counters"]["c"] == 10 and s2["counters"]["c"] == 4
        assert s1["kernel_seconds"]["k"] == pytest.approx(1.0)
        assert s2["kernel_seconds"]["k"] == pytest.approx(0.5)

    def test_finish_emits_totals(self):
        sink = BufferSink()
        rec = StepRecorder(sink)
        reg = MetricsRegistry()
        reg.counter("c").inc(7)
        rec.record_step(step=1, t=0.1, dt=0.1, wall_seconds=0.0, metrics=reg)
        rec.finish(t_end=0.1)
        end = sink.records[-1]
        assert end["event"] == "run_end"
        assert end["steps"] == 1
        assert end["counters_total"]["c"] == 7
        assert end["t_end"] == 0.1


class TestSolverRecording:
    def _run(self, n_steps=3):
        eos = IdealGasEOS(gamma=RP1.gamma)
        system = SRHDSystem(eos, ndim=1)
        grid = Grid((64,), ((0.0, 1.0),))
        prim0 = shock_tube(system, grid, RP1)
        sink = BufferSink()
        recorder = StepRecorder(sink, meta={"problem": "rp1"})
        solver = Solver(system, grid, prim0, SolverConfig(cfl=0.4), recorder=recorder)
        solver.run(t_final=1.0, max_steps=n_steps)
        return solver, sink

    def test_one_record_per_step(self):
        solver, sink = self._run(3)
        steps = steps_of(sink.records)
        assert len(steps) == solver.summary.steps == 3
        assert [s["step"] for s in steps] == [1, 2, 3]

    def test_step_records_contain_kernels_and_counters(self):
        solver, sink = self._run(2)
        for s in steps_of(sink.records):
            assert s["dt"] > 0 and s["wall_seconds"] > 0
            for kernel in ("con2prim", "reconstruct", "riemann", "update"):
                assert s["kernel_seconds"][kernel] >= 0
            c = s["counters"]
            # The partition invariant holds per step record too.
            assert (
                c["con2prim.newton_converged"]
                + c["con2prim.bisection"]
                + c["con2prim.failed"]
                == c["con2prim.cells"]
            )
            assert c["con2prim.cells"] % 64 == 0 and c["con2prim.cells"] > 0

    def test_counters_scale_with_sweeps(self):
        solver, sink = self._run(3)
        stages = solver.integrator.stages
        steps = steps_of(sink.records)
        # Each RK stage recovers once; from the second step on, compute_dt
        # adds one more sweep (the first uses the constructor's cache).
        assert steps[0]["counters"]["con2prim.cells"] == 64 * stages
        assert steps[1]["counters"]["con2prim.cells"] == 64 * (stages + 1)


class TestDistributedRecording:
    def test_halo_bytes_match_analytic_model(self):
        eos = IdealGasEOS(gamma=RP1.gamma)
        system = SRHDSystem(eos, ndim=1)
        grid = Grid((64,), ((0.0, 1.0),))
        prim0 = shock_tube(system, grid, RP1)
        sink = BufferSink()
        solver = DistributedSolver(
            system, grid, prim0, dims=(4,), recorder=StepRecorder(sink)
        )
        solver.run(t_final=1.0, max_steps=2)
        steps = steps_of(sink.records)
        assert len(steps) == 2
        per_exchange = solver.halo_bytes_per_exchange
        from repro.comm.halo import halo_bytes_per_step

        assert per_exchange == sum(
            halo_bytes_per_step(solver.decomp, system.nvars).values()
        )
        stages = solver.integrator.stages
        # First step: dt comes from the constructor's cached primitives, so
        # only the RK stages exchange; afterwards compute_dt adds one more.
        assert steps[0]["comm"]["halo_bytes"] == stages * per_exchange
        assert steps[1]["comm"]["halo_bytes"] == (stages + 1) * per_exchange
        assert steps[0]["comm"]["halo_bytes_model_per_exchange"] == per_exchange
        assert steps[1]["comm"]["collectives"] >= 1

    def test_rank_pipelines_share_registries(self):
        eos = IdealGasEOS(gamma=RP1.gamma)
        system = SRHDSystem(eos, ndim=1)
        grid = Grid((32,), ((0.0, 1.0),))
        prim0 = smooth_wave(system, grid)
        solver = DistributedSolver(system, grid, prim0, dims=(2,))
        solver.step()
        # All interior cells of every rank counted in one shared registry.
        cells = solver.metrics.counter("con2prim.cells").value
        assert cells == 32 * solver.integrator.stages
        assert "con2prim" in solver.timers


class TestAMRRecording:
    def test_step_records_carry_forest_shape(self):
        system = SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1)
        grid = Grid((32,), ((0.0, 1.0),))
        sink = BufferSink()
        solver = AMRSolver(
            system,
            grid,
            lambda sys, g: shock_tube(sys, g, RP1),
            SolverConfig(cfl=0.4),
            AMRConfig(block_size=8, max_levels=2),
            recorder=StepRecorder(sink),
        )
        solver.run(t_final=1.0, max_steps=2)
        steps = steps_of(sink.records)
        assert len(steps) == 2
        for s in steps:
            assert s["amr"]["n_leaves"] >= 4
            assert s["amr"]["cells_updated"] > 0
            assert sum(s["amr"]["leaves_by_level"].values()) == s["amr"]["n_leaves"]
            assert s["counters"]["con2prim.cells"] > 0


class TestModelledExport:
    @pytest.fixture
    def timeline(self):
        from repro.runtime.task import Task, TaskRecord, Timeline

        tl = Timeline()
        tl.add(TaskRecord(Task("a", "riemann", n_cells=100), "cpu0", 0.0, 1.0))
        tl.add(TaskRecord(Task("b", "riemann", n_cells=100), "gpu0", 0.0, 0.5))
        tl.add(TaskRecord(Task("c", "con2prim", n_cells=100), "cpu0", 1.0, 1.25))
        return tl

    def test_same_schema_as_measured(self, timeline):
        from repro.runtime.trace import to_metrics_records

        records = to_metrics_records(timeline, meta={"experiment": "E8"})
        assert [r["event"] for r in records] == ["run_start", "step", "run_end"]
        assert all(r["source"] == "modelled" for r in records)
        step = steps_of(records)[0]
        assert step["wall_seconds"] == pytest.approx(1.25)
        assert step["kernel_seconds"]["riemann"] == pytest.approx(1.5)
        assert step["kernel_seconds"]["con2prim"] == pytest.approx(0.25)
        assert step["gauges"]["device.cpu0.busy_seconds"] == pytest.approx(1.25)
        assert step["gauges"]["device.gpu0.busy_seconds"] == pytest.approx(0.5)
        assert records[0]["meta"]["experiment"] == "E8"

    def test_jsonl_round_trip_and_report(self, timeline, tmp_path):
        from repro.runtime.trace import to_metrics_records

        path = tmp_path / "modelled.jsonl"
        with JsonlEventSink(path) as sink:
            for record in to_metrics_records(timeline):
                sink.emit(record)
        records = read_events(path)
        report = Report.from_metrics(records)
        text = str(report)
        assert "kernel.riemann [s]" in text
        assert "source: modelled" in text


class TestMetricsReport:
    def test_aggregates_measured_stream(self):
        eos = IdealGasEOS(gamma=RP1.gamma)
        system = SRHDSystem(eos, ndim=1)
        grid = Grid((32,), ((0.0, 1.0),))
        prim0 = shock_tube(system, grid, RP1)
        sink = BufferSink()
        solver = Solver(
            system,
            grid,
            prim0,
            SolverConfig(cfl=0.4),
            make_boundaries("outflow"),
            recorder=StepRecorder(sink),
        )
        solver.run(t_final=1.0, max_steps=3)
        report = Report.from_metrics(sink.records)
        assert report.column("metric")[0] == "steps"
        by_name = dict(zip(report.column("metric"), report.column("value")))
        assert by_name["steps"] == 3
        assert by_name["counter.con2prim.cells"] == sum(
            s["counters"]["con2prim.cells"] for s in steps_of(sink.records)
        )
        assert "kernel.con2prim [s]" in by_name

    def test_empty_stream_noted(self):
        report = Report.from_metrics([{"event": "run_start"}])
        assert not report.rows
        assert any("no step records" in n for n in report.notes)

    def test_renamed_histogram_readable_under_old_name(self):
        """Archived streams recorded before the con2prim.newton_iters ->
        con2prim.newton_iters_max rename still aggregate, under the new
        name."""
        records = [
            {
                "event": "step",
                "t": 0.1,
                "histograms": {
                    "con2prim.newton_iters": {"count": 4, "mean": 2.0, "max": 5.0}
                },
            }
        ]
        report = Report.from_metrics(records)
        names = report.column("metric")
        assert "hist.con2prim.newton_iters_max.count" in names
        assert "hist.con2prim.newton_iters.count" not in names
        by_name = dict(zip(names, report.column("value")))
        assert by_name["hist.con2prim.newton_iters_max.max"] == 5.0


class TestMultiRankReport:
    """Report.from_metrics over interleaved per-rank shards (the process
    executor's raw, unmerged streams) and the measured-vs-modelled diff."""

    def _shard(self, rank, step, counter, gauge):
        return {
            "event": "step", "rank": rank, "step": step,
            "t": 0.05 * step, "dt": 0.05, "wall_seconds": 0.1,
            "kernel_seconds": {"rhs": 1.0},
            "counters": {"con2prim.cells": counter},
            "gauges": {"con2prim.max_newton_iters": gauge},
            "histograms": {
                "con2prim.newton_iters_max": {
                    "count": step, "sum": float(gauge * step),
                    "min": 1.0, "max": float(gauge), "mean": float(gauge),
                }
            },
        }

    def test_interleaved_ranks_aggregate(self):
        # Arrival order scrambled across ranks and steps on purpose.
        records = [
            self._shard(1, 1, 10, 4.0),
            self._shard(0, 1, 12, 6.0),
            self._shard(1, 2, 10, 5.0),
            self._shard(0, 2, 12, 6.0),
        ]
        report = Report.from_metrics(records)
        by_name = dict(zip(report.column("metric"), report.column("value")))
        assert by_name["steps"] == 2  # distinct steps, not shard count
        assert by_name["counter.con2prim.cells"] == 44  # summed over shards
        assert by_name["kernel.rhs [s]"] == 4.0
        # Gauges: max over each rank's *final* record.
        assert by_name["gauge.con2prim.max_newton_iters"] == 6.0
        # Histograms: the two final shards combine exactly.
        assert by_name["hist.con2prim.newton_iters_max.count"] == 4
        assert by_name["hist.con2prim.newton_iters_max.max"] == 6.0
        assert any("2 rank shards" in n for n in report.notes)

    def test_heterogeneous_histogram_names_keep_all_ranks(self):
        # Regression: aggregation used each rank's *final* record wholesale,
        # so a histogram/gauge name absent from that record (e.g. per-rank
        # amr.* histograms after a rebalance migrated the last block of a
        # kind away) silently dropped that rank's buckets from the report.
        from repro.obs import MetricsRegistry, merge_histogram_summaries

        h0 = MetricsRegistry().histogram("h")
        h1 = MetricsRegistry().histogram("h")
        for v in (1.0, 2.0, 4.0):
            h0.observe(v)
        for v in (8.0, 16.0):
            h1.observe(v)
        records = [
            {"event": "step", "rank": 0, "step": 1, "t": 0.1,
             "histograms": {"amr.block_cells": h0.summary()},
             "gauges": {"amr.rank_leaves": 3.0}},
            {"event": "step", "rank": 1, "step": 1, "t": 0.1,
             "histograms": {"amr.block_cells": h1.summary()},
             "gauges": {"amr.rank_leaves": 5.0}},
            {"event": "step", "rank": 0, "step": 2, "t": 0.2,
             "histograms": {"amr.block_cells": h0.summary()},
             "gauges": {"amr.rank_leaves": 3.0}},
            # Rank 1's final record no longer carries the amr entries.
            {"event": "step", "rank": 1, "step": 2, "t": 0.2,
             "histograms": {}, "gauges": {}},
        ]
        report = Report.from_metrics(records)
        by_name = dict(zip(report.column("metric"), report.column("value")))
        expect = merge_histogram_summaries(h0.summary(), h1.summary())
        assert by_name["hist.amr.block_cells.count"] == expect["count"]
        assert by_name["hist.amr.block_cells.max"] == 16.0
        assert by_name["gauge.amr.rank_leaves"] == 5.0

    def test_single_rank_stream_unchanged(self):
        records = [self._shard(0, 1, 10, 4.0), self._shard(0, 2, 10, 5.0)]
        report = Report.from_metrics(records)
        by_name = dict(zip(report.column("metric"), report.column("value")))
        assert by_name["steps"] == 2
        assert not any("rank shards" in n for n in report.notes)

    def test_diff_metrics_ratio(self):
        measured = [
            {"event": "step", "step": 1, "t": 0.1, "wall_seconds": 2.0,
             "kernel_seconds": {"compute": 1.5},
             "counters": {"scaling.nodes": 4}},
        ]
        modelled = [
            {"event": "step", "step": 1, "t": 0.1, "wall_seconds": 1.0,
             "kernel_seconds": {"compute": 1.0},
             "counters": {"scaling.nodes": 4}},
        ]
        report = Report.diff_metrics(measured, modelled)
        assert list(report.headers) == ["metric", "measured", "modelled", "ratio"]
        rows = {r[0]: r for r in report.rows}
        assert rows["wall_seconds"][3] == pytest.approx(2.0)
        assert rows["kernel.compute [s]"][3] == pytest.approx(1.5)
        assert rows["counter.scaling.nodes"][3] == pytest.approx(1.0)

    def test_diff_metrics_identical_streams_are_all_ones(self):
        stream = [self._shard(0, 1, 10, 4.0), self._shard(0, 2, 10, 5.0)]
        report = Report.diff_metrics(stream, stream)
        for row in report.rows:
            if isinstance(row[3], float):
                assert row[3] == 1.0
