"""Golden-stream regression tests: committed fixtures pin the numerics.

Four fixtures live in ``tests/golden/``.  Each is recorded on the
interpreted ``flat`` kernel target, or on ``cext``, whose bytes equal
``flat``'s — so a host without a C toolchain, where ``cext`` falls back to
``flat``, checks every one:

``rp1_l1_golden.json``
    Relative L1(rho) errors of the RP1 shock tube against the exact
    Riemann solution, per (riemann, reconstruction) combo, on ``flat``.
    Compared for *exact* float equality — any change to the numerical
    kernels that shifts a single bit of the solution fails here first.

``blast2d_stream_golden.jsonl``
    The canonical projection (:func:`repro.obs.canonical_stream`) of a
    short overlapped 2-D blast run's StepRecorder stream on ``flat``
    (``cext`` must give the same bytes) — counters, gauges, histogram
    summaries, and comm byte accounting with all wall-clock-derived fields
    removed.  Compared byte-for-byte, so metric renames, schema drift, and
    stream regressions fail loudly.

``amr_rp1_stream_golden.jsonl``
    The canonical projection of the canonical AMR shock-tube run (serial
    :class:`~repro.core.amr_solver.AMRSolver` on ``flat``, fixed regrid
    cadence).  Besides pinning the serial forest numerics byte-for-byte,
    the same fixture is the parity bar for the rank loop: the scenario is
    tuned so the forest topology keeps changing mid-run, which makes the same
    :class:`~repro.core.amr_solver.AMRSolver` at 2 and 4 in-process ranks
    cross the rebalance threshold and migrate blocks — and it still has to
    reproduce the one-rank stream byte-for-byte.

``amr_blast2d_stream_golden.jsonl``
    The same projection of a 2-D AMR blast on ``cext`` (three levels,
    outflow walls, a regrid every other step that both splits and merges),
    with a ``leaf_digest`` event after every step: the SHA-256 of every
    leaf's interior, in key order.  Leaf bytes depend on every ghost the fill
    writes — edge, corner, coarse-fine and coarse-fine-corner — so the
    digest pins them; 2 and 3 in-process ranks and the flat kernel
    target must reproduce it byte for byte.

Regenerate all (after an *intentional* change) with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden_stream.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.analysis import relative_l1_error
from repro.boundary import make_boundaries
from repro.core import Solver, SolverConfig
from repro.core.amr_solver import AMRConfig, AMRSolver
from repro.core.distributed import DistributedSolver
from repro.eos import IdealGasEOS
from repro.mesh.grid import Grid
from repro.obs import BufferSink, StepRecorder, canonical_stream
from repro.physics.exact_riemann import ExactRiemannSolver
from repro.physics.initial_data import SHOCK_TUBES, blast_wave_2d, shock_tube
from repro.physics.srhd import SRHDSystem

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))

#: (riemann, reconstruction) combos pinned by the RP1 golden fixture
RP1_COMBOS = (("hllc", "mc"), ("hll", "minmod"), ("llf", "superbee"))


def _rp1_l1_errors() -> dict[str, float]:
    prob = SHOCK_TUBES["RP1"]
    out = {}
    for riemann, reconstruction in RP1_COMBOS:
        system = SRHDSystem(IdealGasEOS(gamma=prob.gamma), ndim=1)
        grid = Grid((64,), ((0.0, 1.0),))
        solver = Solver(
            system, grid, shock_tube(system, grid, prob),
            SolverConfig(
                cfl=0.4, riemann=riemann, reconstruction=reconstruction,
                kernel_target="flat",
            ),
            make_boundaries("outflow"),
        )
        solver.run(t_final=0.1)
        rho = solver.interior_primitives()[system.RHO]
        rho_exact, _, _ = ExactRiemannSolver(
            prob.left, prob.right, prob.gamma
        ).solution_on_grid(grid.coords(0), solver.t, prob.x0)
        out[f"{riemann}/{reconstruction}"] = float(
            relative_l1_error(rho, rho_exact)
        )
    return out


def _blast2d_stream(kernel_target: str = "flat") -> str:
    system = SRHDSystem(IdealGasEOS(), ndim=2)
    grid = Grid((12, 12), ((0.0, 1.0), (0.0, 1.0)))
    sink = BufferSink()
    recorder = StepRecorder(
        sink,
        meta={"problem": "blast2d", "n": 12, "dims": [2, 2], "overlap": True},
    )
    solver = DistributedSolver(
        system, grid, blast_wave_2d(system, grid), (2, 2),
        config=SolverConfig(
            cfl=0.4, overlap_exchange=True, kernel_target=kernel_target
        ),
        recorder=recorder,
    )
    solver.run(t_final=0.1, max_steps=6)
    recorder.finish(t_end=solver.t)
    return canonical_stream(sink.records)


#: steps of the canonical AMR run — enough for the shock to cross several
#: block boundaries, so regrids split ahead of the front and coarsen behind
#: it; the resulting ownership drift trips the rebalance threshold at 2 and
#: 4 ranks with at least one real block migration.
AMR_STEPS = 40


def _amr_scenario():
    system = SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=1)
    grid = Grid((64,), ((0.0, 1.0),))
    config = SolverConfig(cfl=0.4, kernel_target="flat")
    amr = AMRConfig(
        block_size=8, max_levels=3, refine_threshold=0.05,
        coarsen_threshold=0.02, regrid_interval=4, rebalance_threshold=1.05,
    )
    init = lambda sys, g: shock_tube(sys, g, SHOCK_TUBES["RP1"])  # noqa: E731
    return system, grid, init, config, amr


def _amr_stream(n_ranks: int | None = None):
    """Canonical AMR run -> (canonical stream, solver).

    ``n_ranks=None`` runs :class:`AMRSolver` at its default one rank (the
    golden reference); an integer runs it with that many ranks in the
    in-process rank loop.
    """
    system, grid, init, config, amr = _amr_scenario()
    sink = BufferSink()
    recorder = StepRecorder(
        sink, meta={"problem": "rp1-amr", "n": 64, "regrid_interval": 4}
    )
    if n_ranks is None:
        solver = AMRSolver(system, grid, init, config, amr, recorder=recorder)
    else:
        solver = AMRSolver(
            system, grid, init, config=config, amr=amr,
            recorder=recorder, n_ranks=n_ranks,
        )
    for _ in range(AMR_STEPS):
        solver.step()
    recorder.finish(t_end=solver.t)
    return canonical_stream(sink.records), solver


#: steps of the 2-D AMR run: four regrids, each of which splits and merges
AMR2D_STEPS = 8


def _amr2d_stream(n_ranks: int = 1, kernel_target: str = "cext", counts=None):
    """The 2-D AMR blast -> canonical stream with a per-step leaf digest.

    A ``cext`` request on a host without a toolchain degrades to ``flat``
    (same bytes; the fallback counters are substrate and projected away),
    so the fixture needs no compiler.  *counts*, if given, is a dict the
    forest's split and merge calls are tallied into.
    """
    system = SRHDSystem(IdealGasEOS(), ndim=2)
    sink = BufferSink()
    recorder = StepRecorder(sink, meta={"problem": "blast2d-amr", "n": 32})
    solver = AMRSolver(
        system, Grid((32, 32), ((0.0, 1.0), (0.0, 1.0))),
        lambda s, g: blast_wave_2d(
            s, g, p_in=10.0, p_out=1.0, radius=0.15, center=(0.45, 0.4)
        ),
        SolverConfig(cfl=0.4, kernel_target=kernel_target),
        AMRConfig(
            block_size=8, max_levels=3, regrid_interval=2,
            refine_threshold=0.2, coarsen_threshold=0.05,
        ),
        make_boundaries("outflow"), recorder=recorder, n_ranks=n_ranks,
    )
    if counts is not None:
        for name in ("split", "merge"):
            real = getattr(solver.forest, name)

            def counting(*args, _real=real, _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _real(*args)

            setattr(solver.forest, name, counting)
    for _ in range(AMR2D_STEPS):
        solver.step()
        digest = hashlib.sha256()
        for key in sorted(solver.forest.leaves):
            leaf = solver.forest.leaves[key]
            digest.update(repr(key).encode())
            digest.update(leaf.grid.interior_of(leaf.cons).tobytes())
        recorder.emit_event(
            "leaf_digest", step=solver.steps, sha256=digest.hexdigest()
        )
    recorder.finish(t_end=solver.t)
    return canonical_stream(sink.records)


def _assert_stream_equal(stream: str, golden: str) -> None:
    if stream == golden:
        return
    got, want = stream.splitlines(), golden.splitlines()
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, (
            f"stream line {i + 1} diverges from golden\n"
            f"  got : {a}\n  want: {b}\n"
            "regenerate with REPRO_REGEN_GOLDEN=1 only if intentional"
        )
    raise AssertionError(f"stream has {len(got)} lines, golden has {len(want)}")


class TestRP1Golden:
    PATH = GOLDEN_DIR / "rp1_l1_golden.json"

    def test_l1_errors_match_golden_exactly(self):
        errors = _rp1_l1_errors()
        if REGEN:
            self.PATH.write_text(json.dumps(errors, indent=2, sort_keys=True) + "\n")
        golden = json.loads(self.PATH.read_text())
        assert set(errors) == set(golden)
        for combo, value in errors.items():
            # Exact equality: JSON round-trips doubles losslessly, and the
            # solver is deterministic — a one-ulp drift is a real change.
            assert value == golden[combo], (
                f"{combo}: L1 {value!r} != golden {golden[combo]!r} "
                f"(rel diff {abs(value - golden[combo]) / golden[combo]:.2e}); "
                "regenerate with REPRO_REGEN_GOLDEN=1 only if intentional"
            )

    def test_errors_are_sane(self):
        golden = json.loads(self.PATH.read_text())
        for combo, value in golden.items():
            assert 0.0 < value < 0.5, (combo, value)


class TestBlast2DStreamGolden:
    PATH = GOLDEN_DIR / "blast2d_stream_golden.jsonl"

    def test_stream_matches_golden_bytes(self):
        stream = _blast2d_stream()
        if REGEN:
            self.PATH.write_text(stream)
        golden = self.PATH.read_text()
        if stream != golden:
            got = stream.splitlines()
            want = golden.splitlines()
            for i, (a, b) in enumerate(zip(got, want)):
                assert a == b, (
                    f"stream line {i + 1} diverges from golden\n"
                    f"  got : {a}\n  want: {b}\n"
                    "regenerate with REPRO_REGEN_GOLDEN=1 only if intentional"
                )
            raise AssertionError(
                f"stream has {len(got)} lines, golden has {len(want)}"
            )

    def test_canonical_stream_has_no_timing_fields(self):
        stream = self.PATH.read_text()
        records = [json.loads(line) for line in stream.splitlines()]
        assert records[0]["event"] == "run_start"
        assert records[-1]["event"] == "run_end"
        steps = [r for r in records if r["event"] == "step"]
        assert len(steps) == 6
        for r in steps:
            assert "wall_seconds" not in r and "kernel_seconds" not in r
            for name in list(r["counters"]) + list(r["gauges"]):
                assert not name.endswith(("_s", "_seconds", "_frac")), name
            # The overlap counters that *are* deterministic stay pinned: one
            # overlapped exchange per SSP-RK3 stage but stage 1, which steps
            # from compute_dt's exchanged primitives on every step.
            stages = 3
            assert r["counters"]["comm.overlap.exchanges"] == stages - 1
            assert r["comm"]["halo_bytes"] > 0

    def test_stream_is_reproducible_within_session(self):
        assert _blast2d_stream() == _blast2d_stream()

    def test_cext_fused_stream_matches_flat_bytes(self):
        """The compiled fused face-flux sweep must canonicalize
        byte-identical to the interpreted flat pipeline — same solution
        bits, same sanitize counters, same comm accounting — through the
        full distributed + overlapped-exchange driver."""
        from repro.codegen import cext_available

        if not cext_available(2):
            pytest.skip("no C toolchain")
        assert _blast2d_stream("cext") == _blast2d_stream("flat")


class TestAMRStreamGolden:
    PATH = GOLDEN_DIR / "amr_rp1_stream_golden.jsonl"

    def test_serial_stream_matches_golden_bytes(self):
        stream, _ = _amr_stream()
        if REGEN:
            self.PATH.write_text(stream)
        _assert_stream_equal(stream, self.PATH.read_text())

    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_distributed_ranks_reproduce_golden_bytes(self, n_ranks):
        """The distributed driver — partial per-rank ghost fills, rank-aware
        refluxing, dynamic Morton-curve rebalancing and all — canonicalizes
        byte-identical to the serial forest at every rank count."""
        stream, solver = _amr_stream(n_ranks)
        _assert_stream_equal(stream, self.PATH.read_text())
        if n_ranks > 1:
            # The parity above is only meaningful if the run actually
            # crossed the rebalance threshold and moved blocks mid-run.
            assert solver.repartitions >= 1
            assert solver.migrated_blocks >= 1
        else:
            assert solver.repartitions == 0

    def test_canonical_stream_drops_rebalance_bookkeeping(self):
        """The fixture must stay executor-independent: no rebalance events,
        no imbalance/migration metrics, only the canonical amr keys."""
        records = [
            json.loads(line) for line in self.PATH.read_text().splitlines()
        ]
        assert not any(r["event"] == "amr_rebalance" for r in records)
        steps = [r for r in records if r["event"] == "step"]
        assert len(steps) == AMR_STEPS
        banned = {"amr.imbalance", "amr.repartitions", "amr.migrated_blocks"}
        for r in steps:
            assert set(r["amr"]) <= {
                "n_leaves", "cells_updated", "regrids", "leaves_by_level"
            }
            assert "rank_blocks" not in r["amr"]
            for name in list(r["counters"]) + list(r["gauges"]):
                assert not name.startswith(("comm.amr.", "supervision.")), name
                assert name not in banned, name
        # The forest must actually regrid mid-run for the distributed
        # parity to exercise ownership churn.
        assert steps[-1]["amr"]["regrids"] > steps[0]["amr"]["regrids"]


class TestAMR2DStreamGolden:
    PATH = GOLDEN_DIR / "amr_blast2d_stream_golden.jsonl"

    def test_serial_stream_matches_golden_bytes(self):
        counts = {}
        stream = _amr2d_stream(counts=counts)
        if REGEN:
            self.PATH.write_text(stream)
        _assert_stream_equal(stream, self.PATH.read_text())
        # The regrids the fixture is meant to pin really split and merge.
        assert counts["split"] > 0 and counts["merge"] > 0, counts

    @pytest.mark.parametrize("n_ranks", [2, 3])
    def test_in_process_ranks_reproduce_golden_bytes(self, n_ranks):
        _assert_stream_equal(_amr2d_stream(n_ranks), self.PATH.read_text())

    def test_cext_stream_matches_flat_bytes(self):
        """The golden is recorded on ``cext``; the interpreted flat target
        must canonicalize to the same bytes, leaf digests included."""
        from repro.codegen import cext_available

        if not cext_available(2):
            pytest.skip("no C toolchain")
        _assert_stream_equal(_amr2d_stream(kernel_target="flat"), self.PATH.read_text())

    def test_every_step_carries_a_leaf_digest(self):
        records = [json.loads(line) for line in self.PATH.read_text().splitlines()]
        steps = [r for r in records if r["event"] == "step"]
        digests = [r for r in records if r["event"] == "leaf_digest"]
        assert len(steps) == len(digests) == AMR2D_STEPS
        assert steps[-1]["amr"]["regrids"] == AMR2D_STEPS // 2
        assert len({r["sha256"] for r in digests}) == AMR2D_STEPS
