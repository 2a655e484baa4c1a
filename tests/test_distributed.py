"""Integration tests of the distributed solver: its communication pattern,
its rank stacks and its diagnostic reads.  That it reproduces the
single-grid solver exactly (the property that validates the whole comm
substrate) is asserted by the equivalence lattice (``tests/lattice.py``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Grid, IdealGasEOS, Solver, SolverConfig, SRHDSystem
from repro.boundary import make_boundaries
from repro.core import DistributedSolver
from repro.core.pipeline import HydroPipeline
from repro.obs import BufferSink, StepRecorder, canonical_stream
from repro.physics.initial_data import blast_wave_2d, smooth_wave
from repro.resilience.faults import Con2PrimFault, FaultInjector, FaultPlan
from repro.utils.errors import ConfigurationError, RecoveryError

from .conftest import require_cext
from .lattice import legacy


@legacy("test_distributed.py::TestEquivalence")
class TestEquivalence:
    """The distributed solver reproduces the single-grid solver exactly:
    whole runs are cells of the equivalence lattice (``tests/lattice.py``);
    here, that sixteen ranks share one kernel resolution."""

    def test_kernel_target_resolved_once_for_all_ranks(
        self, system2d, compiled_system_inits
    ):
        """Sixteen rank pipelines, one resolution: each holds the same
        compiled system, the driver keeps the plain one, and the ranks
        still reproduce the single-grid cext run byte for byte."""
        grid = Grid((32, 32), ((0, 1), (0, 1)))
        prim0 = blast_wave_2d(system2d, grid, p_in=10.0, radius=0.2)
        cfg = SolverConfig(cfl=0.4, kernel_target="cext")
        dist = DistributedSolver(system2d, grid, prim0.copy(), dims=(4, 4), config=cfg)
        assert len(compiled_system_inits) == 1
        assert len({id(p.system) for p in dist.pipelines.values()}) == 1
        assert dist.system is system2d
        dist.run(t_final=1.0, max_steps=3)
        assert "face_flux" in dist.timers and "reconstruct" not in dist.timers
        single = Solver(system2d, grid, prim0.copy(), cfg)
        single.run(t_final=1.0, max_steps=3)
        assert (
            dist.gather_primitives().tobytes()
            == single.interior_primitives().tobytes()
        )


class TestCommunicationPattern:
    def test_traffic_logged(self, system1d):
        grid = Grid((32,), ((0.0, 1.0),))
        prim0 = smooth_wave(system1d, grid)
        dist = DistributedSolver(system1d, grid, prim0, dims=(4,))
        dist.run(t_final=0.02)
        assert dist.comm.traffic.n_messages > 0
        # One allreduce (dt) per step.
        assert dist.comm.traffic.n_collectives == dist.steps

    def test_message_count_per_step(self, system1d):
        """With an explicit dt, an RK3 step does exactly 3 stage exchanges;
        the single 1-D interior face carries 2 messages per exchange."""
        grid = Grid((32,), ((0.0, 1.0),))
        prim0 = smooth_wave(system1d, grid)
        dist = DistributedSolver(system1d, grid, prim0, dims=(2,))
        base = dist.comm.traffic.n_messages
        dist.step(dt=1e-4)
        per_step = dist.comm.traffic.n_messages - base
        assert per_step == 6
        # Letting the solver pick dt adds the CFL reduction, not an
        # exchange: RK stage 1 steps from the primitives compute_dt exchanged.
        base = dist.comm.traffic.n_messages
        colls = dist.comm.traffic.n_collectives
        dist.step()
        assert dist.comm.traffic.n_messages - base == per_step
        assert dist.comm.traffic.n_collectives - colls == 1

    def test_no_stranded_messages(self, system1d):
        grid = Grid((32,), ((0.0, 1.0),))
        prim0 = smooth_wave(system1d, grid)
        dist = DistributedSolver(system1d, grid, prim0, dims=(4,))
        dist.run(t_final=0.05)
        assert dist.comm.pending() == 0

    @pytest.mark.parametrize("overlap", [False, True])
    def test_protocol_is_derived_once_not_per_message(
        self, system2d, monkeypatch, overlap
    ):
        """Sub-grids, neighbours and the halo face table are fixed when the
        decomposition is: stepping constructs no Grid, converts no rank to
        coordinates and never rebuilds the table."""
        import repro.comm.halo as halo
        from repro.mesh.decomposition import CartesianDecomposition

        grid = Grid((32, 32), ((0, 1), (0, 1)))
        prim0 = blast_wave_2d(system2d, grid, p_in=10.0, radius=0.2)
        dist = DistributedSolver(
            system2d, grid, prim0, dims=(4, 4),
            config=SolverConfig(cfl=0.4, overlap_exchange=overlap),
            boundaries=make_boundaries("periodic"),
        )
        calls = []
        for owner, name in [
            (Grid, "__init__"),
            (CartesianDecomposition, "rank_coords"),
            (halo, "_build_face_table"),
        ]:
            real = getattr(owner, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        for _ in range(3):
            dist.step()
        assert calls == []


class TestValidation:
    def test_dimension_mismatch(self, system2d):
        grid = Grid((16,), ((0, 1),))
        with pytest.raises(ConfigurationError):
            DistributedSolver(system2d, grid, np.zeros((4, 22)), dims=(2,))


def _numerics(snapshot: dict) -> dict:
    """A metrics snapshot without its wall-clock readings (the names the
    canonical stream drops: ``*_s``, ``*_seconds``, ``*_frac``)."""
    return {
        kind: {k: v for k, v in values.items() if not k.endswith(("_s", "_seconds", "_frac"))}
        for kind, values in snapshot.items()
    }


def _cons_bytes(solver) -> bytes:
    return b"".join(solver.cons[rank].tobytes() for rank in range(solver.size))


def _smooth3d(system, grid):
    shape = grid.shape_with_ghosts
    x, y, z = np.meshgrid(*(np.linspace(0, 2 * np.pi, n) for n in shape), indexing="ij")
    prim = np.empty((system.nvars,) + shape)
    prim[system.RHO] = 1.0 + 0.3 * np.sin(x) * np.cos(y) * np.cos(z)
    prim[system.P] = 1.0 + 0.2 * np.cos(x + y + z)
    for ax, w in enumerate((y, z, x)):
        prim[system.V(ax)] = 0.2 * np.sin(w)
    return prim


#: name -> (grid shape, bounds, dims, walls, overlap, stacks).  Each sub-grid
#: carries the global dx, so the ranks are the single-grid solver bit for
#: bit.  2 x 3 on 13 x 11: shapes (7|6, 4|4|3) in row-major rank order, i.e.
#: stacks {0, 1}, {2}, {3, 4}, {5}.  3 x 1 on 13 x 8 over the unit square:
#: an inexact dx (1/13) whose rank bounds round, shapes 5|4|4, stacks {0},
#: {1, 2}.
_STACK_CASES = {
    "4x4-periodic": ((32, 32), ((0, 1), (0, 1)), (4, 4), "periodic", False, 1),
    "4x4-periodic-overlap": ((32, 32), ((0, 1), (0, 1)), (4, 4), "periodic", True, 1),
    "2x2-outflow-overlap": ((32, 16), ((0, 1), (0, 1)), (2, 2), "outflow", True, 4),
    "2x3-13x11": ((13, 11), ((0, 0.8125), (0, 0.6875)), (2, 3), "outflow", False, 4),
    "2x2x2-overlap": ((8, 8, 8), ((0, 1),) * 3, (2, 2, 2), "periodic", True, 1),
    "3x1-13x8": ((13, 8), ((0, 1), (0, 1)), (3, 1), "outflow", False, 2),
}


@legacy("test_distributed.py::TestStacks")
class TestStacks:
    """Same-shape ranks step as one ``(P, nvars, *ghosted)`` stack through
    one pipeline: one kernel call per stage for all P, every per-rank
    observable as it was rank by rank."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """HydroPipeline constructions (the benchmark's ``pipeline.builds``)."""
        made = []
        real = HydroPipeline.__init__

        def counting(self, *args, **kwargs):
            made.append(1)
            real(self, *args, **kwargs)

        monkeypatch.setattr(HydroPipeline, "__init__", counting)
        return made

    @pytest.mark.parametrize("case", sorted(_STACK_CASES))
    def test_one_pipeline_per_stack_and_one_observation_per_patch(self, case, builds):
        """One pipeline per stack, one recovery histogram observation per
        patch per sweep, and the single-grid run's bytes (the lattice's rank
        cells run more schemes)."""
        shape, bounds, dims, walls, overlap, n_stacks = _STACK_CASES[case]
        require_cext(len(shape))
        system = SRHDSystem(IdealGasEOS(), ndim=len(shape))
        grid = Grid(shape, bounds)
        prim0 = (
            _smooth3d(system, grid) if len(shape) == 3
            else blast_wave_2d(system, grid, p_in=10.0, p_out=1.0, radius=0.2)
        )
        config = SolverConfig(kernel_target="cext", cfl=0.4, overlap_exchange=overlap)
        solver = DistributedSolver(system, grid, prim0, dims, config, make_boundaries(walls))
        assert len(builds) == len({id(p) for p in solver.pipelines.values()}) == n_stacks
        for _ in range(2):
            solver.step()
        # One sweep per RK stage: every compute_dt, the first included,
        # recovers what RK stage 1 steps from.
        hist = solver.metrics.snapshot()["histograms"]["con2prim.newton_iters_max"]
        assert hist["count"] == solver.size * 2 * solver.integrator.stages
        single = Solver(system, grid, prim0, config, make_boundaries(walls))
        for _ in range(2):
            single.step()
        assert solver.t == single.t
        assert solver.gather_primitives().tobytes() == single.interior_primitives().tobytes()

    @pytest.mark.parametrize("target", ["numpy", "cext"])
    def test_a_burst_on_one_rank_of_a_stack_raises_as_it_always_did(self, target):
        """Sweep 21 is rank 5 of the first step's second stage recovery; the
        text, the cell indices and how far the injector got are the ones
        the rank-by-rank solver produced (captured before stacking)."""
        if target == "cext":
            require_cext(2)
        system = SRHDSystem(IdealGasEOS(), ndim=2)
        grid = Grid((128, 128), ((0, 1), (0, 1)))
        injector = FaultInjector(FaultPlan(con2prim=[Con2PrimFault(sweep=21, n_cells=500)]))
        solver = DistributedSolver(
            system, grid, blast_wave_2d(system, grid, p_in=10.0, p_out=1.0), (4, 4),
            SolverConfig(kernel_target=target, cfl=0.4), make_boundaries("periodic"),
            fault_injector=injector,
        )
        assert len({id(p) for p in solver.pipelines.values()}) == 1
        with pytest.raises(RecoveryError) as info:
            solver.step()
        assert str(info.value) == (
            "injected con2prim burst of 500 cells exceeds the failsafe budget "
            "(0.0 of 1024)"
        )
        assert info.value.n_failed == 500
        assert np.asarray(info.value.indices)[:5].tolist() == [0, 2, 4, 6, 8]
        assert injector._sweep == 21

    def _periodic16(self, target="cext"):
        require_cext(2)
        system = SRHDSystem(IdealGasEOS(), ndim=2)
        grid = Grid((32, 32), ((0, 1), (0, 1)))
        return DistributedSolver(
            system, grid, blast_wave_2d(system, grid, p_in=10.0, p_out=1.0, radius=0.2),
            (4, 4), SolverConfig(kernel_target=target, cfl=0.4),
            make_boundaries("periodic"),
        )

    def test_install_shards_builds_the_stack_and_leaves_shards_alone(self):
        """A shard handed out is a view of the state it was taken from; a
        step commits a fresh stack, so it keeps its bytes, and installing
        it into a fresh solver restarts bit for bit."""
        solver = self._periodic16()
        for _ in range(2):
            solver.step()
        state = solver.state()
        shards = state["patches"]
        held = {rank: (c.tobytes(), p.tobytes()) for rank, (c, p) in shards.items()}
        for _ in range(2):
            solver.step()
        assert {rank: (c.tobytes(), p.tobytes()) for rank, (c, p) in shards.items()} == held
        resumed = self._periodic16()
        resumed.install_state(state)
        assert [s.shape for s in resumed.cons.stacks] == [(16, 4, 14, 14)]
        for _ in range(2):
            resumed.step()
        assert _cons_bytes(resumed) == _cons_bytes(solver)
        assert resumed.metrics.snapshot()["counters"]["con2prim.cells"] > 0

    def test_warm_and_cold_patches_of_one_stack_keep_their_own_start(self):
        """Shards with and without a Newton seed (what a fold to serial can
        install): each patch starts as it would alone — ``cext`` is the
        patch-by-patch interpreted ``flat`` byte for byte."""
        out = {}
        for target in ("cext", "flat"):
            solver = self._periodic16(target)
            solver.step()
            shards = {
                rank: (c.copy(), p if rank % 3 else None)
                for rank, (c, p) in solver.state()["patches"].items()
            }
            resumed = self._periodic16(target)
            resumed.install_state(
                {"t": solver.t, "steps": solver.steps, "patches": shards}
            )
            for _ in range(2):
                resumed.step()
            out[target] = (_cons_bytes(resumed), _numerics(resumed.metrics.snapshot()))
        assert out["cext"] == out["flat"]


class TestDiagnosticRead:
    """Reading the primitives between steps is the recovery and exchange
    the next ``compute_dt`` would have done, not an extra one: the step
    records (``comm`` block included) and the metrics are a run's without
    the read."""

    @pytest.mark.usefixtures("no_fleet_leaks")
    @pytest.mark.parametrize("executor", ["blocking", "overlapped", "process"])
    def test_a_read_between_steps_moves_no_record(self, executor):
        from repro.core.parallel import ProcessSolver

        system = SRHDSystem(IdealGasEOS(), ndim=2)
        grid = Grid((16, 16), ((0, 1), (0, 1)))
        prim0 = blast_wave_2d(system, grid, p_in=10.0, p_out=1.0, radius=0.2)
        config = SolverConfig(
            cfl=0.4, overlap_exchange=executor != "blocking",
            executor="process" if executor == "process" else "serial",
        )
        driver = ProcessSolver if executor == "process" else DistributedSolver

        def run(read):
            sink = BufferSink()
            solver = driver(
                system, grid, prim0.copy(), (2, 1), config=config,
                recorder=StepRecorder(sink),
            )
            try:
                solver.step()
                if read:
                    solver.gather_primitives()
                for _ in range(2):
                    solver.step()
                cons = solver.state()["patches"]
                return (
                    canonical_stream(sink.records),
                    [r["comm"] for r in sink.records if r["event"] == "step"],
                    _numerics(solver.metrics.snapshot()),
                    b"".join(cons[rank][0].tobytes() for rank in sorted(cons)),
                )
            finally:
                if executor == "process":
                    solver.close()

        assert run(read=True) == run(read=False)

    @pytest.mark.usefixtures("no_fleet_leaks")
    @pytest.mark.parametrize("target", ["numpy", "cext"])
    @pytest.mark.parametrize(
        "executor,n_ranks,read",
        [
            ("serial", 1, "interior"),
            ("serial", 1, "composite"),
            ("serial", 2, "interior"),
            ("serial", 2, "composite"),
            ("process", 2, "blocks"),
        ],
    )
    def test_an_amr_read_between_steps_moves_no_record(
        self, executor, n_ranks, read, target
    ):
        """The AMR driver's reads go through the same primitive cache: a
        read after step 1 is the recovery step 2's ``compute_dt`` then
        skips, so the records (``con2prim.cells`` included) are the unread
        run's."""
        from repro.core.amr_parallel import make_distributed_amr_solver
        from repro.core.amr_solver import AMRConfig

        if target == "cext":
            require_cext(2)
        system = SRHDSystem(IdealGasEOS(), ndim=2)
        grid = Grid((32, 32), ((0, 1), (0, 1)))
        amr = AMRConfig(block_size=8, max_levels=2, regrid_interval=2)
        config = SolverConfig(cfl=0.4, kernel_target=target, executor=executor)

        def blast(system, grid):
            return blast_wave_2d(system, grid, p_in=10.0, p_out=1.0, radius=0.2)

        def run(read):
            sink = BufferSink()
            solver = make_distributed_amr_solver(
                system, grid, blast, config, amr, n_ranks=n_ranks,
                recorder=StepRecorder(sink),
            )
            try:
                solver.step()
                if read:
                    {
                        "interior": lambda: solver.interior_primitives(),
                        "composite": lambda: solver.composite_primitives(),
                        "blocks": lambda: solver.interior_primitives(),
                    }[read]()
                for _ in range(2):
                    solver.step()
                patches = solver.state()["patches"]
                return (
                    canonical_stream(sink.records),
                    _numerics(solver.metrics.snapshot()),
                    b"".join(cons.tobytes() for cons, _ in patches.values()),
                )
            finally:
                if executor == "process":
                    solver.close()

        assert run(read=read) == run(read=None)
