"""Process-backend distributed AMR: rank parity, migration, wire format.

The canonical scenario matches the ``amr_rp1_stream_golden.jsonl`` fixture:
a 64-cell RP1 shock tube under a 3-level forest whose topology keeps
changing (refine ahead of the shock, coarsen behind it), so the Morton
rebalance threshold trips mid-run and whole blocks migrate between worker
processes.  The contract: :class:`AMRProcessSolver` is bit-identical to the
serial :class:`AMRSolver` — block bytes and canonical record stream — at
every rank count, through at least one real cross-process migration —
whole runs asserted as cells of the equivalence lattice
(``tests/lattice.py``); the checkpoint reload below compares its fleet
with the serial forest directly.

The spawn-based workers re-import this module by file path, so everything
at module level must be import-safe.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SolverConfig
from repro.core.amr_parallel import (
    AMRProcessSolver,
    make_distributed_amr_solver,
)
from repro.core.amr_solver import AMRConfig, AMRSolver
from repro.core.pipeline import PatchViews, recover_stacks
from repro.eos import IdealGasEOS
from repro.mesh.amr.blocks import BlockKey
from repro.io.checkpoint import load_checkpoint
from repro.mesh.amr.exchange import (
    TAG_AMR_FLUX,
    TAG_AMR_HALO,
    TAG_AMR_MIGRATE,
    block_frame_header,
    check_block_frame,
    check_block_payload,
)
from repro.mesh.grid import Grid
from repro.obs import BufferSink, StepRecorder
from repro.obs.events import steps_of
from repro.physics.initial_data import SHOCK_TUBES, blast_wave_2d, shock_tube
from repro.physics.srhd import SRHDSystem
from repro.resilience.faults import FaultInjector, FaultPlan, HaloFault
from repro.utils.errors import BlockMigrationError, ConfigurationError

from .lattice import legacy

#: every test here must leave no worker process and no shm segment behind
pytestmark = pytest.mark.usefixtures("no_fleet_leaks")

AMR_STEPS = 40


def _scenario():
    system = SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=1)
    grid = Grid((64,), ((0.0, 1.0),))
    config = SolverConfig(cfl=0.4)
    amr = AMRConfig(
        block_size=8, max_levels=3, refine_threshold=0.05,
        coarsen_threshold=0.02, regrid_interval=4, rebalance_threshold=1.05,
    )
    init = lambda sys, g: shock_tube(sys, g, SHOCK_TUBES["RP1"])  # noqa: E731
    return system, grid, init, config, amr


@pytest.fixture(scope="module")
def serial_reference():
    system, grid, init, config, amr = _scenario()
    sink = BufferSink()
    solver = AMRSolver(
        system, grid, init, config, amr,
        recorder=StepRecorder(sink, meta={"suite": "amr"}),
    )
    for _ in range(AMR_STEPS):
        solver.step()
    blocks = {k: leaf.cons.copy() for k, leaf in solver.forest.leaves.items()}
    return {
        "blocks": blocks, "records": sink.records,
        "t": solver.t, "steps": solver.steps,
    }


def _blast2d(system, grid):
    return blast_wave_2d(system, grid, p_in=10.0, p_out=1.0, radius=0.15, center=(0.45, 0.4))


def _blast2d_scenario():
    """The 2-D AMR golden's blast: 32^2 of 8^2 blocks, three levels, a
    regrid every second step, on ``cext`` (``flat`` without a toolchain:
    the same bytes)."""
    system = SRHDSystem(IdealGasEOS(), ndim=2)
    grid = Grid((32, 32), ((0.0, 1.0), (0.0, 1.0)))
    config = SolverConfig(cfl=0.4, kernel_target="cext")
    amr = AMRConfig(block_size=8, max_levels=3, regrid_interval=2,
                    refine_threshold=0.2, coarsen_threshold=0.05)
    return system, grid, config, amr


def _assert_blocks_bitexact(ref, proc):
    assert proc["t"] == ref["t"] and proc["steps"] == ref["steps"]
    assert set(proc["blocks"]) == set(ref["blocks"]), "leaf sets differ"
    for key, ref_cons in ref["blocks"].items():
        assert proc["blocks"][key].tobytes() == ref_cons.tobytes(), (
            f"block {key} diverged from the serial forest"
        )


@legacy("test_amr_parallel.py::TestProcessParity")
class TestProcessParity:
    """:class:`AMRProcessSolver` is the serial :class:`AMRSolver` bit for
    bit — block bytes and canonical stream, through a migration: cells of
    the equivalence lattice (``tests/lattice.py``)."""


class TestRebalanceDecay:
    def test_a_recut_never_leaves_the_run_worse_than_its_worst_cut(self):
        """The dynamic rebalancer decays imbalance, never grows it: with the
        threshold low enough that regrids keep tripping it, every recut
        lands at or below the run's worst measured imbalance, and so does
        the final state.  In-process ranks: the policy is the same code the
        worker fleet runs (``AMRSolver._post_regrid``)."""
        system, grid, init, config, amr = _scenario()
        sink = BufferSink()
        solver = AMRSolver(
            system, grid, init, config, amr.replace(rebalance_threshold=1.02),
            recorder=StepRecorder(sink), n_ranks=4,
        )
        for _ in range(AMR_STEPS):
            solver.step()
        imbalance = [s["amr"]["imbalance"] for s in steps_of(sink.records)]
        rebalances = [r for r in sink.records if r.get("event") == "amr_rebalance"]
        assert solver.repartitions >= 1 and len(rebalances) == solver.repartitions
        for event in rebalances:
            assert event["imbalance_after"] <= max(imbalance) + 1e-9
        assert 1.0 <= imbalance[-1] <= max(imbalance) + 1e-9


def _leaf_pipelines(solver):
    """Each leaf's stack pipeline (by identity) and patch index in it."""
    return {k: (id(p), i) for k in solver.forest.leaves for p, i in [solver.leaf_pipeline(k)]}


def _leaf_seeds(solver):
    """Each leaf's Newton seed bytes (None: cold)."""
    return {
        k: None if seed is None else seed.tobytes()
        for k in solver.forest.leaves
        for p, i in [solver.leaf_pipeline(k)]
        for seed in [p.warm_state(i)]
    }


class TestInProcessMigration:
    """The in-process rank loop migrates over its ``SimCommunicator``: the
    frames, checks and validate-then-clear-then-install order of the
    worker fleet, at 4 ranks of the golden scenario."""

    @staticmethod
    def _solver():
        system, grid, init, config, amr = _scenario()
        return AMRSolver(system, grid, init, config, amr, n_ranks=4)

    def test_repartition_ships_frames_over_the_communicator(self):
        solver = self._solver()
        migrate, shipped = solver._migrate, []

        def counted(moves, new_assignment):
            # header + cons (+ Newton seed) per moved block
            frames = sum(
                2 + (pipe.warm_state(i) is not None)
                for key, _, _ in moves
                for pipe, i in [solver.leaf_pipeline(key)]
            )
            marker = solver.comm.traffic_marker()
            migrate(moves, new_assignment)
            shipped.append((solver.comm.messages_since(marker), frames))

        solver._migrate = counted
        for _ in range(AMR_STEPS):
            solver.step()
        assert solver.repartitions >= 1 and len(shipped) == solver.repartitions
        for sent, frames in shipped:
            assert sent == frames > 0

    def test_corrupt_header_leaves_the_forest_untouched(self, monkeypatch):
        solver = self._solver()
        migrate, before = solver._migrate, {}

        def snapshot_then_migrate(moves, new_assignment):
            before.update(
                cons={k: leaf.cons.copy() for k, leaf in solver.forest.leaves.items()},
                assignment=dict(solver.assignment),
                pipelines=_leaf_pipelines(solver),
                staged=_leaf_seeds(solver),
            )
            migrate(moves, new_assignment)

        send = solver.comm.send

        def corrupt_headers(src, dest, data, tag=0, **kw):
            if tag == TAG_AMR_MIGRATE and np.asarray(data).dtype == np.int64:
                data = np.array(data)
                data[0] ^= 1  # the magic word
            send(src, dest, data, tag=tag, **kw)

        solver._migrate = snapshot_then_migrate
        monkeypatch.setattr(solver.comm, "send", corrupt_headers)
        with pytest.raises(BlockMigrationError, match="magic"):
            for _ in range(AMR_STEPS):
                solver.step()
        assert before, "the run never repartitioned"
        assert solver.assignment == before["assignment"]
        assert list(solver.forest.leaves) == list(before["cons"])
        for key, leaf in solver.forest.leaves.items():
            assert leaf.cons.tobytes() == before["cons"][key].tobytes(), key
        assert _leaf_pipelines(solver) == before["pipelines"]
        assert _leaf_seeds(solver) == before["staged"]


class TestCheckpointReload:
    def test_process_archive_reloads_as_the_fleet(self, serial_reference, tmp_path):
        """A 2-worker fleet's archive comes back as a 2-worker fleet, whose
        next steps land on the uninterrupted run's block bytes."""
        system, grid, init, _, amr = _scenario()
        path = tmp_path / "amr.npz"
        half = AMR_STEPS // 2
        with AMRProcessSolver(
            system, grid, init, config=SolverConfig(cfl=0.4, executor="process"),
            amr=amr, n_ranks=2,
        ) as fleet:
            fleet.run(1.0, max_steps=half, checkpoint_every=half, checkpoint_path=path)
        resumed = load_checkpoint(path, system)
        assert isinstance(resumed, AMRProcessSolver)
        with resumed:
            assert (resumed.n_ranks, resumed.steps) == (2, half)
            for _ in range(AMR_STEPS - half):
                resumed.step()
            proc = {
                "blocks": {k: p[0] for k, p in resumed.state()["patches"].items()},
                "t": resumed.t, "steps": resumed.steps,
            }
        _assert_blocks_bitexact(serial_reference, proc)


class TestRankWithoutLeaves:
    def test_a_rank_that_owns_no_leaf_takes_the_forest_dt(self):
        """Three workers over a forest of two leaves: the rank that owns
        none contributes inf to the rank min, and the fleet lands on the
        serial forest's block bytes and time."""
        system = SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=1)
        grid = Grid((16,), ((0.0, 1.0),))
        amr = AMRConfig(block_size=8, max_levels=1)
        init = lambda sys, g: shock_tube(sys, g, SHOCK_TUBES["RP1"])  # noqa: E731
        serial = AMRSolver(system, grid, init, SolverConfig(cfl=0.4), amr)
        for _ in range(3):
            serial.step()
        with AMRProcessSolver(
            system, grid, init, config=SolverConfig(cfl=0.4, executor="process"),
            amr=amr, n_ranks=3,
        ) as fleet:
            for _ in range(3):
                fleet.step()
            proc = {
                "blocks": {k: p[0] for k, p in fleet.state()["patches"].items()},
                "t": fleet.t, "steps": fleet.steps,
            }
        assert len(proc["blocks"]) == 2
        _assert_blocks_bitexact(
            {"blocks": {k: leaf.cons for k, leaf in serial.forest.leaves.items()},
             "t": serial.t, "steps": serial.steps},
            proc,
        )


class TestMigrationWireFormat:
    KEY = BlockKey(1, (3,))

    def _frame(self, p_cache=True):
        cons = np.arange(36, dtype=np.float64).reshape(3, 12)
        p = np.arange(8, dtype=np.float64) if p_cache else None
        return cons, block_frame_header(self.KEY, cons, p)

    def test_frame_roundtrip(self):
        cons, header = self._frame()
        # [magic, level, ndim, idx, has_pcache, cons_shape...]: nothing else.
        assert header.tolist() == [0x4D494752, 1, 1, 3, 1, 3, 12]
        assert check_block_frame(header, self.KEY, cons.shape) is True
        _, bare = self._frame(p_cache=False)
        assert bare.tolist() == [0x4D494752, 1, 1, 3, 0, 3, 12]
        assert check_block_frame(bare, self.KEY, cons.shape) is False

    def test_torn_frame_raises_named_error(self):
        cons, header = self._frame()
        with pytest.raises(BlockMigrationError, match="torn"):
            check_block_frame(header[:-2], self.KEY, cons.shape)

    def test_corrupt_magic_raises(self):
        cons, header = self._frame()
        header = header.copy()
        header[0] = 0xDEAD
        with pytest.raises(BlockMigrationError, match="magic"):
            check_block_frame(header, self.KEY, cons.shape)

    def test_misaddressed_frame_raises(self):
        cons, header = self._frame()
        with pytest.raises(BlockMigrationError, match="addresses"):
            check_block_frame(header, BlockKey(1, (4,)), cons.shape)

    def test_wrong_cons_shape_raises(self):
        cons, header = self._frame()
        with pytest.raises(BlockMigrationError, match="cons shape"):
            check_block_frame(header, self.KEY, (3, 14))

    def test_every_header_word_is_checked(self):
        """Any key, cons shape and ``has_pcache`` round-trip, and a single
        overwritten word — other than ``has_pcache``, the one word the plan
        does not fix — is refused.  ``check_block_frame`` sees no forest, so
        the refusal precedes any forest state by construction."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @st.composite
        def frames(draw):
            ndim = draw(st.integers(1, 3))
            level = draw(st.integers(0, 7))
            idx = draw(st.tuples(*[st.integers(0, 2**level * 4 - 1)] * ndim))
            shape = (ndim + 2, *draw(st.tuples(*[st.integers(1, 40)] * ndim)))
            has_pcache = draw(st.booleans())
            word = draw(st.integers(0, 3 + ndim + len(shape)).filter(
                lambda w: w != 3 + ndim
            ))
            value = draw(st.integers(-(2**62), 2**62))
            return BlockKey(level, idx), shape, has_pcache, word, value

        @given(frame=frames())
        @settings(max_examples=200, deadline=None, database=None)
        def check(frame):
            key, shape, has_pcache, word, value = frame
            cons = np.zeros(shape)
            p_cache = np.zeros(shape[1:]) if has_pcache else None
            header = block_frame_header(key, cons, p_cache)
            assert header.dtype == np.int64
            assert header.size == 4 + len(key.idx) + len(shape)
            assert check_block_frame(header, key, shape) is has_pcache
            if value != header[word]:
                header[word] = value
                with pytest.raises(BlockMigrationError):
                    check_block_frame(header, key, shape)

        check()

    def test_payload_shape_checked(self):
        arr = np.zeros((3, 12))
        assert check_block_payload(arr, (3, 12), "cons", self.KEY) is arr
        with pytest.raises(BlockMigrationError, match="p_cache payload"):
            check_block_payload(np.zeros(8), (3, 8), "p_cache", self.KEY)


class TestReceivedPayloadShapes:
    """A received ghost import or reflux column of the wrong shape is
    refused, naming the leaf and the sender, before any ghost or ``dU`` is
    written: NumPy would broadcast a row of it into every variable."""

    @staticmethod
    def _solver(monkeypatch, which):
        """The 2-D blast over 2 in-process ranks whose communicator hands
        over only the first row of every payload tagged *which*."""
        system, grid, config, amr = _blast2d_scenario()
        solver = AMRSolver(system, grid, _blast2d, config, amr, n_ranks=2)
        real = solver.comm.recv

        def first_row(src, dest, tag=0):
            got = real(src, dest, tag=tag)
            return got[0] if tag == which else got

        monkeypatch.setattr(solver.comm, "recv", first_row)
        return solver

    def test_a_misshaped_ghost_import_is_refused(self, monkeypatch):
        solver = self._solver(monkeypatch, TAG_AMR_HALO)
        # a recovery of the committed state, unghosted (``_prims()`` fills its ghosts)
        prims = recover_stacks(solver._stacks, solver._cons.stacks)
        before = [a.tobytes() for a in prims.stacks]
        with pytest.raises(
            BlockMigrationError,
            match=r"rank \d's ghost import payload for BlockKey.* shape \(8, 8\), expected \(4, 8, 8\)",
        ):
            solver._fill_ghosts(prims)
        assert [a.tobytes() for a in prims.stacks] == before

    def test_a_misshaped_reflux_column_is_refused(self, monkeypatch):
        solver = self._solver(monkeypatch, TAG_AMR_FLUX)
        assert solver._get_reflux_plan()[0]  # columns cross ranks
        prims = solver._ghosted_snapshot()
        dU = PatchViews.of(solver._stacks, [
            st.pipeline.flux_divergence(prim) for st, prim in zip(solver._stacks, prims.stacks)
        ])
        before = [a.tobytes() for a in dU.stacks]
        with pytest.raises(
            BlockMigrationError,
            match=r"rank \d's reflux column payload for BlockKey.* shape \(8,\), expected \(4, 8\)",
        ):
            solver._apply_reflux(dU)
        assert [a.tobytes() for a in dU.stacks] == before


class TestConfigSurface:
    def test_factory_dispatches_on_executor(self):
        system, grid, init, config, amr = _scenario()
        serial = make_distributed_amr_solver(
            system, grid, init, config=config, amr=amr, n_ranks=2
        )
        assert isinstance(serial, AMRSolver)
        assert not isinstance(serial, AMRProcessSolver)

        system, grid, init, config, amr = _scenario()
        proc = make_distributed_amr_solver(
            system, grid, init,
            config=SolverConfig(cfl=0.4, executor="process"),
            amr=amr, n_ranks=2,
        )
        try:
            assert isinstance(proc, AMRProcessSolver)
            proc.step()
        finally:
            proc.close()

    def test_serial_factory_validates_like_the_process_one(self):
        """The same arguments are refused — or accepted — on both
        executors: supervision needs processes, logical fault plans are
        Cartesian-only, process faults are ignored serially."""
        from repro.resilience.faults import ProcessFault
        from repro.resilience.policies import SupervisionPolicy

        system, grid, init, config, amr = _scenario()
        make = lambda **kw: make_distributed_amr_solver(  # noqa: E731
            system, grid, init, config=config, amr=amr, n_ranks=2, **kw
        )
        with pytest.raises(ConfigurationError, match="executor='serial'"):
            make(supervision=SupervisionPolicy())
        logical = FaultPlan(
            seed=1, halo=[HaloFault(kind="drop", exchange=1, message=0)]
        )
        with pytest.raises(ConfigurationError, match="only process faults"):
            make(fault_injector=FaultInjector(logical))
        ok = FaultPlan(
            seed=1, processes=[ProcessFault(kind="kill_rank", rank=1, step=1)]
        )
        serial = make(fault_injector=FaultInjector(ok), step_timeout_s=1.0)
        assert isinstance(serial, AMRSolver)
        serial.step()

    def test_non_process_faults_rejected(self):
        system, grid, init, config, amr = _scenario()
        plan = FaultPlan(
            seed=1, halo=[HaloFault(kind="drop", exchange=1, message=0)]
        )
        with pytest.raises(ConfigurationError):
            AMRProcessSolver(
                system, grid, init, config=config, amr=amr, n_ranks=2,
                fault_injector=FaultInjector(plan),
            )

    def test_unsupported_surfaces_raise(self):
        system, grid, init, config, amr = _scenario()
        solver = AMRProcessSolver(
            system, grid, init, config=config, amr=amr, n_ranks=2
        )
        try:
            with pytest.raises(ConfigurationError):
                solver.gather_primitives()
        finally:
            solver.close()
