"""The equivalence lattice: every bit-identity claim as data.

A *cell* is one run configuration: a value on each axis of :data:`AXES`.
:func:`valid` says which combinations exist, :func:`outcome` runs a cell
once per session, and :func:`reference` names the cell each part of an
outcome must equal byte for byte.  The house invariant — results do not
depend on how the grid is cut or where it runs — is then one rule:

* A cell's reference is the same cell with every execution axis at its
  base value: one serial driver (``Solver``, or ``AMRSolver`` at one
  rank), blocking exchange, one thread, no faults, no resume.  ``cext``
  maps to ``flat``; ``numpy`` is a class of its own (it differs from
  ``flat`` in the last bits).  Batch member *i* maps to the solo run of
  member *i*.
* :data:`AGREES` says along which axes each part of the outcome must
  agree: the state (t, dt list, the patches mid-run and at the end) along
  all of them; the canonical stream along executor, threads and target;
  its per-step numerics along resume too.

Adding an axis value is one entry in :data:`AXES` plus what builds it
(:data:`PROBLEMS`, :data:`DIMS`, :data:`SCHEMES`, ...), and a clause in
:func:`valid` if it does not combine with everything; removing one is
deleting those lines.  :func:`tier1` chooses the cells a test run checks.

The kernel level (the last section) is the same rule for one compiled
entry point at a time: a ``cext`` stack of P patches on a team of t
threads is the ``flat`` pipeline run patch by patch on one thread.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import tempfile
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest

from repro.boundary import make_boundaries
from repro.codegen import cext
from repro.codegen.generator import TEAM_COST, TEAM_MIN_WORK
from repro.core.amr_parallel import make_distributed_amr_solver
from repro.core.amr_solver import AMRConfig
from repro.core.batch import BatchGrid, BatchSolver, batch_boundaries
from repro.core.config import SolverConfig
from repro.core.distributed import decompose
from repro.core.parallel import make_distributed_solver
from repro.core.pipeline import HydroPipeline, resolve_kernel_system
from repro.core.solver import Solver
from repro.core.stepping import placeholder_prim
from repro.eos import IdealGasEOS
from repro.io import load_checkpoint
from repro.mesh.grid import Grid
from repro.obs import BufferSink, StepRecorder, canonical_stream
from repro.physics.initial_data import RP1, blast_wave_2d, kelvin_helmholtz_2d, shock_tube
from repro.physics.srhd import SRHDSystem
from repro.reconstruct import make_reconstruction
from repro.resilience.faults import FaultInjector, FaultPlan, HaloFault
from repro.resilience.policies import HaloRetryPolicy

#: steps of every run; a resumed run changes hands after RESUME_AT
STEPS, RESUME_AT = 4, 2
#: widest fleet: one spawned worker per rank, so a cell costs seconds
MAX_WORKERS = 4


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------


def _blast(system, grid):
    return blast_wave_2d(system, grid, p_in=10.0, p_out=1.0, radius=0.2, center=(0.45, 0.4))


def _amr_blast(system, grid):
    """A blast in one root block: its first regrid refines the neighbours
    the shock reaches (7 leaves to 13) and recuts the ranks."""
    return blast_wave_2d(system, grid, p_in=10.0, p_out=1.0, radius=0.15, center=(0.3, 0.3))


def _wave3d(system, grid):
    shape = grid.shape_with_ghosts
    x, y, z = np.meshgrid(*(np.linspace(0, 2 * np.pi, n) for n in shape), indexing="ij")
    prim = np.empty((system.nvars,) + shape)
    prim[system.RHO] = 1.0 + 0.3 * np.sin(x) * np.cos(y) * np.cos(z)
    prim[system.P] = 1.0 + 0.2 * np.cos(x + y + z)
    for ax, w in enumerate((y, z, x)):
        prim[system.V(ax)] = 0.2 * np.sin(w)
    return prim


def _hostile_blast(system, grid):
    """A blast with a band of diagonal near-luminal flow and a strip of
    near-vacuum: with weno5 a face-state floor, the atmosphere floor, the
    momentum cap and the failsafe all fire within four steps."""
    prim = blast_wave_2d(system, grid, p_in=10.0, p_out=1.0)
    inner = grid.interior_of(prim)
    checker = np.indices(inner.shape[1:]).sum(axis=0) % 2 == 0
    band = np.zeros(inner.shape[1:], dtype=bool)
    band[:, 40:48] = True
    inner[system.V(0)][band & checker] = 0.8
    inner[system.V(1)][band & ~checker] = 0.8
    inner[system.RHO, 40:48] = 1e-6
    inner[system.P, 40:48] = 1e-8
    return prim


def _quiet(system, grid):
    """A batch filler: gas at rest whose sound speed is below every
    problem's fastest signal, so it never sets the batch's dt and stays
    uniform bit for bit."""
    prim = placeholder_prim(system, grid)
    prim[system.P] = 0.01
    return prim


@dataclass(frozen=True)
class Problem:
    shape: tuple
    walls: str
    initial: object
    gamma: float = 5.0 / 3.0
    amr: AMRConfig | None = None
    failsafe_frac: float = 0.0

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def system(self) -> SRHDSystem:
        return SRHDSystem(IdealGasEOS(gamma=self.gamma), ndim=self.ndim)


PROBLEMS = {
    "rp1": Problem((32,), "outflow", lambda s, g: shock_tube(s, g, RP1), gamma=RP1.gamma),
    "blast": Problem((16, 16), "outflow", _blast),
    "wave3d": Problem((8, 8, 8), "periodic", _wave3d),
    "kh": Problem((16, 16), "periodic", lambda s, g: kelvin_helmholtz_2d(s, g, seed=7)),
    "amr": Problem(
        (16, 16), "periodic", _amr_blast,
        amr=AMRConfig(
            block_size=8, max_levels=2, regrid_interval=2,
            refine_threshold=0.2, coarsen_threshold=0.05, rebalance_threshold=1.05,
        ),
    ),
    # The failsafe budget is per patch: wide enough that no cut exhausts it.
    "blast64": Problem((64, 64), "periodic", _hostile_blast, failsafe_frac=0.25),
}

#: layout -> dims per ndim (``DistributedSolver``); a 2-D ``many`` is the
#: ``blast2d_ranks16`` cut, and on the 16- and 32-cell grids its patches
#: are thinner than two ghost widths
DIMS = {
    "two": {1: (2,), 2: (2, 1), 3: (2, 1, 1)},
    "four": {1: (4,), 2: (2, 2), 3: (2, 1, 2)},
    "many": {1: (8,), 2: (4, 4), 3: (2, 2, 2)},
    "uneven": {1: (3,), 2: (3, 1), 3: (3, 1, 1)},
}
#: layout -> ranks of the AMR driver
AMR_RANKS = {"one": 1, "two": 2, "four": 4}
#: layout -> (batch width, member read)
BATCH = {"batch@0": (3, 0), "batch@2": (3, 2)}

#: scheme -> (reconstruction, riemann, integrator): every limiter,
#: Riemann solver and integrator at least once
SCHEMES = {
    "mc-hllc-rk3": ("mc", "hllc", "ssprk3"),
    "minmod-llf-euler": ("minmod", "llf", "euler"),
    "vanleer-llf-rk2": ("vanleer", "llf", "ssprk2"),
    "superbee-hll-rk3": ("superbee", "hll", "ssprk3"),
    "ppm-hll-rk3": ("ppm", "hll", "ssprk3"),
    "weno5-hllc-rk2": ("weno5", "hllc", "ssprk2"),
}

AXES = {
    "problem": tuple(PROBLEMS),
    "layout": ("one", *DIMS, *BATCH),
    "executor": ("serial", "process"),
    "exchange": ("blocking", "overlapped"),
    "target": ("numpy", "flat", "cext"),
    "threads": (1, 2),
    "faults": ("none", "halo"),
    "resume": ("none", "state", "checkpoint"),
    "scheme": tuple(SCHEMES),
}


@dataclass(frozen=True)
class Cell:
    problem: str
    layout: str = "one"
    executor: str = "serial"
    exchange: str = "blocking"
    target: str = "numpy"
    threads: int = 1
    faults: str = "none"
    resume: str = "none"
    scheme: str = "mc-hllc-rk3"

    @property
    def id(self) -> str:
        return "-".join(str(getattr(self, f.name)) for f in fields(self))

    def kind(self) -> str:
        """``amr``, ``solo``, ``ranks`` or ``batch``: the driver family."""
        if PROBLEMS[self.problem].amr is not None:
            return "amr"
        return {"one": "solo", **dict.fromkeys(BATCH, "batch")}.get(self.layout, "ranks")


# ---------------------------------------------------------------------------
# Validity and the reference rule
# ---------------------------------------------------------------------------


def _ranks(cell: Cell) -> int:
    if cell.kind() == "amr":
        return AMR_RANKS[cell.layout]
    if cell.kind() == "ranks":
        return int(np.prod(DIMS[cell.layout][PROBLEMS[cell.problem].ndim]))
    return 1


def team_work(cell: Cell) -> int:
    """The largest weighted work (``TEAM_COST[kernel] * work``) of any
    compiled kernel call of *cell*'s run: a stack of the patches shaped like
    the largest (AMR: every leaf the forest can hold), whose ``recover`` and
    ``rk_stage`` visit its ghosted cells, each axis's ``face_flux`` its
    interior rows' faces and ``accumulate`` their cells."""
    p = PROBLEMS[cell.problem]
    if p.amr is not None:
        block = p.amr.block_size
        count = int(np.prod([n // block for n in p.shape])) * 2 ** (p.ndim * (p.amr.max_levels - 1))
        shape = (block,) * p.ndim
    elif cell.kind() == "batch":
        count, shape = 1, p.shape + (BATCH[cell.layout][0],)
    else:
        dims = DIMS.get(cell.layout, {p.ndim: (1,) * p.ndim})[p.ndim]
        count = int(np.prod([d if n % d == 0 else n % d for n, d in zip(p.shape, dims)]))
        shape = tuple(-(-n // d) for n, d in zip(p.shape, dims))
    # A batch's trailing axis carries no ghosts and is never swept.
    ghosted = count * int(np.prod([n + 6 for n in shape[:p.ndim]] + list(shape[p.ndim:])))
    work = {"recover": ghosted, "rk_stage": ghosted, "face_flux": 0, "accumulate": 0}
    for axis in range(p.ndim):
        rows = count * int(np.prod(shape)) // shape[axis]
        work["face_flux"] = max(work["face_flux"], rows * (shape[axis] + 1))
        work["accumulate"] = max(work["accumulate"], rows * shape[axis])
    return max(TEAM_COST[kernel] * w for kernel, w in work.items())


def valid(cell: Cell) -> bool:
    """Whether *cell* is a configuration the code accepts."""
    p, kind = PROBLEMS[cell.problem], cell.kind()
    if kind == "amr" and cell.layout not in AMR_RANKS:
        return False
    # A neighboured block narrower than the stencil reach is refused.
    if kind == "ranks" and min(
        n // d for n, d in zip(p.shape, DIMS[cell.layout][p.ndim])
    ) < make_reconstruction(SCHEMES[cell.scheme][0]).required_ghosts:
        return False
    if kind == "batch" and p.ndim > 2:  # the batch axis trails a 1-D or 2-D grid
        return False
    # Overlap and halo faults need the Cartesian halo exchange.
    if kind != "ranks" and (cell.exchange != "blocking" or cell.faults != "none"):
        return False
    if cell.executor == "process" and (
        kind not in ("ranks", "amr") or _ranks(cell) > MAX_WORKERS
    ):
        return False
    # A second thread needs the compiled kernels, a call big enough to reach
    # the team (below it the team never engages, and the cell would assert
    # nothing) and the serial executor (fleet workers are pinned to one).
    if cell.threads > 1 and (
        cell.target != "cext" or cell.executor != "serial"
        or team_work(cell) < TEAM_MIN_WORK
    ):
        return False
    if cell.resume != "none" and kind == "batch":  # BatchSolver has no state pair
        return False
    # A faulted run resumes as a different faulted run except through the
    # in-process state pair: load_checkpoint replays the plan from the
    # restart point, and a fleet's state() leaves the fault position behind.
    if cell.faults != "none" and (cell.resume == "checkpoint" or (
        cell.resume == "state" and cell.executor == "process"
    )):
        return False
    return True


#: the execution axes at their base values (``target`` and ``layout`` map)
BASE = {"executor": "serial", "exchange": "blocking", "threads": 1, "faults": "none",
        "resume": "none"}
TARGET_CLASS = {"numpy": "numpy", "flat": "flat", "cext": "flat"}

#: outcome part -> the axes along which it must agree.  The state always
#: agrees; the canonical stream wherever a whole-run test compared it.
AGREES = {
    "state": ("layout", "executor", "exchange", "threads", "faults", "resume", "target"),
    "stream": ("executor", "threads", "target"),
    "numerics": ("executor", "threads", "target", "resume"),
}


def reference(cell: Cell, part: str) -> Cell:
    """The cell *part* of *cell*'s outcome must equal: every axis of
    ``AGREES[part]`` at its base value."""
    base = dict(BASE, target=TARGET_CLASS[cell.target], layout="one")
    return replace(cell, **{axis: base[axis] for axis in AGREES[part]})


# ---------------------------------------------------------------------------
# Running a cell
# ---------------------------------------------------------------------------


def _halo_plan(n_messages: int, stages: int) -> FaultPlan:
    """A drop, a duplicate and two corruptions (the last on the last axis)
    spread over the run: exchange ``k * stages`` for k = 1..4, so each
    integrator meets all four and the last lands after the resume point."""
    ex = [k * stages for k in (1, 2, 3, 4)]
    return FaultPlan(seed=11, halo=[
        HaloFault(kind="drop", exchange=ex[0], message=3 % n_messages),
        HaloFault(kind="duplicate", exchange=ex[1], message=1 % n_messages),
        HaloFault(kind="corrupt", exchange=ex[2], message=0),
        HaloFault(kind="corrupt", exchange=ex[3], message=n_messages - 1),
    ])


def _build(cell: Cell, recorder, placeholder: bool = False):
    """The driver of *cell* — or, with *placeholder*, built the way
    :func:`load_checkpoint` builds one before installing a state."""
    p = PROBLEMS[cell.problem]
    system = p.system()
    grid = Grid(p.shape, ((0.0, 1.0),) * p.ndim)
    recon, riemann, integrator = SCHEMES[cell.scheme]
    config = SolverConfig(
        cfl=0.4, reconstruction=recon, riemann=riemann, integrator=integrator,
        kernel_target=cell.target, executor=cell.executor,
        overlap_exchange=cell.exchange == "overlapped", failsafe_frac=p.failsafe_frac,
    )
    walls = make_boundaries(p.walls)
    init = placeholder_prim if placeholder else p.initial
    kind = cell.kind()
    if kind == "amr":
        amr = p.amr.replace(initial_regrid_passes=0) if placeholder else p.amr
        return make_distributed_amr_solver(
            system, grid, init, config, amr, n_ranks=AMR_RANKS[cell.layout],
            boundaries=walls, recorder=recorder,
        )
    if kind == "solo":
        return Solver(system, grid, init(system, grid), config, walls, recorder=recorder)
    if kind == "batch":
        width, member = BATCH[cell.layout]
        prims = [(p.initial if i == member else _quiet)(system, grid) for i in range(width)]
        return BatchSolver(system, grid, prims, config, walls, recorder=recorder)
    dims = DIMS[cell.layout][p.ndim]
    extra = {}
    if cell.faults == "halo":
        _, decomp = decompose(system, grid, dims, walls, None, config)
        n_messages = sum(
            decomp.neighbor(rank, axis, side) is not None
            for rank in range(decomp.size) for axis in range(p.ndim) for side in (0, 1)
        )
        stages = {"euler": 1, "ssprk2": 2, "ssprk3": 3}[integrator]
        extra = dict(
            fault_injector=FaultInjector(_halo_plan(n_messages, stages)),
            halo_policy=HaloRetryPolicy(max_attempts=4),
        )
    return make_distributed_solver(
        system, grid, init(system, grid), dims, config=config, boundaries=walls,
        recorder=recorder, **extra,
    )


def _patches(cell: Cell, driver) -> dict:
    """Every patch's ``(cons, p_cache)`` bytes.  Unigrid layouts are
    assembled into the global interior (the solo run's one patch); a batch
    gives its member's column; AMR leaves are compared whole."""
    kind = cell.kind()
    if kind == "batch":  # BatchSolver has no state pair: its one patch
        member = BATCH[cell.layout][1]
        grid, seed = driver.grid, driver.pipeline.warm_state()
        cons = grid.base.interior_of(driver.cons[grid.scenario_slice(member)])
        return {"": (cons.tobytes(), None if seed is None else seed[..., member].tobytes())}
    patches = driver.state()["patches"]
    if kind == "amr":
        return {
            key: (cons.tobytes(), None if seed is None else seed.tobytes())
            for key, (cons, seed) in sorted(patches.items())
        }
    if kind == "solo":
        (cons, seed), = patches.values()
        cons = driver.grid.interior_of(cons)
        return {"": (np.ascontiguousarray(cons).tobytes(), None if seed is None else seed.tobytes())}
    decomp = driver.decomp
    cons = decomp.gather(
        {r: decomp.subgrid(r).interior_of(c) for r, (c, _) in patches.items()},
        driver.system.nvars,
    )
    seeds = {r: s for r, (_, s) in patches.items()}
    if any(s is None for s in seeds.values()):
        return {"": (cons.tobytes(), None)}
    return {"": (cons.tobytes(), decomp.gather({r: s[None] for r, s in seeds.items()}, 1).tobytes())}


def _resume(cell: Cell, driver, sink, workdir: Path):
    """Move *driver*'s run into a fresh driver through the state pair or a
    checkpoint file; the new driver records into the same *sink*."""
    recorder = StepRecorder(sink)
    if cell.resume == "state":
        twin = _build(cell, recorder, placeholder=True)
        twin.install_state(driver.state())
    else:
        path = workdir / "lattice.npz"
        driver.write_checkpoint(path)
        p = PROBLEMS[cell.problem]
        twin = load_checkpoint(path, p.system(), make_boundaries(p.walls))
        twin.recorder = recorder
    assert type(twin) is type(driver), f"{cell.id} resumed as {type(twin).__name__}"
    return twin


@contextlib.contextmanager
def _team(cell: Cell):
    """The compiled kernels on a team of ``cell.threads`` for the run.  A
    cext cell skips where the target cannot load, unless ``REPRO_CEXT_DISABLE``
    asks for its fallback (then it must equal flat, and a second thread has
    nothing to split); a threads cell skips where no such team forms."""
    ndim = PROBLEMS[cell.problem].ndim
    if cell.target != "cext" or cext.cext_disabled():
        if cell.threads > 1:
            pytest.skip("cext disabled: no team to split over")
        yield
        return
    if not cext.cext_available(ndim):
        pytest.skip("no C toolchain")
    before = cext.threads(ndim)
    try:
        if cext.threads(ndim, cell.threads) != cell.threads:
            pytest.skip(f"no team of {cell.threads} threads (a build without OpenMP)")
        yield
    finally:
        cext.threads(ndim, before)


@dataclass(frozen=True)
class Outcome:
    t: float
    steps: int
    dts: tuple
    mid: dict
    end: dict
    stream: str
    numerics: tuple
    counters: dict

    def part(self, name: str):
        if name == "state":
            return (self.t, self.steps, self.dts, self.mid, self.end)
        return getattr(self, name)


def _projections(records) -> tuple:
    """``(stream, numerics)``: the canonical stream without the counter
    that names the kernel target (``codegen.target_fallbacks`` counts a
    ``cext`` run that fell back to ``flat``), and its step lines without
    what a resumed driver starts afresh — the run-cumulative gauges and
    histograms, and the counters that have not moved yet."""
    lines = []
    for line in canonical_stream(records).splitlines():
        rec = json.loads(line)
        if "counters" in rec:
            rec["counters"] = {
                k: v for k, v in rec["counters"].items() if not k.startswith("codegen.")
            }
        lines.append(rec)
    stream = "\n".join(json.dumps(r, sort_keys=True) for r in lines)
    numerics = tuple(
        json.dumps({
            **{k: v for k, v in r.items() if k not in ("gauges", "histograms")},
            "counters": {k: v for k, v in r["counters"].items() if v},
        }, sort_keys=True)
        for r in lines if r["event"] == "step"
    )
    return stream, numerics


def _run(cell: Cell) -> Outcome:
    sink = BufferSink()
    drivers = [_build(cell, StepRecorder(sink))]
    try:
        with _team(cell), tempfile.TemporaryDirectory() as workdir:
            for _ in range(RESUME_AT):
                drivers[-1].step()
            if cell.resume != "none":
                drivers.append(_resume(cell, drivers[-1], sink, Path(workdir)))
            mid = _patches(cell, drivers[-1])
            for _ in range(STEPS - RESUME_AT):
                drivers[-1].step()
            end = _patches(cell, drivers[-1])
        driver = drivers[-1]
        stream, numerics = _projections(sink.records)
        steps = [r for r in sink.records if r["event"] == "step"]
        counters = {}
        for r in steps:
            for k, v in r["counters"].items():
                counters[k] = counters.get(k, 0) + v
        amr = steps[-1].get("amr", {})
        counters.update({f"amr.{k}": v for k, v in amr.items() if isinstance(v, (int, float))})
        # a cext cell that fell back would equal flat trivially
        if cell.target == "cext" and not cext.cext_disabled():
            assert not counters.get("codegen.target_fallbacks"), f"{cell.id} ran on flat"
        return Outcome(
            t=driver.t, steps=driver.steps, dts=tuple(r["dt"] for r in steps),
            mid=mid, end=end, stream=stream, numerics=numerics, counters=counters,
        )
    finally:
        for d in drivers:
            if hasattr(d, "close"):
                d.close()


_OUTCOMES: dict = {}


def outcome(cell: Cell) -> Outcome:
    """*cell*'s outcome, run once per session."""
    if cell not in _OUTCOMES:
        _OUTCOMES[cell] = _run(cell)
    return _OUTCOMES[cell]


def all_cells() -> list:
    """Every valid cell, in axis order."""
    return [
        cell for values in itertools.product(*AXES.values())
        if valid(cell := Cell(*values))
    ]


def pairs(cell: Cell) -> set:
    """The (axis, value) pairs *cell* covers."""
    items = [(axis, getattr(cell, axis)) for axis in AXES]
    return set(itertools.combinations(items, 2))


def _cost(cell: Cell) -> float:
    """What a cell costs to run, roughly: a fleet spawns its workers, and a
    resumed fleet spawns them twice."""
    fleets = (cell.executor == "process") * (1 + (cell.resume != "none"))
    return 1.0 + 10.0 * fleets + (cell.problem == "blast64")


def cover(seed: list, cells: list) -> list:
    """*seed*, then greedily the cells of *cells* that cover the most valid
    axis-value pairs *seed* leaves uncovered per unit of cost, until every
    pair is covered.  Deterministic: ties go to the earlier cell."""
    covers = {cell: pairs(cell) for cell in cells}
    by_pair: dict = {}
    for cell, ps in covers.items():
        for pair in ps:
            by_pair.setdefault(pair, []).append(cell)
    uncovered = set(by_pair).difference(*map(pairs, seed))
    chosen = list(seed)
    while uncovered:
        best = max(
            by_pair[min(uncovered)],
            key=lambda c: len(covers[c] & uncovered) / _cost(c),
        )
        chosen.append(best)
        uncovered -= covers[best]
    return chosen


def check(cell: Cell) -> None:
    """Assert every part of *cell*'s outcome equals its reference's."""
    assert valid(cell), f"{cell.id} is not a valid cell"
    got = outcome(cell)
    for part in AGREES:
        ref = reference(cell, part)
        if ref != cell:
            assert got.part(part) == outcome(ref).part(part), (
                f"{part} of {cell.id} differs from {ref.id}"
            )


# ---------------------------------------------------------------------------
# The cells a test run checks
# ---------------------------------------------------------------------------

#: one cell per ``BENCHMARK.json`` workload configuration, at test size
#: (serve_mixed: its numpy ppm/hll family)
PINNED = {
    "blast2d_cext": Cell("blast", target="cext"),
    "kh2d_ppm_cext": Cell("kh", target="cext", scheme="ppm-hll-rk3"),
    "blast2d_ranks16": Cell("blast", "many", target="cext"),
    "blast2d_proc2": Cell("blast", "two", "process", "overlapped", "cext"),
    "serve_sweep96": Cell("rp1", "batch@2", target="cext"),
    "serve_mixed": Cell("rp1", "batch@0", scheme="ppm-hll-rk3"),
    "amr_blast2d": Cell("amr", target="cext"),
}


_LIM = {"minmod": "minmod-llf-euler", "mc": "mc-hllc-rk3", "vanleer": "vanleer-llf-rk2",
        "superbee": "superbee-hll-rk3"}
_INTEG = {"euler": "minmod-llf-euler", "ssprk2": "vanleer-llf-rk2", "ssprk3": "mc-hllc-rk3"}
_OV, _PR = "overlapped", "process"
#: the fleets: each spawns its workers (a resumed one twice), so the retired
#: process pairs share as few cells as carry them all
_RP1_PROC = Cell("rp1", "two", _PR, resume="state", scheme="superbee-hll-rk3")
_BLAST_PROC = Cell("blast", "four", _PR, faults="halo", scheme="weno5-hllc-rk2")
_BLAST_PROC_OV = Cell("blast", "four", _PR, _OV, faults="halo", scheme="minmod-llf-euler")
_WAVE_PROC = Cell("wave3d", "two", _PR, target="flat", scheme="vanleer-llf-rk2")
_AMR_PROC = Cell("amr", "two", _PR, target="cext", resume="state")

_OVERLAP = "blocking vs overlapped"
_FLEET = "serial vs process: state and stream"
_FLAT = "cext vs flat"

#: every pair a retired whole-run test asserted: ``(test id, cells, what it
#: compared)`` — the seed of :func:`tier1`.  Each id stays collectable in
#: its file as an alias of its cells (:func:`legacy`), so a selection by an
#: old id still runs the pairs it ran.
LEGACY_PAIRS = tuple((test_id, cells if isinstance(cells, tuple) else (cells,), note) for (
    test_id, cells, note) in (
    *((f"test_overlap.py::TestBitExactness::test_blast2d_all_combos[{lim}-{rie}]",
       Cell("blast", "four", exchange=_OV, scheme=_LIM[lim]),
       f"2x2 blast, {_OVERLAP}, {lim} x {rie} (lattice: each limiter and each solver)")
      for lim in _LIM for rie in ("llf", "hll", "hllc")),
    *((f"test_overlap.py::TestBitExactness::test_1d_decompositions[dims{i}]",
       Cell("rp1", layout, exchange=_OV), f"RP1, {layout} ranks, {_OVERLAP}")
      for i, layout in enumerate(("two", "four"))),
    ("test_overlap.py::TestBitExactness::test_1d_thin_patches_use_merged_strips",
     Cell("rp1", "many", exchange=_OV), f"patches thinner than 2 ghosts, {_OVERLAP}"),
    *((f"test_overlap.py::TestBitExactness::test_2d_asymmetric_decompositions[dims{i}]",
       Cell("blast", layout, exchange=_OV), f"{old} cut (lattice: {layout}), {_OVERLAP}")
      for i, (old, layout) in enumerate((("4x1", "uneven"), ("1x4", "two"), ("4x2", "many")))),
    ("test_overlap.py::TestBitExactness::test_2d_periodic",
     Cell("kh", "four", exchange=_OV), f"periodic 2x2, {_OVERLAP}"),
    ("test_overlap.py::TestBitExactness::test_3d_locks_accumulation_order",
     Cell("wave3d", "four", exchange=_OV), f"3-D 2x1x2 periodic, {_OVERLAP}"),
    *((f"test_overlap.py::TestBitExactness::test_higher_order_schemes[{name}]",
       Cell("blast", "four", exchange=_OV, target=t, scheme=scheme),
       f"2x2 blast, {_OVERLAP}" + (f" and {_FLAT}" if t == "cext" else ""))
      for name, t, scheme in (
          ("ppm", "numpy", "ppm-hll-rk3"), ("weno5", "numpy", "weno5-hllc-rk2"),
          ("ppm-cext", "cext", "ppm-hll-rk3"), ("weno5-cext", "cext", "weno5-hllc-rk2"))),
    ("test_overlap.py::TestFaultBehaviour::test_faulted_overlap_matches_fault_free_blocking",
     Cell("blast", "four", exchange=_OV, faults="halo"), "faulted overlapped vs fault-free blocking"),
    ("test_overlap.py::TestFaultBehaviour::test_same_fault_plan_same_behaviour_both_modes",
     (Cell("blast", "four", faults="halo"), Cell("blast", "four", exchange=_OV, faults="halo")),
     f"one fault plan, {_OVERLAP}"),
    ("test_parallel.py::TestBitExactness::test_1d_two_ranks", _RP1_PROC, f"RP1, {_FLEET}"),
    ("test_parallel.py::TestBitExactness::test_2d_four_ranks[False]", _BLAST_PROC,
     f"2x2 blast, {_FLEET}"),
    ("test_parallel.py::TestBitExactness::test_2d_four_ranks[True]", _BLAST_PROC_OV,
     f"2x2 blast overlapped, {_FLEET}"),
    ("test_parallel.py::TestBitExactness::test_2d_two_ranks_per_kernel_target[flat]",
     _WAVE_PROC, f"2x1 blast on flat (lattice: the 3-D wave's cut), {_FLEET}"),
    ("test_parallel.py::TestBitExactness::test_2d_two_ranks_per_kernel_target[cext]",
     PINNED["blast2d_proc2"], f"2x1 blast on cext, {_FLEET}"),
    ("test_parallel.py::TestBitExactness::test_3d_two_ranks", _WAVE_PROC, f"3-D wave, {_FLEET}"),
    ("test_parallel.py::TestBitExactness::test_riemann_limiter_combo", _RP1_PROC,
     f"superbee/hll, {_FLEET}"),
    *((f"test_parallel.py::TestFaultBitExactness::test_faulted_run_matches_serial[{p}{ov}]",
       _BLAST_PROC_OV if ov else _BLAST_PROC,
       f"a halo plan with an axis-1 corruption, {_FLEET} and resilience counters "
       "(its con2prim burst leg: TestFaultBitExactness)")
      for p in ("", "axis1-retransmit-") for ov in (False, True)),
    ("test_parallel.py::TestProcessCheckpointing::test_restart_continues_bit_exactly",
     Cell("blast", "four", _PR, resume="checkpoint", scheme="ppm-hll-rk3"),
     "a fleet resumed from its checkpoint vs the uninterrupted serial run"),
    *((f"test_distributed.py::TestEquivalence::test_1d_shock_tube_matches_single_grid[dims{i}]",
       Cell("rp1", layout), f"RP1 on {layout} ranks vs Solver")
      for i, layout in enumerate(("two", "four"))),
    ("test_distributed.py::TestEquivalence::test_2d_blast_matches_single_grid",
     Cell("blast", "four"), "2x2 blast vs Solver"),
    ("test_distributed.py::TestEquivalence::test_periodic_1d_matches",
     (Cell("wave3d", "two"), Cell("kh", "two")),
     "1-D periodic wave on 4 ranks vs Solver (lattice: periodic cuts in 3-D and 2-D)"),
    *((f"test_distributed.py::TestEquivalence::test_all_integrators_supported[{integ}]",
       Cell("rp1", "two", scheme=scheme), f"{integ}, 2 ranks vs Solver")
      for integ, scheme in _INTEG.items()),
    *((f"test_distributed.py::TestStacks::test_stacks_step_as_their_ranks[{case}-{integ}]",
       Cell(problem, layout, exchange=ex, target="cext", scheme=_INTEG[integ]),
       f"rank stacks ({case}), {_FLAT} vs Solver")
      for case, problem, layout, ex in (
          ("2x2-outflow-overlap", "blast", "four", _OV), ("2x2x2-overlap", "wave3d", "many", _OV),
          ("2x3-13x11", "blast", "uneven", "blocking"), ("4x4-periodic", "kh", "many", "blocking"),
          ("4x4-periodic-overlap", "kh", "many", _OV))
      for integ in ("euler", "ssprk3")),
    *((f"test_batch.py::TestBitIdentity::test_n1_matches_unbatched_solver_1d[{t}]",
       Cell("rp1", "batch@0", target=t), f"a batch member vs Solver on {t}")
      for t in ("numpy", "flat", "cext")),
    ("test_batch.py::TestBitIdentity::test_n1_matches_unbatched_solver_2d",
     Cell("blast", "batch@0"), "a 2-D batch member vs Solver"),
    *((f"test_batch.py::TestBitIdentity::test_cext_batch_is_the_flat_batch[{name}]",
       Cell(problem, "batch@2", target="cext", scheme=scheme), f"a strided batch, {_FLAT}")
      for name, problem, scheme in (
          ("1-mc-hllc-2", "rp1", "mc-hllc-rk3"), ("1-ppm-hll-3", "rp1", "ppm-hll-rk3"),
          ("2-mc-hllc-2", "blast", "mc-hllc-rk3"))),
    ("test_batch.py::TestBitIdentity::test_replicated_batch_members_all_match_solo",
     (Cell("rp1", "batch@0"), Cell("rp1", "batch@2")), "every member slot vs Solver"),
    ("test_batch.py::TestBitIdentity::test_batch_order_invariance",
     (Cell("kh", "batch@0"), Cell("kh", "batch@2")), "a member's result vs its slot"),
    *((f"test_amr_parallel.py::TestProcessParity::test_rank_parity_bitexact_through_migration[{n}]",
       cell, f"AMR on {n} workers vs serial, through a migration")
      for n, cell in ((2, _AMR_PROC), (4, Cell("amr", "four", _PR)))),
    ("test_amr_parallel.py::TestProcessParity::test_2d_periodic_blast_matches_serial",
     _AMR_PROC, "periodic AMR blast, 2 workers on cext vs serial"),
    *((f"test_codegen.py::TestCompiledUpdate::test_five_steps_every_driver_cext_equals_flat[{integ}]",
       tuple(Cell(problem, layout, exchange=ex, target="cext", scheme=_INTEG[integ])
             for problem, layout, ex in (("kh", "one", "blocking"), ("blast", "batch@2", "blocking"),
                                         ("kh", "four", _OV), ("amr", "one", "blocking"))),
       f"{integ}: Solver, batch, 2x2 ranks and AMR, {_FLAT}")
      for integ in _INTEG),
    ("test_codegen.py::TestThreadCounts::test_whole_runs_are_the_same_at_any_team_size",
     tuple(Cell("blast64", layout, target="cext", threads=2, scheme="weno5-hllc-rk2")
           for layout in ("one", "four", "batch@0")),
     "a 64^2 hostile blast, a 2x2 stack and a batch, 2 threads vs 1: state and stream"),
    *((f"test_codegen.py::TestFusedSolverDigest::{name}", cell, f"{_FLAT}: state, t, metrics")
      for name, cell in (
          ("test_kh_ppm_hll_20_steps_cext_equals_flat", PINNED["kh2d_ppm_cext"]),
          ("test_five_steps_cext_equals_flat[rp1_1d]", Cell("rp1", target="cext")),
          ("test_five_steps_cext_equals_flat[blast_3d]", Cell("wave3d", target="cext")),
          ("test_five_steps_cext_equals_flat[batch4]", Cell("rp1", "batch@2", target="cext")))),
    *((f"test_state.py::test_install_state_continues_bit_exactly[{family}-{n}-{t}]", cell,
       f"install_state continues the run's bytes and numerics ({family}, {n}, {t})")
      for t in ("numpy", "cext")
      for family, n, cell in (
          ("solver", 1, Cell("rp1", target=t, resume="state")),
          ("distributed", 2, Cell("rp1", "two", target=t, resume="state")),
          ("amr", 1, Cell("amr", target=t, resume="state")),
          ("amr", 2, Cell("amr", "two", target=t, resume="state")),
          # the fleets: one cell each (numpy on RP1, cext on AMR at 2 workers)
          ("process", 2, _RP1_PROC),
          ("amr-process", 1, _AMR_PROC),
          ("amr-process", 2, _AMR_PROC))),
))


def legacy(prefix: str):
    """The retired tests under *prefix* (``file::Class``, or ``file`` for
    module-level functions) as tests that check their cells: a class
    decorator, or with a function prefix the one test function."""
    entries = {}
    for test_id, cells, _ in LEGACY_PAIRS:
        head, _, rest = test_id.partition(prefix + "::")
        if head or not rest:
            continue
        name, _, param = rest.partition("[")
        entries.setdefault(name, {})[param.rstrip("]")] = cells

    def alias(by_param: dict, method: bool):
        ids = list(by_param)
        if ids == [""]:
            def test(*_):
                for cell in by_param[""]:
                    check(cell)

            return test
        if method:
            def test(self, cells):
                for cell in cells:
                    check(cell)
        else:
            def test(cells):
                for cell in cells:
                    check(cell)
        return pytest.mark.parametrize("cells", [by_param[i] for i in ids], ids=ids)(test)

    if "::" not in prefix:
        (only,) = entries.values()
        return alias(only, method=False)

    def decorate(cls):
        for name, by_param in entries.items():
            setattr(cls, name, alias(by_param, method=True))
        return cls

    return decorate


def floor_cells() -> list:
    """The cells of ``tests/lattice_floor.txt``: every cell an earlier
    tier-1 run checked (the collected test ids are a floor)."""
    cells = []
    for line in Path(__file__).with_name("lattice_floor.txt").read_text().splitlines():
        if line and not line.startswith("#"):  # a Cell.id: the scheme holds dashes too
            values = dict(zip(AXES, line.split("-", len(AXES) - 1)))
            cells.append(Cell(**values | {"threads": int(values["threads"])}))
    return cells


def tier1() -> list:
    """The cells a test run checks: the pinned, legacy and floor cells, then
    an all-pairs cover of the valid cells."""
    seed = list(dict.fromkeys(
        [*PINNED.values(), *(c for _, cells, _ in LEGACY_PAIRS for c in cells), *floor_cells()]
    ))
    return cover(seed, all_cells())


# ---------------------------------------------------------------------------
# Kernel level
# ---------------------------------------------------------------------------
#
# One compiled entry point at a time — ``recover`` with its CFL scan,
# ``face_flux`` with its in-tile difference, ``accumulate``, ``rk_stage`` —
# a ``cext`` stack of P patches on a team of t threads equals the ``flat``
# pipeline run patch by patch on one thread, byte for byte and metric by
# metric (the ``_*_property`` helpers of ``tests/test_codegen.py``).

#: layout -> (ndim, batch width); a batch axis trails a 1-D patch
KERNEL_LAYOUTS = {"1d": (1, 0), "2d": (2, 0), "3d": (3, 0), "batch1": (1, 1), "batch5": (1, 5)}
#: interior cells per ndim where a test asks for no other shape
KERNEL_SHAPES = {1: (24,), 2: (10, 12), 3: (6, 5, 7)}
#: the stack sizes P a property draws and the team sizes t it runs on
STACKS, TEAMS = (1, 2, 5), (1, 2, 4)

#: (build, ndim, target) -> resolved system: a resolution regenerates and
#: hashes the C source, and the properties build many pipelines
_RESOLVED: dict = {}
#: the build of the compiled modules loaded now (see :func:`kernel_team`)
_BUILD = {"now": "production"}


def kernel_pipeline(target: str, layout: str = "2d", n_patches: int = 1, shape=None,
                    n_ghost: int = 3, injector=None, extents=None, **cfg) -> HydroPipeline:
    """A *target* pipeline over a stack of *n_patches* patches of *layout*
    (interior *shape*, outflow walls, each over ``[0, extent]`` per axis:
    *extents*, one per patch, default 1.0 — so each its own spacing);
    *cfg* goes to :class:`SolverConfig` and *injector* builds its fault
    injector.  ``cext`` skips where the target cannot load."""
    ndim, n_batch = KERNEL_LAYOUTS[layout]
    shape = shape or KERNEL_SHAPES[ndim]
    ndim = len(shape)
    if target == "cext" and not cext.cext_available(ndim):
        pytest.skip("no C toolchain")

    def patch(extent):
        grid = Grid(shape, ((0.0, extent),) * ndim, n_ghost=n_ghost)
        walls = make_boundaries("outflow")
        if n_batch:
            grid = BatchGrid(grid, n_batch)
            walls = batch_boundaries(walls, grid)
        return grid, walls

    patches = [patch(extent) for extent in extents or [1.0] * n_patches]
    key = (_BUILD["now"], ndim, target)
    if key not in _RESOLVED:
        plain = SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=ndim)
        _RESOLVED[key] = resolve_kernel_system(plain, target)
    return HydroPipeline(
        _RESOLVED[key], *patches[0], SolverConfig(kernel_target=target, **cfg),
        fault_injector=injector() if injector else None, patches=patches,
    )


@contextlib.contextmanager
def kernel_team(threads: int):
    """Every compiled kernel on a team of *threads* (4 oversubscribes a
    2-core host on purpose), small calls included: each ndim's module is
    swapped, in-process, for a build of the same source whose team
    threshold is 0, so hypothesis-sized stacks take the threaded branch of
    every entry point — at one thread, the serial branch."""
    if not all(cext.cext_available(nd) for nd in (1, 2, 3)):
        pytest.skip("no C toolchain")
    threshold = f"#define TEAM_MIN_WORK {TEAM_MIN_WORK}\n"
    production = {}  # what is swapped so far, so that a failed build restores it
    before = cext.threads(1)
    try:
        for ndim in (1, 2, 3):
            name, source, cdef = cext.module_spec(ndim)
            assert source.count(threshold) == 1
            forced = source.replace(threshold, "#define TEAM_MIN_WORK 0\n")
            forced_name = cext._artifact_name(f"_repro_test_team_{ndim}d", forced, cdef)
            cext._load_spec(forced_name, forced, cdef)
            production[name] = cext._modules[name]
            cext._modules[name] = cext._modules[forced_name]
        _BUILD["now"] = "team"
        if cext.threads(1, threads) != threads:
            pytest.skip(f"no team of {threads} threads (a build without OpenMP)")
        yield
    finally:
        cext.threads(1, before)
        _BUILD["now"] = "production"
        cext._modules.update(production)
