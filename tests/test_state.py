"""One state pair for every driver: ``state()`` / ``install_state()``.

Checkpoints, supervision snapshots and the fold of a fleet to its serial
twin all move a driver's state through this pair.  That a twin installing
a running driver's ``state()`` continues its bytes and per-step numerics
is the lattice's ``resume="state"`` cells; here, the rest of the pair and
the archives written before it existed, which still load and continue
bit-exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import Grid, IdealGasEOS, Solver, SolverConfig, SRHDSystem
from repro.core.amr_solver import AMRConfig, AMRSolver
from repro.core.diagnostics import ConservedTotals
from repro.core.distributed import DistributedSolver
from repro.io import load_checkpoint
from repro.obs import BufferSink, StepRecorder, canonical_stream
from repro.physics.initial_data import RP1, shock_tube

from .lattice import legacy

DATA = Path(__file__).resolve().parent / "data"

#: steps before the archive / install point, and after it
BEFORE = {"unigrid": 7, "distributed": 7, "amr": 5}
AFTER = 4


def _scenario(target="numpy"):
    system = SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1)
    config = SolverConfig(cfl=0.4, kernel_target=target)
    return system, Grid((64,), ((0.0, 1.0),)), config


AMR = AMRConfig(block_size=8, max_levels=2, regrid_interval=2)


def compat_driver(kind):
    """The run each compatibility archive was written from (RP1, 64 cells)."""
    system, grid, config = _scenario()
    if kind == "unigrid":
        return Solver(system, grid, shock_tube(system, grid, RP1), config)
    if kind == "distributed":
        return DistributedSolver(
            system, grid, shock_tube(system, grid, RP1), (2,), config
        )
    return AMRSolver(
        system, grid, lambda s, g: shock_tube(s, g, RP1), config, AMR, n_ranks=2
    )


def write_compat_archives(directory) -> None:
    """Write ``checkpoint_v1_<kind>.npz`` for every kind into *directory*
    (the committed ones were written by this function under the code at
    commit a484e4b, before the state pair existed)."""
    for kind, steps in BEFORE.items():
        driver = compat_driver(kind)
        driver.run(t_final=1.0, max_steps=steps)
        driver.write_checkpoint(Path(directory) / f"checkpoint_v1_{kind}.npz")


def _patch_bytes(driver) -> dict:
    """Every patch's ``(cons, p_cache)`` bytes, keyed by its ident."""
    return {
        key: (cons.tobytes(), None if seed is None else seed.tobytes())
        for key, (cons, seed) in driver.state()["patches"].items()
    }


def _step_numerics(records) -> list:
    """The canonical projection of the step records without ``gauges`` and
    ``histograms``: those summarize the run since its start, which lives in
    the metrics registry (a worker's supervision snapshot carries it beside
    ``state()``), not in the driver's state."""
    lines = [json.loads(line) for line in canonical_stream(records).splitlines()]
    return [
        {k: v for k, v in line.items() if k not in ("gauges", "histograms")}
        for line in lines
        if line["event"] == "step"
    ]


def _driver(family, n_ranks, target, placeholder, recorder=None):
    """A *family* driver on RP1 — or, with *placeholder*, built the way
    :func:`load_checkpoint` builds one before installing a state."""
    from repro.core.stepping import placeholder_prim

    system, grid, config = _scenario(target)
    if placeholder:
        init, amr = placeholder_prim, AMR.replace(initial_regrid_passes=0)
    else:
        init, amr = (lambda s, g: shock_tube(s, g, RP1)), AMR
    prim = init(system, grid)
    if family == "solver":
        return Solver(system, grid, prim, config, recorder=recorder)
    if family == "distributed":
        return DistributedSolver(system, grid, prim, (n_ranks,), config, recorder=recorder)
    return AMRSolver(system, grid, init, config, amr, recorder=recorder, n_ranks=n_ranks)


#: a twin installing a running driver's state() continues its bytes and
#: numerics: the lattice's ``resume="state"`` cells
test_install_state_continues_bit_exactly = pytest.mark.usefixtures("no_fleet_leaks")(
    legacy("test_state.py")
)


def test_distributed_state_carries_a_read_between_steps():
    """A diagnostic read before ``state()`` filled the exchanged-primitive
    cache and sent halo traffic no record has counted yet: both travel
    with the state, so the twin's next step skips the same exchange and
    reports the same traffic.  (The read's con2prim work is counted in the
    run's metrics registry, which the state does not carry.)"""
    sinks = {"run": BufferSink(), "twin": BufferSink()}
    run = _driver("distributed", 2, "numpy", False, StepRecorder(sinks["run"]))
    twin = _driver("distributed", 2, "numpy", True, StepRecorder(sinks["twin"]))
    for _ in range(3):
        run.step()
    run.gather_primitives()
    state = run.state()
    assert state["prims_cache"] is not None
    assert state["unrecorded_traffic"][1] > 0
    twin.install_state(state)
    for _ in range(AFTER):
        run.step()
        twin.step()
    assert _patch_bytes(twin) == _patch_bytes(run)
    comm = [[line["comm"] for line in _step_numerics(sinks[k].records)] for k in sinks]
    assert comm[1] == comm[0][-AFTER:]


@pytest.mark.parametrize("family", ["solver", "distributed", "amr"])
def test_install_state_refuses_a_patch_shaped_unlike_its_grid(family):
    """A patch whose ``cons`` is not ``(nvars, *ghosted)`` of its grid is
    refused by name, with both shapes — not installed to fail the next
    step on a broadcast; a mis-shaped ``p_cache`` only starts it cold."""
    import re

    from repro.utils.errors import ConfigurationError

    driver = _driver(family, 2, "numpy", True)
    state = driver.state()
    ident = next(iter(state["patches"]))
    cons, p_cache = state["patches"][ident]
    if family == "amr":
        bad = cons[:, 1:]
    else:  # the same driver's state on a 120-cell grid
        system, _, config = _scenario()
        grid = Grid((120,), ((0.0, 1.0),))
        prim = shock_tube(system, grid, RP1)
        other = (
            Solver(system, grid, prim, config) if family == "solver"
            else DistributedSolver(system, grid, prim, (2,), config)
        )
        bad = other.state()["patches"][ident][0]
    state["patches"][ident] = (bad, p_cache)
    with pytest.raises(ConfigurationError, match=re.escape(
        f"patch {ident!r}: cons shaped {bad.shape}, its grid holds {cons.shape}"
    )):
        driver.install_state(state)
    state["patches"][ident] = (cons, np.ones(7))
    driver.install_state(state)
    stack = next(st for st in driver._stacks if ident in st.idents)
    assert stack.pipeline.warm_state(stack.idents.index(ident)) is None
    driver.step()


class TestCompatArchives:
    """``tests/data/checkpoint_v1_<kind>.npz`` were written by the code
    before the state pair existed (FORMAT_VERSION 1, no run summary), with::

        git archive a484e4b | tar -x -C "$OLD"
        PYTHONPATH="$OLD/src:." python -c "from tests.test_state import \\
            write_compat_archives; write_compat_archives('tests/data')"

    (run from the repository root; this module imports nothing that code
    lacks at import time)."""

    KINDS = tuple(BEFORE)

    @pytest.mark.parametrize("kind", KINDS)
    def test_old_archive_continues_bit_exactly(self, kind):
        system, _, _ = _scenario()
        restored = load_checkpoint(DATA / f"checkpoint_v1_{kind}.npz", system)
        assert type(restored) is type(compat_driver(kind))
        assert restored.steps == BEFORE[kind]
        if kind == "unigrid":
            # No summary archived: drift is measured from the restored state.
            assert restored.summary.initial == ConservedTotals.measure(
                system, restored.grid, restored.cons
            )
        ref = compat_driver(kind)
        ref.run(t_final=1.0, max_steps=BEFORE[kind] + AFTER)
        restored.run(t_final=1.0, max_steps=BEFORE[kind] + AFTER)
        assert (restored.t, restored.steps) == (ref.t, ref.steps)
        assert _patch_bytes(restored) == _patch_bytes(ref)

    @pytest.mark.parametrize("kind", KINDS)
    def test_same_trajectory_writes_the_same_entries(self, kind, tmp_path):
        """Member for member and byte for byte, the archive of the same
        trajectory is the old code's; ``meta`` keeps its keys (plus the
        unigrid run summary) and loses only the retired config fields."""
        driver = compat_driver(kind)
        driver.run(t_final=1.0, max_steps=BEFORE[kind])
        path = tmp_path / "new.npz"
        driver.write_checkpoint(path)
        with np.load(DATA / f"checkpoint_v1_{kind}.npz") as old, np.load(path) as new:
            assert new.files == old.files
            for name in old.files:
                if name != "meta":
                    assert new[name].tobytes() == old[name].tobytes(), name
            old_meta, new_meta = (json.loads(str(a["meta"])) for a in (old, new))
        added = {"summary"} if kind == "unigrid" else set()
        assert set(new_meta) - set(old_meta) == added
        assert set(old_meta) <= set(new_meta)
        assert set(old_meta["config"]) - set(new_meta["config"]) == {
            "recovery_tol", "atmo_threshold", "max_steps",
        }
        for key in set(old_meta) - {"config"}:
            assert new_meta[key] == old_meta[key], key
