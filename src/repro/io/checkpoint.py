"""Checkpoint/restart for solver runs.

Long cluster campaigns live and die by restart capability; this module
serializes the full state of the unigrid and AMR solvers to ``.npz``
archives (portable, dependency-free) and restores them exactly — the
restarted evolution is bit-identical to an uninterrupted one (tested).

Format (unigrid), one compressed npz:

- ``meta``: json-encoded dict (format version, t, steps, grid geometry,
  solver config, EOS descriptor)
- ``cons``: the ghosted conserved state array

AMR checkpoints add per-leaf entries ``leaf_<level>_<idx...>`` plus the
forest topology in ``meta``.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
import zlib
from contextlib import contextmanager

import numpy as np

from ..core.amr_solver import AMRConfig, AMRSolver
from ..core.config import SolverConfig
from ..core.distributed import DistributedSolver
from ..core.solver import Solver
from ..mesh.amr.blocks import BlockKey
from ..mesh.grid import Grid
from ..utils.errors import CheckpointError, ConfigurationError

FORMAT_VERSION = 1


def _atomic_savez(path, **arrays) -> None:
    """Write a compressed ``.npz`` archive atomically.

    The archive is assembled in a temp file in the destination directory
    and moved into place with :func:`os.replace`, so a crash mid-write
    can never tear the (often only) checkpoint: readers see either the
    old complete archive or the new complete archive, never a truncated
    one.  Mirrors ``np.savez``'s suffix behavior (``.npz`` appended when
    missing) so the on-disk name is unchanged from the direct call.
    """
    final = str(path)
    if not final.endswith(".npz"):
        final += ".npz"
    directory = os.path.dirname(final) or "."
    fd, tmp = tempfile.mkstemp(prefix=".ckpt-", suffix=".npz", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        os.replace(tmp, final)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@contextmanager
def _read_archive(path):
    """Open a checkpoint archive, mapping corruption to CheckpointError.

    A truncated or torn archive surfaces as ``BadZipFile``/``zlib.error``/
    ``EOFError``/``KeyError`` (missing member) depending on where the
    bytes ran out; all of them become a single clear
    :class:`~repro.utils.errors.CheckpointError` naming the path.  A
    missing file keeps raising ``FileNotFoundError`` (callers distinguish
    "no checkpoint yet" from "checkpoint destroyed").
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            yield data
    except (ConfigurationError, FileNotFoundError):
        raise
    except (zipfile.BadZipFile, zlib.error, EOFError, KeyError,
            ValueError, OSError) as exc:
        raise CheckpointError(
            f"checkpoint {path} is unreadable (truncated or corrupt): {exc}"
        ) from exc


def _quiescent_prim(system, grid: Grid) -> np.ndarray:
    """Physically admissible placeholder state (rho = p = 1, v = 0)."""
    prim = grid.allocate(system.nvars, fill=0.0)
    prim[system.RHO] = 1.0
    prim[system.P] = 1.0
    return prim


def _grid_meta(grid: Grid) -> dict:
    return {
        "shape": list(grid.shape),
        "bounds": [list(b) for b in grid.bounds],
        "n_ghost": grid.n_ghost,
    }


def _grid_from_meta(meta: dict) -> Grid:
    return Grid(
        tuple(meta["shape"]),
        tuple(tuple(b) for b in meta["bounds"]),
        n_ghost=meta["n_ghost"],
    )


def save_checkpoint(solver: Solver, path) -> None:
    """Write a unigrid solver's full state to *path* (.npz)."""
    meta = {
        "format": FORMAT_VERSION,
        "kind": "unigrid",
        "t": solver.t,
        "steps": solver.summary.steps,
        "grid": _grid_meta(solver.grid),
        "config": solver.config.to_dict(),
        "ndim": solver.system.ndim,
    }
    arrays = {"cons": solver.cons}
    # The con2prim warm-start cache participates in bit-exact restart: a
    # cold-started Newton lands within tolerance but not on the identical
    # bits, which would fork the trajectory.
    p_cache = solver.pipeline._p_cache
    if p_cache is not None:
        arrays["p_cache"] = p_cache
    _atomic_savez(path, meta=json.dumps(meta), **arrays)


def load_checkpoint(path, system, boundaries=None) -> Solver:
    """Reconstruct a unigrid solver from a checkpoint.

    The physics (*system*) and boundary conditions are code, not data, so
    the caller supplies them; geometry, configuration, time, and the
    conserved state come from the archive.
    """
    with _read_archive(path) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("format") != FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported checkpoint format {meta.get('format')!r}"
            )
        if meta.get("kind") != "unigrid":
            raise ConfigurationError(
                f"checkpoint holds a {meta.get('kind')!r} run, not unigrid"
            )
        if meta["ndim"] != system.ndim:
            raise ConfigurationError(
                f"checkpoint is {meta['ndim']}D, system is {system.ndim}D"
            )
        grid = _grid_from_meta(meta["grid"])
        config = SolverConfig(**meta["config"])
        cons = np.array(data["cons"])
        p_cache = np.array(data["p_cache"]) if "p_cache" in data else None

    # Build the solver through a quiescent placeholder state, then install
    # the checkpointed conserved variables verbatim.
    prim_placeholder = _quiescent_prim(system, grid)
    solver = Solver(system, grid, prim_placeholder, config, boundaries)
    solver.cons = cons
    solver.pipeline._p_cache = p_cache
    solver._prim_dirty = True
    solver.t = meta["t"]
    solver.summary.steps = meta["steps"]
    return solver


def save_distributed_checkpoint(solver, path) -> None:
    """Write a distributed solver's full state to *path* (.npz).

    Stores one ghosted conserved array per rank plus each rank pipeline's
    con2prim warm-start cache, so the restarted evolution stays bit-identical
    to an uninterrupted one.  Works for both executors: *solver* may be a
    :class:`~repro.core.distributed.DistributedSolver` or a
    :class:`~repro.core.parallel.ProcessSolver` (whose workers stream their
    shards to the parent through ``checkpoint_shards``); given the same
    trajectory both write bit-identical archive entries.
    """
    meta = {
        "format": FORMAT_VERSION,
        "kind": "distributed",
        "t": solver.t,
        "steps": solver.steps,
        "dims": list(solver.decomp.dims),
        "periodic": list(solver.decomp.periodic),
        "grid": _grid_meta(solver.global_grid),
        "config": solver.config.to_dict(),
        "ndim": solver.system.ndim,
    }
    shards = solver.checkpoint_shards()
    arrays = {}
    for rank in range(solver.size):
        cons, p_cache = shards[rank]
        arrays[f"rank_{rank}"] = cons
        if p_cache is not None:
            arrays[f"pcache_{rank}"] = p_cache
    _atomic_savez(path, meta=json.dumps(meta), **arrays)


def load_distributed_checkpoint(
    path,
    system,
    boundaries=None,
    fault_injector=None,
    halo_policy=None,
):
    """Reconstruct a distributed solver from a checkpoint.

    As with the other loaders, physics and boundary conditions are code and
    come from the caller; geometry, process-grid shape, configuration, time,
    and per-rank conserved states come from the archive.  Resilience hooks
    (*fault_injector*, *halo_policy*) are fresh objects supplied by the
    caller — fault plans are replayed from the restart point, not resumed.

    The execution backend follows the checkpointed ``config.executor``: a
    run checkpointed under ``executor="process"`` restarts as a
    :class:`~repro.core.parallel.ProcessSolver` (fresh workers, shards
    installed verbatim), anything else as a
    :class:`DistributedSolver` — which is what lets
    :func:`repro.resilience.run_with_restart` drive chaos runs on either
    backend through the same loader.
    """
    with _read_archive(path) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("format") != FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported checkpoint format {meta.get('format')!r}"
            )
        if meta.get("kind") != "distributed":
            raise ConfigurationError(
                f"checkpoint holds a {meta.get('kind')!r} run, not distributed"
            )
        if meta["ndim"] != system.ndim:
            raise ConfigurationError(
                f"checkpoint is {meta['ndim']}D, system is {system.ndim}D"
            )
        grid = _grid_from_meta(meta["grid"])
        config = SolverConfig(**meta["config"])
        prim_placeholder = _quiescent_prim(system, grid)
        shards = {}
        for rank in range(int(np.prod(meta["dims"]))):
            pcache = f"pcache_{rank}"
            shards[rank] = (
                np.array(data[f"rank_{rank}"]),
                np.array(data[pcache]) if pcache in data else None,
            )

    if getattr(config, "executor", "serial") == "process":
        # Deferred import: repro.core.parallel imports this module lazily.
        from ..core.parallel import ProcessSolver

        solver = ProcessSolver(
            system,
            grid,
            prim_placeholder,
            tuple(meta["dims"]),
            config=config,
            boundaries=boundaries,
            periodic=tuple(meta["periodic"]),
            fault_injector=fault_injector,
            halo_policy=halo_policy,
        )
        solver.restore_state(meta["t"], meta["steps"], shards)
        return solver

    solver = DistributedSolver(
        system,
        grid,
        prim_placeholder,
        tuple(meta["dims"]),
        config,
        boundaries,
        periodic=tuple(meta["periodic"]),
        fault_injector=fault_injector,
        halo_policy=halo_policy,
    )
    solver.install_shards(meta["t"], meta["steps"], shards)
    return solver


def save_amr_checkpoint(solver: AMRSolver, path) -> None:
    """Write an AMR solver's leaves and topology to *path* (.npz)."""
    leaves = sorted(solver.forest.leaves, key=lambda k: (k.level, k.idx))
    meta = {
        "format": FORMAT_VERSION,
        "kind": "amr",
        "t": solver.t,
        "steps": solver.steps,
        "cells_updated": solver.cells_updated,
        "regrids": solver.regrids,
        "root_grid": _grid_meta(solver.layout.root_grid),
        "config": solver.config.to_dict(),
        "amr": solver.amr.to_dict(),
        "ndim": solver.system.ndim,
        "leaves": [[k.level, list(k.idx)] for k in leaves],
        "refined": [[k.level, list(k.idx)] for k in sorted(
            solver.forest.refined, key=lambda k: (k.level, k.idx)
        )],
    }
    arrays = {}
    for key in leaves:
        name = f"leaf_{key.level}_" + "_".join(map(str, key.idx))
        arrays[name] = solver.forest.leaves[key].cons
        pipe = solver._pipelines.get(key)
        if pipe is not None and pipe._p_cache is not None:
            arrays["pcache_" + name] = pipe._p_cache
    _atomic_savez(path, meta=json.dumps(meta), **arrays)


def load_amr_checkpoint(path, system, boundaries=None) -> AMRSolver:
    """Reconstruct an AMR solver (topology + leaf states) from *path*."""
    with _read_archive(path) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("kind") != "amr":
            raise ConfigurationError(
                f"checkpoint holds a {meta.get('kind')!r} run, not amr"
            )
        if meta["ndim"] != system.ndim:
            raise ConfigurationError(
                f"checkpoint is {meta['ndim']}D, system is {system.ndim}D"
            )
        root = _grid_from_meta(meta["root_grid"])
        config = SolverConfig(**meta["config"])
        amr_cfg = AMRConfig(**meta["amr"])

        def flat_ic(sys, grid):
            return _quiescent_prim(sys, grid)

        solver = AMRSolver(
            system,
            root,
            flat_ic,
            config,
            amr_cfg.replace(initial_regrid_passes=0),
            boundaries,
        )
        # Rebuild the exact topology.
        solver.forest.leaves.clear()
        solver.forest.refined = {
            BlockKey(level, tuple(idx)) for level, idx in meta["refined"]
        }
        solver._pipelines.clear()
        from ..mesh.amr.blocks import LeafBlock

        for level, idx in meta["leaves"]:
            key = BlockKey(level, tuple(idx))
            name = f"leaf_{level}_" + "_".join(map(str, idx))
            cons = np.array(data[name])
            grid = solver.layout.grid_for(key)
            solver.forest.leaves[key] = LeafBlock(key, grid, cons)
            if "pcache_" + name in data:
                pipe = solver._pipeline(key)
                pipe._p_cache = np.array(data["pcache_" + name])
        solver.t = meta["t"]
        solver.steps = meta["steps"]
        solver.cells_updated = meta["cells_updated"]
        solver.regrids = meta["regrids"]
    return solver
