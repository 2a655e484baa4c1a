"""Checkpoint/restart for solver runs.

Long cluster campaigns live and die by restart capability; this module
serializes the full state of the unigrid and AMR solvers to ``.npz``
archives (portable, dependency-free) and restores them exactly — the
restarted evolution is bit-identical to an uninterrupted one (tested).

Format (unigrid), one compressed npz:

- ``meta``: json-encoded dict (format version, t, steps, grid geometry,
  solver config, EOS descriptor)
- ``cons``: the ghosted conserved state array
- ``p_cache`` (optional): the con2prim Newton seed

Distributed checkpoints hold the same pair per rank (``rank_<r>``, ...),
AMR checkpoints per leaf (``leaf_<level>_<idx...>``, ...) plus the forest
topology in ``meta``.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
import zlib
from contextlib import contextmanager

import numpy as np

from ..core.amr_parallel import make_distributed_amr_solver
from ..core.amr_solver import AMRConfig
from ..core.config import SolverConfig
from ..core.parallel import make_distributed_solver
from ..core.solver import Solver
from ..mesh.amr.blocks import BlockKey
from ..mesh.grid import Grid
from ..utils.errors import CheckpointError, ConfigurationError
from ..utils.logging import get_logger

FORMAT_VERSION = 1

_log = get_logger("io")


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


#: archive entry names per kind — ``(cons, p_cache)`` of one patch,
#: formatted with the patch's ident (rank, or leaf level_idx...)
_ENTRY_NAMES = {
    "unigrid": ("cons", "p_cache"),
    "distributed": ("rank_{0}", "pcache_{0}"),
    "amr": ("leaf_{0}", "pcache_leaf_{0}"),
}

#: SolverConfig fields retired since FORMAT_VERSION 1 archives were first
#: written, each with whether a set value changed solution bytes.  An
#: archived value is dropped rather than refused; one that did change bytes
#: is dropped with a warning, because the resumed run continues without it.
_RETIRED_CONFIG_KEYS = {
    # selected between bit-identical code paths
    "scratch_workspace": False,
    "fused_stencils": False,
    # only priced a modelled counter
    "overlap_link": False,
    # reseeded the cold Newton start and damped it on recovery statistics
    "c2p_tuned": True,
}


def _write_archive(path, kind: str, solver, patches: dict, **meta) -> None:
    """The one archive writer: the shared meta prologue, *meta* on top,
    and ``{ident: (cons, p_cache)}`` as named entries."""
    meta = {
        "format": FORMAT_VERSION,
        "kind": kind,
        "t": solver.t,
        "steps": solver.steps,
        "config": solver.config.to_dict(),
        "ndim": solver.system.ndim,
        **meta,
    }
    arrays = {}
    for ident, (cons, p_cache) in patches.items():
        c_name, p_name = (n.format(ident) for n in _ENTRY_NAMES[kind])
        arrays[c_name] = cons
        # The Newton seed participates in bit-exact restart: a cold-started
        # Newton lands within tolerance but not on the identical bits.
        if p_cache is not None:
            arrays[p_name] = p_cache
    _atomic_savez(path, meta=json.dumps(meta), **arrays)


def _read_prologue(data, path, kind: str, system) -> tuple[dict, SolverConfig]:
    """``(meta, config)`` of an open archive after the ``format`` /
    ``kind`` / ``ndim`` checks every loader makes."""
    meta = json.loads(str(data["meta"]))
    if meta.get("format") != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported checkpoint format {meta.get('format')!r}"
        )
    if meta.get("kind") != kind:
        raise ConfigurationError(
            f"checkpoint holds a {meta.get('kind')!r} run, not {kind}"
        )
    if meta["ndim"] != system.ndim:
        raise ConfigurationError(
            f"checkpoint is {meta['ndim']}D, system is {system.ndim}D"
        )
    config = dict(meta["config"])
    retired = [key for key in _RETIRED_CONFIG_KEYS if key in config]
    if retired:
        _log.info("checkpoint %s: dropping retired config keys %s", path, retired)
        changed = [k for k in retired if _RETIRED_CONFIG_KEYS[k] and config[k]]
        if changed:
            _log.warning(
                "checkpoint %s was written with %s set; that behaviour no "
                "longer exists and the run resumes without it", path, changed,
            )
        for key in retired:
            del config[key]
    return meta, SolverConfig(**config)


def _read_patch(data, kind: str, ident) -> tuple:
    """One patch's ``(cons, p_cache)``; an absent seed loads as None (cold
    Newton start).  Members this reader does not name — the ``c2p_stats*``
    vectors older writers stored — are ignored."""
    c_name, p_name = (n.format(ident) for n in _ENTRY_NAMES[kind])
    return (
        np.array(data[c_name]),
        np.array(data[p_name]) if p_name in data else None,
    )


def _leaf_ident(key: BlockKey) -> str:
    return f"{key.level}_" + "_".join(map(str, key.idx))


def save_checkpoint(solver: Solver, path) -> None:
    """Write a unigrid solver's full state to *path* (.npz)."""
    _write_archive(
        path, "unigrid", solver,
        {"": (solver.cons, solver.pipeline.warm_state())},
        grid=_grid_meta(solver.grid),
    )


def load_checkpoint(path, system, boundaries=None) -> Solver:
    """Reconstruct a unigrid solver from a checkpoint.

    The physics (*system*) and boundary conditions are code, not data, so
    the caller supplies them; geometry, configuration, time, and the
    conserved state come from the archive.
    """
    with _read_archive(path) as data:
        meta, config = _read_prologue(data, path, "unigrid", system)
        cons, p_cache = _read_patch(data, "unigrid", "")
    grid = _grid_from_meta(meta["grid"])
    # Build the solver through a quiescent placeholder state, then install
    # the checkpointed conserved variables verbatim.
    solver = Solver(system, grid, _quiescent_prim(system, grid), config, boundaries)
    solver.cons = cons
    solver.pipeline.install_warm_state(p_cache)
    solver._prim_dirty = True
    solver.t = meta["t"]
    solver.steps = meta["steps"]
    return solver


def save_distributed_checkpoint(solver, path) -> None:
    """Write a distributed solver's full state to *path* (.npz).

    Stores one ghosted conserved array per rank plus each rank pipeline's
    Newton seed, so the restarted evolution stays bit-identical
    to an uninterrupted one.  Works for both executors: *solver* may be a
    :class:`~repro.core.distributed.DistributedSolver` or a
    :class:`~repro.core.parallel.ProcessSolver` (whose workers stream their
    shards to the parent through ``checkpoint_shards``); given the same
    trajectory both write bit-identical archive entries.
    """
    shards = solver.checkpoint_shards()
    _write_archive(
        path, "distributed", solver,
        {rank: shards[rank] for rank in range(solver.size)},
        dims=list(solver.decomp.dims),
        periodic=list(solver.decomp.periodic),
        grid=_grid_meta(solver.global_grid),
    )


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
    :class:`~repro.core.parallel.ProcessSolver` (fresh workers), anything
    else as a :class:`DistributedSolver`; both install the shards verbatim
    through their ``install_shards`` — which is what lets
    :func:`repro.resilience.run_with_restart` drive chaos runs on either
    backend through the same loader.
    """
    with _read_archive(path) as data:
        meta, config = _read_prologue(data, path, "distributed", system)
        shards = {
            rank: _read_patch(data, "distributed", rank)
            for rank in range(int(np.prod(meta["dims"])))
        }
    grid = _grid_from_meta(meta["grid"])
    solver = make_distributed_solver(
        system,
        grid,
        _quiescent_prim(system, grid),
        tuple(meta["dims"]),
        config=config,
        boundaries=boundaries,
        periodic=tuple(meta["periodic"]),
        fault_injector=fault_injector,
        halo_policy=halo_policy,
    )
    solver.install_shards(meta["t"], meta["steps"], shards)
    return solver


def save_amr_checkpoint(solver, path) -> None:
    """Write an AMR solver's forest state to *path* (.npz): every leaf's
    patch state as entries, topology (leaf order kept), counters and the
    rank count in ``meta``.  Works for every AMR driver through its
    ``forest_state()`` (the process fleet merges its workers'); block
    ownership is not archived, since the block bytes do not depend on
    it."""
    state = solver.forest_state()
    meta = {
        name: [[k.level, list(k.idx)] for k in state[name]]
        for name in ("leaves", "refined")
    }
    meta.update({n: state[n] for n in ("t", "steps", "cells_updated", "regrids")})
    _write_archive(
        path, "amr", solver,
        {_leaf_ident(key): patch for key, patch in state["blocks"].items()},
        root_grid=_grid_meta(solver.layout.root_grid),
        amr=solver.amr.to_dict(),
        n_ranks=solver.n_ranks,
        **meta,
    )


def load_amr_checkpoint(path, system, boundaries=None):
    """Reconstruct an AMR solver (topology + leaf states) from *path*.

    The run comes back under the executor (``config.executor``) and rank
    count that wrote it — an
    :class:`~repro.core.amr_parallel.AMRProcessSolver` with fresh workers
    for a process fleet's archive, the in-process
    :class:`~repro.core.amr_solver.AMRSolver` otherwise; an archive
    without a rank count loads at one rank.  Leaf ownership is cut afresh
    over the installed forest.
    """
    with _read_archive(path) as data:
        meta, config = _read_prologue(data, path, "amr", system)
        state = dict(meta)
        for name in ("leaves", "refined"):
            state[name] = [BlockKey(lvl, tuple(idx)) for lvl, idx in meta[name]]
        state["blocks"] = {
            key: _read_patch(data, "amr", _leaf_ident(key))
            for key in state["leaves"]
        }
    return make_distributed_amr_solver(
        system,
        _grid_from_meta(meta["root_grid"]),
        None,
        config,
        AMRConfig(**meta["amr"]),
        n_ranks=int(meta.get("n_ranks", 1)),
        boundaries=boundaries,
        forest_state=state,
    )
