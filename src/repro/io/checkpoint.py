"""Checkpoint/restart for every driver.

Long cluster campaigns live and die by restart capability.  Every driver
has one state pair, ``state()`` / ``install_state()``
(:mod:`repro.core.stepping`); this module writes a driver's ``state()`` to
an ``.npz`` archive (portable, dependency-free) and builds the driver an
archive names, installing the archived state verbatim — the restarted
evolution is bit-identical to an uninterrupted one (tested).  One writer,
:func:`save_checkpoint` (what every ``Driver.write_checkpoint`` calls), and
one reader, :func:`load_checkpoint`.

Format, one compressed npz per run:

- ``meta``: json-encoded dict — format version, ``kind`` (``unigrid``,
  ``distributed`` or ``amr``), t, steps, solver config, ndim, and the
  kind's geometry: the grid (plus, for a unigrid run, its optional run
  ``summary``), the process grid's ``dims``/``periodic``, or the AMR root
  grid, refinement policy, rank count, topology and counters
- per patch, its ``(cons, p_cache)`` pair (the ghosted conserved array and
  the con2prim Newton seed): ``cons``/``p_cache`` for the unigrid patch,
  ``rank_<r>``/``pcache_<r>`` per rank, ``leaf_<level>_<idx...>``/
  ``pcache_leaf_<level>_<idx...>`` per AMR leaf
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
from ..core.config import ATMO_THRESHOLD, MAX_STEPS, RECOVERY_TOL, SolverConfig
from ..core.parallel import make_distributed_solver
from ..core.solver import Solver
from ..core.stepping import placeholder_prim
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
#: written, each with the value the code now always runs with (None: no
#: value changed solution bytes).  An archived value is dropped rather than
#: refused; one that differs from the value run now is dropped with a
#: warning, because the resumed run continues without it.
_RETIRED_CONFIG_KEYS = {
    # selected between bit-identical code paths
    "scratch_workspace": None,
    "fused_stencils": None,
    # only priced a modelled counter
    "overlap_link": None,
    # reseeded the cold Newton start and damped it on recovery statistics
    "c2p_tuned": False,
    # options nobody set, now module constants
    "recovery_tol": RECOVERY_TOL,
    "atmo_threshold": ATMO_THRESHOLD,
    "max_steps": MAX_STEPS,
}


def _kind_of(driver) -> str:
    """Which archive kind *driver* writes: a forest (``layout``), a
    Cartesian decomposition (``decomp``), or one grid."""
    if hasattr(driver, "layout"):
        return "amr"
    if hasattr(driver, "decomp"):
        return "distributed"
    return "unigrid"


def _leaf_ident(key: BlockKey) -> str:
    return f"{key.level}_" + "_".join(map(str, key.idx))


def save_checkpoint(driver, path) -> None:
    """Write *driver*'s :meth:`~repro.core.stepping.Driver.state` to *path*
    (.npz): the shared meta prologue, the kind's geometry and every patch's
    ``(cons, p_cache)`` as named entries.  A process fleet's state is its
    workers' merged, so both executors write identical entries for the
    same trajectory; AMR block ownership is not archived (the block bytes
    do not depend on it)."""
    kind = _kind_of(driver)
    state = driver.state()
    meta = {
        "format": FORMAT_VERSION,
        "kind": kind,
        "t": state["t"],
        "steps": state["steps"],
        "config": driver.config.to_dict(),
        "ndim": driver.system.ndim,
    }
    patches = state["patches"]
    if kind == "unigrid":
        meta.update(grid=_grid_meta(driver.grid), summary=state["summary"])
    elif kind == "distributed":
        meta.update(
            dims=list(driver.decomp.dims),
            periodic=list(driver.decomp.periodic),
            grid=_grid_meta(driver.global_grid),
        )
    else:
        meta.update(
            root_grid=_grid_meta(driver.layout.root_grid),
            amr=driver.amr.to_dict(),
            n_ranks=driver.n_ranks,
            leaves=[[k.level, list(k.idx)] for k in state["leaves"]],
            refined=[[k.level, list(k.idx)] for k in state["refined"]],
            cells_updated=state["cells_updated"],
            regrids=state["regrids"],
        )
        patches = {_leaf_ident(key): patches[key] for key in state["leaves"]}
    arrays = {}
    for ident, (cons, p_cache) in patches.items():
        c_name, p_name = (n.format(ident) for n in _ENTRY_NAMES[kind])
        arrays[c_name] = cons
        # The Newton seed participates in bit-exact restart: a cold-started
        # Newton lands within tolerance but not on the identical bits.
        if p_cache is not None:
            arrays[p_name] = p_cache
    _atomic_savez(path, meta=json.dumps(meta), **arrays)


def _read_prologue(data, path, system) -> tuple[dict, SolverConfig]:
    """``(meta, config)`` of an open archive after the ``format`` /
    ``kind`` / ``ndim`` checks."""
    meta = json.loads(str(data["meta"]))
    if meta.get("format") != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported checkpoint format {meta.get('format')!r}"
        )
    if meta.get("kind") not in _ENTRY_NAMES:
        raise ConfigurationError(
            f"checkpoint holds a {meta.get('kind')!r} run, which no driver loads"
        )
    if meta["ndim"] != system.ndim:
        raise ConfigurationError(
            f"checkpoint is {meta['ndim']}D, system is {system.ndim}D"
        )
    config = dict(meta["config"])
    retired = [key for key in _RETIRED_CONFIG_KEYS if key in config]
    if retired:
        _log.info("checkpoint %s: dropping retired config keys %s", path, retired)
        changed = [
            k for k in retired
            if _RETIRED_CONFIG_KEYS[k] not in (None, config[k])
        ]
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


def load_checkpoint(
    path, system, boundaries=None, fault_injector=None, halo_policy=None
):
    """Rebuild the driver a checkpoint names and install its state.

    The physics (*system*) and boundary conditions are code, not data, so
    the caller supplies them; the kind, geometry, configuration, time and
    per-patch state come from the archive.  A ``unigrid`` archive comes
    back as a :class:`~repro.core.solver.Solver`, a ``distributed`` one as
    a :class:`~repro.core.distributed.DistributedSolver` or — when its
    ``config.executor`` is ``"process"`` — a
    :class:`~repro.core.parallel.ProcessSolver` with fresh workers, an
    ``amr`` one as the AMR driver of that executor at the rank count that
    wrote it (one without a rank count loads at one rank; leaf ownership
    is cut afresh).  Resilience hooks (*fault_injector*, and *halo_policy*
    for a distributed run) are fresh objects supplied by the caller: fault
    plans are replayed from the restart point, not resumed — which is what
    lets :func:`repro.resilience.run_with_restart` drive chaos runs on
    every driver through this loader.
    """
    with _read_archive(path) as data:
        meta, config = _read_prologue(data, path, system)
        kind = meta["kind"]
        state = {"t": meta["t"], "steps": meta["steps"]}
        if kind == "amr":
            for name in ("leaves", "refined"):
                state[name] = [BlockKey(lvl, tuple(idx)) for lvl, idx in meta[name]]
            state.update(cells_updated=meta["cells_updated"], regrids=meta["regrids"])
            idents = {key: _leaf_ident(key) for key in state["leaves"]}
        elif kind == "distributed":
            idents = {rank: rank for rank in range(int(np.prod(meta["dims"])))}
        else:
            idents = {"": ""}
        state["patches"] = {
            key: _read_patch(data, kind, ident) for key, ident in idents.items()
        }
    if kind == "unigrid":
        grid = _grid_from_meta(meta["grid"])
        driver = Solver(
            system, grid, placeholder_prim(system, grid), config, boundaries,
            fault_injector=fault_injector,
        )
        if "summary" in meta:
            state["summary"] = meta["summary"]
        else:
            _log.info(
                "checkpoint %s carries no run summary: conservation drift is "
                "measured from the restored state", path,
            )
    elif kind == "distributed":
        grid = _grid_from_meta(meta["grid"])
        driver = make_distributed_solver(
            system, grid, placeholder_prim(system, grid), tuple(meta["dims"]),
            config=config, boundaries=boundaries,
            periodic=tuple(meta["periodic"]),
            fault_injector=fault_injector, halo_policy=halo_policy,
        )
    else:
        driver = make_distributed_amr_solver(
            system, _grid_from_meta(meta["root_grid"]), placeholder_prim, config,
            AMRConfig(**meta["amr"]).replace(initial_regrid_passes=0),
            n_ranks=int(meta.get("n_ranks", 1)), boundaries=boundaries,
            fault_injector=fault_injector,
        )
    driver.install_state(state)
    return driver
