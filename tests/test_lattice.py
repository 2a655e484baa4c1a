"""The equivalence lattice (``tests/lattice.py``), checked.

Every tier-1 cell's outcome equals its references, part by part; the cell
list is generated, and these tests hold the generator to its promises: an
all-pairs cover of the valid cells, every retired whole-run pair and every
benchmark configuration among the cells.  A configuration the code refuses
is no cell: the refusal is asserted here.
"""

from __future__ import annotations

import pytest

from repro.utils.errors import ConfigurationError

from .lattice import (
    LEGACY_PAIRS, PINNED, STEPS, Cell, _build, all_cells, check, outcome, pairs, tier1, valid,
)

#: every test here must leave no worker process and no shm segment behind
pytestmark = pytest.mark.usefixtures("no_fleet_leaks")

TIER1 = tier1()


@pytest.mark.parametrize("cell", TIER1, ids=lambda cell: cell.id)
def test_cell(cell):
    check(cell)


def test_the_cells_cover_every_valid_pair_and_configuration():
    """Every valid axis-value pair, and every benchmark configuration,
    among the cells."""
    assert set().union(*map(pairs, TIER1)) == set().union(*map(pairs, all_cells()))
    assert all(valid(cell) for cell in TIER1)
    assert len(set(TIER1)) == len(TIER1)
    assert set(PINNED.values()) <= set(TIER1)


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_a_cut_narrower_than_the_stencil_is_refused(executor):
    """A 3-D wave cut 3/3/2 along x under weno5 (reach 3): the last rank's
    halo would carry cells it does not own, so both executors refuse the
    cut before a rank exists, naming the rank, axis, width and reach."""
    cell = Cell("wave3d", "uneven", executor, scheme="weno5-hllc-rk2")
    assert not valid(cell)
    with pytest.raises(ConfigurationError, match="rank 2 is 2 cells wide along axis 0.*reach of 3"):
        _build(cell, None)


def test_every_legacy_pair_is_a_valid_tier1_cell():
    ids = [test_id for test_id, _, _ in LEGACY_PAIRS]
    assert len(ids) == len(set(ids))
    for test_id, cells, note in LEGACY_PAIRS:
        assert cells and note, test_id
        for cell in cells:
            assert valid(cell) and cell in TIER1, (test_id, cell.id)


def test_every_faulted_cell_meets_every_fault():
    """A recoverable plan that struck nothing would equal the fault-free
    run trivially: each faulted cell meets its drop, its duplicate and both
    corruptions, and retries them."""
    faulted = [c for c in TIER1 if c.faults == "halo"]
    assert faulted
    for cell in faulted:
        totals = outcome(cell).counters
        assert totals.get("resilience.fault.halo_drop") == 1, cell.id
        assert totals.get("resilience.fault.halo_duplicate") == 1, cell.id
        assert totals.get("resilience.fault.halo_corrupt") == 2, cell.id
        assert totals.get("resilience.halo_retries", 0) >= 3, cell.id


def test_the_amr_cells_regrid_and_migrate():
    """The AMR problem refines, regrids every second step, and a cut over
    ranks moves blocks between them — so rank parity crosses a migration."""
    amr = [c for c in TIER1 if c.problem == "amr"]
    for cell in amr:
        counters = outcome(cell).counters
        assert counters["amr.regrids"] == STEPS // 2, cell.id
        if cell.layout != "one":
            assert counters["amr.migrated_blocks"] >= 1, cell.id


def test_the_team_problem_exercises_every_repair():
    """The threads cells run the hostile blast: a face-state floor, the
    atmosphere floor, the momentum cap and the failsafe all fire, so a team
    that split them wrongly would show."""
    cell = Cell("blast64", target="cext", threads=2, scheme="weno5-hllc-rk2")
    counters = outcome(cell).counters
    for name in ("sanitize.floored", "atmo.cons_floored", "limiter.momentum_rescaled",
                 "resilience.failsafe_cells"):
        assert counters.get(name, 0) > 0, name
