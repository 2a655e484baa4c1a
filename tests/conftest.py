"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eos import IdealGasEOS
from repro.mesh.grid import Grid
from repro.physics.srhd import SRHDSystem


@pytest.fixture
def eos():
    return IdealGasEOS(gamma=5.0 / 3.0)


@pytest.fixture
def system1d(eos):
    return SRHDSystem(eos, ndim=1)


@pytest.fixture
def system2d(eos):
    return SRHDSystem(eos, ndim=2)


@pytest.fixture
def grid1d():
    return Grid((64,), ((0.0, 1.0),))


@pytest.fixture
def grid2d():
    return Grid((16, 16), ((0.0, 1.0), (0.0, 1.0)))


def random_prim(system, shape, rng, vmax=0.9):
    """A random, physically admissible primitive state array."""
    prim = np.empty((system.nvars,) + tuple(shape))
    prim[system.RHO] = rng.uniform(0.1, 10.0, shape)
    v2_budget = rng.uniform(0.0, vmax**2, shape)
    direction = rng.normal(size=(system.ndim,) + tuple(shape))
    norm = np.sqrt(np.sum(direction**2, axis=0))
    norm = np.where(norm > 0, norm, 1.0)
    for ax in range(system.ndim):
        prim[system.V(ax)] = direction[ax] / norm * np.sqrt(v2_budget)
    prim[system.P] = rng.uniform(0.01, 10.0, shape)
    return prim


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def require_cext(ndim):
    """Skip the calling test on a host that cannot build the cext target."""
    from repro.codegen import cext_available

    if not cext_available(ndim):
        pytest.skip("no C toolchain")


@pytest.fixture
def compiled_system_inits(monkeypatch):
    """A list that grows by one per ``CompiledSRHDSystem`` constructed —
    what a driver's kernel-target resolution costs (skips without a C
    toolchain)."""
    from repro.codegen.system import CompiledSRHDSystem

    require_cext(2)
    inits = []
    real_init = CompiledSRHDSystem.__init__

    def counting_init(self, *args, **kwargs):
        inits.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(CompiledSRHDSystem, "__init__", counting_init)
    return inits


@pytest.fixture
def no_fleet_leaks(monkeypatch):
    """Fail the test if it leaves a worker process or a shm segment behind.

    Every segment of a process fleet is created by the parent, so tracking
    this process's ``SharedMemory(create=True)`` calls names all of them,
    rings recreated during a recovery included.
    """
    import multiprocessing
    from multiprocessing import shared_memory

    from repro.comm.shm import sweep_segments

    created = []
    real_init = shared_memory.SharedMemory.__init__

    def tracking_init(self, name=None, create=False, size=0, **kwargs):
        real_init(self, name=name, create=create, size=size, **kwargs)
        if create:
            created.append(self.name)

    monkeypatch.setattr(shared_memory.SharedMemory, "__init__", tracking_init)
    yield
    monkeypatch.undo()
    children = multiprocessing.active_children()
    for child in children:  # do not let one leak fail every later test
        child.kill()
        child.join(timeout=10.0)
    leaked = sweep_segments(created)  # the names that still attached
    assert not children, f"worker processes left alive: {children}"
    assert not leaked, f"shm segments left in /dev/shm: {leaked}"
