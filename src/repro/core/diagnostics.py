"""Conservation and run diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..mesh.grid import Grid
from ..physics.srhd import SRHDSystem
from ..utils.errors import NumericsError


def check_dt(dt: float, t: float, step: int) -> None:
    """Refuse a non-finite or non-positive time step before it is taken
    (the one dt guard every driver's ``step`` runs)."""
    if not np.isfinite(dt) or dt <= 0:
        raise NumericsError(f"invalid time step dt={dt!r} at t={t:g} (step {step})")


def first_nonfinite(arr: np.ndarray) -> tuple[int, tuple[int, ...]] | None:
    """``(variable, cell)`` of the first NaN/Inf entry of a state array, or
    None — what the drivers' post-step guards name in their error."""
    finite = np.isfinite(arr)
    if finite.all():
        return None
    var, *cell = (int(i) for i in np.argwhere(~finite)[0])
    return var, tuple(cell)


@dataclass
class ConservedTotals:
    """Volume integrals of the conserved variables over the interior."""

    mass: float
    momentum: tuple[float, ...]
    energy: float

    @classmethod
    def measure(cls, system: SRHDSystem, grid: Grid, cons: np.ndarray) -> "ConservedTotals":
        vol = grid.cell_volume
        interior = grid.interior_of(cons)
        return cls(
            mass=float(np.sum(interior[system.D])) * vol,
            momentum=tuple(
                float(np.sum(interior[system.S(ax)])) * vol for ax in range(system.ndim)
            ),
            energy=float(np.sum(interior[system.TAU] + interior[system.D])) * vol,
        )

    def drift_from(self, other: "ConservedTotals") -> dict[str, float]:
        """Relative drift of each conserved total since *other*."""

        def rel(a, b):
            scale = max(abs(b), 1e-30)
            return (a - b) / scale

        return {
            "mass": rel(self.mass, other.mass),
            "energy": rel(self.energy, other.energy),
            **{
                f"momentum_{ax}": rel(m, m0)
                for ax, (m, m0) in enumerate(zip(self.momentum, other.momentum))
            },
        }


@dataclass
class RunSummary:
    """Accumulated facts about a completed solver run."""

    steps: int = 0
    t_final: float = 0.0
    dt_min: float = float("inf")
    dt_max: float = 0.0
    initial: ConservedTotals | None = None
    final: ConservedTotals | None = None
    kernel_seconds: dict[str, float] = field(default_factory=dict)

    def observe_dt(self, dt: float) -> None:
        self.dt_min = min(self.dt_min, dt)
        self.dt_max = max(self.dt_max, dt)

    @property
    def conservation_drift(self) -> dict[str, float]:
        if self.initial is None or self.final is None:
            return {}
        return self.final.drift_from(self.initial)
