"""Scenario specifications: one request = one small, fully-described problem.

A :class:`ScenarioSpec` is the service's request schema — a flat,
JSON-friendly description of a small solver run (problem family, grid
size, physics, numerics) validated against a template of defaults, in the
style of Mara3's config-driven subprograms: every knob has a default,
unknown keys are rejected loudly, and a spec is immutable once admitted.

Specs that agree on everything except their *initial data* share a
:meth:`ScenarioSpec.batch_key` and can be stacked into one
:class:`~repro.core.batch.BatchSolver` sweep: same grid, same EOS, same
numerics, same end time — so the shared CFL step sequence and the batched
kernels are valid for every member.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..core.config import SolverConfig
from ..eos.ideal import IdealGasEOS
from ..mesh.grid import Grid
from ..physics.exact_riemann import RiemannState
from ..physics.initial_data import (
    SHOCK_TUBES,
    ShockTubeProblem,
    blast_wave_2d,
    shock_tube,
    smooth_wave,
)
from ..physics.srhd import SRHDSystem
from ..reconstruct import SCHEMES
from ..riemann import SOLVERS
from ..time_integration.ssprk import INTEGRATORS
from ..utils.errors import ConfigurationError

KINDS = ("shock_tube", "smooth_wave", "blast_wave_2d")
KERNEL_TARGETS = SolverConfig._params["kernel_target"].choices


def _state(value, where: str) -> RiemannState | None:
    if value is None:
        return None
    if isinstance(value, RiemannState):
        return value
    if not isinstance(value, dict):
        raise ConfigurationError(
            f"{where} must be a dict with keys rho/v/p, got {value!r}"
        )
    unknown = set(value) - {"rho", "v", "p"}
    if unknown:
        raise ConfigurationError(f"unknown {where} keys: {sorted(unknown)}")
    try:
        return RiemannState(
            rho=float(value["rho"]), v=float(value["v"]), p=float(value["p"])
        )
    except KeyError as exc:
        raise ConfigurationError(f"{where} is missing key {exc}") from None


@dataclass(frozen=True)
class ScenarioSpec:
    """One request: a small scenario plus the numerics to run it with.

    ``shock_tube`` starts from a named Marti & Muller preset (``problem``)
    with optional per-side state overrides — the knobs a parameter sweep
    varies.  ``smooth_wave`` and ``blast_wave_2d`` expose their generators'
    physical parameters directly.
    """

    kind: str = "shock_tube"
    nx: int = 128
    ny: int | None = None
    t_final: float = 0.2
    gamma: float = 5.0 / 3.0
    # shock_tube
    problem: str = "RP1"
    left: RiemannState | None = None
    right: RiemannState | None = None
    # smooth_wave
    amplitude: float = 0.2
    velocity: float = 0.5
    # blast_wave_2d
    p_in: float = 100.0
    radius: float = 0.1
    # numerics (everything else rides on SolverConfig defaults)
    reconstruction: str = "mc"
    riemann: str = "hllc"
    integrator: str = "ssprk3"
    cfl: float = 0.5
    kernel_target: str = "numpy"

    def __post_init__(self):
        object.__setattr__(self, "left", _state(self.left, "left"))
        object.__setattr__(self, "right", _state(self.right, "right"))
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown scenario kind {self.kind!r}; choose from {KINDS}"
            )
        if self.kernel_target not in KERNEL_TARGETS:
            raise ConfigurationError(
                f"unknown kernel_target {self.kernel_target!r}; "
                f"choose from {KERNEL_TARGETS}"
            )
        for field, choices in (
            ("reconstruction", tuple(SCHEMES)),
            ("riemann", tuple(sorted(SOLVERS))),
            ("integrator", tuple(sorted(INTEGRATORS))),
        ):
            if getattr(self, field) not in choices:
                raise ConfigurationError(
                    f"unknown {field} {getattr(self, field)!r}; "
                    f"choose from {choices}"
                )
        if self.nx < 8:
            raise ConfigurationError(f"nx must be >= 8, got {self.nx}")
        if self.kind == "blast_wave_2d":
            ny = self.ny if self.ny is not None else self.nx
            if ny < 8:
                raise ConfigurationError(f"ny must be >= 8, got {ny}")
        elif self.ny is not None:
            raise ConfigurationError(f"ny only applies to blast_wave_2d, got ny={self.ny}")
        if not self.t_final > 0:
            raise ConfigurationError(f"t_final must be > 0, got {self.t_final}")
        if not self.gamma > 1:
            raise ConfigurationError(f"gamma must be > 1, got {self.gamma}")
        if not 0 < self.cfl <= 1:
            raise ConfigurationError(f"cfl must be in (0, 1], got {self.cfl}")
        # Preset names are case-insensitive, like the `repro run` CLI.
        object.__setattr__(self, "problem", self.problem.upper())
        if self.kind == "shock_tube" and self.problem not in SHOCK_TUBES:
            raise ConfigurationError(
                f"unknown shock-tube problem {self.problem!r}; "
                f"choose from {tuple(SHOCK_TUBES)}"
            )

    # -- request schema -------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Validated spec from a request payload; unknown keys are errors."""
        if not isinstance(data, dict):
            raise ConfigurationError(f"scenario spec must be a dict, got {data!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown scenario keys: {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**data)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for side in ("left", "right"):
            if out[side] is not None:
                out[side] = dict(out[side])
        return out

    # -- batching -------------------------------------------------------

    def batch_key(self) -> tuple:
        """Scenarios sharing this key can run as one batched sweep.

        Everything that shapes the shared solve is in here — grid, EOS,
        numerics, end time, kernel target; the *initial data* knobs are
        deliberately excluded (they vary per scenario within a batch).
        """
        return (
            self.kind, self.nx, self.ny, self.t_final, self.gamma,
            self.reconstruction, self.riemann, self.integrator, self.cfl,
            self.kernel_target,
        )

    @property
    def ndim(self) -> int:
        return 2 if self.kind == "blast_wave_2d" else 1

    # -- construction ---------------------------------------------------

    def build_grid(self) -> Grid:
        if self.ndim == 2:
            ny = self.ny if self.ny is not None else self.nx
            return Grid((self.nx, ny), ((0.0, 1.0), (0.0, 1.0)))
        return Grid((self.nx,), ((0.0, 1.0),))

    def build_system(self) -> SRHDSystem:
        """Plain (unresolved) system; the service maps it to the requested
        kernel target through its cache."""
        return SRHDSystem(IdealGasEOS(gamma=self.gamma), ndim=self.ndim)

    def build_initial(self, system: SRHDSystem, grid: Grid) -> np.ndarray:
        if self.kind == "shock_tube":
            base = SHOCK_TUBES[self.problem]
            problem = ShockTubeProblem(
                name=base.name,
                left=self.left if self.left is not None else base.left,
                right=self.right if self.right is not None else base.right,
                gamma=self.gamma,
                t_final=self.t_final,
            )
            return shock_tube(system, grid, problem)
        if self.kind == "smooth_wave":
            return smooth_wave(
                system, grid, amplitude=self.amplitude, velocity=self.velocity
            )
        return blast_wave_2d(system, grid, p_in=self.p_in, radius=self.radius)
