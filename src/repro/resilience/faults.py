"""Deterministic, seeded fault injection for chaos testing.

A :class:`FaultPlan` is a declarative description of every fault a run must
survive — dropped/duplicated/corrupted halo messages, devices that die or
slow down mid-timeline, and forced con2prim non-convergence bursts.  Plans
are plain data (JSON round-trip) and seeded, so the same plan always yields
the same fault sequence: chaos runs are reproducible experiments, not
flaky ones.

A :class:`FaultInjector` executes a plan.  It is handed to the drivers and
layers it targets (:class:`~repro.core.distributed.DistributedSolver`,
:class:`~repro.core.pipeline.HydroPipeline`,
:class:`~repro.runtime.simulator.ClusterSimulator`) and consulted at each
injection point; every injected fault is counted through the shared
:class:`~repro.obs.metrics.MetricsRegistry` under ``resilience.fault.*``.
Halo faults are decided by the :class:`~repro.resilience.oracle.FaultOracle`
a distributed driver builds from the injector's plan, on every executor.

Fault addressing
----------------
Halo faults are keyed by ``(exchange, message)``: the exchange index counts
the driver's halo exchanges, and the message index counts data sends
*within* that exchange (checksums are never faulted) — including
retransmissions, which is what makes ``times > 1`` (hit the retry too)
meaningful.  Con2prim faults are keyed by the global sweep index (one
sweep per :meth:`HydroPipeline.recover_primitives` call).
Device faults are keyed by device name and simulated time.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass, field

import numpy as np

from ..utils.errors import ConfigurationError

HALO_FAULT_KINDS = ("drop", "duplicate", "corrupt")
DEVICE_FAULT_KINDS = ("fail", "straggle")
PROCESS_FAULT_KINDS = ("kill_rank", "hang_rank")


@dataclass(frozen=True)
class HaloFault:
    """One fault on a halo message.

    Attributes
    ----------
    kind:
        ``"drop"`` (message lost), ``"duplicate"`` (delivered twice), or
        ``"corrupt"`` (payload perturbed in flight).
    exchange:
        Index of the halo exchange the fault strikes (0-based).
    message:
        Index of the data send within that exchange.
    times:
        How many consecutive sends of the *same* (src, dest, tag) message
        to affect — ``times > max_attempts`` exhausts the retry budget.
    scale:
        Corruption amplitude (``corrupt`` only).
    """

    kind: str
    exchange: int
    message: int
    times: int = 1
    scale: float = 10.0

    def __post_init__(self):
        if self.kind not in HALO_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown halo fault kind {self.kind!r}; "
                f"choose from {HALO_FAULT_KINDS}"
            )
        if self.times < 1:
            raise ConfigurationError(f"halo fault times must be >= 1, got {self.times}")


@dataclass(frozen=True)
class DeviceFault:
    """A device that fails or slows down at a simulated time.

    Attributes
    ----------
    device:
        Device name in the simulated cluster.
    kind:
        ``"fail"`` (device dies; in-flight work is lost and re-executed) or
        ``"straggle"`` (tasks starting after *at_s* run *factor* x slower).
    at_s:
        Onset time in simulated seconds.
    factor:
        Slowdown multiplier (``straggle`` only).
    """

    device: str
    kind: str
    at_s: float
    factor: float = 4.0

    def __post_init__(self):
        if self.kind not in DEVICE_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown device fault kind {self.kind!r}; "
                f"choose from {DEVICE_FAULT_KINDS}"
            )
        if self.at_s < 0:
            raise ConfigurationError(f"device fault at_s must be >= 0, got {self.at_s}")
        if self.kind == "straggle" and self.factor <= 1:
            raise ConfigurationError(
                f"straggler factor must be > 1, got {self.factor}"
            )


@dataclass(frozen=True)
class Con2PrimFault:
    """Force *n_cells* of one recovery sweep to be treated as unrecoverable."""

    sweep: int
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 1:
            raise ConfigurationError(
                f"con2prim fault n_cells must be >= 1, got {self.n_cells}"
            )


@dataclass(frozen=True)
class ProcessFault:
    """Kill or wedge one real rank process of a supervised run.

    Injected by the *parent* of the process executor (the targeted worker
    cannot cooperate — that is the point): ``kill_rank`` delivers SIGKILL,
    ``hang_rank`` delivers SIGSTOP, right after the ``step`` command for
    the addressed step is issued, so the fault lands mid-step.

    Attributes
    ----------
    kind:
        ``"kill_rank"`` (process dies instantly) or ``"hang_rank"``
        (process freezes; detected via heartbeat staleness).
    rank:
        The rank process to target.
    step:
        1-based step index during which the fault strikes.
    """

    kind: str
    rank: int
    step: int = 1

    def __post_init__(self):
        if self.kind not in PROCESS_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown process fault kind {self.kind!r}; "
                f"choose from {PROCESS_FAULT_KINDS}"
            )
        if self.rank < 0:
            raise ConfigurationError(
                f"process fault rank must be >= 0, got {self.rank}"
            )
        if self.step < 1:
            raise ConfigurationError(
                f"process fault step must be >= 1, got {self.step}"
            )


@dataclass
class FaultPlan:
    """A complete, seeded fault schedule for one chaos run.

    ``halo_random`` adds Bernoulli faults on top of the deterministic list:
    ``{"p_drop": 0.01, "p_duplicate": 0.0, "p_corrupt": 0.0}`` — draws come
    from a generator seeded with ``seed``, so the sequence is still fully
    reproducible.
    """

    seed: int = 0
    halo: list[HaloFault] = field(default_factory=list)
    devices: list[DeviceFault] = field(default_factory=list)
    con2prim: list[Con2PrimFault] = field(default_factory=list)
    halo_random: dict[str, float] = field(default_factory=dict)
    processes: list[ProcessFault] = field(default_factory=list)

    def __post_init__(self):
        known = {"p_drop", "p_duplicate", "p_corrupt"}
        bad = set(self.halo_random) - known
        if bad:
            raise ConfigurationError(
                f"unknown halo_random keys {sorted(bad)}; choose from {sorted(known)}"
            )
        names = [d.device for d in self.devices]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate device fault targets: {names}")

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "halo": [asdict(f) for f in self.halo],
            "devices": [asdict(f) for f in self.devices],
            "con2prim": [asdict(f) for f in self.con2prim],
            "halo_random": dict(self.halo_random),
            "processes": [asdict(f) for f in self.processes],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        unknown = set(data) - {
            "seed", "halo", "devices", "con2prim", "halo_random", "processes"
        }
        if unknown:
            raise ConfigurationError(f"unknown fault plan keys {sorted(unknown)}")
        return cls(
            seed=int(data.get("seed", 0)),
            halo=[HaloFault(**f) for f in data.get("halo", [])],
            devices=[DeviceFault(**f) for f in data.get("devices", [])],
            con2prim=[Con2PrimFault(**f) for f in data.get("con2prim", [])],
            halo_random=dict(data.get("halo_random", {})),
            processes=[ProcessFault(**f) for f in data.get("processes", [])],
        )

    def save(self, path) -> None:
        pathlib.Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "FaultPlan":
        try:
            data = json.loads(pathlib.Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read fault plan {path}: {exc}") from exc
        return cls.from_dict(data)


class FaultInjector:
    """Stateful executor of a :class:`FaultPlan`.

    One injector serves one run: it keeps the exchange/message/sweep
    counters that address the plan's faults, so reusing an injector across
    runs would misplace them — build a fresh one per run (cheap).

    The ``metrics`` registry is optional and usually bound lazily by the
    first component that adopts the injector (solver pipeline, distributed
    solver, or cluster simulator), so all ``resilience.fault.*`` counters
    land in that component's registry.
    """

    def __init__(self, plan: FaultPlan, metrics=None):
        self.plan = plan
        self.metrics = metrics
        self._rng = np.random.default_rng(plan.seed)
        self._exchange = -1  # becomes 0 on the first begin_exchange()
        self._message = 0
        self._sweep = -1
        #: (src, dest, tag) -> (kind, remaining, scale) for times > 1 faults
        self._repeat: dict[tuple[int, int, int], tuple[str, int, float]] = {}
        self._halo_by_key = {(f.exchange, f.message): f for f in plan.halo}
        self._con2prim_by_sweep = {f.sweep: f for f in plan.con2prim}
        self._fail_time = {
            f.device: f.at_s for f in plan.devices if f.kind == "fail"
        }
        self._straggle = {
            f.device: (f.at_s, f.factor)
            for f in plan.devices
            if f.kind == "straggle"
        }

    # -- accounting ----------------------------------------------------------

    def _count(self, name: str, amount: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def state(self) -> dict:
        """Everything that addresses the plan's next fault: the exchange,
        message and sweep counters, the repeat table and the RNG position
        (picklable; see :meth:`restore`)."""
        return {
            "exchange": self._exchange, "message": self._message,
            "sweep": self._sweep, "repeat": dict(self._repeat),
            "rng": self._rng.bit_generator.state,
        }

    def restore(self, state: dict) -> None:
        """Resume at a :meth:`state`: the same faults strike next."""
        self._exchange = state["exchange"]
        self._message = state["message"]
        self._sweep = state["sweep"]
        self._repeat = dict(state["repeat"])
        self._rng.bit_generator.state = state["rng"]

    # -- halo messages -------------------------------------------------------

    def begin_exchange(self) -> int:
        """Start a new halo exchange; returns its index."""
        self._exchange += 1
        self._message = 0
        return self._exchange

    def decide(self, src: int, dest: int, tag: int) -> tuple[str | None, float]:
        """Advance the message counter and decide one message's fate.

        Returns ``(kind, scale)`` with kind in ``HALO_FAULT_KINDS`` or
        ``None`` for clean delivery.  Pure plan/seed state transition —
        no metrics are recorded: the fault oracle replays the exchange
        protocol through it, and the halo layer counts what is posted.
        """
        msg_idx = self._message
        self._message += 1
        key = (src, dest, tag)

        kind, scale = None, 0.0
        pending = self._repeat.get(key)
        if pending is not None:
            kind, remaining, scale = pending
            if remaining > 1:
                self._repeat[key] = (kind, remaining - 1, scale)
            else:
                del self._repeat[key]
        else:
            fault = self._halo_by_key.get((self._exchange, msg_idx))
            if fault is not None:
                kind, scale = fault.kind, fault.scale
                if fault.times > 1:
                    self._repeat[key] = (kind, fault.times - 1, scale)
            elif self.plan.halo_random:
                rates = self.plan.halo_random
                draw = self._rng.random()
                acc = 0.0
                for name in ("drop", "duplicate", "corrupt"):
                    acc += rates.get(f"p_{name}", 0.0)
                    if draw < acc:
                        kind, scale = name, 10.0
                        break
        return kind, scale

    # -- con2prim ------------------------------------------------------------

    def con2prim_burst(self, n_cells: int) -> int:
        """Cells of the next recovery sweep to force unrecoverable (0 = none)."""
        self._sweep += 1
        fault = self._con2prim_by_sweep.get(self._sweep)
        if fault is None:
            return 0
        n = min(fault.n_cells, n_cells)
        self._count("resilience.fault.con2prim_burst")
        return n

    @staticmethod
    def burst_indices(n: int, n_cells: int) -> np.ndarray:
        """Deterministic, evenly spread flat cell indices for a burst."""
        return np.unique(np.linspace(0, n_cells - 1, n).astype(np.intp))

    # -- devices -------------------------------------------------------------

    def fail_time(self, device: str) -> float | None:
        """Simulated time at which *device* dies, or None if it survives."""
        return self._fail_time.get(device)

    def straggle_factor(self, device: str, start: float) -> float:
        """Slowdown multiplier for a task starting at *start* on *device*."""
        onset = self._straggle.get(device)
        if onset is None or start < onset[0]:
            return 1.0
        return onset[1]
