"""Recovery policies: halo retry with exponential backoff, auto-restart.

The counterpart of :mod:`repro.resilience.faults` — faults describe what
goes wrong, policies describe how the system survives it.  The policies are
deliberately small value objects so the layers that apply them (halo
exchange, solver run loops) stay testable without a chaos harness.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from ..utils.errors import ConfigurationError, ReproError
from ..utils.logging import get_logger

_log = get_logger("resilience")


@dataclass(frozen=True)
class HaloRetryPolicy:
    """Retry budget for one halo message.

    ``max_attempts`` counts the first delivery too, so ``max_attempts=4``
    allows three retransmissions before
    :class:`~repro.utils.errors.CommunicationError` is raised.  Backoff is
    exponential (``base * 2**retry``) and capped, and only *recorded*: the
    communicators retransmit at once, with no wire to wait on.
    """

    max_attempts: int = 4
    backoff_base_s: float = 1e-4
    backoff_cap_s: float = 0.1

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ConfigurationError("backoff times must be >= 0")

    def backoff_s(self, retry: int) -> float:
        """Backoff before the *retry*-th retransmission (0-based)."""
        return min(self.backoff_base_s * (2.0**retry), self.backoff_cap_s)

    def wait(self, retry: int) -> float:
        """The backoff recorded for one retry."""
        return self.backoff_s(retry)


@dataclass(frozen=True)
class RestartPolicy:
    """Periodic checkpointing plus a bounded auto-restart budget."""

    checkpoint_path: str | os.PathLike
    checkpoint_every: int = 10
    max_restarts: int = 3

    def __post_init__(self):
        if self.checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )


@dataclass(frozen=True)
class SupervisionPolicy:
    """In-run rank supervision knobs for the process executor.

    Governs the supervision layer of
    :class:`~repro.core.parallel.ProcessSolver`: how failures are
    detected (heartbeat staleness vs ``hang_timeout_s`` for hangs,
    ``is_alive()``/pipe EOF for crashes), how often the parent captures a
    consistent in-memory snapshot of every rank (``snapshot_every``, in
    steps — the rollback point of in-run recovery), how many rank
    respawns the run may spend (``max_rank_restarts``, with exponential
    backoff between recovery rounds), and what happens when the budget
    runs out: raise :class:`~repro.utils.errors.SupervisionExhausted`, or
    — with ``degrade=True`` — fold the run down to the serial
    ``DistributedSolver`` from the last snapshot and finish there.
    """

    max_rank_restarts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    heartbeat_interval_s: float = 0.25
    hang_timeout_s: float = 30.0
    quiesce_timeout_s: float = 30.0
    snapshot_every: int = 1
    degrade: bool = False

    def __post_init__(self):
        if self.max_rank_restarts < 0:
            raise ConfigurationError(
                f"max_rank_restarts must be >= 0, got {self.max_rank_restarts}"
            )
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ConfigurationError("backoff times must be >= 0")
        if self.heartbeat_interval_s <= 0:
            raise ConfigurationError(
                f"heartbeat_interval_s must be > 0, got {self.heartbeat_interval_s}"
            )
        if self.hang_timeout_s <= 0:
            raise ConfigurationError(
                f"hang_timeout_s must be > 0, got {self.hang_timeout_s}"
            )
        if self.quiesce_timeout_s <= 0:
            raise ConfigurationError(
                f"quiesce_timeout_s must be > 0, got {self.quiesce_timeout_s}"
            )
        if self.snapshot_every < 1:
            raise ConfigurationError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )


def run_with_restart(
    solver,
    t_final: float,
    policy: RestartPolicy,
    loader: Callable[[str | os.PathLike], object],
    metrics=None,
    max_steps: int | None = None,
):
    """Drive ``solver.run`` to *t_final*, auto-restarting from checkpoints.

    The solver checkpoints every ``policy.checkpoint_every`` steps to
    ``policy.checkpoint_path``.  When the run dies with a
    :class:`~repro.utils.errors.ReproError` (non-convergence past the
    failsafe budget, exhausted communication retries, injected chaos, ...),
    the last checkpoint is reloaded via ``loader(path)`` and the run
    continues — up to ``policy.max_restarts`` times, after which the error
    propagates.  Restart is bit-exact: the checkpoint carries the con2prim
    warm-start cache, so a recovered trajectory is identical to one that
    never crashed.

    Returns ``(solver, n_restarts)``; the returned solver is the restored
    instance when any restart happened.

    Restarts are counted on *metrics* (``resilience.restarts``) when given,
    falling back to the solver's own registry if it has one — note the
    solver registry is rebuilt by *loader*, so pass an external registry
    when counters must survive the restart.
    """
    restarts = 0
    while True:
        try:
            solver.run(
                t_final,
                max_steps=max_steps,
                checkpoint_every=policy.checkpoint_every,
                checkpoint_path=policy.checkpoint_path,
            )
            return solver, restarts
        except ReproError as exc:
            if restarts >= policy.max_restarts or not os.path.exists(
                policy.checkpoint_path
            ):
                raise
            restarts += 1
            registry = metrics if metrics is not None else getattr(
                solver, "metrics", None
            )
            if registry is not None:
                registry.counter("resilience.restarts").inc()
            _log.warning(
                "run failed at t=%g (%s); restart %d/%d from %s",
                getattr(solver, "t", float("nan")),
                exc,
                restarts,
                policy.max_restarts,
                policy.checkpoint_path,
            )
            solver = loader(policy.checkpoint_path)
