"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single handler while still
distinguishing physics failures (e.g. primitive recovery) from configuration
mistakes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """Invalid solver, mesh, or runtime configuration."""


class RecoveryError(ReproError):
    """Conservative-to-primitive inversion failed for one or more cells.

    Attributes
    ----------
    n_failed:
        Number of cells for which recovery did not converge.
    indices:
        Flat indices of the failed cells (may be truncated for huge grids).
    """

    def __init__(self, message: str, n_failed: int = 0, indices=None):
        super().__init__(message)
        self.n_failed = n_failed
        self.indices = indices


class NumericsError(ReproError):
    """Numerically invalid state detected mid-run (non-finite dt, NaN/Inf
    conserved fields) — raised by the solver guards so corruption is caught
    at the step that produced it instead of propagating silently."""


class EOSError(ReproError):
    """Equation-of-state evaluation outside its domain of validity."""


class MeshError(ReproError):
    """Inconsistent mesh, block, or AMR hierarchy state."""


class SchedulerError(ReproError):
    """Task scheduling failure in the simulated heterogeneous runtime."""


class CommunicationError(ReproError):
    """Simulated communicator misuse (bad rank, mismatched message, ...)."""


class WorkerError(ReproError):
    """A process-backend worker failed or died; the message names the rank."""


class BlockMigrationError(CommunicationError):
    """An AMR block message arrived torn or corrupt (a migration frame's bad
    header or wrong block address, or a migrated block, merge quarter,
    ghost import or reflux column of the wrong shape).  Raised *before* any
    forest state, ghost or ``dU`` is written, so a failed exchange cannot
    corrupt the receiver."""


class SupervisionExhausted(WorkerError):
    """The supervised process executor ran out of rank-restart budget.

    Attributes
    ----------
    snapshot:
        The last consistent parent-held supervision snapshot (or ``None``),
        from which the run can be folded down to the serial
        ``DistributedSolver`` when graceful degradation is enabled.
    """

    def __init__(self, message: str, snapshot=None):
        super().__init__(message)
        self.snapshot = snapshot


class CheckpointError(ReproError):
    """A checkpoint archive is unreadable (truncated, torn, or corrupt)."""


class CodegenError(ReproError):
    """Kernel generation or verification failure."""


class AdmissionError(ReproError):
    """The batch service refused a request (admission queue at capacity)."""
