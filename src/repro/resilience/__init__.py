"""Fault injection and recovery for chaos-tested runs.

Two halves, deliberately separated:

- :mod:`~repro.resilience.faults` — *what goes wrong*: a seeded, declarative
  :class:`FaultPlan` (JSON round-trip) executed by a :class:`FaultInjector`
  hooked into the con2prim pipeline and the cluster simulator, and — for
  halo messages — by the :class:`FaultOracle` a distributed driver builds
  from its plan.
- :mod:`~repro.resilience.policies` — *how the system survives*: halo retry
  with exponential backoff, bounded con2prim failsafe (configured via
  ``SolverConfig.failsafe_frac``), device blacklisting + task re-execution
  (built into the scheduler/simulator), and periodic checkpoint with
  :func:`run_with_restart`.

:mod:`~repro.resilience.chaos` ties them together into reference scenarios
the chaos test suite (and ``pytest -m chaos``) exercises end to end.
"""

from ..comm.communicator import corrupt_payload
from .chaos import default_chaos_plan, run_chaos_shocktube, run_modelled_failover
from .faults import (
    Con2PrimFault,
    DeviceFault,
    FaultInjector,
    FaultPlan,
    HaloFault,
    ProcessFault,
)
from .oracle import ExchangeSchedule, FaultOracle, RankStridedFaultInjector
from .policies import (
    HaloRetryPolicy,
    RestartPolicy,
    SupervisionPolicy,
    run_with_restart,
)

__all__ = [
    "FaultPlan",
    "HaloFault",
    "DeviceFault",
    "Con2PrimFault",
    "ProcessFault",
    "FaultInjector",
    "corrupt_payload",
    "ExchangeSchedule",
    "FaultOracle",
    "RankStridedFaultInjector",
    "HaloRetryPolicy",
    "RestartPolicy",
    "SupervisionPolicy",
    "run_with_restart",
    "default_chaos_plan",
    "run_chaos_shocktube",
    "run_modelled_failover",
]
