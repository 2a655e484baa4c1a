"""Rank-local fault oracle for the process-parallel backend.

The serial chaos path takes every fault decision inside one global
:class:`~repro.resilience.faults.FaultInjector` whose message counter
advances in the deterministic SPMD-by-phases order of
:func:`repro.comm.halo.exchange_halos`.  Worker processes cannot share
that counter — so instead every worker runs a :class:`FaultOracle`: a
dry-run replay of the *global* exchange protocol against a private
injector seeded from the same plan.  Because the replay walks the same
:func:`~repro.comm.halo.face_table` in the same post/drain shapes as the
real exchange, it visits sends and retransmissions in exactly the serial
order: every worker derives the identical fault decision sequence without
any communication, and each applies only the decisions whose sender it is.

The replay has to model just enough of the receive side to know *when*
retransmissions happen (a retransmit consumes the injector's next
message index at the point the serial receiver would have re-posted):

* each posted data message becomes delivery tokens in a virtual mailbox
  (``ok``/``corrupt``; duplicates two tokens, drops none),
* checksums (never injectable, never dropped) become per-key credits,
* :func:`_sim_recv_reliable` walks the same attempt/orphan-drain/retry
  control flow as :func:`repro.comm.halo._recv_reliable`.

The one idealisation is that a CRC32 always detects an injected
corruption (collision probability 2**-32 per message); the serial path
shares the same assumption, so the two substrates stay aligned.

:class:`RankStridedFaultInjector` covers the other injector consumer:
con2prim bursts are keyed by a global sweep counter that serially
advances in rank order within each recovery round, so a worker that
owns rank ``r`` of ``P`` sees global sweeps ``round * P + r``.
"""

from __future__ import annotations

from ..comm.halo import face_table
from .faults import FaultInjector, FaultPlan


class ExchangeSchedule:
    """Pre-decided fault attempts for one halo exchange.

    ``attempts`` maps ``(src, dest, tag)`` to the ordered list of
    ``(kind, scale)`` posts for that message slot — first the original
    send, then any retransmissions the receiver will request.  The
    sending rank pops its own keys and posts every attempt up front;
    unclaimed keys (other ranks' sends) are simply dropped.
    """

    def __init__(self):
        self.attempts: dict[tuple[int, int, int], list[tuple[str | None, float]]] = {}

    def add(self, src: int, dest: int, tag: int,
            kind: str | None, scale: float) -> None:
        self.attempts.setdefault((src, dest, tag), []).append((kind, scale))

    def pop_attempts(self, src: int, dest: int, tag: int):
        return self.attempts.pop((src, dest, tag), [(None, 0.0)])


class FaultOracle:
    """Replays the serial fault-decision sequence for one exchange at a time.

    Every rank constructs an identical oracle (same plan, decomposition,
    and retry policy) and calls :meth:`next_exchange` once per halo
    exchange, in the same order the serial solver would perform them.
    """

    def __init__(self, plan: FaultPlan, decomp, policy=None):
        self._inj = FaultInjector(plan)  # metrics-less: pure decisions
        self._decomp = decomp
        self._policy = policy
        #: virtual mailboxes: (src, dest, tag) -> delivery tokens
        self._box: dict[tuple[int, int, int], list[str]] = {}
        #: per-key count of checksum messages in flight
        self._crc: dict[tuple[int, int, int], int] = {}

    def next_exchange(self, overlapped: bool = False) -> ExchangeSchedule:
        """Decide every fault of the next halo exchange (global replay).

        Walks the decomposition's face table in the exchange's own two
        shapes: per axis post then drain (blocking), or post every axis
        then drain every axis (overlapped).
        """
        sched = ExchangeSchedule()
        self._inj.begin_exchange()
        axes = face_table(self._decomp).axes
        if overlapped:
            for faces in axes:
                self._sim_post_axis(sched, faces)
            for faces in axes:
                self._sim_drain_axis(sched, faces)
        else:
            for faces in axes:
                self._sim_post_axis(sched, faces)
                self._sim_drain_axis(sched, faces)
        if self._policy is not None:
            # Serial discard_pending(): stale tokens never cross exchanges.
            self._box.clear()
            self._crc.clear()
        return sched

    def rewind(self, calls: list[bool]) -> None:
        """Reset to plan start, then fast-forward through *calls*.

        *calls* is the ordered list of ``overlapped`` flags of every
        :meth:`next_exchange` already consumed up to a step boundary (as
        recorded by the worker's supervision snapshot).  Replaying them
        against a fresh injector reproduces the exact internal state —
        message counters, repeat bookkeeping, RNG stream, virtual
        mailboxes — so a rank restored after a failure keeps deriving the
        identical fault decisions the serial run would.
        """
        self._inj = FaultInjector(self._inj.plan)
        self._box = {}
        self._crc = {}
        for overlapped in calls:
            self.next_exchange(overlapped=overlapped)

    # -- protocol replay -------------------------------------------------
    def _sim_post_axis(self, sched, faces) -> None:
        for face in faces:
            self._sim_post(sched, (face.rank, face.nbr, face.send_tag))

    def _sim_drain_axis(self, sched, faces) -> None:
        for face in faces:
            key = (face.nbr, face.rank, face.recv_tag)
            if self._policy is not None:
                self._sim_recv_reliable(sched, key)
            else:
                box = self._box.get(key)
                if box:
                    box.pop(0)

    def _sim_post(self, sched, key: tuple[int, int, int]) -> None:
        """Decide and deliver one ``(src, dest, tag)`` data message (plus
        its checksum credit under a retry policy)."""
        kind, scale = self._inj.decide(*key)
        sched.add(*key, kind, scale)
        if kind == "drop":
            tokens = []
        elif kind == "duplicate":
            tokens = ["ok", "ok"]
        elif kind == "corrupt":
            tokens = ["corrupt"]
        else:
            tokens = ["ok"]
        if tokens:
            self._box.setdefault(key, []).extend(tokens)
        if self._policy is not None:
            self._crc[key] = self._crc.get(key, 0) + 1

    def _sim_recv_reliable(self, sched, key: tuple[int, int, int]) -> None:
        """Mirror of halo._recv_reliable over the virtual mailboxes."""
        policy = self._policy
        for attempt in range(policy.max_attempts):
            token = None
            box = self._box.get(key)
            if box:
                token = box.pop(0)
            else:
                # data lost: the receiver drains the orphaned checksum
                if self._crc.get(key, 0) > 0:
                    self._crc[key] -= 1
            if token is not None:
                have_crc = self._crc.get(key, 0) > 0
                if have_crc:
                    self._crc[key] -= 1
                if have_crc and token == "ok":
                    return
            if attempt == policy.max_attempts - 1:
                return  # budget exhausted; the real receiver raises
            # The retransmission consumes the injector's next message
            # index exactly where the serial receiver would re-post: the
            # mirrored face's strip travels under this very key.
            self._sim_post(sched, key)


class RankStridedFaultInjector(FaultInjector):
    """Worker-side injector that maps local sweeps to global sweep indices.

    The serial solver recovers primitives rank-by-rank inside each
    round, so the global con2prim sweep counter advances as
    ``round * size + rank``.  A worker owns one rank and performs one
    local sweep per round; striding its counter reproduces exactly the
    serial keying of :class:`Con2PrimFault` entries.

    Only the con2prim hook is used in workers — halo faults flow through
    the :class:`FaultOracle` schedule instead, so this injector is never
    attached to a communicator.
    """

    def __init__(self, plan: FaultPlan, rank: int, size: int, metrics=None):
        super().__init__(plan, metrics=metrics)
        self._rank = int(rank)
        self._size = int(size)

    def con2prim_burst(self, n_cells: int) -> int:
        self._sweep += 1
        fault = self._con2prim_by_sweep.get(self._sweep * self._size + self._rank)
        if fault is None:
            return 0
        n = min(fault.n_cells, n_cells)
        self._count("resilience.fault.con2prim_burst")
        return n
