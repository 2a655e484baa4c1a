"""The fault oracle: the one place a halo fault is decided.

Every halo exchange — in-process or in a worker process — takes its
:class:`~repro.comm.halo.ExchangeSchedule` from a :class:`FaultOracle`,
and each sender posts the attempts it was dealt.  The oracle is a dry run
of the *global* exchange protocol against a private
:class:`~repro.resilience.faults.FaultInjector` seeded from the plan.
Because the replay walks the same :func:`~repro.comm.halo.face_table` in
the same post/drain shapes as the real exchange, it visits sends and
retransmissions in one fixed order: every worker derives the identical
decision sequence without any communication, and the in-process rank loop
derives the same one.

The replay has to model just enough of the receive side to know *when*
retransmissions happen (a retransmit consumes the injector's next
message index at the point the receiver requests it):

* each posted data message becomes delivery tokens in a virtual mailbox
  (``ok``/``corrupt``; duplicates two tokens, drops none),
* checksums (never faulted, never dropped) become per-key credits,
* :meth:`FaultOracle._sim_recv_reliable` walks the same
  attempt/orphan-drain/retry control flow as
  :func:`repro.comm.halo._recv_reliable`.

The one idealisation is that a CRC32 always detects an injected
corruption (collision probability 2**-32 per message).

:class:`RankStridedFaultInjector` covers the other injector consumer:
con2prim bursts are keyed by a global sweep counter that in-process
advances in rank order within each recovery round, so a worker that owns
rank ``r`` of ``P`` sees global sweeps ``round * P + r``.
"""

from __future__ import annotations

from ..comm.halo import ExchangeSchedule, face_table
from .faults import FaultInjector, FaultPlan

#: what a message of each fate leaves in the receiver's mailbox
_TOKENS = {None: ("ok",), "drop": (), "duplicate": ("ok", "ok"), "corrupt": ("corrupt",)}


class FaultOracle:
    """Decides the faults of one halo exchange at a time.

    Every stepper constructs an identical oracle (same plan, decomposition,
    and retry policy) and calls :meth:`next_exchange` once per halo
    exchange, in the one global exchange order.
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
            # discard_pending(): stale tokens never cross exchanges.
            self._box.clear()
            self._crc.clear()
        return sched

    def state(self) -> dict:
        """The decision position — the injector's :meth:`~FaultInjector.state`
        and the virtual mailboxes — at an exchange boundary: bounded by the
        face count, however many exchanges came before."""
        return {
            "injector": self._inj.state(),
            "box": {key: list(tokens) for key, tokens in self._box.items()},
            "crc": dict(self._crc),
        }

    def restore(self, state: dict) -> None:
        """Resume at a :meth:`state`: the next schedules are the ones an
        uninterrupted oracle would decide."""
        self._inj.restore(state["injector"])
        self._box = {key: list(tokens) for key, tokens in state["box"].items()}
        self._crc = dict(state["crc"])

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
        sched.add(*key, None if kind is None else (kind, scale))
        self._box.setdefault(key, []).extend(_TOKENS[kind])
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
            # index exactly where the receiver requests it: the mirrored
            # face's strip travels under this very key.
            self._sim_post(sched, key)


class RankStridedFaultInjector(FaultInjector):
    """Worker-side injector that maps local sweeps to global sweep indices.

    The in-process rank loop recovers primitives rank-by-rank inside each
    round, so the global con2prim sweep counter advances as
    ``round * size + rank``.  A worker owns one rank and performs one
    local sweep per round; striding its counter reproduces exactly the
    in-process keying of :class:`Con2PrimFault` entries.  Only its
    con2prim hook is consulted; halo faults are the :class:`FaultOracle`'s.
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
