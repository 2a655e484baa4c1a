"""In-process simulated MPI communicator.

Substitutes for MPI on this single-process substrate: ranks exchange NumPy
arrays through in-memory mailboxes with mpi4py-like semantics (tagged
point-to-point, allreduce), while a :class:`TrafficLog` records every
message so the Hockney model can convert the pattern into simulated wire
time for the scaling experiments.  A halo exchange hands over one
:class:`PackedStrips` per axis instead of one call per strip: the messages
of a packed buffer, logged one by one from precomputed totals.

The execution model is SPMD-by-phases: the driver iterates ranks, posting
sends first, then draining receives — deterministic, deadlock-free for the
halo-exchange patterns used here.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..utils.errors import CommunicationError
from .costs import LinkModel

#: the mailbox entry standing in for a dropped message: receiving it
#: raises, and ``pending`` skips it
_TOMBSTONE = None


def corrupt_payload(payload: np.ndarray, scale: float) -> np.ndarray:
    """The canonical in-flight corruption: perturb ~4 evenly spread entries.

    Shared by both communicators so a corrupted strip is bit-identical on
    both substrates.
    """
    corrupted = np.array(payload, copy=True)
    flat = corrupted.reshape(-1)
    stride = max(1, flat.size // 4)
    flat[::stride] += scale * (1.0 + np.abs(flat[::stride]))
    return corrupted


def fill_slot(buf: np.ndarray, lo: int, hi: int, payload, src: int, dest: int, tag: int) -> None:
    """``buf[lo:hi] = payload`` for the message ``(src, dest, tag)``; a
    payload of another size than its slot (which numpy would broadcast, or
    refuse with a bare ``ValueError``) raises :class:`CommunicationError`."""
    if np.size(payload) != hi - lo:
        raise CommunicationError(
            f"message src={src} dest={dest} tag={tag} holds {np.size(payload)} "
            f"values, its slot {hi - lo}"
        )
    buf[lo:hi] = payload


@dataclass
class TrafficLog:
    """Per-communicator accounting of simulated message traffic."""

    n_messages: int = 0
    n_bytes: int = 0
    n_collectives: int = 0
    by_pair: dict = field(default_factory=lambda: defaultdict(int))

    def record(self, src: int, dest: int, n_bytes: int) -> None:
        self.n_messages += 1
        self.n_bytes += n_bytes
        self.by_pair[(src, dest)] += n_bytes

    def record_packed(self, strips: "PackedStrips") -> None:
        """Log every message *strips* posts, from its precomputed totals."""
        self.n_messages += len(strips.sends)
        self.n_bytes += strips.n_bytes
        for pair, n_bytes in strips.by_pair:
            self.by_pair[pair] += n_bytes

    def point_to_point_time(self, link: LinkModel) -> float:
        """Total serialized wire time, one aggregated message per rank pair."""
        return sum(link.transfer_time(b) for b in self.by_pair.values())


class PackedStrips(NamedTuple):
    """The messages of one packed buffer, as a communicator moves them.

    A message is ``(src, dest, tag, lo, hi)``: its payload is the slot
    ``buf[lo:hi]`` of the caller's buffer.  *sends* are posted from the
    buffer and *recvs* received into it; the traffic of *sends* is summed
    once, here, so logging a packed post costs no work per message.
    """

    sends: tuple
    recvs: tuple
    itemsize: int
    #: the same messages in the same slots: every receiver is also the
    #: poster's buffer (all ranks in one process), so nothing moves
    loopback: bool
    n_bytes: int
    #: ``((src, dest), bytes)`` summed per rank pair
    by_pair: tuple

    @classmethod
    def of(cls, sends, recvs, itemsize: int) -> "PackedStrips":
        by_pair: dict = {}
        for src, dest, _, lo, hi in sends:
            by_pair[src, dest] = by_pair.get((src, dest), 0) + (hi - lo) * itemsize
        return cls(
            tuple(sends), tuple(recvs), itemsize, set(sends) == set(recvs),
            sum(by_pair.values()), tuple(by_pair.items()),
        )

    def without(self, keys) -> "PackedStrips":
        """These messages but those whose ``(src, dest, tag)`` is in *keys*."""
        return PackedStrips.of(
            [m for m in self.sends if m[:3] not in keys],
            [m for m in self.recvs if m[:3] not in keys],
            self.itemsize,
        )


class SimCommunicator:
    """Simulated communicator over *size* ranks.

    Point-to-point messages are buffered per ``(src, dest, tag)``; receives
    pop in FIFO order. ``allreduce`` acts on a dict of per-rank
    contributions (the SPMD driver supplies all of them at once).

    A send may carry a pre-decided *fault* (the
    :class:`~repro.resilience.oracle.FaultOracle`'s, through the halo
    layer) — the same ``send`` surface as
    :class:`~repro.comm.shm.ShmCommunicator`.  Traffic is logged for every
    send regardless: the wire time was spent whether or not the message
    arrived.

    A halo axis moves as one :class:`PackedStrips` (:meth:`post_packed` /
    :meth:`recv_packed`, the same pair on both communicators).  With every
    rank in this process the packed buffer *is* the delivery: a post logs
    its messages and a receive leaves the buffer as it is — unless a
    message is queued behind an undelivered one of its ``(src, dest,
    tag)`` (a duplicate no retry policy purged), which it then takes the
    place of, as a ``recv`` would.  A packed message no receiver in the
    buffer expects goes through the mailboxes.
    """

    _REDUCTIONS = {
        "sum": np.sum,
        "max": np.max,
        "min": np.min,
    }

    def __init__(self, size: int):
        if size < 1:
            raise CommunicationError(f"communicator size must be >= 1, got {size}")
        self.size = size
        self._mailboxes: dict[tuple[int, int, int], deque] = defaultdict(deque)
        self.traffic = TrafficLog()

    def _check_rank(self, rank: int, what: str = "rank") -> None:
        if not 0 <= rank < self.size:
            raise CommunicationError(f"{what} {rank} out of range [0, {self.size})")

    # -- point to point ------------------------------------------------------

    def send(
        self, src: int, dest: int, data: np.ndarray, tag: int = 0, fault=None,
    ) -> None:
        """Post a message; a copy is buffered (MPI value semantics).

        *fault* is ``None`` or a ``(kind, scale)`` fate: ``"drop"`` buffers
        a tombstone in the message's place (its receive raises the
        missing-message error, so a dropped attempt costs the receiver one
        try), ``"duplicate"`` buffers the message twice and ``"corrupt"``
        buffers :func:`corrupt_payload` of it.
        """
        self._check_rank(src, "source")
        self._check_rank(dest, "destination")
        payload = np.array(data, copy=True)
        self.traffic.record(src, dest, payload.nbytes)
        box = self._mailboxes[(src, dest, tag)]
        if fault is None:
            box.append(payload)
        elif fault[0] == "drop":
            box.append(_TOMBSTONE)
        elif fault[0] == "corrupt":
            box.append(corrupt_payload(payload, fault[1]))
        else:  # duplicate
            box.extend((payload, payload))

    def recv(self, src: int, dest: int, tag: int = 0) -> np.ndarray:
        """Pop the oldest matching message; raises if none is pending (or
        the oldest was dropped)."""
        self._check_rank(src, "source")
        self._check_rank(dest, "destination")
        key = (src, dest, tag)
        box = self._mailboxes.get(key)
        payload = box.popleft() if box else _TOMBSTONE
        if box is not None and not box:
            # Only non-empty mailboxes are kept: recv_packed's no-backlog
            # test is then one truth test of the dict.
            del self._mailboxes[key]
        if payload is _TOMBSTONE:
            raise CommunicationError(
                f"no pending message src={src} dest={dest} tag={tag}"
            )
        return payload

    def post_packed(self, strips: PackedStrips, buf: np.ndarray) -> None:
        """Post every message of ``strips.sends`` from its slot of *buf*.

        The gather that packed *buf* is the copy MPI value semantics need;
        the caller does not touch *buf* again until :meth:`recv_packed`.
        """
        self.traffic.record_packed(strips)
        if not strips.loopback:
            for src, dest, tag, lo, hi in strips.sends:
                self._mailboxes[(src, dest, tag)].append(buf[lo:hi].copy())

    def recv_packed(self, strips: PackedStrips, buf: np.ndarray) -> None:
        """Receive every message of ``strips.recvs`` into its slot of *buf*."""
        if strips.loopback and not self._mailboxes:
            return
        for src, dest, tag, lo, hi in strips.recvs:
            if strips.loopback:
                box = self._mailboxes.get((src, dest, tag))
                if not box:
                    continue
                box.append(buf[lo:hi].copy())
            fill_slot(buf, lo, hi, self.recv(src, dest, tag), src, dest, tag)

    def begin_exchange_epoch(self) -> None:
        """No-op: in-process mailboxes hold no stale epochs (the shm
        communicator's epochs tell its halo records apart)."""

    def traffic_marker(self) -> tuple[int, int, int]:
        """Opaque snapshot of the traffic log (bytes, messages, collectives).

        Pair with :meth:`bytes_since`/:meth:`messages_since` to attribute
        wire traffic to a region of code (e.g. halo retransmissions) without
        resetting the shared log.
        """
        log = self.traffic
        return (log.n_bytes, log.n_messages, log.n_collectives)

    def bytes_since(self, marker: tuple[int, int, int]) -> int:
        """Bytes sent since *marker* was taken."""
        return self.traffic.n_bytes - marker[0]

    def messages_since(self, marker: tuple[int, int, int]) -> int:
        """Point-to-point messages sent since *marker* was taken."""
        return self.traffic.n_messages - marker[1]

    def pending(self) -> int:
        """Number of messages posted but not yet received (tombstones are
        no messages)."""
        return sum(
            p is not _TOMBSTONE for box in self._mailboxes.values() for p in box
        )

    def discard_pending(self) -> int:
        """Drop every undelivered message; returns how many were discarded.

        The resilient halo exchange calls this after a completed exchange so
        stale duplicates (injected or retransmission leftovers) can never be
        mistaken for the next step's data.
        """
        n = self.pending()
        self._mailboxes.clear()
        return n

    # -- collectives -----------------------------------------------------------

    def allreduce(self, contributions: dict[int, np.ndarray | float], op: str = "sum"):
        """Reduce per-rank contributions; every rank gets the result."""
        if set(contributions) != set(range(self.size)):
            raise CommunicationError(
                f"allreduce needs contributions from all {self.size} ranks, "
                f"got {sorted(contributions)}"
            )
        if op not in self._REDUCTIONS:
            raise CommunicationError(
                f"unknown reduction {op!r}; choose from {sorted(self._REDUCTIONS)}"
            )
        stacked = np.stack([np.asarray(contributions[r]) for r in range(self.size)])
        self.traffic.n_collectives += 1
        result = self._REDUCTIONS[op](stacked, axis=0)
        return {rank: result.copy() for rank in range(self.size)}

    def __repr__(self):
        return f"SimCommunicator(size={self.size}, pending={self.pending()})"
