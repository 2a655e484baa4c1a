"""Shared-memory transport for the process-parallel backend.

``ShmCommunicator`` exposes the same point-to-point/allreduce surface as
:class:`repro.comm.communicator.SimCommunicator`, but messages cross
real process boundaries through ``multiprocessing.shared_memory`` ring
buffers instead of in-process mailboxes.  One single-producer /
single-consumer ring exists per *directed* rank pair that can ever talk
(halo neighbours plus the rank-0 star the allreduce uses), so no locks
are needed: the writer only advances ``head``, the reader only advances
``tail``, and the payload bytes are fully written before ``head`` is
published.

Bit-exactness with the serial path is the design constraint that shapes
everything here:

* ``allreduce`` funnels every contribution to rank 0, stacks them in
  rank order, and applies the same ``np.stack(...)`` + reduction as
  ``SimCommunicator.allreduce`` — so the reduced bytes are identical.
* A ``send`` applies its pre-decided ``fault`` exactly as the in-process
  mailbox does; a dropped message posts a **tombstone** record, so the
  receiver unblocks and raises the same "no pending message" error.
* A halo axis moves as one packed buffer (``post_packed`` /
  ``recv_packed``), but each of its strips is still one ``send`` — one
  ring record, one ``comm.shm.messages`` — and one ``recv``, so a worker
  delivers what the in-process exchange delivers, in the same order per
  ``(src, tag)``.
* Every data record carries the halo-exchange **epoch** it was posted
  in, so ``discard_pending`` (the post-resilient-exchange stale sweep)
  drops exactly the records the in-process global sweep would: entries
  from this epoch or earlier, counting only real data.

Substrate-level measurements (real bytes moved, send-block and
recv-wait seconds) are recorded under ``comm.shm.*``; those names are
excluded from the canonical golden stream because they describe the
transport, not the numerics.
"""

from __future__ import annotations

import time
from collections import defaultdict
from multiprocessing import shared_memory

import numpy as np

from ..utils.errors import CommunicationError
from .communicator import SimCommunicator, TrafficLog, corrupt_payload, fill_slot
from .halo import face_table

_REDUCTIONS = SimCommunicator._REDUCTIONS

#: bytes reserved at the front of each segment for the ring control block
CTRL_BYTES = 64
#: int64 words in a record header:
#: [rec_len, payload_nbytes, epoch, tag, flag, dtype_code, ndim]
HEADER_WORDS = 7
HEADER_BYTES = HEADER_WORDS * 8

FLAG_DATA = 0
FLAG_TOMBSTONE = 1

#: epoch stamped on control-plane (allreduce) records; never discarded
EPOCH_CONTROL = 2**62
#: tags at or above this are control-plane (allreduce), not halo traffic
CONTROL_TAG_BASE = 2000
TAG_REDUCE = 2001
TAG_RESULT = 2002

_DTYPE_BY_CODE = {0: np.dtype(np.float64), 1: np.dtype(np.int64)}
_CODE_BY_DTYPE = {dt: code for code, dt in _DTYPE_BY_CODE.items()}


class _Ring:
    """Single-producer single-consumer byte ring over a shared buffer.

    ``head`` and ``tail`` are monotonically increasing logical byte
    offsets (never wrapped), so ``head - tail`` is the bytes in flight
    and ``head % capacity`` the physical write position.  The producer
    writes the record bytes first and publishes ``head`` last; on the
    strongly-ordered stores numpy does over shared memory this is
    enough for the consumer to never observe a half-written record.
    """

    def __init__(self, buf, capacity: int):
        self.capacity = int(capacity)
        self._head = np.frombuffer(buf, dtype=np.int64, count=1, offset=0)
        self._tail = np.frombuffer(buf, dtype=np.int64, count=1, offset=8)
        self._data = np.frombuffer(
            buf, dtype=np.uint8, count=self.capacity, offset=CTRL_BYTES
        )

    def release(self) -> None:
        """Drop the numpy views so the segment can be closed."""
        self._head = None
        self._tail = None
        self._data = None

    # -- byte-level helpers (wraparound-aware) ---------------------------
    def _write(self, pos: int, raw: bytes) -> None:
        n = len(raw)
        p = pos % self.capacity
        first = min(n, self.capacity - p)
        self._data[p:p + first] = np.frombuffer(raw[:first], dtype=np.uint8)
        if n > first:
            self._data[: n - first] = np.frombuffer(raw[first:], dtype=np.uint8)

    def _read(self, pos: int, n: int) -> bytes:
        p = pos % self.capacity
        first = min(n, self.capacity - p)
        out = self._data[p:p + first].tobytes()
        if n > first:
            out += self._data[: n - first].tobytes()
        return out

    # -- record API ------------------------------------------------------
    def push(self, epoch: int, tag: int, flag: int, payload,
             timeout_s: float = 120.0, probe=None) -> float:
        """Append one record; returns seconds blocked waiting for space."""
        if payload is None:
            pbytes = b""
            shape: tuple[int, ...] = ()
            code = 0
        else:
            arr = np.ascontiguousarray(payload)
            code = _CODE_BY_DTYPE[arr.dtype]
            pbytes = arr.tobytes()
            shape = arr.shape
        body = np.asarray(shape, dtype=np.int64).tobytes() + pbytes
        raw_len = HEADER_BYTES + len(body)
        rec_len = raw_len + ((-raw_len) % 8)
        if rec_len > self.capacity:
            raise CommunicationError(
                f"record of {rec_len} bytes exceeds ring capacity {self.capacity}"
            )
        header = np.array(
            [rec_len, len(pbytes), epoch, tag, flag, code, len(shape)],
            dtype=np.int64,
        )
        raw = header.tobytes() + body + b"\x00" * (rec_len - raw_len)
        blocked = 0.0
        start = None
        delay = 5e-5
        while True:
            head = int(self._head[0])
            if self.capacity - (head - int(self._tail[0])) >= rec_len:
                break
            if probe is not None:
                probe()  # raises promptly if the reader died or we quiesced
            now = time.perf_counter()
            if start is None:
                start = now
            elif now - start > timeout_s:
                raise CommunicationError(
                    f"shared-memory ring full for {timeout_s:g}s "
                    f"(capacity {self.capacity}, record {rec_len} bytes)"
                )
            time.sleep(delay)
            delay = min(delay * 2.0, 1e-3)
        if start is not None:
            blocked = time.perf_counter() - start
        self._write(head, raw)
        self._head[0] = head + rec_len  # publish after the payload bytes
        return blocked

    def pop(self):
        """Non-blocking: ``None`` or ``(epoch, tag, flag, payload)``."""
        tail = int(self._tail[0])
        if int(self._head[0]) == tail:
            return None
        header = np.frombuffer(self._read(tail, HEADER_BYTES), dtype=np.int64)
        rec_len, pnbytes, epoch, tag, flag, code, ndim = (int(v) for v in header)
        offset = tail + HEADER_BYTES
        shape: tuple[int, ...] = ()
        if ndim:
            shape = tuple(
                int(v)
                for v in np.frombuffer(self._read(offset, ndim * 8), dtype=np.int64)
            )
            offset += ndim * 8
        payload = None
        if flag == FLAG_DATA:
            payload = (
                np.frombuffer(self._read(offset, pnbytes), dtype=_DTYPE_BY_CODE[code])
                .reshape(shape)
                .copy()
            )
        self._tail[0] = tail + rec_len  # release after the payload copy
        return epoch, tag, flag, payload


class ShmChannel:
    """One directed shared-memory ring between a fixed (src, dest) pair."""

    def __init__(self, shm: shared_memory.SharedMemory, capacity: int, owner: bool):
        self._shm = shm
        self.name = shm.name
        self.capacity = int(capacity)
        self.owner = owner
        self.ring = _Ring(shm.buf, self.capacity)

    @classmethod
    def create(cls, capacity: int) -> "ShmChannel":
        shm = shared_memory.SharedMemory(create=True, size=CTRL_BYTES + int(capacity))
        shm.buf[:CTRL_BYTES] = b"\x00" * CTRL_BYTES
        return cls(shm, capacity, owner=True)

    @classmethod
    def attach(cls, name: str, capacity: int) -> "ShmChannel":
        # On CPython < 3.13 merely attaching re-registers the segment with
        # the (shared, deduplicating) resource tracker; the creating parent
        # unlinks exactly once, so no per-attach unregister is needed — an
        # explicit one here would double-remove and spam tracker KeyErrors.
        shm = shared_memory.SharedMemory(name=name)
        return cls(shm, capacity, owner=False)

    def close(self) -> None:
        if self._shm is None:
            return
        self.ring.release()
        self._shm.close()
        if self.owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
        self._shm = None


#: SupervisionBoard rank-status values
STATUS_UP = 0
STATUS_DEAD = 1


class SupervisionBoard:
    """Lock-free shared-memory control block for supervised execution.

    One int64 word array shared by the parent and every rank process::

        [abort_epoch, status[0..size), arrive[0..size), heartbeat[0..size)]

    Every word has exactly one writer at any time (the parent for
    ``abort_epoch``/``status``; rank *r* for ``arrive[r]``/``heartbeat[r]``),
    so no locks exist anywhere — which is the point: a SIGKILL'd worker
    can never die holding one.  This replaces ``multiprocessing.Barrier``
    for step synchronization (a rank killed inside ``Barrier.wait`` leaves
    its internal lock state broken) and replaces pipe heartbeats (a
    heartbeat writer blocked on a full pipe would wedge the reply path).

    Parent-side operations: :meth:`mark_dead` / :meth:`revive` /
    :meth:`abort` / :meth:`reset_barrier` / :meth:`heartbeat_age_s` /
    :meth:`touch`.  Worker-side: :meth:`beat`, :meth:`wait` (the step
    barrier), :meth:`check` (the fast-fail probe used by the comm layer),
    and :meth:`rebaseline` after a supervised restore.
    """

    def __init__(self, shm: shared_memory.SharedMemory, size: int,
                 rank: int | None, owner: bool):
        self._shm = shm
        self.name = shm.name
        self.size = int(size)
        self._rank = rank
        self.owner = owner
        words = np.frombuffer(shm.buf, dtype=np.int64, count=1 + 3 * self.size)
        self._abort = words[0:1]
        self._status = words[1:1 + self.size]
        self._arrive = words[1 + self.size:1 + 2 * self.size]
        self._beats = words[1 + 2 * self.size:1 + 3 * self.size]
        self._abort_base = int(self._abort[0])
        self._gen = 0

    @classmethod
    def create(cls, size: int) -> "SupervisionBoard":
        nbytes = (1 + 3 * int(size)) * 8
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        shm.buf[:nbytes] = b"\x00" * nbytes
        board = cls(shm, size, rank=None, owner=True)
        now = time.monotonic_ns()
        for r in range(board.size):
            board._beats[r] = now
        return board

    @classmethod
    def attach(cls, name: str, size: int, rank: int | None = None
               ) -> "SupervisionBoard":
        return cls(shared_memory.SharedMemory(name=name), size, rank, owner=False)

    def close(self) -> None:
        if self._shm is None:
            return
        self._abort = self._status = self._arrive = self._beats = None
        self._shm.close()
        if self.owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
        self._shm = None

    # -- parent side -----------------------------------------------------
    def mark_dead(self, rank: int) -> None:
        self._status[rank] = STATUS_DEAD

    def revive(self, rank: int) -> None:
        self._status[rank] = STATUS_UP
        self._beats[rank] = time.monotonic_ns()

    def abort(self) -> None:
        """Bump the abort epoch: every blocked wait/probe raises promptly."""
        self._abort[0] = int(self._abort[0]) + 1

    def reset_barrier(self) -> None:
        """Zero the arrive slots; workers re-baseline their generation."""
        for r in range(self.size):
            self._arrive[r] = 0

    def touch(self, rank: int) -> None:
        """Seed ``rank``'s heartbeat (parent, at spawn time)."""
        self._beats[rank] = time.monotonic_ns()

    def heartbeat_age_s(self, rank: int) -> float:
        return (time.monotonic_ns() - int(self._beats[rank])) / 1e9

    # -- worker side -----------------------------------------------------
    def is_dead(self, rank: int) -> bool:
        return int(self._status[rank]) == STATUS_DEAD

    def beat(self) -> None:
        self._beats[self._rank] = time.monotonic_ns()

    def rebaseline(self) -> None:
        """Adopt the current abort epoch and barrier generation as clean.

        Called after a supervised restore (and implicitly at attach): the
        abort that quiesced the previous step is spent, and the parent has
        zeroed the arrive slots.
        """
        self._abort_base = int(self._abort[0])
        self._gen = 0

    def check(self, peer: int | None = None) -> None:
        """Raise :class:`CommunicationError` if quiesced or ``peer`` died."""
        if int(self._abort[0]) > self._abort_base:
            raise CommunicationError(
                f"rank {self._rank}: step aborted by supervisor (quiesce)"
            )
        if peer is not None and int(self._status[peer]) == STATUS_DEAD:
            raise CommunicationError(
                f"rank {self._rank}: peer rank {peer} is dead"
            )

    def wait(self, timeout: float | None = None) -> None:
        """Crash-tolerant step barrier across all ranks.

        Each rank publishes a monotonically increasing generation in its
        own arrive slot and spins until every slot has reached it.  A
        supervisor abort (or a peer marked dead) breaks the wait with a
        :class:`CommunicationError` instead of deadlocking.
        """
        self._gen += 1
        gen = self._gen
        self._arrive[self._rank] = gen
        start = None
        delay = 5e-5
        while True:
            if int(self._arrive.min()) >= gen:
                return
            self.check()
            dead = [r for r in range(self.size) if self.is_dead(r)]
            if dead:
                raise CommunicationError(
                    f"rank {self._rank}: barrier broken, dead ranks {dead}"
                )
            now = time.perf_counter()
            if start is None:
                start = now
            elif timeout is not None and now - start > timeout:
                raise CommunicationError(
                    f"rank {self._rank}: barrier timed out after {timeout:g}s"
                )
            time.sleep(delay)
            delay = min(delay * 2.0, 1e-3)


def sweep_segments(names) -> list[str]:
    """Force-unlink shared-memory segments that may have leaked.

    Workers unlink nothing (the creating parent owns every segment), and
    the parent's clean ``close()`` unlinks via the live handles — but a
    parent that is tearing down after SIGKILL'ing workers, or that
    recreated rings mid-run, may hold names whose handles are gone.  This
    sweep attaches purely to unlink, ignoring segments already removed.
    Returns the names actually unlinked.
    """
    swept = []
    for name in names:
        try:
            seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        except OSError:  # pragma: no cover - platform-specific attach errors
            continue
        try:
            seg.close()
            seg.unlink()
            swept.append(name)
        except FileNotFoundError:  # pragma: no cover - unlinked concurrently
            pass
    return swept


def channel_capacities(decomp, nvars: int, n_ghost: int, policy=None,
                       itemsize: int = 8) -> dict:
    """Ring capacity (bytes) for every directed channel a run can use.

    Halo channels are sized for every face strip the decomposition's face
    table has a rank post to a given neighbour per exchange, times the
    worst-case retransmission count, times a two-epoch lookahead (a fast
    sender may enter the next exchange while its neighbour is still
    draining this one, but can never get further ahead: completing
    exchange ``e+1`` needs receives that need the slow rank's ``e``
    posts).  Collective channels form a star around rank 0 and carry only
    tiny reduction payloads.  *n_ghost* must be the decomposition's own.
    """
    if n_ghost != decomp.global_grid.n_ghost:
        raise CommunicationError(
            f"rings sized for n_ghost={n_ghost}, but the decomposition's "
            f"strips are {decomp.global_grid.n_ghost} deep"
        )
    attempts = (policy.max_attempts if policy is not None else 1) + 1
    caps: dict = {}
    for face in face_table(decomp).by_face.values():
        # data record + crc record, generous per-record overhead
        per_attempt = (face.cells * nvars * itemsize + 256) + 256
        pair = (face.rank, face.nbr)
        caps[pair] = caps.get(pair, 0) + per_attempt * attempts
    for pair in list(caps):
        caps[pair] = 4 * caps[pair] + 65536
    for r in range(1, decomp.size):
        for pair in ((r, 0), (0, r)):
            caps[pair] = max(caps.get(pair, 0), 65536)
    return caps


def amr_channel_capacities(n_ranks: int, block_nbytes: int,
                           headroom: int = 8) -> dict:
    """Ring capacity (bytes) for the all-pairs channels of the distributed
    AMR driver.

    Unlike the Cartesian :func:`channel_capacities`, any rank may send any
    other rank halo blocks, fine-face flux columns, and whole-block
    migration frames, so every directed pair gets the same budget:
    *headroom* worst-case ghosted-block messages (with per-record slack),
    floored at 4 MiB.  ``block_nbytes`` must be the largest single message
    a run can post — one ghosted conserved-state block — since a ring
    rejects any record bigger than its whole capacity.
    """
    per_msg = int(block_nbytes) + 512
    cap = max(4 << 20, headroom * per_msg)
    return {
        (src, dest): cap
        for src in range(n_ranks)
        for dest in range(n_ranks)
        if src != dest
    }


class ShmCommunicator:
    """Rank-local communicator over shared-memory rings.

    The :class:`SimCommunicator` surface — the same public methods, the
    same ``send`` parameters, the packed pair a halo axis moves through —
    from the perspective of a single rank:
    ``send`` requires ``src == rank``, ``recv`` requires ``dest == rank``,
    and ``allreduce`` takes only this rank's contribution while returning
    the bit-identical serial reduction.  Ring rebinding and step-boundary
    rollback are the worker shell's private business.
    """

    def __init__(self, rank: int, size: int, writers: dict, readers: dict,
                 metrics=None, timeout_s: float = 120.0,
                 board: SupervisionBoard | None = None):
        self.rank = int(rank)
        self.size = int(size)
        self._writers = writers  # {dest: ShmChannel}
        self._readers = readers  # {src: ShmChannel}
        self.traffic = TrafficLog()
        self.metrics = metrics
        self._board = board
        self.timeout_s = float(timeout_s)
        self._epoch = 0
        self._pending: dict = {}  # {(src, tag): deque of (epoch, flag, payload)}

    # -- metrics helpers -------------------------------------------------
    def _count(self, name: str, value=1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(value)

    # -- supervision probes ----------------------------------------------
    def _check_peer(self, peer: int | None = None) -> None:
        if self._board is not None:
            self._board.check(peer)

    def _probe_for(self, peer: int):
        board = self._board

        def probe() -> None:
            if board is not None:
                board.check(peer)
            # Pump inbound rings while blocked on a full outbound ring.
            # All-pairs exchange patterns (distributed-AMR halos and block
            # migration) would otherwise deadlock: two ranks can block
            # pushing to each other while both their inbound rings sit
            # full.  Draining to the pending mailbox frees peer capacity.
            self._drain_all()

        return probe

    def _drain_all(self) -> None:
        """Drain every inbound ring into the pending mailbox."""
        for src in self._readers:
            self._drain(src)

    # -- epochs ----------------------------------------------------------
    def begin_exchange_epoch(self) -> None:
        """Called by the halo layer at the start of every exchange."""
        self._epoch += 1

    # -- point to point --------------------------------------------------
    def send(self, src: int, dest: int, data, tag: int = 0, fault=None) -> None:
        if src != self.rank:
            raise CommunicationError(
                f"rank {self.rank} cannot send on behalf of rank {src}"
            )
        if dest not in self._writers:
            raise CommunicationError(f"no channel from rank {src} to rank {dest}")
        payload = np.ascontiguousarray(data)
        # Traffic is logged before the fault, exactly like the serial path.
        self.traffic.record(src, dest, payload.nbytes)
        self._count("comm.shm.messages")
        self._count("comm.shm.bytes", payload.nbytes)
        epoch = EPOCH_CONTROL if tag >= CONTROL_TAG_BASE else self._epoch
        if fault is None:
            records = [(FLAG_DATA, payload)]
        elif fault[0] == "drop":  # the receiver unblocks on it and raises
            records = [(FLAG_TOMBSTONE, None)]
        elif fault[0] == "corrupt":
            records = [(FLAG_DATA, corrupt_payload(payload, fault[1]))]
        else:  # duplicate
            records = [(FLAG_DATA, payload)] * 2
        self._push(dest, epoch, tag, records)

    def post_packed(self, strips, buf: np.ndarray) -> None:
        """Post every message of ``strips.sends`` (:class:`~repro.comm.
        communicator.PackedStrips`) from its slot of *buf*: one ring record
        per message, as :meth:`send` posts it."""
        for src, dest, tag, lo, hi in strips.sends:
            self.send(src, dest, buf[lo:hi], tag)

    def recv_packed(self, strips, buf: np.ndarray) -> None:
        """Receive every message of ``strips.recvs`` into its slot of *buf*."""
        for src, dest, tag, lo, hi in strips.recvs:
            fill_slot(buf, lo, hi, self.recv(src, dest, tag), src, dest, tag)

    def _push(self, dest: int, epoch: int, tag: int, records) -> None:
        """Append ``(flag, payload)`` records to *dest*'s ring; time spent
        blocked on a full ring is ``comm.shm.send_block_s``."""
        ring, probe = self._writers[dest].ring, self._probe_for(dest)
        blocked = sum(
            ring.push(epoch, tag, flag, data, self.timeout_s, probe)
            for flag, data in records
        )
        if blocked > 0.0 and self.metrics is not None:
            self.metrics.counter("comm.shm.send_block_s").inc(blocked)

    def _drain(self, src: int) -> int:
        """Move every available record from ``src``'s ring into pending."""
        ring = self._readers[src].ring
        moved = 0
        while True:
            rec = ring.pop()
            if rec is None:
                return moved
            epoch, tag, flag, payload = rec
            self._pending.setdefault((src, tag), []).append((epoch, flag, payload))
            moved += 1

    def recv(self, src: int, dest: int | None = None, tag: int = 0):
        if dest is None:
            dest = self.rank
        if dest != self.rank:
            raise CommunicationError(
                f"rank {self.rank} cannot recv on behalf of rank {dest}"
            )
        if src not in self._readers:
            raise CommunicationError(f"no channel from rank {src} to rank {dest}")
        key = (src, tag)
        start = None
        delay = 5e-5
        while True:
            box = self._pending.get(key)
            if box:
                epoch, flag, payload = box.pop(0)
                if start is not None and self.metrics is not None:
                    self.metrics.counter("comm.shm.recv_wait_s").inc(
                        time.perf_counter() - start
                    )
                if flag == FLAG_TOMBSTONE:
                    raise CommunicationError(
                        f"no pending message src={src} dest={dest} tag={tag}"
                    )
                return payload
            if self._drain(src):
                continue
            # Fast-fail: a dead peer can never deliver, and a supervisor
            # abort means this step is being rolled back — raise promptly
            # instead of spinning out the full timeout.
            self._check_peer(src)
            now = time.perf_counter()
            if start is None:
                start = now
            elif now - start > self.timeout_s:
                raise CommunicationError(
                    f"rank {self.rank}: timed out after {self.timeout_s:g}s "
                    f"waiting for message src={src} dest={dest} tag={tag}"
                )
            time.sleep(delay)
            delay = min(delay * 2.0, 1e-3)

    # -- mailbox management ----------------------------------------------
    def pending(self) -> int:
        """Locally visible undelivered messages (drains the rings first);
        tombstones are no messages."""
        self._drain_all()
        return sum(
            flag == FLAG_DATA for box in self._pending.values() for _, flag, _ in box
        )

    def discard_pending(self) -> int:
        """Drop stale halo records from this epoch or earlier.

        Matches the in-process global sweep after a resilient exchange:
        control-plane records and records already posted for a *future*
        epoch (by a neighbour that raced ahead) are kept, and only real
        data counts toward the discard total.
        """
        self._drain_all()
        discarded = 0
        for key, box in self._pending.items():
            _, tag = key
            if tag >= CONTROL_TAG_BASE:
                continue
            kept = []
            for epoch, flag, payload in box:
                if epoch <= self._epoch:
                    if flag == FLAG_DATA:
                        discarded += 1
                else:
                    kept.append((epoch, flag, payload))
            box[:] = kept
        return discarded

    # -- supervised recovery (the worker shell's) -------------------------
    def _rebind_channel(self, src: int, dest: int, channel: "ShmChannel") -> None:
        """Swap in a freshly created ring for one directed pair.

        Used after a rank respawn: the parent recreates every ring that
        touched the dead rank and survivors re-attach.  The old channel's
        handle is closed (the parent owns the unlink).
        """
        pool = self._writers if src == self.rank else self._readers
        peer = dest if src == self.rank else src
        old = pool.get(peer)
        if old is not None:
            old.close()
        pool[peer] = channel

    def _rollback_point(self) -> tuple:
        """Picklable ``(epoch, traffic log)`` at a step boundary."""
        log = self.traffic
        return self._epoch, (
            log.n_messages, log.n_bytes, log.n_collectives, dict(log.by_pair)
        )

    def _rollback(self, point: tuple) -> None:
        """Roll the communicator back to a :meth:`_rollback_point`.

        Drops every queued and in-flight record (stale after the
        supervisor's rollback), restores the exchange epoch and traffic
        log, and re-baselines the supervision board so the quiescing abort
        is considered spent.
        """
        self._pending.clear()
        for ch in self._readers.values():
            while ch.ring.pop() is not None:
                pass
        epoch, traffic = point
        self._epoch = int(epoch)
        log = self.traffic
        log.n_messages, log.n_bytes, log.n_collectives = (
            int(traffic[0]), int(traffic[1]), int(traffic[2])
        )
        log.by_pair = defaultdict(int, traffic[3])
        if self._board is not None:
            self._board.rebaseline()

    # -- traffic markers (same surface as SimCommunicator) ---------------
    def traffic_marker(self):
        log = self.traffic
        return (log.n_bytes, log.n_messages, log.n_collectives)

    def bytes_since(self, marker) -> int:
        return self.traffic.n_bytes - marker[0]

    def messages_since(self, marker) -> int:
        return self.traffic.n_messages - marker[1]

    # -- allreduce -------------------------------------------------------
    def allreduce(self, contributions: dict, op: str = "sum") -> dict:
        """Reduce this rank's contribution; returns ``{rank: result}``.

        Rank 0 gathers every contribution over the rank-0 star,
        stacks them **in rank order**, and applies the same reduction as
        the serial communicator, so the result bytes are identical on
        every rank.
        """
        if op not in _REDUCTIONS:
            raise CommunicationError(f"unknown reduction {op!r}")
        if set(contributions) != {self.rank}:
            raise CommunicationError(
                f"rank {self.rank} allreduce requires exactly its own "
                f"contribution, got ranks {sorted(contributions)}"
            )
        self.traffic.n_collectives += 1
        local = np.asarray(contributions[self.rank])
        if self.size == 1:
            result = _REDUCTIONS[op](np.stack([local]), axis=0)
            return {self.rank: result.copy()}
        if self.rank == 0:
            parts = [local]
            for r in range(1, self.size):
                parts.append(np.asarray(self.recv(r, tag=TAG_REDUCE)))
            result = _REDUCTIONS[op](np.stack(parts), axis=0)
            for r in range(1, self.size):
                self._push(r, EPOCH_CONTROL, TAG_RESULT, [(FLAG_DATA, result)])
        else:
            self._push(0, EPOCH_CONTROL, TAG_REDUCE, [(FLAG_DATA, local)])
            result = self.recv(0, tag=TAG_RESULT)
        return {self.rank: np.asarray(result).copy()}
