"""Halo (ghost-zone) exchange over a Cartesian decomposition.

The canonical nearest-neighbour pattern of every distributed stencil code:
each rank sends the ``n_ghost``-deep strip of interior cells adjacent to a
face to the neighbour across that face, which deposits it into its ghost
layer.  The :class:`FaceTable` lists every strip; a :class:`HaloPlan`
compiles it, once per layout of the states exchanged, into flat index
arrays, so an axis of an exchange is one gather of every strip into a
packed buffer, one communicator post/receive pair (which logs each strip as
its own message) and one scatter into the ghosts — AthenaK's one pack and
one unpack over all of a rank's blocks.  Per-axis phases keep the
corner/edge data consistent after all axes complete (the standard
dimension-by-dimension sweep).  Halo faults are decided in one place, the
:class:`~repro.resilience.oracle.FaultOracle`: an exchange takes its
:class:`ExchangeSchedule`, and a strip whose slot holds a fault — or every
strip, under a retry policy — takes the per-face protocol on its slot of
the packed buffer.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from math import prod
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..mesh.decomposition import CartesianDecomposition
from ..utils.errors import CommunicationError
from .communicator import PackedStrips, SimCommunicator, fill_slot

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricsRegistry
    from ..resilience.policies import HaloRetryPolicy

#: tag offset separating checksum control messages from halo data messages
CHECKSUM_TAG_OFFSET = 1000

#: the attempts of a message no fault touches: one clean send
_CLEAN = (None,)


def _crc(payload: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(payload).tobytes())


class ExchangeSchedule:
    """Pre-decided fault attempts for one halo exchange.

    ``attempts`` maps ``(src, dest, tag)`` to the ordered fates of that
    message slot — ``None`` (clean) or a ``(kind, scale)`` fault for the
    original send, then for each retransmission the receiver will request.
    A sender pops its own slots and posts every attempt up front; slots no
    held rank sends (another process's) are left behind.
    """

    def __init__(self):
        self.attempts: dict[tuple[int, int, int], list] = {}

    def add(self, src: int, dest: int, tag: int, fault) -> None:
        self.attempts.setdefault((src, dest, tag), []).append(fault)

    def pop_attempts(self, src: int, dest: int, tag: int):
        return self.attempts.pop((src, dest, tag), _CLEAN)


def face_slices(ndim: int, axis: int, side: int, n_ghost: int, n_interior: int):
    """(send-strip, recv-ghost) index tuples along one axis, including the
    leading variable axis.

    The send strip is the ``n_ghost``-deep slab of *interior* cells touching
    the face; the recv slab is the ghost layer on the same side.  Both keep
    the full (ghost-padded) transverse extent, so per-axis recv slabs tile
    the ghost region exactly: a ghost cell is covered once per axis on which
    its coordinate is in a ghost range (property-tested).
    """

    def along(sl):
        idx = [slice(None)] * (ndim + 1)
        idx[axis + 1] = sl
        return tuple(idx)

    g, n = n_ghost, n_interior
    if side == 0:  # low face: send first interior cells, fill low ghosts
        send = along(slice(g, 2 * g))
        recv = along(slice(0, g))
    else:  # high face
        send = along(slice(n, n + g))
        recv = along(slice(n + g, n + 2 * g))
    return send, recv


class Face(NamedTuple):
    """One neighboured face of one rank: everything the halo protocol fixes
    about the message pair that crosses it."""

    axis: int
    rank: int
    side: int
    nbr: int
    #: index of the interior strip *rank* posts to *nbr*
    send: tuple
    #: index of the ghost slab *nbr*'s strip lands in
    recv: tuple
    #: tag on the posted strip: (axis, direction of travel)
    send_tag: int
    #: tag expected on the incoming strip — *nbr* sent from its opposite side
    recv_tag: int
    #: cells per variable in the posted strip
    cells: int


class FaceTable(NamedTuple):
    """Who sends which strip to whom, in what order, under which tag.

    The single definition of the Cartesian halo protocol: the exchanges'
    plans, the fault oracle's dry run, the shm ring sizing, the byte model
    and the core/strip split all read it and enumerate nothing themselves.
    """

    #: ``axes[axis]``: that axis's faces in (rank, side) order — the message
    #: order ``(exchange, message)`` fault addressing counts in
    axes: tuple
    #: ``(rank, axis, side) -> Face``; walls have no entry
    by_face: dict

    def mirror(self, face: Face) -> Face:
        """The neighbour's face whose posted strip fills *face*'s ghosts."""
        return self.by_face[face.nbr, face.axis, 1 - face.side]


def _build_face_table(decomp: CartesianDecomposition) -> FaceTable:
    grid = decomp.global_grid
    ndim, g = grid.ndim, grid.n_ghost
    axes = []
    for axis in range(ndim):
        faces = []
        for rank in range(decomp.size):
            sub = decomp.subgrid(rank)
            # The strip spans the full (ghost-padded) transverse extent so
            # corner data propagates through the per-axis sweep.
            ghosted = sub.shape_with_ghosts
            cells = g * prod(ghosted) // ghosted[axis]
            for side in (0, 1):
                nbr = decomp.neighbor(rank, axis, side)
                if nbr is None:
                    continue
                send, recv = face_slices(ndim, axis, side, g, sub.shape[axis])
                faces.append(Face(
                    axis, rank, side, nbr, send, recv,
                    2 * axis + side, 2 * axis + 1 - side, cells,
                ))
        axes.append(tuple(faces))
    return FaceTable(
        tuple(axes),
        {(f.rank, f.axis, f.side): f for faces in axes for f in faces},
    )


def face_table(decomp: CartesianDecomposition) -> FaceTable:
    """The decomposition's face table: built on first use, then kept on the
    decomposition — never per exchange — and pickled to workers with it."""
    if decomp._face_table is None:
        decomp._face_table = _build_face_table(decomp)
    return decomp._face_table


def split_axis_regions(
    n: int, n_ghost: int, low_nbr: bool, high_nbr: bool
) -> tuple[tuple[int, int], list[tuple[int, int]]]:
    """Core/strip split of one axis's interior cell range ``[0, n)``.

    Returns ``(core, strips)`` in interior coordinates: *core* is the
    ``(lo, hi)`` range whose RHS needs no halo data along this axis (its
    reconstruction stencil reads only owned cells, or wall ghosts that the
    physical boundary conditions filled before the exchange), and *strips*
    are the halo-dependent ranges next to neighboured faces.  Core and
    strips tile ``[0, n)`` with no gap or overlap (property-tested); thin
    patches (``n`` too small to leave a core) collapse to one merged strip
    so no cell is ever updated twice.
    """
    g = n_ghost
    sl = g if low_nbr else 0
    sh = g if high_nbr else 0
    if n - sl - sh <= 0:
        if sl or sh:
            return (0, 0), [(0, n)]
        return (0, n), []
    strips = []
    if sl:
        strips.append((0, sl))
    if sh:
        strips.append((n - sh, n))
    return (sl, n - sh), strips


def rhs_regions(decomp: CartesianDecomposition, rank: int):
    """Per-axis ``(core, strips)`` decomposition of one rank's interior.

    This is what the overlapped solver evaluates: every axis's core region
    before halos land, its strips after.
    """
    g = decomp.global_grid.n_ghost
    by_face = face_table(decomp).by_face
    return [
        split_axis_regions(
            n, g, (rank, axis, 0) in by_face, (rank, axis, 1) in by_face
        )
        for axis, n in enumerate(decomp.subgrid(rank).shape)
    ]


class Strip(NamedTuple):
    """One message of a plan axis: *face*'s strip, posted by ``face.rank``
    under ``key = (src, dest, tag)``, in slot ``[lo, hi)`` of the axis's
    packed buffer."""

    face: Face
    key: tuple
    lo: int
    hi: int


class AxisPlan(NamedTuple):
    """One axis of a :class:`HaloPlan`: where every strip of the axis that a
    held rank posts or receives sits in one packed buffer, and the flat
    indices that fill the buffer from the states and the ghosts from it."""

    #: packed buffer length: one slot per strip, in face order
    size: int
    #: every strip a held rank posts or receives, in face order
    strips: tuple
    #: the strips a held rank posts, in face order (the fault order)
    sent: tuple
    #: ``(receiving face, its strip)`` of every held receiver, in the
    #: receivers' face order
    received: tuple
    #: ``(array, buffer positions, flat indices)`` per source array:
    #: ``buf[pos] = array.flat[idx]``
    gather: tuple
    #: the one gather fills the whole buffer in slot order: it *is* the buffer
    gather_is_buffer: bool
    #: ``(array, buffer positions or None for all, flat indices)`` per
    #: destination array: ``array.flat[idx] = buf[pos]``
    scatter: tuple
    #: the strips as the communicator moves them, traffic totals precomputed
    wire: PackedStrips
    #: ``(dest, nbytes)`` of each of :attr:`sent` — what a clean axis adds
    #: to :attr:`HaloHandle.posted`
    posted: tuple


class HaloPlan(NamedTuple):
    """The face table compiled for one layout of states: one
    :class:`AxisPlan` per axis, and the element type of the packed buffers."""

    axes: tuple
    dtype: np.dtype


def halo_plan(decomp: CartesianDecomposition, states) -> tuple[HaloPlan, list]:
    """The plan of *states*' layout, and the arrays it indexes.

    *states* is ``{rank: (nvars, *ghosted)}``: a
    :class:`~repro.core.pipeline.PatchViews` — the plan indexes its
    ``.stacks``, patch *p* of a stack at flat offset *p* × patch size — or
    a plain dict, each array its own.  Plans are kept on the decomposition
    per layout (the ranks in order, the arrays' shapes and types), like the
    face table: a driver's stacks are one layout for its life, so its
    exchanges build nothing, and new stacks are a new plan.  Building one
    validates *states*, before anything is posted.
    """
    stacks = getattr(states, "stacks", None)
    arrays = list(states.values()) if stacks is None else stacks
    key = (tuple(states), stacks is None, tuple([(a.shape, a.dtype) for a in arrays]))
    plan = decomp._halo_plans.get(key)
    if plan is None:
        plan = decomp._halo_plans[key] = _build_plan(decomp, states, stacks)
    return plan, arrays


def _build_plan(decomp, states, stacks) -> HaloPlan:
    """Validate *states* and compile the face table for their layout."""
    for rank in states:
        if not isinstance(rank, (int, np.integer)) or not 0 <= rank < decomp.size:
            raise CommunicationError(
                f"state key {rank!r} is no rank of the {decomp.size}-rank "
                f"decomposition"
            )
    first = next(iter(states.values()), np.empty((0,)))
    for rank, arr in states.items():
        want = first.shape[:1] + decomp.subgrid(rank).shape_with_ghosts
        if arr.shape != want or arr.dtype != first.dtype:
            raise CommunicationError(
                f"rank {rank}: state {arr.dtype} {arr.shape}, but the exchange "
                f"needs {first.dtype} {want} (nvars, *its subgrid's ghosted shape)"
            )
    # Each rank's (array, flat offset) in the arrays the plan indexes.
    if stacks is None:
        where = {rank: (k, 0) for k, rank in enumerate(states)}
    else:
        ranks = iter(states)
        where = {
            next(ranks): (k, p * prod(a.shape[1:]))
            for k, a in enumerate(stacks) for p in range(len(a))
        }
    local = {rank: np.arange(arr.size).reshape(arr.shape) for rank, arr in states.items()}
    itemsize = first.dtype.itemsize
    axes = []
    for faces in face_table(decomp).axes:
        strips, lo = [], 0
        for f in faces:
            if f.rank in where or f.nbr in where:
                n = first.shape[0] * f.cells
                strips.append(Strip(f, (f.rank, f.nbr, f.send_tag), lo, lo + n))
                lo += n
        by_key = {s.key: s for s in strips}
        sent = tuple(s for s in strips if s.face.rank in where)
        received = tuple(
            (f, by_key[f.nbr, f.rank, f.recv_tag]) for f in faces if f.rank in where
        )
        gather = _index_groups(
            ((where[s.face.rank], s, local[s.face.rank][s.face.send]) for s in sent),
            lo,
        )
        axes.append(AxisPlan(
            lo, tuple(strips), sent, received, gather,
            len(gather) == 1 and gather[0][1] is None,
            # Slot order: with one destination array the scatter reads the
            # whole buffer as it lies (ghost slabs of one axis are disjoint).
            _index_groups(
                ((where[f.rank], s, local[f.rank][f.recv])
                 for f, s in sorted(received, key=lambda fs: fs[1].lo)),
                lo,
            ),
            PackedStrips.of(
                [s.key + (s.lo, s.hi) for s in sent],
                [s.key + (s.lo, s.hi) for _, s in received],
                itemsize,
            ),
            tuple((s.face.nbr, (s.hi - s.lo) * itemsize) for s in sent),
        ))
    return HaloPlan(tuple(axes), first.dtype)


def _index_groups(entries, size: int) -> tuple:
    """``(array, buffer positions, flat indices)`` per array of *entries*
    ``((array, offset), strip, local indices)``, in first-seen order; the
    positions are ``None`` when they are the whole *size*-long buffer in
    slot order."""
    groups: dict = {}
    for (k, offset), strip, idx in entries:
        pos, flat = groups.setdefault(k, ([], []))
        pos.append(np.arange(strip.lo, strip.hi))
        flat.append(idx.ravel() + offset)
    out = []
    for k, (pos, flat) in groups.items():
        pos = np.concatenate(pos)
        if np.array_equal(pos, np.arange(size)):
            pos = None
        out.append((k, pos, np.concatenate(flat)))
    return tuple(out)


def _put(a: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """``a.flat[idx] = values``, in place (``np.put`` is the slower path a
    strided *a* needs)."""
    if a.flags.c_contiguous:
        a.reshape(-1)[idx] = values
    else:
        np.put(a, idx, values)


def _post_face(h: HaloHandle, face: Face, payload: np.ndarray) -> list[tuple[int, int]]:
    """Post *face*'s strip, *payload* (its slot of the packed buffer), from
    its rank toward its neighbour: the per-face protocol.

    Every attempt the exchange's schedule holds for this message slot —
    the original send plus the retransmissions the receiver will request —
    is posted now, from the state as it stands, each with its decided
    fate; each fault is counted on the metrics.  Under a retry policy a
    CRC32 of the payload rides alongside each attempt on a shifted tag;
    checksums are never faulted, so a corrupted strip is always detectable
    against its intact checksum.

    Returns the first attempt's ``(dest, nbytes)`` messages so overlap
    accounting can price the exchange without re-deriving strip sizes;
    retransmissions are charged to ``resilience.halo_retransmit_bytes`` by
    the receiver that requests them.
    """
    comm, checksum = h.comm, h.policy is not None
    sender, dest, tag = face.rank, face.nbr, face.send_tag
    crc = np.array([_crc(payload)], dtype=np.int64) if checksum else None
    for fault in h.schedule.pop_attempts(sender, dest, tag):
        if fault is not None and h.metrics is not None:
            h.metrics.counter(f"resilience.fault.halo_{fault[0]}").inc()
        comm.send(sender, dest, payload, tag, fault)
        if checksum:
            comm.send(sender, dest, crc, tag + CHECKSUM_TAG_OFFSET)
    posted = [(dest, payload.nbytes)]
    if checksum:
        posted.append((dest, crc.nbytes))
    return posted


def _recv_or_none(comm, src: int, dest: int, tag: int):
    try:
        return comm.recv(src, dest, tag)
    except CommunicationError:
        return None


def _recv_reliable(h: HaloHandle, face: Face) -> np.ndarray:
    """Receive *face*'s halo message with checksum verification and retry.

    A missing message (dropped in flight) or a checksum mismatch (corrupted
    in flight) triggers a retransmission request after an exponential
    backoff, up to the policy's attempt budget; the sender posted that
    retransmission with the original (:func:`_post_face`), so the receive
    charges its bytes and reads the next attempt.  Only when the budget is
    exhausted does :class:`CommunicationError` propagate to the caller.
    """
    comm, policy, metrics = h.comm, h.policy, h.metrics
    nbr, rank, tag = face.nbr, face.rank, face.recv_tag
    for attempt in range(policy.max_attempts):
        # One data and one checksum receive per attempt, whether or not the
        # data was lost, keep the two FIFOs aligned.
        data = _recv_or_none(comm, nbr, rank, tag)
        ref = _recv_or_none(comm, nbr, rank, tag + CHECKSUM_TAG_OFFSET)
        if data is not None:
            if ref is not None and int(ref[0]) == _crc(data):
                return data
            if metrics is not None:
                metrics.counter("resilience.halo_checksum_mismatch").inc()
        if attempt == policy.max_attempts - 1:
            break
        delay = policy.wait(attempt)
        if metrics is not None:
            metrics.counter("resilience.halo_retries").inc()
            metrics.histogram("resilience.halo_retry_backoff_s").observe(delay)
            # Retransmissions (strip + 8-byte checksum) are extra wire
            # traffic on top of the analytic halo_bytes_per_exchange model;
            # keeping them on their own counter lets the byte-accounting
            # tests reconcile the two exactly.
            arr = h.states[rank]
            metrics.counter("resilience.halo_retransmit_bytes").inc(
                h.table.mirror(face).cells * arr.shape[0] * arr.itemsize + 8
            )
    raise CommunicationError(
        f"halo message rank {nbr} -> {rank} (axis {face.axis}, side "
        f"{face.side}) lost after {policy.max_attempts} attempts"
    )


#: no strip of an axis takes the per-face protocol
_PACKED_ONLY = frozenset()


@dataclass(slots=True)
class HaloHandle:
    """One halo exchange in progress: the state its begin / post-axis /
    drain-axis / finish steps share, and what :func:`post_halos` returns."""

    comm: SimCommunicator
    states: dict[int, np.ndarray]
    table: FaceTable
    policy: "HaloRetryPolicy | None"
    metrics: "MetricsRegistry | None"
    schedule: ExchangeSchedule
    plan: HaloPlan
    #: the arrays the plan indexes
    arrays: list
    #: per posted axis, ``(buffer, packed strips, per-face keys)``
    packed: list = field(default_factory=list)
    #: ``(dest, nbytes)`` of every message posted, which the overlap cost
    #: model prices with :func:`repro.comm.costs.halo_exchange_time`
    posted: list[tuple[int, int]] = field(default_factory=list)
    completed: bool = False

    @property
    def posted_bytes(self) -> int:
        return sum(nbytes for _, nbytes in self.posted)


def _begin(decomp, comm, states, policy, metrics, schedule) -> HaloHandle:
    """Open one exchange — one shm ring epoch, whether it then runs
    blocking or overlapped; no *schedule* is a fault-free one.  *states*
    are validated (by their plan) before anything is posted."""
    if comm.size != decomp.size:
        raise CommunicationError(
            f"communicator size {comm.size} != decomposition size {decomp.size}"
        )
    plan, arrays = halo_plan(decomp, states)
    comm.begin_exchange_epoch()
    return HaloHandle(
        comm, states, face_table(decomp), policy, metrics,
        ExchangeSchedule() if schedule is None else schedule, plan, arrays,
    )


def _per_face(h: HaloHandle, ax: AxisPlan) -> frozenset:
    """Keys of *ax*'s strips that take the per-face protocol this exchange:
    every strip under a retry policy (checksums), else each strip whose
    schedule slot holds a fault.  A held sender's clean slots are consumed
    here, as posting them would."""
    if h.policy is not None:
        return frozenset(strip.key for strip in ax.strips)
    attempts = h.schedule.attempts
    if not attempts:
        return _PACKED_ONLY
    faulted = set()
    for strip in ax.strips:
        fates = attempts.get(strip.key)
        if fates is None:
            continue
        if any(fate is not None for fate in fates):
            faulted.add(strip.key)
        elif strip.face.rank in h.states:
            del attempts[strip.key]
    return frozenset(faulted)


def _post_axis(h: HaloHandle, ax: AxisPlan) -> None:
    """Pack one axis's strips (one gather per source array) and post them:
    the clean ones in one communicator call, the per-face ones each through
    :func:`_post_face` on its slot."""
    if ax.gather_is_buffer:
        k, _, idx = ax.gather[0]
        buf = h.arrays[k].take(idx)
    else:
        buf = np.empty(ax.size, h.plan.dtype)
        for k, pos, idx in ax.gather:
            buf[pos] = h.arrays[k].take(idx)
    per_face = _per_face(h, ax)
    wire = ax.wire.without(per_face) if per_face else ax.wire
    h.packed.append((buf, wire, per_face))
    h.comm.post_packed(wire, buf)
    if not per_face:
        h.posted += ax.posted
        return
    for strip, posted in zip(ax.sent, ax.posted):
        if strip.key in per_face:
            h.posted += _post_face(h, strip.face, buf[strip.lo:strip.hi])
        else:
            h.posted.append(posted)


def _drain_axis(h: HaloHandle, ax: AxisPlan, buf, wire, per_face) -> None:
    """Receive one axis's strips into its buffer — the clean ones in one
    communicator call, the per-face ones plainly or through
    :func:`_recv_reliable` — and fill the ghosts (one scatter per
    destination array)."""
    h.comm.recv_packed(wire, buf)
    for face, strip in ax.received if per_face else ():
        if strip.key in per_face:
            payload = (
                h.comm.recv(face.nbr, face.rank, tag=face.recv_tag)
                if h.policy is None else _recv_reliable(h, face)
            )
            fill_slot(buf, strip.lo, strip.hi, payload, *strip.key)
    for k, pos, idx in ax.scatter:
        _put(h.arrays[k], idx, buf if pos is None else buf[pos])


def _finish(h: HaloHandle) -> None:
    """Close the exchange; with a retry policy, purge leftover duplicates."""
    h.completed = True
    if h.policy is not None:
        stale = h.comm.discard_pending()
        if stale and h.metrics is not None:
            h.metrics.counter("resilience.halo_stale_discarded").inc(stale)


def exchange_halos(
    decomp: CartesianDecomposition,
    comm: SimCommunicator,
    states: dict[int, np.ndarray],
    policy: "HaloRetryPolicy | None" = None,
    metrics: "MetricsRegistry | None" = None,
    schedule=None,
) -> None:
    """Fill ghost layers of every rank's ghosted state array in place.

    The blocking composition: per axis, gather then scatter, so axis
    ``k``'s strips carry axis ``k-1``'s freshly landed ghosts and corner
    data propagates (the standard dimension-by-dimension sweep).

    *states* may hold a subset of the decomposition's ranks: the process
    backend calls this per worker with only its own rank, posting its
    faces' strips and receiving its ghosts while its neighbours do the
    same in their processes.  *schedule* is the exchange's
    :class:`ExchangeSchedule` from the fault oracle (none: no faults); each
    sender posts its slots' decided attempts, on either communicator alike.

    Parameters
    ----------
    decomp:
        The Cartesian decomposition (its face table supplies neighbours,
        strip geometry, order and tags; its plans the packed layout).
    states:
        ``{rank: array (nvars, *local_shape_with_ghosts)}`` — a plain dict
        or a stack layout's :class:`~repro.core.pipeline.PatchViews`.  A
        key that is no rank, or an array of another shape (or element
        type than the others), raises :class:`CommunicationError` naming
        the rank before anything is posted.
    policy:
        Optional :class:`~repro.resilience.policies.HaloRetryPolicy`. When
        given, every message carries a checksum and lost/corrupted messages
        are retransmitted with exponential backoff;
        :class:`CommunicationError` is raised only once a message's attempt
        budget is exhausted.  Retries and backoff latencies are recorded on
        *metrics* (``resilience.halo_retries``,
        ``resilience.halo_retry_backoff_s``), and leftover duplicates are
        purged after the exchange (``resilience.halo_stale_discarded``).
        Checksum traffic is counted in the byte log, so resilient exchanges
        deliberately exceed the bare-wire ``halo_bytes_per_exchange`` model.

    Faces with no neighbour (non-periodic wall) are left untouched —
    physical boundary conditions fill them afterwards.
    """
    h = _begin(decomp, comm, states, policy, metrics, schedule)
    for ax in h.plan.axes:
        _post_axis(h, ax)
        _drain_axis(h, ax, *h.packed.pop())
    _finish(h)


def post_halos(
    decomp: CartesianDecomposition,
    comm: SimCommunicator,
    states: dict[int, np.ndarray],
    policy: "HaloRetryPolicy | None" = None,
    metrics: "MetricsRegistry | None" = None,
    schedule=None,
) -> HaloHandle:
    """Gather and post every rank's face strips for *all* axes and return
    immediately.

    This is the send half of the overlapped composition — gather every
    axis, then (:func:`complete_halos`) scatter every axis: unlike the
    blocking sweep, every strip is packed from the pre-exchange state.
    Ghost *corners* therefore receive the sender's stale transverse ghosts
    instead of corner-propagated values.  That is safe for the RHS because
    per-axis reconstruction gives the update a plus-shaped stencil and the
    sweeps visit interior transverse rows only — no corner ghost is ever
    read — which is exactly what makes the overlapped solver bit-identical
    to the blocking one (tested).  Callers that *do* need
    corner-consistent ghosts (e.g. diagnostics) must use
    :func:`exchange_halos`.

    Both compositions walk the same plan, so the same logical message
    gets the same tag and the same ``(exchange, message)`` fault address in
    either mode.
    """
    h = _begin(decomp, comm, states, policy, metrics, schedule)
    for ax in h.plan.axes:
        _post_axis(h, ax)
    return h


def complete_halos(handle: HaloHandle) -> None:
    """Receive an exchange started by :func:`post_halos` and fill the ghosts.

    Nothing is posted here: retransmissions went out with their originals
    in :func:`post_halos`, from the pre-exchange state like every strip,
    and keep their own byte accounting (``resilience.halo_retransmit_bytes``)
    so the ``halo_bytes_per_exchange`` model still reconciles exactly with
    measured ``comm.halo_bytes``.
    """
    if handle.completed:
        raise CommunicationError("overlapped halo exchange already completed")
    for ax, packed in zip(handle.plan.axes, handle.packed):
        _drain_axis(handle, ax, *packed)
    _finish(handle)


def halo_bytes_per_exchange(
    decomp: CartesianDecomposition, nvars: int, itemsize: int = 8
) -> dict[int, int]:
    """Bytes each rank sends in one full halo exchange (all axes, all faces).

    Analytic count used by the scaling cost model — must match what
    :func:`exchange_halos` actually sends (tested).
    """
    out = dict.fromkeys(range(decomp.size), 0)
    for face in face_table(decomp).by_face.values():
        out[face.rank] += face.cells * nvars * itemsize
    return out
