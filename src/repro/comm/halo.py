"""Halo (ghost-zone) exchange over a Cartesian decomposition.

The canonical nearest-neighbour pattern of every distributed stencil code:
each rank sends the ``n_ghost``-deep strip of interior cells adjacent to a
face to the neighbour across that face, which deposits it into its ghost
layer.  Exchanges go through the :class:`SimCommunicator` so the traffic is
logged for the cost model, and per-axis phases keep the corner/edge data
consistent after all axes complete (the standard dimension-by-dimension
sweep).  Halo faults are decided in one place, the
:class:`~repro.resilience.oracle.FaultOracle`: an exchange takes its
:class:`ExchangeSchedule` and every sender posts what it was dealt.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from math import prod
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..mesh.decomposition import CartesianDecomposition
from ..utils.errors import CommunicationError
from .communicator import SimCommunicator

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

    The single definition of the Cartesian halo protocol: the blocking and
    overlapped exchanges, the fault oracle's dry run, the shm ring sizing,
    the byte model and the core/strip split all read it and enumerate
    nothing themselves.
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


def _post_face(h: HaloHandle, face: Face) -> list[tuple[int, int]]:
    """Post *face*'s strip from its rank toward its neighbour.

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
    payload = h.states[sender][face.send]
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
            # traffic on top of the analytic halo_bytes_per_step model;
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
    #: ``(dest, nbytes)`` of every message posted, which the overlap cost
    #: model prices with :func:`repro.comm.costs.halo_exchange_time`
    posted: list[tuple[int, int]] = field(default_factory=list)
    completed: bool = False

    @property
    def posted_bytes(self) -> int:
        return sum(nbytes for _, nbytes in self.posted)


def _begin(decomp, comm, states, policy, metrics, schedule) -> HaloHandle:
    """Open one exchange — one shm ring epoch, whether it then runs
    blocking or overlapped; no *schedule* is a fault-free one."""
    if comm.size != decomp.size:
        raise CommunicationError(
            f"communicator size {comm.size} != decomposition size {decomp.size}"
        )
    comm.begin_exchange_epoch()
    return HaloHandle(
        comm, states, face_table(decomp), policy, metrics,
        ExchangeSchedule() if schedule is None else schedule,
    )


def _post_axis(h: HaloHandle, faces) -> None:
    """Every present rank posts its strips across one axis's *faces*."""
    for face in faces:
        if face.rank in h.states:
            h.posted += _post_face(h, face)


def _drain_axis(h: HaloHandle, faces) -> None:
    """Every present rank fills its ghost slabs across one axis's *faces*."""
    for face in faces:
        if face.rank not in h.states:
            continue
        if h.policy is None:
            data = h.comm.recv(face.nbr, face.rank, tag=face.recv_tag)
        else:
            data = _recv_reliable(h, face)
        h.states[face.rank][face.recv] = data


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

    The blocking composition: per axis, post then drain, so axis ``k``'s
    strips carry axis ``k-1``'s freshly landed ghosts and corner data
    propagates (the standard dimension-by-dimension sweep).

    *states* may hold a subset of the decomposition's ranks: the process
    backend calls this per worker with only its own rank, posting and
    draining that rank's faces while its neighbours do the same in their
    processes.  *schedule* is the exchange's :class:`ExchangeSchedule`
    from the fault oracle (none: no faults); each sender posts its slots'
    decided attempts, on either communicator alike.

    Parameters
    ----------
    decomp:
        The Cartesian decomposition (its face table supplies neighbours,
        strip geometry, order and tags).
    states:
        ``{rank: array (nvars, *local_shape_with_ghosts)}``.
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
        deliberately exceed the bare-wire ``halo_bytes_per_step`` model.

    Faces with no neighbour (non-periodic wall) are left untouched —
    physical boundary conditions fill them afterwards.
    """
    h = _begin(decomp, comm, states, policy, metrics, schedule)
    for faces in h.table.axes:
        _post_axis(h, faces)
        _drain_axis(h, faces)
    _finish(h)


def post_halos(
    decomp: CartesianDecomposition,
    comm: SimCommunicator,
    states: dict[int, np.ndarray],
    policy: "HaloRetryPolicy | None" = None,
    metrics: "MetricsRegistry | None" = None,
    schedule=None,
) -> HaloHandle:
    """Post every rank's face strips for *all* axes and return immediately.

    This is the send half of the overlapped composition — post all axes,
    then (:func:`complete_halos`) drain all axes: unlike the blocking
    sweep, every strip is posted from the pre-exchange state.  Ghost
    *corners* therefore receive the sender's stale transverse ghosts
    instead of corner-propagated values.  That is safe for the RHS because
    per-axis reconstruction gives the update a plus-shaped stencil — corner
    ghosts are only ever read into transverse ghost-row face values that the
    divergence discards — which is exactly what makes the overlapped solver
    bit-identical to the blocking one (tested).  Callers that *do* need
    corner-consistent ghosts (e.g. diagnostics) must use
    :func:`exchange_halos`.

    Both compositions walk the same face table, so the same logical message
    gets the same tag and the same ``(exchange, message)`` fault address in
    either mode.
    """
    h = _begin(decomp, comm, states, policy, metrics, schedule)
    for faces in h.table.axes:
        _post_axis(h, faces)
    return h


def complete_halos(handle: HaloHandle) -> None:
    """Drain an exchange started by :func:`post_halos` into the ghost slabs.

    Nothing is posted here: retransmissions went out with their originals
    in :func:`post_halos`, from the pre-exchange state like every strip,
    and keep their own byte accounting (``resilience.halo_retransmit_bytes``)
    so the ``halo_bytes_per_step`` model still reconciles exactly with
    measured ``comm.halo_bytes``.
    """
    if handle.completed:
        raise CommunicationError("overlapped halo exchange already completed")
    for faces in handle.table.axes:
        _drain_axis(handle, faces)
    _finish(handle)


def halo_bytes_per_step(
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
