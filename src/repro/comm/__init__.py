"""Simulated distributed-memory communication substrate.

An in-process stand-in for MPI: :class:`SimCommunicator` provides tagged
point-to-point and collective operations with full traffic accounting,
:func:`exchange_halos` implements the nearest-neighbour ghost exchange over
a :class:`~repro.mesh.decomposition.CartesianDecomposition` (with a split
:func:`post_halos`/:func:`complete_halos` pair for comm/compute overlap) —
per axis one gather into a packed buffer, one communicator post/receive
pair and one scatter, planned once per layout of the states
(:func:`~repro.comm.halo.halo_plan`) — and :class:`LinkModel` (Hockney
alpha-beta) converts logged traffic into simulated wire time for the
scaling experiments.  :class:`ShmCommunicator` is the same surface over
shared-memory rings between rank processes.
"""

from .communicator import SimCommunicator, TrafficLog
from .costs import PRESETS, LinkModel, halo_exchange_time, make_link
from .shm import ShmChannel, ShmCommunicator, channel_capacities
from .halo import (
    HaloHandle,
    complete_halos,
    exchange_halos,
    face_slices,
    halo_bytes_per_exchange,
    post_halos,
    rhs_regions,
    split_axis_regions,
)

__all__ = [
    "SimCommunicator",
    "TrafficLog",
    "ShmCommunicator",
    "ShmChannel",
    "channel_capacities",
    "LinkModel",
    "PRESETS",
    "make_link",
    "halo_exchange_time",
    "exchange_halos",
    "post_halos",
    "complete_halos",
    "HaloHandle",
    "face_slices",
    "split_axis_regions",
    "rhs_regions",
    "halo_bytes_per_exchange",
]
