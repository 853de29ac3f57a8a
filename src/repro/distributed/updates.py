"""The position update a mobile computer sends the server.

The paper's mobile objects send motion-vector updates to the server over
a lossy link (section 1: "due to disconnection, an object cannot
continuously update its position").  Every update carries a per-object
**sequence number** and the position fix **at measurement time**, so the
server can reject stale/duplicate deliveries and extrapolate late ones
(:meth:`repro.core.database.MostDatabase.ingest_motion`).  The transport
that carries updates — batching, acks, retries, backpressure — is
:class:`repro.server.client.BatchingReporter` →
:class:`repro.server.epoch.CQServer` (DESIGN.md §4, §9).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry import Point


@dataclass(frozen=True)
class MotionUpdate:
    """One position update in flight: the motion vector observed at
    ``measured_at``, tagged with the sender's per-object sequence number.
    Retransmissions reuse the payload byte-for-byte — the server's
    idempotent ingest makes duplicates harmless."""

    object_id: object
    seq: int
    measured_at: int
    position: Point
    velocity: Point
