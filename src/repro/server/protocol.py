"""Wire protocol of the continuous-query server.

Message payloads are frozen dataclasses; over the in-process
:class:`~repro.distributed.network.SimNetwork` transport they travel as
objects, over TCP as newline-delimited JSON (:func:`encode_line` /
:func:`decode_line`).

Identity vs annotation: a :class:`WireTuple` is identified by its
``(values, begin, end, support)`` — ``max_age`` is a staleness
*annotation* as of the answer's refresh tick and is excluded from
equality/hashing, so a tuple whose age changed but whose answer did not
never churns the delta stream.  Clients age delivered tuples locally
(``max_age + (now - aged_from)``), which over-approximates the true
staleness — a tuple is flagged degraded no later than it actually
exceeds the bound, so a client never *displays unflagged* data older
than its ``staleness_bound`` regardless of in-flight delays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.distributed.updates import MotionUpdate
from repro.errors import DistributedError, SpatialError
from repro.geometry import Point

#: Conventional node id of the continuous-query server.
SERVER_ID = "cq-server"

# Message kinds (SimNetwork ``kind`` strings / JSON ``"kind"`` field).
INGEST_BATCH = "cq-ingest"
INGEST_ACK = "cq-ingest-ack"
INGEST_BUSY = "cq-ingest-busy"
SUBSCRIBE = "cq-subscribe"
SUBSCRIBED = "cq-subscribed"
DELTA = "cq-delta"
DELTA_ACK = "cq-delta-ack"
RESUME = "cq-resume"
HEARTBEAT = "cq-heartbeat"

#: Relative message sizes for the network cost accounting.
TUPLE_SIZE = 4
UPDATE_SIZE = 6
CONTROL_SIZE = 1

#: Wire names of the §5.2 transmission policies a subscriber may ask for.
POLICIES = ("immediate", "delayed", "periodic")


def _at_least(value: object, least: int, real: bool = False) -> bool:
    """``value`` is an integer (or, with ``real``, any number) — never a
    JSON boolean — and ``>= least``, which NaN is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return (real or isinstance(value, int)) and value >= least


@dataclass(frozen=True)
class WireTuple:
    """One ``Answer(CQ)`` tuple as it travels to a subscriber.

    ``support`` is the full (unprojected) instantiation the tuple's
    intervals were computed from — what staleness accounting reads.
    ``max_age`` is the age of the oldest supporting object *as of*
    the answer refresh that produced this tuple.
    """

    values: tuple[Any, ...]
    begin: float
    end: float
    support: tuple[Any, ...]
    max_age: float = field(default=0.0, compare=False)

    def active_at(self, t: float) -> bool:
        """Whether this tuple is displayed at clock tick ``t``."""
        return self.begin <= t <= self.end

    def key(self) -> tuple[Any, ...]:
        """The identity the delta stream deduplicates on."""
        return (self.values, self.begin, self.end, self.support)


@dataclass(frozen=True)
class IngestBatch:
    """A batch of motion updates from one reporter (one message)."""

    reporter_id: str
    batch_seq: int
    updates: tuple[MotionUpdate, ...]


@dataclass(frozen=True)
class IngestAck:
    """Per-batch acknowledgement: per-object cumulative applied seqs plus
    the reporter's refreshed ingest-credit allowance."""

    batch_seq: int
    acked: tuple[tuple[object, int], ...]
    credits: int


@dataclass(frozen=True)
class IngestBusy:
    """Explicit backpressure: the epoch inbox cannot take the batch.

    The reporter must hold the batch and come back after
    ``retry_after`` epochs (with its own jitter) — nothing was enqueued
    and nothing will be acked.
    """

    batch_seq: int
    retry_after: int


@dataclass(frozen=True)
class SubscribeMsg:
    """Register (or re-attach to) a continuous query subscription: *what*
    to watch (``text``, ``horizon``) and *when* its tuples travel — never
    how the server computes them (DESIGN.md §9).

    A frame becomes a message here for both transports, so the fields
    are validated here, once: a bad one raises
    :class:`~repro.errors.DistributedError` at its builder
    (``decode_line`` for a socket peer, the caller in-process), and a
    message that exists can be given a session without further checks.
    """

    client_id: str
    text: str
    horizon: int
    policy: str = "immediate"  # one of POLICIES
    period: int = 1
    window: int | None = None
    staleness_bound: float | None = None
    #: Highest contiguous delta seq the client already holds (reconnect
    #: with a resumable cursor); -1 means a fresh subscription.
    have_seq: int = -1
    incarnation: int = 0

    def __post_init__(self) -> None:
        valid = {
            "client_id": isinstance(self.client_id, str),
            "text": isinstance(self.text, str),
            "horizon": _at_least(self.horizon, 0),
            "policy": self.policy in POLICIES,
            "period": _at_least(self.period, 1),
            "window": self.window is None or _at_least(self.window, 0),
            "staleness_bound": self.staleness_bound is None
            or _at_least(self.staleness_bound, 0, real=True),
        }
        bad = [f"{name}={getattr(self, name)!r}" for name, ok in valid.items() if not ok]
        if bad:
            raise DistributedError(f"unusable SUBSCRIBE field(s): {', '.join(bad)}")


@dataclass(frozen=True)
class SubscribedMsg:
    """Subscription confirmed (or refused with ``error``)."""

    client_id: str
    query_id: str
    incarnation: int
    error: str | None = None


@dataclass(frozen=True)
class DeltaMsg:
    """One sequence-numbered answer delta (or full snapshot).

    ``aged_from`` is the refresh tick the contained ``max_age``
    annotations are relative to; the client ages tuples from there.
    With ``snapshot=True`` the client replaces its whole display with
    ``adds`` and resets its cursor to ``seq`` (crash-restart resync and
    replay-miss recovery).
    """

    query_id: str
    incarnation: int
    seq: int
    aged_from: int
    adds: tuple[WireTuple, ...]
    retracts: tuple[WireTuple, ...]
    snapshot: bool = False


@dataclass(frozen=True)
class DeltaAck:
    """Cumulative client ack for deltas through ``seq``; carries the
    client's current free display slots (its send window)."""

    client_id: str
    query_id: str
    incarnation: int
    seq: int
    free_slots: int | None = None


@dataclass(frozen=True)
class ResumeMsg:
    """Client detected a gap (or reconnected): replay after ``have_seq``."""

    client_id: str
    query_id: str
    incarnation: int
    have_seq: int


@dataclass(frozen=True)
class HeartbeatMsg:
    """Client liveness beacon; doubles as the send-window refresh."""

    client_id: str
    sent_at: int
    free_slots: int | None = None


# ----------------------------------------------------------------------
# JSON codec (TCP transport).  Object ids and values are stringified —
# the socket path serves display clients, not the differential harness.
# ----------------------------------------------------------------------

def _point_to_list(p: Point) -> list[float]:
    return list(p.coords)


def _tuple_to_obj(t: WireTuple) -> dict[str, Any]:
    return {
        "values": [str(v) for v in t.values],
        "begin": t.begin,
        "end": t.end,
        "support": [str(v) for v in t.support],
        "max_age": t.max_age,
    }


def _tuple_from_obj(o: dict[str, Any]) -> WireTuple:
    return WireTuple(
        values=tuple(o["values"]),
        begin=float(o["begin"]),
        end=float(o["end"]),
        support=tuple(o["support"]),
        max_age=float(o.get("max_age", 0.0)),
    )


def _update_to_obj(u: MotionUpdate) -> dict[str, Any]:
    return {
        "object_id": str(u.object_id),
        "seq": u.seq,
        "measured_at": u.measured_at,
        "position": _point_to_list(u.position),
        "velocity": _point_to_list(u.velocity),
    }


def _scalar_id(value: Any, field_name: str) -> Any:
    """An id field's value, which must be a JSON scalar: a list or dict
    would pass the codec and then take the connection handler or the
    epoch loop down at the first set or dict lookup."""
    if isinstance(value, (list, dict)):
        raise TypeError(f"{field_name} must be a JSON scalar")
    return value


def _update_from_obj(o: dict[str, Any]) -> MotionUpdate:
    return MotionUpdate(
        object_id=_scalar_id(o["object_id"], "object_id"),
        seq=int(o["seq"]),
        measured_at=int(o["measured_at"]),
        position=Point(*(float(c) for c in o["position"])),
        velocity=Point(*(float(c) for c in o["velocity"])),
    )


def to_wire(kind: str, payload: object) -> dict[str, Any]:
    """Flatten one (kind, payload) pair into a JSON-ready dict."""
    obj: dict[str, Any] = {"kind": kind}
    if kind == INGEST_BATCH:
        assert isinstance(payload, IngestBatch)
        obj.update(
            reporter_id=payload.reporter_id,
            batch_seq=payload.batch_seq,
            updates=[_update_to_obj(u) for u in payload.updates],
        )
    elif kind == INGEST_ACK:
        assert isinstance(payload, IngestAck)
        obj.update(
            batch_seq=payload.batch_seq,
            acked=[[str(o), s] for o, s in payload.acked],
            credits=payload.credits,
        )
    elif kind == INGEST_BUSY:
        assert isinstance(payload, IngestBusy)
        obj.update(
            batch_seq=payload.batch_seq, retry_after=payload.retry_after
        )
    elif kind == SUBSCRIBE:
        assert isinstance(payload, SubscribeMsg)
        obj.update(
            client_id=payload.client_id,
            text=payload.text,
            horizon=payload.horizon,
            policy=payload.policy,
            period=payload.period,
            window=payload.window,
            staleness_bound=payload.staleness_bound,
            have_seq=payload.have_seq,
            incarnation=payload.incarnation,
        )
    elif kind == SUBSCRIBED:
        assert isinstance(payload, SubscribedMsg)
        obj.update(
            client_id=payload.client_id,
            query_id=payload.query_id,
            incarnation=payload.incarnation,
            error=payload.error,
        )
    elif kind == DELTA:
        assert isinstance(payload, DeltaMsg)
        obj.update(
            query_id=payload.query_id,
            incarnation=payload.incarnation,
            seq=payload.seq,
            aged_from=payload.aged_from,
            adds=[_tuple_to_obj(t) for t in payload.adds],
            retracts=[_tuple_to_obj(t) for t in payload.retracts],
            snapshot=payload.snapshot,
        )
    elif kind == DELTA_ACK:
        assert isinstance(payload, DeltaAck)
        obj.update(
            client_id=payload.client_id,
            query_id=payload.query_id,
            incarnation=payload.incarnation,
            seq=payload.seq,
            free_slots=payload.free_slots,
        )
    elif kind == RESUME:
        assert isinstance(payload, ResumeMsg)
        obj.update(
            client_id=payload.client_id,
            query_id=payload.query_id,
            incarnation=payload.incarnation,
            have_seq=payload.have_seq,
        )
    elif kind == HEARTBEAT:
        assert isinstance(payload, HeartbeatMsg)
        obj.update(
            client_id=payload.client_id,
            sent_at=payload.sent_at,
            free_slots=payload.free_slots,
        )
    else:
        raise DistributedError(f"unknown message kind {kind!r}")
    return obj


def from_wire(obj: dict[str, Any]) -> tuple[str, object]:
    """Rebuild the (kind, payload) pair from a decoded JSON dict."""
    kind = obj.get("kind")
    if kind == INGEST_BATCH:
        return kind, IngestBatch(
            reporter_id=_scalar_id(obj["reporter_id"], "reporter_id"),
            batch_seq=int(obj["batch_seq"]),
            updates=tuple(_update_from_obj(u) for u in obj["updates"]),
        )
    if kind == INGEST_ACK:
        return kind, IngestAck(
            batch_seq=int(obj["batch_seq"]),
            acked=tuple(
                (_scalar_id(o, "acked object id"), int(s))
                for o, s in obj["acked"]
            ),
            credits=int(obj["credits"]),
        )
    if kind == INGEST_BUSY:
        return kind, IngestBusy(
            batch_seq=int(obj["batch_seq"]),
            retry_after=int(obj["retry_after"]),
        )
    if kind == SUBSCRIBE:
        # Keys without a field (an older peer's ``"method"``) are
        # ignored, as in every other kind.
        return kind, SubscribeMsg(
            client_id=_scalar_id(obj["client_id"], "client_id"),
            text=obj["text"],
            horizon=int(obj["horizon"]),
            policy=obj.get("policy", "immediate"),
            period=int(obj.get("period", 1)),
            window=obj.get("window"),
            staleness_bound=obj.get("staleness_bound"),
            have_seq=int(obj.get("have_seq", -1)),
            incarnation=int(obj.get("incarnation", 0)),
        )
    if kind == SUBSCRIBED:
        return kind, SubscribedMsg(
            client_id=_scalar_id(obj["client_id"], "client_id"),
            query_id=_scalar_id(obj["query_id"], "query_id"),
            incarnation=int(obj["incarnation"]),
            error=obj.get("error"),
        )
    if kind == DELTA:
        return kind, DeltaMsg(
            query_id=_scalar_id(obj["query_id"], "query_id"),
            incarnation=int(obj["incarnation"]),
            seq=int(obj["seq"]),
            aged_from=int(obj["aged_from"]),
            adds=tuple(_tuple_from_obj(t) for t in obj["adds"]),
            retracts=tuple(_tuple_from_obj(t) for t in obj["retracts"]),
            snapshot=bool(obj.get("snapshot", False)),
        )
    if kind == DELTA_ACK:
        return kind, DeltaAck(
            client_id=_scalar_id(obj["client_id"], "client_id"),
            query_id=_scalar_id(obj["query_id"], "query_id"),
            incarnation=int(obj["incarnation"]),
            seq=int(obj["seq"]),
            free_slots=obj.get("free_slots"),
        )
    if kind == RESUME:
        return kind, ResumeMsg(
            client_id=_scalar_id(obj["client_id"], "client_id"),
            query_id=_scalar_id(obj["query_id"], "query_id"),
            incarnation=int(obj["incarnation"]),
            have_seq=int(obj["have_seq"]),
        )
    if kind == HEARTBEAT:
        return kind, HeartbeatMsg(
            client_id=_scalar_id(obj["client_id"], "client_id"),
            sent_at=int(obj["sent_at"]),
            free_slots=obj.get("free_slots"),
        )
    raise DistributedError(f"unknown message kind {kind!r}")


def encode_line(kind: str, payload: object) -> bytes:
    """One message as a newline-terminated JSON line."""
    return (json.dumps(to_wire(kind, payload)) + "\n").encode()


def decode_line(line: bytes) -> tuple[str, object]:
    """Parse one newline-delimited JSON message."""
    try:
        obj = json.loads(line.decode())
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise DistributedError(f"undecodable message line: {exc}") from exc
    if not isinstance(obj, dict):
        raise DistributedError("message line is not a JSON object")
    try:
        return from_wire(obj)
    except (
        KeyError, TypeError, ValueError, OverflowError, SpatialError
    ) as exc:
        # Valid JSON, known kind, but a missing or ill-typed field (an
        # integer sent as ``1e999`` overflows): the line is as
        # undecodable as garbage and must fail the same way.
        raise DistributedError(
            f"malformed {obj.get('kind')!r} message: {exc!r}"
        ) from exc
