"""Wire-protocol tests: identity semantics and the JSON codec."""

import json

import pytest

from repro.distributed.updates import MotionUpdate
from repro.errors import DistributedError
from repro.geometry import Point
from repro.server.protocol import (
    DELTA,
    DELTA_ACK,
    HEARTBEAT,
    INGEST_ACK,
    INGEST_BATCH,
    INGEST_BUSY,
    RESUME,
    SUBSCRIBE,
    SUBSCRIBED,
    DeltaAck,
    DeltaMsg,
    HeartbeatMsg,
    IngestAck,
    IngestBatch,
    IngestBusy,
    ResumeMsg,
    SubscribedMsg,
    SubscribeMsg,
    WireTuple,
    decode_line,
    encode_line,
    to_wire,
)


class TestWireTuple:
    def test_max_age_excluded_from_identity(self):
        a = WireTuple(("v",), 0.0, 5.0, ("v", "b"), max_age=1.0)
        b = WireTuple(("v",), 0.0, 5.0, ("v", "b"), max_age=9.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a.key() == b.key()

    def test_interval_identity_distinguishes(self):
        a = WireTuple(("v",), 0.0, 5.0, ("v", "b"))
        b = WireTuple(("v",), 0.0, 6.0, ("v", "b"))
        assert a != b

    def test_active_at_is_closed(self):
        t = WireTuple(("v",), 2.0, 5.0, ("v",))
        assert t.active_at(2.0) and t.active_at(5.0)
        assert not t.active_at(1.9) and not t.active_at(5.1)


def _update(seq=0):
    return MotionUpdate(
        object_id="car-1",
        seq=seq,
        measured_at=3,
        position=Point(1.0, 2.0),
        velocity=Point(-1.0, 0.0),
    )


ROUND_TRIPS = [
    (INGEST_BATCH, IngestBatch("r1", 4, (_update(0), _update(1)))),
    (INGEST_ACK, IngestAck(4, (("car-1", 1),), credits=7)),
    (INGEST_BUSY, IngestBusy(4, retry_after=3)),
    (
        SUBSCRIBE,
        SubscribeMsg(
            client_id="c1",
            text="RETRIEVE o FROM cars o WHERE DIST(o, b) <= 5",
            horizon=100,
            policy="periodic",
            period=4,
            window=8,
            staleness_bound=6.0,
            have_seq=11,
            incarnation=2,
        ),
    ),
    (SUBSCRIBED, SubscribedMsg("c1", "q0", 2)),
    (SUBSCRIBED, SubscribedMsg("c1", "", 1, error="SchemaError: nope")),
    (
        DELTA,
        DeltaMsg(
            query_id="q0",
            incarnation=2,
            seq=9,
            aged_from=40,
            adds=(WireTuple(("v",), 1.0, 9.0, ("v", "b"), max_age=2.0),),
            retracts=(WireTuple(("w",), 0.0, 3.0, ("w", "b")),),
            snapshot=True,
        ),
    ),
    (DELTA_ACK, DeltaAck("c1", "q0", 2, 9, free_slots=3)),
    (RESUME, ResumeMsg("c1", "q0", 2, 9)),
    (HEARTBEAT, HeartbeatMsg("c1", 41, free_slots=None)),
]


def _ingest(updates: str) -> bytes:
    return (
        '{"kind": "cq-ingest", "reporter_id": "r0", "batch_seq": 0, '
        '"updates": %s}\n' % updates
    ).encode()


def _update(object_id='"t0"', position="[0, 0]", velocity="[0, 0]") -> str:
    return (
        '[{"object_id": %s, "seq": 0, "measured_at": 0, "position": %s, '
        '"velocity": %s}]' % (object_id, position, velocity)
    )


def _subscribe(**fields) -> bytes:
    frame = {
        "kind": "cq-subscribe",
        "client_id": "c1",
        "text": "RETRIEVE o FROM cars o WHERE INSIDE(o, P)",
        "horizon": 10,
        **fields,
    }
    return (json.dumps(frame) + "\n").encode()


#: SUBSCRIBE field values no message may carry: the durable subscriber
#: table holds them verbatim, and every restart opens sessions from it.
BAD_SUBSCRIBE_FIELDS = {
    "unknown-policy": {"policy": "bogus"},
    "unhashable-policy": {"policy": ["periodic"]},
    "zero-period": {"policy": "periodic", "period": 0},
    "negative-window": {"window": -1},
    "fractional-window": {"window": 1.5},
    "boolean-window": {"window": True},
    "negative-staleness-bound": {"staleness_bound": -1},
    "non-numeric-staleness-bound": {"staleness_bound": "soon"},
    "nan-staleness-bound": {"staleness_bound": float("nan")},
    "negative-horizon": {"horizon": -1},
    "non-string-client-id": {"client_id": 7},
    "non-string-text": {"text": ["RETRIEVE"]},
}

#: Frames that once escaped ``decode_line`` with something other than
#: ``DistributedError`` and took the TCP connection handler down: an
#: integer sent as an infinity overflows, JSON nested past the
#: interpreter's recursion limit cannot be parsed, and a non-scalar id
#: decodes and then fails at the first set or dict lookup.
ESCAPING_FRAMES = {
    "heartbeat-sent-at-1e999": (
        b'{"kind":"cq-heartbeat","client_id":"a","sent_at":1e999}\n'
    ),
    "heartbeat-sent-at-infinity": (
        b'{"kind":"cq-heartbeat","client_id":"a","sent_at":Infinity}\n'
    ),
    "ingest-seq-1e999": _ingest(_update().replace('"seq": 0', '"seq": 1e999')),
    "ingest-huge-coordinate": _ingest(
        _update(position="[1%s, 0]" % ("0" * 400))
    ),
    "heartbeat-list-client-id": (
        b'{"kind":"cq-heartbeat","client_id":[1],"sent_at":0}\n'
    ),
    "ingest-list-reporter-id": (
        b'{"kind":"cq-ingest","reporter_id":[1],"batch_seq":0,"updates":[]}\n'
    ),
    "delta-ack-dict-client-id": (
        b'{"kind":"cq-delta-ack","client_id":{},"query_id":"q0",'
        b'"incarnation":0,"seq":0}\n'
    ),
    "resume-list-query-id": (
        b'{"kind":"cq-resume","client_id":"a","query_id":["q0"],'
        b'"incarnation":0,"have_seq":0}\n'
    ),
    "nested-beyond-the-recursion-limit": (
        b'{"kind":"cq-heartbeat","client_id":'
        + b"[" * 5000
        + b"]" * 5000
        + b',"sent_at":0}\n'
    ),
    "ingest-ack-list-object-id": (
        b'{"kind":"cq-ingest-ack","batch_seq":0,"acked":[[[1],0]],'
        b'"credits":1}\n'
    ),
}

#: Lines that parse as JSON objects of a known kind yet cannot be
#: rebuilt (the TCP transport test sends the same ones down a socket).
MALFORMED_FRAMES = {
    **{
        f"subscribe-{name}": _subscribe(**fields)
        for name, fields in BAD_SUBSCRIBE_FIELDS.items()
    },
    "missing-fields": b'{"kind": "cq-ingest"}\n',
    "non-numeric-int": (
        b'{"kind": "cq-resume", "client_id": "c1", "query_id": "q0", '
        b'"incarnation": "x", "have_seq": 1}\n'
    ),
    "non-numeric-coordinate": _ingest(_update(velocity='"ab"')),
    "updates-not-a-list": _ingest("5"),
    "update-not-an-object": _ingest("[5]"),
    "empty-point": _ingest(_update(position="[]")),
    "unhashable-object-id": _ingest(_update(object_id="[1]")),
    **{f"escaping-{name}": line for name, line in ESCAPING_FRAMES.items()},
}


class TestCodec:
    @pytest.mark.parametrize("kind,payload", ROUND_TRIPS)
    def test_round_trip(self, kind, payload):
        decoded_kind, decoded = decode_line(encode_line(kind, payload))
        assert decoded_kind == kind
        # Object ids / values are stringified on the wire; re-encode to
        # compare the canonical JSON forms instead of raw dataclasses.
        assert encode_line(decoded_kind, decoded) == encode_line(kind, payload)

    def test_garbage_raises(self):
        with pytest.raises(DistributedError):
            decode_line(b"not json\n")
        with pytest.raises(DistributedError):
            decode_line(b"[1, 2]\n")
        with pytest.raises(DistributedError):
            decode_line(b'{"kind": "no-such-kind"}\n')

    @pytest.mark.parametrize(
        "line", MALFORMED_FRAMES.values(), ids=MALFORMED_FRAMES.keys()
    )
    def test_known_kind_with_bad_fields_raises(self, line):
        # Valid JSON and a known kind, but a missing or ill-typed field:
        # one error type for every undecodable line, so a transport has
        # one thing to catch.
        with pytest.raises(DistributedError):
            decode_line(line)


class TestSubscribeMsg:
    def test_method_is_not_on_the_wire(self):
        msg = SubscribeMsg("c1", "RETRIEVE o FROM cars o WHERE INSIDE(o, P)", 10)
        assert "method" not in to_wire(SUBSCRIBE, msg)
        assert not hasattr(msg, "method")
        with pytest.raises(TypeError):
            SubscribeMsg("c1", "Q", 10, method="naive")

    def test_an_incoming_method_key_is_ignored(self):
        plain = decode_line(_subscribe())
        assert decode_line(_subscribe(method="naive")) == plain
        assert decode_line(_subscribe(method=["x"])) == plain

    @pytest.mark.parametrize(
        "fields",
        BAD_SUBSCRIBE_FIELDS.values(),
        ids=BAD_SUBSCRIBE_FIELDS.keys(),
    )
    def test_bad_field_values_cannot_be_built(self, fields):
        good = {"client_id": "c1", "text": "Q", "horizon": 10}
        with pytest.raises(DistributedError):
            SubscribeMsg(**{**good, **fields})

    def test_edge_values_are_accepted(self):
        msg = SubscribeMsg(
            "c1", "Q", 0, policy="periodic", period=1, window=0,
            staleness_bound=0,
        )
        assert decode_line(encode_line(SUBSCRIBE, msg)) == (SUBSCRIBE, msg)
