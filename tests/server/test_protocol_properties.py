"""Property wall over ``decode_line``: whatever a socket peer sends, a
line either becomes a payload whose id fields are hashable or raises
``DistributedError`` — the one error the TCP transport catches and
counts in ``bad_lines``.  Nothing else may escape."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DistributedError
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
    IngestAck,
    IngestBatch,
    decode_line,
    to_wire,
)
from tests.server.test_protocol import ROUND_TRIPS

KINDS = [
    INGEST_BATCH, INGEST_ACK, INGEST_BUSY, SUBSCRIBE, SUBSCRIBED, DELTA,
    DELTA_ACK, RESUME, HEARTBEAT,
]

#: Every key any wire message or nested wire object carries.
FIELDS = sorted(
    {
        "kind", "reporter_id", "batch_seq", "updates", "acked", "credits",
        "retry_after", "client_id", "text", "horizon", "policy", "period",
        "window", "staleness_bound", "have_seq", "incarnation", "query_id",
        "error", "seq", "aged_from", "adds", "retracts", "snapshot",
        "free_slots", "sent_at", "object_id", "measured_at", "position",
        "velocity", "values", "begin", "end", "support", "max_age",
    }
)

ID_FIELDS = ("client_id", "query_id", "reporter_id")


class Raw(str):
    """A JSON number token written verbatim: Python's ``json`` accepts
    ``1e999`` and ``Infinity``, which ``json.dumps`` never writes for an
    integer field."""


RAW_NUMBERS = [
    "1e999", "-1e999", "Infinity", "-Infinity", "NaN", "1e308",
    "1" + "0" * 400, "-" + "9" * 400,
]


def dump(value) -> str:
    if isinstance(value, Raw):
        return str(value)
    if isinstance(value, dict):
        items = (f"{json.dumps(k)}:{dump(v)}" for k, v in value.items())
        return "{" + ",".join(items) + "}"
    if isinstance(value, list):
        return "[" + ",".join(dump(v) for v in value) + "]"
    return json.dumps(value)


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=10**300, max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.sampled_from(KINDS),
    st.sampled_from(RAW_NUMBERS).map(Raw),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(FIELDS), inner, max_size=4),
    max_leaves=10,
)
overrides = st.dictionaries(st.sampled_from(FIELDS), values, max_size=4)

#: A random object of a wire kind and wire field names.
random_frames = st.builds(
    lambda kind, rest: {**rest, "kind": kind},
    st.sampled_from(KINDS + ["bogus"]),
    overrides,
)
#: A well-formed message with some fields (perhaps none) replaced, so
#: many frames get past the kind dispatch and most of the field reads.
mutated_frames = st.builds(
    lambda pair, rest: {**to_wire(*pair), **rest},
    st.sampled_from(ROUND_TRIPS),
    overrides,
)


def id_values(payload):
    found = [
        getattr(payload, name) for name in ID_FIELDS if hasattr(payload, name)
    ]
    if isinstance(payload, IngestBatch):
        found += [update.object_id for update in payload.updates]
    if isinstance(payload, IngestAck):
        found += [object_id for object_id, _seq in payload.acked]
    return found


@settings(settings.get_profile("repro"), max_examples=400)
@given(frame=st.one_of(random_frames, mutated_frames))
def test_a_line_decodes_with_hashable_ids_or_raises_distributed_error(frame):
    line = (dump(frame) + "\n").encode()
    try:
        kind, payload = decode_line(line)
    except DistributedError:
        return
    assert kind in KINDS
    for value in id_values(payload):
        assert not isinstance(value, (list, dict))
        hash(value)

