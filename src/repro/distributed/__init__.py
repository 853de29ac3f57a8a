"""Mobile and distributed query processing (sections 5.2–5.3).

The paper's architecture discussion is simulated faithfully:

* :mod:`repro.distributed.network` — a message-passing simulation with
  per-message accounting and scheduled disconnection windows (section 5.2
  turns on "the probability that an update ... can be propagated to M").
* :mod:`repro.distributed.node` — mobile computers, each hosting the
  database object of the vehicle it rides on (section 5.3's distribution
  assumption), plus the memory-limited display client of section 5.2.
* :mod:`repro.distributed.classify` — the three query types of section
  5.3: self-referencing, object, and relationship queries.
* :mod:`repro.distributed.strategies` — the competing processing
  strategies (ship-objects-to-querier vs broadcast-query-and-filter,
  centralise for relationship queries) with message-cost accounting.
* :mod:`repro.distributed.transmission` — immediate / delayed / periodic
  transmission of ``Answer(CQ)`` to a mobile client, with block-wise
  pagination under a memory limit ``B`` and staleness measurement.
* :mod:`repro.distributed.updates` — the sequence-numbered
  :class:`MotionUpdate` a mobile computer sends; :mod:`repro.server`
  carries it (batched, acked, retried with
  :mod:`repro.distributed.backoff` — DESIGN.md §4).
"""

from repro.distributed.network import (
    FaultPlan,
    LinkFaults,
    Message,
    NetworkStats,
    SimNetwork,
)
from repro.distributed.node import MobileClient, MobileNode
from repro.distributed.classify import QueryKind, classify_query
from repro.distributed.strategies import (
    broadcast_object_query,
    collect_object_query,
    continuous_object_query,
    relationship_query,
    self_referencing_query,
)
from repro.distributed.ftl_processing import (
    DistributedResult,
    process_distributed,
)
from repro.distributed.backoff import RetrySchedule
from repro.distributed.updates import MotionUpdate
from repro.distributed.transmission import (
    DelayedPolicy,
    ImmediatePolicy,
    PeriodicPolicy,
    TransmissionReport,
    simulate_transmission,
)

__all__ = [
    "SimNetwork",
    "Message",
    "NetworkStats",
    "FaultPlan",
    "LinkFaults",
    "MotionUpdate",
    "RetrySchedule",
    "MobileNode",
    "MobileClient",
    "QueryKind",
    "classify_query",
    "self_referencing_query",
    "collect_object_query",
    "broadcast_object_query",
    "continuous_object_query",
    "relationship_query",
    "DistributedResult",
    "process_distributed",
    "ImmediatePolicy",
    "DelayedPolicy",
    "PeriodicPolicy",
    "TransmissionReport",
    "simulate_transmission",
]
