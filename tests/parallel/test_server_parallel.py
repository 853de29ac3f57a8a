"""Server and sharding do not meet: ``parallel=`` is gone from the
continuous-query / server stack (a registered query is maintained
incrementally, in-process), and what the server displays is what a cold
sharded evaluation of the same text on the same database returns."""

import asyncio

import pytest

from repro.core.database import MostDatabase
from repro.core.history import FutureHistory
from repro.core.objects import ObjectClass
from repro.core.queries import ContinuousQuery
from repro.distributed.network import FaultPlan, SimNetwork
from repro.distributed.node import MobileNode
from repro.ftl import parse_query
from repro.geometry import Point
from repro.motion import linear_moving_point
from repro.server import BatchingReporter, CQServer, SubscriberClient
from repro.server.metrics import ServerMetrics
from repro.server.registry import SubscriptionRegistry
from repro.temporal import SimulationClock

QUERY = "RETRIEVE v FROM trackers v, beacons b WHERE DIST(v, b) <= 60"
HORIZON = 200


def build_world(n_trackers=4):
    clock = SimulationClock()
    db = MostDatabase(clock)
    network = SimNetwork(clock, faults=FaultPlan(seed=0))
    db.create_class(ObjectClass("trackers", spatial_dimensions=2))
    db.create_class(ObjectClass("beacons", spatial_dimensions=2))
    db.add_moving_object("beacons", "beacon", Point(0.0, 0.0))
    server = CQServer(db, network)
    reporters = []
    for i in range(n_trackers):
        oid = f"tracker-{i}"
        db.add_moving_object(
            "trackers", oid, Point(10.0 * i, 0.0), Point(1.0, 0.0)
        )
        db.track(oid)
        node = MobileNode(
            oid,
            network,
            linear_moving_point(Point(10.0 * i, 0.0), Point(1.0, 0.0)),
        )
        reporters.append(BatchingReporter(node, object_id=oid))
    return db, network, server, reporters


def drive(server, epochs):
    asyncio.run(server.serve(epochs=epochs))


def cold_sharded_display(db):
    """The same text, evaluated from scratch with two workers, now."""
    relation = parse_query(QUERY).evaluate(
        FutureHistory(db), HORIZON, parallel=2
    )
    return relation.satisfied_at(db.clock.now)


def test_parallel_knob_reaches_registered_queries():
    """It reaches nothing any more: the keyword is a ``TypeError`` at all
    three layers, never silently ignored."""
    db, network, server, _ = build_world()
    with pytest.raises(TypeError):
        CQServer(db, network, parallel=2)
    with pytest.raises(TypeError):
        SubscriptionRegistry(db, ServerMetrics(), parallel=2)
    with pytest.raises(TypeError):
        ContinuousQuery(db, parse_query(QUERY), horizon=HORIZON, parallel=2)
    assert not hasattr(server.registry, "parallel")
    client = SubscriberClient(network, "c1", QUERY, horizon=HORIZON)
    drive(server, 5)
    assert client.subscribed
    rq = next(iter(server.registry.queries.values()))
    assert not hasattr(rq.cq, "parallel_workers")


def test_parallel_server_matches_serial_displays():
    db, network, server, reporters = build_world()
    client = SubscriberClient(network, "c1", QUERY, horizon=HORIZON)
    drive(server, 6)
    assert client.subscribed
    assert client.display_at() == cold_sharded_display(db) != set()
    # The same comparison after an update stream has been patched in.
    reporters[0].report(Point(50.0, 0.0), position=Point(500.0, 0.0))
    drive(server, 10)
    assert client.display_at() == cold_sharded_display(db)
    assert ("tracker-0",) not in client.display_at()
    rq = next(iter(server.registry.queries.values()))
    assert rq.cq.current() == client.display_at()
