"""An object inserted after a continuous query registered.

``add_object`` commits nothing — ``db.version`` stays and the log gains
no record — so the update router never hears of an insert.  The query
still sees the new object on its next read: the population is compared
with the one of the last full evaluation, and a change forces a full
one.  Every method must then agree with a fresh instantaneous answer,
a trigger fires for the new object at the next tick, and the server
registry refreshes the query in the next epoch.
"""

import pytest

from repro.core import ContinuousQuery, InstantaneousQuery, MostDatabase, ObjectClass
from repro.core.triggers import TemporalTrigger
from repro.ftl import parse_query
from repro.geometry import Point
from repro.server.metrics import ServerMetrics
from repro.server.protocol import SubscribeMsg
from repro.server.registry import SubscriptionRegistry
from repro.spatial import Polygon

INSIDE_P = "RETRIEVE o FROM cars o WHERE INSIDE(o, P)"
HORIZON = 10


def world() -> MostDatabase:
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(0, 0, 5, 5))
    db.add_moving_object("cars", "c0", Point(1, 1), Point(0, 0))
    db.add_moving_object("cars", "far", Point(50, 50), Point(0, 0))
    return db


def insert_c1(db: MostDatabase) -> None:
    version, log = db.version, len(db.log)
    db.add_moving_object("cars", "c1", Point(2, 2), Point(0, 0))
    assert (db.version, len(db.log)) == (version, log), "an insert commits nothing"


@pytest.mark.parametrize("method", ["interval", "incremental", "naive"])
def test_every_method_sees_an_insert(method):
    db = world()
    cq = ContinuousQuery(db, parse_query(INSIDE_P), horizon=HORIZON, method=method)
    assert cq.current() == {("c0",)}
    assert not cq.needs_refresh
    insert_c1(db)
    db.clock.tick()
    assert cq.needs_refresh
    fresh = InstantaneousQuery(parse_query(INSIDE_P), HORIZON).evaluate(db)
    assert fresh == {("c0",), ("c1",)}
    assert cq.current() == fresh
    assert cq.full_evaluations == 2
    assert not cq.needs_refresh
    # Re-seeded: the next update takes the ordinary path again.
    db.update_motion("c1", Point(0, 1))
    assert cq.current() == InstantaneousQuery(
        parse_query(INSIDE_P), HORIZON
    ).evaluate(db)
    assert cq.full_evaluations == (2 if method == "incremental" else 3)


def test_trigger_fires_for_an_inserted_object_at_the_next_tick():
    db = world()
    cq = ContinuousQuery(db, parse_query(INSIDE_P), horizon=HORIZON)
    entered = []
    TemporalTrigger(db, cq, on_enter=entered.append)
    assert entered == [("c0",)]
    insert_c1(db)
    assert entered == [("c0",)]
    db.clock.tick()
    assert entered == [("c0",), ("c1",)]


def test_registry_refreshes_an_inserted_object_in_the_next_epoch():
    db = world()
    metrics = ServerMetrics()
    registry = SubscriptionRegistry(db, metrics)
    rq = registry.register(
        SubscribeMsg(client_id="a", text=INSIDE_P, horizon=HORIZON)
    )
    assert registry.refresh_round(now=db.clock.now) == 0
    insert_c1(db)
    db.clock.tick()
    assert registry.refresh_round(now=db.clock.now) == 1
    assert {t.values for t in rq.state.tuples} == {("c0",), ("c1",)}
    assert registry.refresh_round(now=db.clock.now) == 0
