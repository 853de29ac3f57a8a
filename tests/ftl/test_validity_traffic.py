"""The validity-horizon accelerations, on traffic where they fire.

Two answer-preserving mechanisms of the incremental refresh read zero on
a position-only update stream, so their differential walls elsewhere
never see them act.  Each test here drives the traffic that makes one of
them fire, asserts that it did, and holds every answer equal to the
``validity_horizons=False`` twin and to ``method="interval"`` on twin
databases fed the same stream:

* **Horizon subtree skip** (``horizon_subtrees_skipped``): linear cars
  re-send unchanged motion (heartbeats) while a ``trucks`` class drives
  piecewise routes with a leg breakpoint inside the horizon.  The
  breakpoint keeps the whole query off the validity gate, so each
  heartbeat dirties it, and the refresh reuses the cars-only subtree
  whose stamp outlives the window.
* **Window-shift reuse on the incremental path**
  (``db.kinetic_cache.hits``): fuel and position updates land in the
  same refresh, so the ``INSIDE`` rows of fuel-updated cars are
  re-solved over a window that slid by one tick, and their stamped
  solves answer by clipping.  Stamped reuse is the only reuse, so the
  unstamped twin never touches the table.
"""

import random
from dataclasses import replace

from repro.core import ContinuousQuery, DynamicAttribute, MostDatabase, ObjectClass
from repro.ftl import parse_query
from repro.ftl.context import DEFAULT
from repro.geometry import Point
from repro.motion import LinearFunction, PiecewiseLinearFunction
from repro.spatial import Polygon

UNSTAMPED = replace(DEFAULT, validity_horizons=False)
HORIZON = 30
CARS = 40


def world(seed: int) -> MostDatabase:
    rng = random.Random(seed)
    db = MostDatabase()
    db.create_class(
        ObjectClass("cars", dynamic_attributes=("fuel",), spatial_dimensions=2)
    )
    db.create_class(ObjectClass("trucks", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(0, 0, 20, 20))
    for i in range(CARS):
        db.add_moving_object(
            "cars",
            f"c{i}",
            Point(rng.randint(-15, 35), rng.randint(-15, 35)),
            Point(rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))),
            dynamic_extra={
                "fuel": DynamicAttribute.linear(rng.randint(8, 40), -1)
            },
        )
    for j in range(3):
        turn = 10 + 4 * j  # a leg breakpoint inside every refresh window
        db.add_object(
            "trucks",
            f"t{j}",
            dynamic={
                "x_position": DynamicAttribute(
                    value=rng.randint(-50, 50),
                    updatetime=0,
                    function=PiecewiseLinearFunction([(0, 1.0), (turn, -1.0)]),
                ),
                "y_position": DynamicAttribute.linear(rng.randint(-50, 50), 0),
            },
        )
    return db


def heartbeat(db: MostDatabase, oid: str) -> None:
    """Re-send an object's unchanged motion, re-anchored at now."""
    obj = db.get(oid)
    now = db.clock.now
    x = obj.dynamic_attribute("x_position")
    y = obj.dynamic_attribute("y_position")
    db.update_motion(
        oid,
        Point(x.function.value(1.0), y.function.value(1.0)),
        position=Point(x.value_at(now), y.value_at(now)),
    )


def twins(text: str, seed: int) -> list[ContinuousQuery]:
    """Incremental, its unstamped twin and the interval method, each on
    its own database built from the same seed."""
    return [
        ContinuousQuery(world(seed), parse_query(text), HORIZON, **kwargs)
        for kwargs in (
            {"method": "incremental"},
            {"method": "incremental", "options": UNSTAMPED},
            {"method": "interval"},
        )
    ]


def test_heartbeats_skip_the_subtree_beyond_the_horizon():
    text = (
        "RETRIEVE o FROM cars o, trucks t "
        "WHERE EVENTUALLY WITHIN 8 INSIDE(o, P) AND DIST(o, t) <= 500"
    )
    queries = twins(text, seed=3)
    stamped, unstamped, _ = queries
    assert not stamped._horizon_eligible, "the truck legs keep the gate off"
    rng = random.Random(7)
    refreshes = 0
    for _ in range(8):
        beats = rng.sample(range(CARS), 4)
        for cq in queries:
            cq.db.clock.tick()
            for i in beats:
                heartbeat(cq.db, f"c{i}")
        before = stamped.incremental_refreshes
        answers = [cq.current() for cq in queries]
        refreshes += stamped.incremental_refreshes - before
        assert answers[0] == answers[1] == answers[2]
    assert refreshes == 8
    assert stamped.horizon_subtrees_skipped > 0
    assert unstamped.horizon_subtrees_skipped == 0
    assert stamped.rows_recomputed < unstamped.rows_recomputed


def test_mixed_fuel_and_position_refresh_reuses_solves_by_window_shift():
    text = (
        "RETRIEVE o FROM cars o "
        "WHERE EVENTUALLY WITHIN 8 (INSIDE(o, P) AND o.fuel > 10)"
    )
    queries = twins(text, seed=5)
    stamped, unstamped, interval = queries
    rng = random.Random(11)
    for _ in range(6):
        fuel = rng.sample(range(CARS), 4)
        moved = rng.randrange(CARS)
        velocity = Point(rng.choice((-1, 1)), rng.choice((-1, 1)))
        for cq in queries:
            db = cq.db
            db.clock.tick()
            for i in fuel:
                db.update_dynamic(
                    f"c{i}", "fuel", value=30, function=LinearFunction(-1)
                )
            db.update_motion(f"c{moved}", velocity)
        answers = [cq.current() for cq in queries]
        assert answers[0] == answers[1] == answers[2]
    assert stamped.incremental_refreshes == 6
    assert stamped.db.kinetic_cache.hits > 0
    assert unstamped.db.kinetic_cache.hits == 0
    assert len(unstamped.db.kinetic_cache) == 0
    assert interval.full_evaluations == 7
