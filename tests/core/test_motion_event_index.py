"""The motion-event index: ``class_motion_events`` reads only the objects
``MostDatabase.motion_event_candidates`` returns, and must answer exactly
what a scan of every dynamic triple of every object answers.

``full_scan_motion_events`` below is that scan — the reader as it was
before the index existed — and is the oracle: random streams of inserts,
dynamic and motion updates and network ingest, over every motion
function kind, are compared against it dict for dict, ``None`` and
``inf`` included.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MostDatabase, ObjectClass
from repro.core.dynamic import DynamicAttribute
from repro.core.history import FutureHistory
from repro.errors import MotionError, SchemaError
from repro.ftl.analysis.validity import class_motion_events
from repro.geometry import Point
from repro.motion.functions import (
    LinearFunction,
    PiecewiseLinearFunction,
    PolynomialFunction,
    ShiftedFunction,
    SinusoidFunction,
)
from repro.parallel import MotionSnapshot

INF = math.inf
CLASSES = ["cars", "depots", "ghosts"]


def full_scan_motion_events(db, classes, t_eval, end):
    """Every dynamic triple of every object of every class, no index."""
    events = {}
    for cls in sorted(set(classes)):
        try:
            objects = list(db.objects_of(cls))
        except Exception:
            events[cls] = None
            continue
        earliest = INF
        nonlinear = False
        for obj in objects:
            for attr in obj.object_class.all_dynamic:
                triple = obj.dynamic_attribute(attr)
                duration = max(end - float(triple.updatetime), 0.0)
                bps = triple.function.linear_breakpoints(duration)
                if bps is None:
                    nonlinear = True
                    break
                for rel_t, _slope in bps:
                    t_abs = float(triple.updatetime) + rel_t
                    if t_abs > t_eval:
                        earliest = min(earliest, t_abs)
                        break
            if nonlinear:
                break
        events[cls] = None if nonlinear else earliest
    return events


def object_motion_event(obj, t_eval, end):
    """The full scan's answer for a class holding only ``obj``."""
    solo = MostDatabase()
    solo.create_class(obj.object_class)
    name = obj.object_class.name
    solo.add_object(
        name,
        obj.object_id,
        dynamic={
            attr: obj.dynamic_attribute(attr)
            for attr in obj.object_class.all_dynamic
        },
    )
    return full_scan_motion_events(solo, [name], t_eval, end)[name]


def make_db():
    db = MostDatabase()
    db.create_class(
        ObjectClass("cars", dynamic_attributes=("fuel",), spatial_dimensions=2)
    )
    db.create_class(ObjectClass("depots", spatial_dimensions=2))
    return db


def ids(objects):
    return sorted(obj.object_id for obj in objects)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

slopes = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
leg_starts = st.integers(min_value=1, max_value=12).map(float)
piecewise = st.one_of(
    slopes.map(lambda s: PiecewiseLinearFunction([(0.0, s)])),
    st.lists(st.tuples(leg_starts, slopes), min_size=1, max_size=3).map(
        lambda legs: PiecewiseLinearFunction(
            [(0.0, 1.0)] + sorted(dict(legs).items())
        )
    ),
)
plain = slopes.map(LinearFunction)
#: Not plain, yet piecewise linear: these carry events the index must
#: find among its eventful objects.
eventful = st.one_of(
    piecewise,
    slopes.map(lambda c: PolynomialFunction((c,))),
    st.builds(SinusoidFunction, st.just(0.0), st.sampled_from([0.0, 0.5])),
    st.builds(SinusoidFunction, st.just(1.5), st.just(0.0)),
    st.builds(
        ShiftedFunction,
        st.one_of(plain, piecewise),
        st.integers(min_value=0, max_value=8).map(float),
    ),
)
#: Not piecewise linear: one such attribute makes its class's answer
#: ``None`` whatever else it holds, so it is drawn rarely.
nonlinear = st.one_of(
    st.tuples(slopes, st.sampled_from([-0.5, 0.25])).map(PolynomialFunction),
    st.builds(SinusoidFunction, st.just(1.5), st.just(0.5)),
)


def weighted(*choices):
    """One of ``(weight, strategy)`` pairs, drawn in proportion to the
    weights (``st.one_of`` draws its branches evenly)."""
    table = [strategy for weight, strategy in choices for _ in range(weight)]
    return st.integers(min_value=0, max_value=len(table) - 1).flatmap(
        table.__getitem__
    )


# Plain motion dominates real fleets; weight it up.
triples_functions = weighted((12, plain), (4, eventful), (1, nonlinear))
small = st.integers(min_value=-20, max_value=20)
offsets = st.one_of(
    st.integers(min_value=-8, max_value=8),
    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
)

# Updates name their object by position among the objects inserted so
# far, so almost every one lands; the add's ``updatetime`` shift may put
# a triple ahead of the clock, which a later update must then refuse.
picks = st.integers(min_value=0, max_value=99)
adds = st.tuples(
    st.just("add"),
    st.sampled_from(["cars", "depots"]),
    st.lists(
        st.tuples(
            small, st.integers(min_value=-3, max_value=1), triples_functions
        ),
        min_size=3,
        max_size=3,
    ),
)
ticks = st.tuples(st.just("tick"), st.integers(min_value=1, max_value=4))
dynamic_updates = st.tuples(
    st.just("dynamic"),
    picks,
    st.sampled_from(["x_position", "y_position", "fuel"]),
    st.one_of(st.none(), small),
    st.one_of(st.none(), triples_functions),
)
motion_updates = st.tuples(
    st.just("motion"),
    picks,
    st.tuples(slopes, slopes),
    st.one_of(st.none(), st.tuples(small, small)),
)
ingests = st.tuples(
    st.just("ingest"),
    picks,
    st.integers(min_value=0, max_value=6),
    st.tuples(slopes, slopes),
    st.tuples(small, small),
    st.integers(min_value=0, max_value=3),
)
checks = st.tuples(
    st.just("check"), offsets, st.integers(min_value=0, max_value=30)
)
operations = st.lists(
    weighted(
        (1, adds),
        (2, ticks),
        (2, dynamic_updates),
        (2, motion_updates),
        (1, ingests),
        (1, checks),
    ),
    min_size=4,
    max_size=30,
)


def apply(db, op):
    kind = op[0]
    now = db.clock.now
    if kind == "add":
        _, cls, triples = op
        oid = f"o{len(db)}"
        attrs = db.object_class(cls).all_dynamic
        dynamic = {
            attr: DynamicAttribute(
                value=value, updatetime=max(now + shift, 0), function=fn
            )
            for attr, (value, shift, fn) in zip(attrs, triples)
        }
        db.add_object(cls, oid, dynamic=dynamic)
        return
    if kind == "tick":
        db.clock.tick(op[1])
        return
    objects = list(db.all_objects())
    if not objects:
        return
    oid = objects[op[1] % len(objects)].object_id
    if kind == "dynamic":
        _, _, attr, value, fn = op
        db.update_dynamic(oid, attr, value=value, function=fn)
    elif kind == "motion":
        _, _, velocity, position = op
        snap = None if position is None else Point(*position)
        db.update_motion(oid, Point(*velocity), snap)
    elif kind == "ingest":
        _, _, seq, velocity, position, lag = op
        db.ingest_motion(
            oid, seq, Point(*velocity), Point(*position), max(now - lag, 0)
        )


def assert_same_events(db, t_eval, end):
    assert class_motion_events(db, CLASSES, t_eval, end) == (
        full_scan_motion_events(db, CLASSES, t_eval, end)
    )
    # Unmasked by a class's ``None``: every object the index skips
    # carries no event after ``t_eval`` on its own.
    for cls in ("cars", "depots"):
        read = {o.object_id for o in db.motion_event_candidates(cls, t_eval)}
        for obj in db.objects_of(cls):
            if obj.object_id not in read:
                assert object_motion_event(obj, t_eval, end) == INF


@settings(settings.get_profile("repro"), max_examples=300)
@given(
    initial=st.lists(adds, min_size=1, max_size=4),
    ops=operations,
    final=st.lists(st.tuples(offsets, small), max_size=4),
)
def test_indexed_reader_equals_the_full_scan(initial, ops, final):
    db = make_db()
    for op in initial + ops:
        if op[0] == "check":
            _, offset, horizon = op
            now = db.clock.now
            assert_same_events(db, now + offset, now + horizon)
            continue
        try:
            apply(db, op)
        except (SchemaError, MotionError):
            continue  # refused: the clock is behind the triple's updatetime
        now = db.clock.now
        # Just before the write's anchor (the full-scan branch, unless
        # an older triple is newer still) and at it (the indexed one).
        assert_same_events(db, now - 1, now + 12)
        assert_same_events(db, now, now + 12)
    latest = max(
        (
            float(obj.dynamic_attribute(attr).updatetime)
            for obj in db.all_objects()
            for attr in obj.object_class.all_dynamic
        ),
        default=0.0,
    )
    for offset, horizon in [(0, 20), (-1, 20), *final]:
        # Around both the clock and the newest anchor, so both the
        # indexed branch and the full-scan branch run.
        for t_eval in (db.clock.now + offset, latest + offset):
            assert_same_events(db, t_eval, t_eval + abs(horizon))


# ---------------------------------------------------------------------------
# Unit cases
# ---------------------------------------------------------------------------


def test_object_enters_and_leaves_eventful():
    db = make_db()
    db.add_object(
        "cars",
        "c",
        dynamic={
            "x_position": DynamicAttribute.linear(0.0, 1.0),
            "y_position": DynamicAttribute.linear(0.0, 0.0),
            "fuel": DynamicAttribute.linear(50.0, -1.0),
        },
    )
    assert db.motion_event_candidates("cars", 0.0) == []
    db.clock.tick()
    db.update_dynamic(
        "c",
        "x_position",
        function=PiecewiseLinearFunction([(0.0, 1.0), (4.0, -1.0)]),
    )
    assert ids(db.motion_event_candidates("cars", 1.0)) == ["c"]
    assert class_motion_events(db, ["cars"], 1.0, 50.0) == {"cars": 5.0}
    db.clock.tick()
    db.update_motion("c", Point(1.0, 0.0))
    assert db.motion_event_candidates("cars", 2.0) == []
    assert class_motion_events(db, ["cars"], 2.0, 50.0) == {"cars": INF}


def test_a_non_position_attribute_keeps_an_object_eventful():
    db = make_db()
    db.add_moving_object(
        "cars",
        "c",
        Point(0.0, 0.0),
        Point(1.0, 0.0),
        dynamic_extra={
            "fuel": DynamicAttribute(
                50.0, 0, PiecewiseLinearFunction([(0.0, -1.0), (9.0, 0.0)])
            )
        },
    )
    db.update_motion("c", Point(2.0, 2.0))
    assert ids(db.motion_event_candidates("cars", 0.0)) == ["c"]
    assert class_motion_events(db, ["cars"], 0.0, 50.0) == {"cars": 9.0}
    db.update_dynamic("c", "fuel", function=LinearFunction(0.0))
    assert db.motion_event_candidates("cars", 0.0) == []


def test_plain_attribute_anchored_after_t_eval_takes_the_full_scan():
    db = make_db()
    for oid in ("c0", "c1"):
        db.add_moving_object(
            "cars",
            oid,
            Point(0.0, 0.0),
            Point(1.0, 0.0),
            dynamic_extra={"fuel": DynamicAttribute.linear(9.0, -1.0)},
        )
    db.clock.tick(5)
    db.update_motion("c0", Point(-1.0, 0.0))
    # Anchored at 5, after t_eval = 3: its updatetime is the event.
    assert ids(db.motion_event_candidates("cars", 3.0)) == ["c0", "c1"]
    assert class_motion_events(db, ["cars"], 3.0, 50.0) == {"cars": 5.0}
    assert db.motion_event_candidates("cars", 5.0) == []
    assert class_motion_events(db, ["cars"], 5.0, 50.0) == {"cars": INF}


def test_unknown_class_raises():
    with pytest.raises(SchemaError):
        make_db().motion_event_candidates("ghosts", 0.0)


def test_shard_replica_answers_like_its_parent():
    db = make_db()
    db.add_moving_object(
        "cars",
        "plain",
        Point(0.0, 0.0),
        Point(1.0, 0.0),
        dynamic_extra={"fuel": DynamicAttribute.linear(9.0, -1.0)},
    )
    db.add_moving_object(
        "cars",
        "legs",
        Point(0.0, 0.0),
        Point(1.0, 0.0),
        dynamic_extra={"fuel": DynamicAttribute.linear(9.0, -1.0)},
    )
    db.add_moving_object("depots", "d0", Point(3.0, 3.0))
    db.clock.tick(2)
    db.update_dynamic(
        "legs",
        "y_position",
        function=PiecewiseLinearFunction([(0.0, 1.0), (3.0, 0.0), (7.0, 2.0)]),
    )
    db.clock.tick(1)
    db.update_motion("plain", Point(0.5, 0.5))
    snapshot = MotionSnapshot.build(FutureHistory(db))
    replica, _history = snapshot.build_database()
    assert ids(replica.motion_event_candidates("cars", 3.0)) == ["legs"]
    for t_eval in (0.0, 2.0, 2.5, 3.0, 5.0, 9.0, 12.0):
        for end in (t_eval, t_eval + 4.0, 40.0):
            parent = class_motion_events(db, CLASSES, t_eval, end)
            assert class_motion_events(replica, CLASSES, t_eval, end) == parent
            assert parent == full_scan_motion_events(db, CLASSES, t_eval, end)
