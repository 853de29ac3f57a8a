"""The atom pruner's trajectory-MBR tables (DESIGN.md §7).

Two claims, each against a reference that is not the code under test:

* **Box for box.**  A class table is built in one vectorised pass over
  the motion columns for linear movers and by the scalar
  ``moving_point(...).linear_pieces`` path for every other member.  The
  reference below is the scalar path for *every* member — the per-object
  build the table replaced — and the two must agree bit for bit: every
  corner (signed zeros included), every owner and row range, the
  unprunable and raising sets and the scale the pad is taken from.  A
  superset would still prune soundly, but would move
  ``pruned_instantiations``, cache keys and every pinned counter.
* **One build per content version.**  Tables live on the database,
  keyed by the history's content token and the window: the queries and
  contexts of one version share one build per bound class, every change
  of content forces a new one, a stale snapshot history is never served
  a newer table, and the cache stays bounded however many versions pass.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MostDatabase, ObjectClass
from repro.core.dynamic import DynamicAttribute
from repro.core.history import FutureHistory, RecordedHistory
from repro.errors import QueryError, SchemaError
from repro.ftl import parse_query
from repro.ftl.atoms import _linear_leg_boxes, build_class_table
from repro.ftl.context import DEFAULT, EvalContext
from repro.geometry import Point
from repro.motion import (
    LinearFunction,
    PiecewiseLinearFunction,
    PolynomialFunction,
    SinusoidFunction,
)
from repro.motion.functions import ShiftedFunction
from repro.motion.moving import MovingPoint
from repro.parallel.motion import MotionSnapshot
from repro.parallel.worker import _evaluate
from repro.spatial import Polygon


def bits(values):
    """The exact float64 bytes of an array of corners."""
    return np.ascontiguousarray(np.asarray(values, dtype=float)).tobytes()


def leg_boxes(pieces):
    """``(lo rows, hi rows)`` of a mover's legs — the scalar build."""
    lo, hi = [], []
    for piece in pieces:
        span = piece.end - piece.start
        a = piece.origin.coords
        b = [x + v * span for x, v in zip(a, piece.velocity.coords)]
        lo.append([min(x, y) for x, y in zip(a, b)])
        hi.append([max(x, y) for x, y in zip(a, b)])
    return lo, hi


def scalar_reference(history, class_name, start, end):
    """Every member through ``history.moving_point(...).linear_pieces``."""
    boxes, unprunable, raising = {}, set(), set()
    for oid in history.object_ids(class_name):
        try:
            pieces = history.moving_point(oid).linear_pieces(start, end)
        except (QueryError, SchemaError):
            unprunable.add(oid)
            raising.add(oid)
            continue
        if pieces is None:
            unprunable.add(oid)
            continue
        boxes[oid] = leg_boxes(pieces)
    corners = [c for lo, hi in boxes.values() for box in lo + hi for c in box]
    scale = max(abs(c) for c in corners) if corners else 0.0
    return boxes, unprunable, raising, scale


def assert_table_matches_reference(history, class_name, start, end):
    table = build_class_table(
        history, class_name, start, end, history.moving_point
    )
    boxes, unprunable, raising, scale = scalar_reference(
        history, class_name, start, end
    )
    assert set(table.rows) == set(boxes)
    for oid, (lo, hi) in boxes.items():
        table_boxes, first, stop = table.rows[oid]
        assert table_boxes is table.boxes
        assert table.boxes.owners[first:stop] == [oid] * len(lo)
        assert bits(table.boxes.lo[:, first:stop].T) == bits(lo), oid
        assert bits(table.boxes.hi[:, first:stop].T) == bits(hi), oid
    owners = [] if table.boxes is None else table.boxes.owners
    assert len(owners) == sum(len(lo) for lo, _ in boxes.values())
    assert table.unprunable == unprunable
    assert table.raising == raising
    assert table.scale == scale
    return table


# ---------------------------------------------------------------------------
# Box for box: vectorised + scalar build == scalar reference
# ---------------------------------------------------------------------------

#: Sevenths have full-length mantissas: sums and products of them round,
#: so an operation out of the scalar order shows up in the last bit.
number = st.one_of(
    st.integers(-40, 40),
    st.floats(-40, 40, allow_nan=False, allow_infinity=False),
    st.integers(-280, 280).map(lambda k: k / 7),
    st.sampled_from([0.0, -0.0, 0.5, -2.25]),
)
slope = st.one_of(
    st.integers(-3, 3),
    st.floats(-3, 3, allow_nan=False, allow_infinity=False),
    st.integers(-21, 21).map(lambda k: k / 7),
    st.sampled_from([0.0, -0.0]),
)


def when(end):
    """An update time up to the window end (a database is never updated
    past its own clock, so a history's triples are never future-dated
    beyond the windows it is evaluated over)."""
    return st.one_of(
        st.integers(0, end),
        st.floats(0, end, allow_nan=False),
        st.integers(0, 7 * end).map(lambda k: k / 7),
    )

function = st.one_of(
    st.builds(LinearFunction, slope),
    st.builds(LinearFunction, slope),
    st.builds(
        PiecewiseLinearFunction,
        st.lists(
            st.tuples(st.integers(1, 14), slope),
            max_size=3,
            unique_by=lambda piece: piece[0],
        ).map(lambda turns: [(0, 0.5)] + sorted(turns)),
    ),
    st.builds(SinusoidFunction, st.sampled_from([0.0, 2.0]), st.just(0.7)),
    st.builds(PolynomialFunction, st.sampled_from([[1.0], [1.0, 0.25]])),
)


@st.composite
def movers(draw, dim, end):
    """One object's position axes: linear with one shared update time
    (the vectorised rows), linear with per-axis update times, or
    anything — an update inside the window, piecewise, sinusoid or
    polynomial motion."""
    shape = draw(st.sampled_from(("shared", "mixed", "any")))
    common = draw(when(end))
    axes = []
    for _ in range(dim):
        linear = shape != "any"
        fn = draw(st.builds(LinearFunction, slope) if linear else function)
        time = common if shape == "shared" else draw(when(end))
        axes.append(DynamicAttribute(draw(number), time, fn))
    return axes


SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(
    start=st.integers(0, 20),
    horizon=st.integers(0, 12),
    snapshot=st.booleans(),
    data=st.data(),
)
def test_class_tables_equal_the_scalar_build(start, horizon, snapshot, data):
    """2-D and 3-D classes and a nonspatial one, every motion shape, a
    snapshot or read-through history, zero-length windows included."""
    end = start + horizon
    cars = data.draw(st.lists(movers(2, end), max_size=8), label="cars")
    drones = data.draw(st.lists(movers(3, end), max_size=5), label="drones")
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.create_class(ObjectClass("drones", spatial_dimensions=3))
    db.create_class(ObjectClass("tags", dynamic_attributes=("level",)))
    for cls, rows in (("cars", cars), ("drones", drones)):
        names = db.object_class(cls).position_attributes
        for i, axes in enumerate(rows):
            db.add_object(cls, f"{cls[0]}{i}", dynamic=dict(zip(names, axes)))
    db.add_object("tags", "t0", dynamic={"level": DynamicAttribute.linear(1, 2)})
    history = FutureHistory(db, start=start, snapshot=snapshot)
    for cls in ("cars", "drones", "tags"):
        assert_table_matches_reference(history, cls, start, end)
    tags = build_class_table(history, "tags", start, end, history.moving_point)
    assert tags.boxes is None and tags.raising == {"t0"}


def reference_mover(axes):
    """``MostObject.moving_point`` for any number of axes (a 1-D class
    cannot be declared, so the kernel is checked on bare triples)."""
    anchor_time = max(a.updatetime for a in axes)
    functions = [
        a.function
        if a.updatetime == anchor_time
        else ShiftedFunction(a.function, anchor_time - a.updatetime)
        for a in axes
    ]
    anchor = Point(*(a.value_at(anchor_time) for a in axes))
    return MovingPoint(anchor, functions, anchor_time=anchor_time)


@SETTINGS
@given(
    dim=st.integers(1, 3),
    count=st.integers(0, 8),
    data=st.data(),
    start=st.integers(0, 20),
    horizon=st.integers(0, 12),
)
def test_linear_kernel_equals_the_scalar_leg(dim, count, data, start, horizon):
    """The vectorised kernel on 1-, 2- and 3-axis movers: a qualifying
    object has exactly one scalar leg and its box, bit for bit."""
    end = start + horizon
    axes = [data.draw(movers(dim, end)) for _ in range(count)]
    linear, lo, hi = _linear_leg_boxes(
        [a for mover in axes for a in mover], dim, start, end
    )
    assert lo.shape == hi.shape == (int(linear.sum()), dim)
    picked = [mover for mover, ok in zip(axes, linear.tolist()) if ok]
    for row, mover in enumerate(picked):
        pieces = reference_mover(mover).linear_pieces(start, end)
        assert pieces is not None and len(pieces) == 1
        (want_lo,), (want_hi,) = leg_boxes(pieces)
        assert bits(lo[row]) == bits(want_lo)
        assert bits(hi[row]) == bits(want_hi)


@pytest.mark.parametrize(
    "times,slope_value,negative",
    [
        ((0, 0), -2, False),  # -0.0 + (-2 * 0) is +0.0
        ((0, 0), -2.0, True),  # -0.0 + (-2.0 * 0) stays -0.0
        ((3.0, 3), -2, True),  # anchored at 3.0: -2 * (3.0 - 3) is -0.0
        ((3, 3.0), -2, True),  # anchored at 3: -2 * (3 - 3.0) is -0.0
    ],
)
def test_signed_zero_anchor_follows_the_scalar_path(times, slope_value, negative):
    """The anchor step's zero keeps the scalar path's type, so a -0.0
    coordinate survives exactly when it survives there."""
    axes = [
        DynamicAttribute(0.0, times[0], LinearFunction(0.5)),
        DynamicAttribute(-0.0, times[1], LinearFunction(slope_value)),
    ]
    start = int(times[0])  # a zero-length window at the update time
    linear, lo, hi = _linear_leg_boxes(axes, 2, start, start)
    assert linear.tolist() == [True]
    (want_lo,), (want_hi,) = leg_boxes(
        reference_mover(axes).linear_pieces(start, start)
    )
    assert bits(lo[0]) == bits(want_lo)
    assert bits(hi[0]) == bits(want_hi)
    assert bool(np.signbit(lo[0, 1])) is negative


def test_recorded_history_takes_the_scalar_path():
    """A recorded history has no motion columns: every member is boxed
    from its spliced trajectory (or refused when it jumps)."""
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.add_moving_object("cars", "c0", Point(0, 0), Point(1, 0))
    db.add_moving_object("cars", "c1", Point(5, 5), Point(0, 1))
    history = RecordedHistory(db, 0)
    db.clock.tick(3)
    db.update_motion("c0", Point(0, 2))
    db.update_motion("c1", Point(0, 0), position=Point(50, 50))  # a jump
    table = assert_table_matches_reference(history, "cars", 0, 8)
    assert set(table.rows) == {"c0"} and table.raising == {"c1"}
    assert table.rows["c0"][2] - table.rows["c0"][1] == 2  # two legs


# ---------------------------------------------------------------------------
# One build per content version
# ---------------------------------------------------------------------------

QMIX = (
    "RETRIEVE o FROM cars o WHERE EVENTUALLY WITHIN 8 INSIDE(o, P)",
    "RETRIEVE v FROM cars v, depots d WHERE DIST(v, d) <= 40",
    "RETRIEVE o FROM cars o WHERE INSIDE(o, P) UNTIL INSIDE(o, Q)",
    "RETRIEVE o FROM cars o WHERE INSIDE(o, P) AND o.x_position <= 10",
)
HORIZON = 32


def fleet(seed=1, cars=60, depots=3):
    rng = random.Random(seed)
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.create_class(ObjectClass("depots", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(-40, -40, 40, 40))
    db.define_region("Q", Polygon.rectangle(20, 20, 120, 120))
    speeds = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
    for i in range(cars):
        db.add_moving_object(
            "cars",
            f"car-{i}",
            Point(rng.randint(-200, 200), rng.randint(-200, 200)),
            Point(rng.choice(speeds), rng.choice(speeds)),
        )
    for j in range(depots):
        db.add_moving_object(
            "depots", f"depot-{j}", Point(rng.randint(-100, 100), rng.randint(-100, 100))
        )
    return db


def evaluate_all(db):
    return [
        dict(parse_query(text).evaluate(FutureHistory(db), HORIZON).rows())
        for text in QMIX
    ]


def test_qmix_builds_one_table_per_bound_class():
    db = fleet()
    evaluate_all(db)
    assert db.mbr_tables.builds == 2  # cars, depots
    assert len(db.mbr_tables) == 2
    evaluate_all(db)
    assert db.mbr_tables.builds == 2, "same version: every table reused"
    db.mbr_tables.clear()
    assert len(db.mbr_tables) == 0
    evaluate_all(db)
    assert db.mbr_tables.builds == 4


def test_content_changes_force_a_new_build():
    db = fleet()
    evaluate_all(db)
    db.update_motion("car-0", Point(0.5, 0.5))
    evaluate_all(db)
    assert db.mbr_tables.builds == 4
    db.add_moving_object("cars", "late", Point(0, 0), Point(1, 1))
    evaluate_all(db)
    assert db.mbr_tables.builds == 6
    db.clock.tick()  # a new window start is a new token too
    evaluate_all(db)
    assert db.mbr_tables.builds == 8


def test_stale_snapshot_is_never_served_a_newer_table():
    db = fleet()
    stale = FutureHistory(db)
    db.update_motion("car-0", Point(0, 0), position=Point(1000, 1000))
    fresh = EvalContext(FutureHistory(db), HORIZON, {"o": "cars"})
    assert fresh.atom_pruner().is_indexed("car-0")
    old = EvalContext(stale, HORIZON, {"o": "cars"})
    pruner = old.atom_pruner()
    assert pruner.is_indexed("car-0")
    boxes, first, stop = pruner._rows["car-0"]
    (want_lo,), _ = leg_boxes(
        stale.moving_point("car-0").linear_pieces(old.start, old.end)
    )
    assert bits(boxes.lo[:, first:stop].T) == bits([want_lo])
    assert boxes.lo[0, first] < 1000, "the stale history saw the old motion"
    assert db.mbr_tables.builds == 2


def test_tables_stay_bounded_across_versions():
    db = fleet(cars=12, depots=2)
    for step in range(200):
        db.clock.tick()
        db.update_motion(f"car-{step % 12}", Point(step % 3 - 1.0, 0.5))
        parse_query(QMIX[1]).evaluate(FutureHistory(db), HORIZON)
    assert db.mbr_tables.builds == 400
    assert len(db.mbr_tables) <= 2


def test_worker_replica_builds_one_table_per_snapshot():
    """A worker evaluates every chunk against one replica: one table per
    bound class, box for box and pad for pad the serial one."""
    db = fleet()
    history = FutureHistory(db)
    replica, replica_history = MotionSnapshot.build(history).build_database()
    query = parse_query(QMIX[1])
    domain = history.object_ids("cars")
    for chunk in (domain[:20], domain[20:40], domain[40:]):
        _evaluate(
            {"history": replica_history},
            {
                "query": query,
                "horizon": HORIZON,
                "split_var": "v",
                "shard_ids": chunk,
                "model": None,
                "order": True,
                "options": DEFAULT,
            },
        )
    assert replica.mbr_tables.builds == 2
    serial = EvalContext(history, HORIZON, query.bindings).atom_pruner()
    shard = EvalContext(
        replica_history, HORIZON, query.bindings,
        domain_restrictions={"v": domain[:20]},
    ).atom_pruner()
    serial._build()
    shard._build()
    assert shard._pad == serial._pad
    assert set(shard._rows) == set(serial._rows)
    for dim, table in serial._tables.items():
        assert bits(shard._tables[dim].lo) == bits(table.lo)
        assert bits(shard._tables[dim].hi) == bits(table.hi)
        assert shard._tables[dim].owners == table.owners


@pytest.mark.parametrize("snapshot", [True, False])
def test_histories_of_one_version_share_a_table(snapshot):
    """A snapshot and a read-through history of the same content carry
    the same token, hence read the same table object."""
    db = fleet()
    a = EvalContext(FutureHistory(db), HORIZON, {"o": "cars"}).atom_pruner()
    b = EvalContext(
        FutureHistory(db, snapshot=snapshot), HORIZON, {"o": "cars"}
    ).atom_pruner()
    a._build()
    b._build()
    assert a._tables[2] is b._tables[2]
    assert db.mbr_tables.builds == 1
