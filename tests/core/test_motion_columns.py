"""The motion columns of ``MostDatabase`` (``repro.core.columns``).

Every class keeps one structure-of-arrays store, written wherever a
triple is installed, and every motion reader gathers from it.  The
oracle is the flattening the readers used before the store existed:
``export_motion_rows``, a test-local copy of it kept in
``tests/ftl/test_mbr_tables.py`` (with the row kinds split into linear /
non-plain / inexact), run over the live triples.  A hypothesis wall drives random sequences through every write
path — ``add_object``, ``update_motion``, ``ingest_motion`` (stale
sequence numbers and refused writes included) and ``update_dynamic``
with piecewise, sinusoid and shifted laws (and NaN values, refused for
a position), over int and float coefficients and ``-0.0`` — and checks
after every step that

* the columns equal the export of the live triples, bit for bit, with
  the very triple objects in ``fallback``, and the motion-event reads
  (``latest``, the eventful objects) equal a scan of the triples;
* the readers built from the columns equal the ones built from the
  triples: the pruner's class tables (whole class and a member view)
  against the scalar build, each motion token against the tuple of
  position triples it replaced (equal exactly when those are, with equal
  hashes), each leg the column path gathers
  (``EvalContext.column_legs``) against the scalar ``MovingPoint`` leg,
  and the shard snapshot against the export.

``EvalContext.dirty_domain`` / ``clean_domain`` are held to a test-local
copy of the domain walk they replaced, order included.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MostDatabase, ObjectClass
from repro.core.columns import KIND_INEXACT, KIND_LINEAR, MotionRows
from repro.core.dynamic import DynamicAttribute
from repro.core.history import FutureHistory
from repro.errors import MotionError, QueryError, SchemaError
from repro.ftl.atoms import build_class_table, motion_token
from repro.ftl.context import EvalContext
from repro.geometry import Point
from repro.motion.functions import (
    LinearFunction,
    PiecewiseLinearFunction,
    ShiftedFunction,
    SinusoidFunction,
)
from repro.parallel.motion import MotionSnapshot
from tests.ftl.test_mbr_tables import (
    assert_table_matches_reference,
    export_motion_rows,
    leg_boxes,
)

CLASSES = ("cars", "depots")


def live_triples(db, cls):
    klass = db.object_class(cls)
    return [
        obj.dynamic_attribute(attr)
        for obj in db.objects_of(cls)
        for attr in klass.all_dynamic
    ]


def bits(array):
    return np.ascontiguousarray(array).tobytes()


def assert_rows_equal(got, want):
    for name in ("value", "updatetime", "slope", "kind", "intflags"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name
    assert got.fallback.keys() == want.fallback.keys()
    for row, triple in want.fallback.items():
        assert got.fallback[row] is triple


def old_token(db, oid):
    """The motion token before the store: the position triples."""
    obj = db.get(oid)
    names = obj.object_class.position_attributes
    return tuple(obj.dynamic_attribute(a) for a in names) if names else None


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_columns(db, installed):
    for cls in CLASSES:
        columns = db.motion_columns(cls)
        assert columns.ids == db.object_ids_of(cls)
        assert columns.index == {oid: i for i, oid in enumerate(columns.ids)}
        assert_rows_equal(columns.rows(), export_motion_rows(live_triples(db, cls)))
        assert columns.latest == max(installed[cls], default=-math.inf)
        assert columns.eventful() == [
            obj.object_id
            for obj in db.objects_of(cls)
            if any(
                type(obj.dynamic_attribute(a).function) is not LinearFunction
                for a in obj.object_class.all_dynamic
            )
        ]


def check_readers(db, rng):
    history = FutureHistory(db)
    start = db.clock.now
    for end in (start, start + rng.randint(1, 9)):
        for cls in CLASSES:
            assert_table_matches_reference(history, cls, start, end)
            ids = history.object_ids(cls)
            some = rng.sample(ids, min(len(ids), 3))
            view = build_class_table(
                history, cls, start, end, history.moving_point, some
            )
            for oid in some:
                try:
                    pieces = history.moving_point(oid).linear_pieces(start, end)
                except SchemaError:
                    pieces = None
                if oid not in view.rows:
                    assert pieces is None
                    continue
                lo, hi = leg_boxes(pieces)
                table, first, stop = view.rows[oid]
                assert bits(table.lo[:, first:stop].T) == bits(np.array(lo))
                assert bits(table.hi[:, first:stop].T) == bits(np.array(hi))
        ctx = EvalContext(
            history, end - start, {"c": "cars", "d": "depots"}
        )
        everyone = history.object_ids("cars") + history.object_ids("depots")
        for cls in CLASSES:
            columns = db.motion_columns(cls)
            ids = history.object_ids(cls)
            block = columns.positions([columns.index[oid] for oid in ids])
            linear, origins, velocities = ctx.column_legs(block)
            for oid, qualifies, origin, velocity in zip(
                ids, linear, origins, velocities
            ):
                if not qualifies:  # not one plain leg: the scalar path's
                    continue
                leg = history.moving_point(oid).single_leg(start, end)
                assert leg is not None
                assert bits(origin) == bits(np.array(leg.origin.coords))
                assert bits(velocity) == bits(np.array(leg.velocity.coords))
    for a in everyone:
        for b in everyone:
            new_a, new_b = motion_token(history, a), motion_token(history, b)
            equal = old_token(db, a) == old_token(db, b)
            assert (new_a == new_b) is equal, (a, b)
            if equal:
                assert hash(new_a) == hash(new_b)
    snap = MotionSnapshot.build(history)
    want = export_motion_rows(
        [t for cls in db.class_names() for t in live_triples(db, cls)]
    )
    got = MotionRows(
        *(snap.arrays[n] for n in ("value", "updatetime", "slope", "kind", "intflags")),
        snap.meta["fallback"],
    )
    assert_rows_equal(got, want)


# ---------------------------------------------------------------------------
# The wall
# ---------------------------------------------------------------------------

number = st.one_of(
    st.integers(-20, 20),
    st.floats(-20, 20, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 2**60 + 1, 0.5]),
)
slope = st.one_of(
    st.integers(-3, 3),
    st.floats(-3, 3, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 1]),
)
#: A NaN value is refused for a position and taken for ``fuel``, whose
#: row must then stay out of the float columns.
dynamic_value = st.one_of(st.none(), number, st.just(math.nan))
law = st.one_of(
    slope.map(LinearFunction),
    slope.map(LinearFunction),
    st.lists(st.tuples(st.integers(1, 9), slope), min_size=1, max_size=2).map(
        lambda turns: PiecewiseLinearFunction([(0, 1.0)] + sorted(dict(turns).items()))
    ),
    st.builds(SinusoidFunction, st.sampled_from([0.0, 1.5]), st.just(0.5)),
    st.builds(ShiftedFunction, slope.map(LinearFunction), st.integers(0, 4)),
)
picks = st.integers(0, 99)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(CLASSES), number, number, slope, slope, law),
        st.tuples(st.just("tick"), st.integers(1, 3)),
        st.tuples(st.just("motion"), picks, slope, slope, st.one_of(st.none(), st.tuples(number, number))),
        st.tuples(st.just("ingest"), picks, st.integers(0, 5), slope, slope, st.tuples(number, number), st.integers(-1, 3)),
        st.tuples(st.just("dynamic"), picks, st.sampled_from(["x_position", "y_position", "fuel"]), dynamic_value, st.one_of(st.none(), law)),
        st.tuples(st.just("refused"), picks, st.sampled_from(["nan", "dim", "future"])),
    ),
    min_size=3,
    max_size=14,
)


def make_db():
    db = MostDatabase()
    db.create_class(ObjectClass("cars", dynamic_attributes=("fuel",), spatial_dimensions=2))
    db.create_class(ObjectClass("depots", spatial_dimensions=2))
    return db


def apply(db, op, installed, serial):
    everyone = [o.object_id for o in db.all_objects()]
    kind = op[0]
    if kind == "add":
        _, cls, x, y, vx, vy, fuel_law = op
        oid = f"{cls[0]}{serial}"
        now = db.clock.now
        dynamic = {
            "x_position": DynamicAttribute(x, now, LinearFunction(vx)),
            "y_position": DynamicAttribute(y, now, LinearFunction(vy)),
        }
        if cls == "cars":
            dynamic["fuel"] = DynamicAttribute(50, now, fuel_law)
        db.add_object(cls, oid, dynamic=dynamic)
        installed[cls].append(now)
        return
    if kind == "tick":
        db.clock.tick(op[1])
        return
    if not everyone:
        return
    oid = everyone[op[1] % len(everyone)]
    cls = db.get(oid).object_class.name
    before = [r.copy() for r in _arrays(db, cls)]
    if kind == "motion":
        _, _, vx, vy, position = op
        db.update_motion(oid, Point(vx, vy), None if position is None else Point(*position))
        installed[cls].append(db.clock.now)
    elif kind == "ingest":
        _, _, seq, vx, vy, position, lag = op
        try:
            applied = db.ingest_motion(
                oid, seq, Point(vx, vy), Point(*position), db.clock.now - lag
            )
        except SchemaError:  # a measurement from the future
            applied = False
        if applied:
            installed[cls].append(db.clock.now)
        else:
            assert all(np.array_equal(a, b) for a, b in zip(before, _arrays(db, cls)))
    elif kind == "dynamic":
        _, _, attr, value, fn = op
        if attr not in db.get(oid).object_class.all_dynamic:
            return
        try:
            db.update_dynamic(oid, attr, value=value, function=fn)
        except (MotionError, SchemaError):
            assert all(np.array_equal(a, b) for a, b in zip(before, _arrays(db, cls)))
            return
        installed[cls].append(db.clock.now)
    elif kind == "refused":
        now = db.clock.now
        with pytest.raises(SchemaError):
            if op[2] == "nan":
                db.update_motion(oid, Point(1, 1), Point(math.nan, 0.0))
            elif op[2] == "dim":
                db.ingest_motion(oid, 10**6, Point(1, 1, 1), Point(0, 0, 0), now)
            else:
                db.ingest_motion(oid, 10**6, Point(1, 1), Point(0, 0), now + 1)
        assert all(np.array_equal(a, b) for a, b in zip(before, _arrays(db, cls)))


def _arrays(db, cls):
    rows = db.motion_columns(cls).rows()
    return [rows.value, rows.updatetime, rows.slope, rows.kind, rows.intflags]


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=operations, seed=st.integers(0, 2**16))
def test_columns_track_every_write_path(ops, seed):
    rng = random.Random(seed)
    db = make_db()
    installed = {cls: [] for cls in CLASSES}
    for serial, op in enumerate(ops):
        apply(db, op, installed, serial)
        check_columns(db, installed)
    check_readers(db, rng)


# ---------------------------------------------------------------------------
# Unit cases
# ---------------------------------------------------------------------------


def test_tokens_keep_value_equality():
    """``1 == 1.0`` and ``0.0 == -0.0``: equal motion of two objects —
    or of one object written twice — gives equal tokens."""
    db = make_db()
    db.add_object("depots", "a", dynamic={
        "x_position": DynamicAttribute(1, 0, LinearFunction(0)),
        "y_position": DynamicAttribute(-0.0, 0, LinearFunction(2)),
    })
    db.add_object("depots", "b", dynamic={
        "x_position": DynamicAttribute(1.0, 0.0, LinearFunction(0.0)),
        "y_position": DynamicAttribute(0.0, 0, LinearFunction(2.0)),
    })
    db.add_object("depots", "c", dynamic={
        "x_position": DynamicAttribute(1.0, 0.0, LinearFunction(0.5)),
        "y_position": DynamicAttribute(0.0, 0, LinearFunction(2.0)),
    })
    for oid, x in (("big", 2**60 + 1), ("near", float(2**60))):
        db.add_object("depots", oid, dynamic={
            "x_position": DynamicAttribute(x, 0, LinearFunction(0)),
            "y_position": DynamicAttribute(0.0, 0, LinearFunction(2.0)),
        })
    history = FutureHistory(db)
    a, b, c = (motion_token(history, oid) for oid in "abc")
    assert a == b and hash(a) == hash(b) and a != c
    # 2**60 + 1 is no float: its row keeps the raw coefficients, unequal
    # to the nearest float as the triples are.
    assert motion_token(history, "big") != motion_token(history, "near")
    assert motion_token(history, "ghost") is None


@pytest.mark.parametrize("value", [0.0, -0.0])
@pytest.mark.parametrize("slope", [-2, -2.0, 0, 1.5])
@pytest.mark.parametrize("when", [0, 0.0])
@pytest.mark.parametrize("horizon", [0, 4])
def test_column_legs_follow_the_scalar_leg(value, slope, when, horizon):
    """A leg read off the columns keeps the scalar leg's every bit: the
    anchor's int zero (a -0.0 value comes back +0.0 only when slope and
    times are ints), and a zero-length window's static +0.0 velocity."""
    db = make_db()
    db.add_object("depots", "d", dynamic={
        "x_position": DynamicAttribute(value, when, LinearFunction(slope)),
        "y_position": DynamicAttribute(-0.0, when, LinearFunction(slope)),
    })
    history = FutureHistory(db)
    columns = db.motion_columns("depots")
    (qualifies,), (origin,), (velocity,) = EvalContext(
        history, horizon, {}
    ).column_legs(columns.positions([columns.index["d"]]))
    leg = history.moving_point("d").single_leg(0, horizon)
    assert qualifies
    assert bits(origin) == bits(np.array(leg.origin.coords))
    assert bits(velocity) == bits(np.array(leg.velocity.coords))


def test_a_nan_value_stays_out_of_the_float_columns():
    """NaN is refused for a position but taken for another dynamic
    attribute; its row keeps the triple, whose identity equality a float
    column could not keep."""
    db = make_db()
    db.add_moving_object(
        "cars", "c", Point(0, 0), Point(1, 0),
        dynamic_extra={"fuel": DynamicAttribute.linear(9, -1)},
    )
    before = [a.copy() for a in _arrays(db, "cars")]
    with pytest.raises(SchemaError):
        db.update_dynamic("c", "x_position", value=math.nan)
    assert all(np.array_equal(a, b) for a, b in zip(before, _arrays(db, "cars")))
    db.update_dynamic("c", "fuel", value=math.nan)
    columns = db.motion_columns("cars")
    assert columns.rows().kind.tolist() == [KIND_INEXACT, KIND_LINEAR, KIND_LINEAR]
    assert columns.fallback[0] is db.get("c").dynamic_attribute("fuel")
    assert columns.eventful() == []
    assert_rows_equal(columns.rows(), export_motion_rows(live_triples(db, "cars")))


def test_snapshot_renumbers_each_class_fallback_rows():
    """The snapshot concatenates the classes' columns, so a fallback row
    of a later class moves by the rows of the classes before it."""
    db = make_db()
    fuel = {"fuel": DynamicAttribute.linear(9, -1)}
    db.add_moving_object("cars", "c", Point(0, 0), Point(1, 0), dynamic_extra=fuel)
    db.add_moving_object("depots", "d", Point(5, 5))
    db.update_dynamic(
        "d", "y_position", function=PiecewiseLinearFunction([(0, 1.0), (3, 0.0)])
    )
    snap = MotionSnapshot.build(FutureHistory(db))
    triple = db.get("d").dynamic_attribute("y_position")
    assert snap.meta["fallback"] == {4: triple}  # cars hold rows 0-2
    replica, _ = snap.build_database()
    assert replica.get("d").dynamic_attribute("y_position") == triple


def test_readers_see_the_rows_written_since_the_last_read():
    """An update is encoded by the next read, whichever reader comes
    first: a token, a member view's boxes, the eventful objects."""
    db = make_db()
    for i in range(3):
        db.add_moving_object("depots", f"d{i}", Point(i, 0), Point(1, 0))
    history = FutureHistory(db)
    before = motion_token(history, "d1")
    db.clock.tick()
    db.update_motion("d1", Point(0, 2))
    history = FutureHistory(db)
    fresh = motion_token(history, "d1")
    db.motion_columns("depots").rows()  # every row encoded
    assert fresh == motion_token(history, "d1") != before
    db.clock.tick()
    db.update_motion("d2", Point(3, 0))
    history = FutureHistory(db)
    view = build_class_table(history, "depots", 2, 6, history.moving_point, ["d2"])
    lo, hi = leg_boxes(history.moving_point("d2").linear_pieces(2, 6))
    table, first, stop = view.rows["d2"]
    assert bits(table.lo[:, first:stop].T) == bits(np.array(lo))
    db.update_dynamic(
        "d0", "x_position", function=PiecewiseLinearFunction([(0, 1.0), (2, 0.0)])
    )
    assert db.motion_columns("depots").eventful() == ["d0"]
    db.update_motion("d0", Point(1, 1))
    assert db.motion_columns("depots").eventful() == []


def test_growth_keeps_rows_and_doubles():
    db = make_db()
    for i in range(40):
        db.add_moving_object("depots", f"d{i}", Point(i, -i), Point(0.5, i))
    columns = db.motion_columns("depots")
    assert columns.value.size >= 80 and columns.value.size & (columns.value.size - 1) == 0
    assert_rows_equal(columns.rows(), export_motion_rows(live_triples(db, "depots")))


def test_a_stale_history_reads_nothing():
    db = make_db()
    db.add_moving_object("depots", "d", Point(0, 0), Point(1, 0))
    history = FutureHistory(db)
    db.update_motion("d", Point(0, 1))
    assert motion_token(history, "d") is None
    with pytest.raises(QueryError, match="pinned"):
        history.motion_columns("depots")


# ---------------------------------------------------------------------------
# Dirty domains: ordered by object number, not by a walk
# ---------------------------------------------------------------------------


def walk(domain, dirty_values):
    """The domain walk ``split_domain`` made before."""
    clean, dirty = [], []
    for value in domain:
        (dirty if value in dirty_values else clean).append(value)
    return clean, dirty


@settings(max_examples=80, deadline=None)
@given(
    n_cars=st.integers(0, 30),
    n_depots=st.integers(0, 5),
    picks=st.lists(st.integers(0, 40), max_size=12),
    strangers=st.lists(st.sampled_from(["zz", 7, ("x", 1)]), max_size=3),
    restrict=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_dirty_domain_equals_the_walk(n_cars, n_depots, picks, strangers, restrict, seed):
    rng = random.Random(seed)
    db = make_db()
    ids = [f"c{i}" for i in range(n_cars)]
    rng.shuffle(ids)  # object numbers follow insertion, not id order
    fuel = {"fuel": DynamicAttribute.linear(9, -1)}
    for oid in ids:
        db.add_moving_object("cars", oid, Point(0, 0), Point(1, 0), dynamic_extra=fuel)
    for i in range(n_depots):
        db.add_moving_object("depots", f"d{i}", Point(0, 0))
    everyone = ids + [f"d{i}" for i in range(n_depots)]
    dirty_values = set(strangers)
    dirty_values.update(everyone[p] for p in picks if p < len(everyone))
    restriction = None
    if restrict and ids:
        restriction = {"c": rng.sample(ids, rng.randint(0, len(ids)))}
    ctx = EvalContext(
        FutureHistory(db), 5, {"c": "cars", "d": "depots"}, restriction
    )
    for var in ("c", "d"):
        clean, dirty = walk(ctx.domain(var), dirty_values)
        assert ctx.dirty_domain(var, dirty_values) == dirty
        assert ctx.clean_domain(var, dirty_values) == clean
    ctx.push_domain("v", [3, "c1", 7, "zz", 3])
    clean, dirty = walk(ctx.domain("v"), dirty_values)
    assert ctx.dirty_domain("v", dirty_values) == dirty
    assert ctx.clean_domain("v", dirty_values) == clean
