"""Motion ingest as a row write ≡ the record-building ingest it replaced.

``MostDatabase.ingest_motion`` validates a network fix, computes each
axis's new ``(value, slope)`` as floats and writes the row; the update
router decides a plain linear record with ``linear_divergence`` instead
of a ``DivergenceProbe``, and gates the class by one membership test.
Neither may change what anybody observes.  The reference below is the
write path and the router as they stood before, kept test-local:

* ``ReferenceDatabase`` — ``ingest_motion`` through an extrapolated
  ``Point``, ``_motion_updates`` / ``_dynamic_update`` through
  ``DynamicAttribute.updated`` with a fresh ``LinearFunction`` per axis,
  ``_write`` re-reading each old triple, and ``_commit`` hearing the
  object once per record;
* ``ReferenceRouter`` — one ``DivergenceProbe`` table per record and
  the class gate by two ``try`` / ``except`` lookups.

A hypothesis wall drives twin databases — one real, one reference —
through random streams: same-law heartbeats (on time and late), real
changes, stale and duplicate ``seq``, refused writes (NaN / infinite
position and velocity, future or NaN ``measured_at``, dimension
mismatch, an axis triple newer than the clock), int velocities, signed
zeros, ``update_motion``, ``update_dynamic`` to a piecewise law followed
by a heartbeat, static and attribute updates, commits naming an id the
database never admitted (tagged and untagged), a 3-D class, and queries
that are not horizon-eligible or expire mid-stream.  After every step:
the log and every listener call (types and signed zeros included, with
``version`` and ``last_update_time`` as the listener saw them), the heard
order from every earlier mark, ``_last_seq`` / ``ingest_rejected`` /
``is_tracked``, the motion columns bit for bit, and per query the skip
counters, ``reached_version``, the dirty objects in order and the dirty
divergence.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import ContinuousQuery, DynamicAttribute, MostDatabase, ObjectClass
from repro.core.database import MostUpdate
from repro.core.queries import UpdateRouter, _covered, _divergence_table
from repro.errors import MotionError, SchemaError
from repro.ftl import parse_query
from repro.ftl.analysis.validity import DivergenceProbe
from repro.ftl.context import DEFAULT
from repro.geometry import Point
from repro.motion.functions import LinearFunction, PiecewiseLinearFunction
from repro.spatial import Polygon
from tests.ftl.test_divergence_probe import dynamic_updates, static_updates

UNSTAMPED = replace(DEFAULT, validity_horizons=False)
CARS = ("c0", "c1", "c2")
DRONES = ("d0",)
TRUCKS = ("t0", "late")
OBJECTS = CARS + DRONES + TRUCKS
CLASSES = ("cars", "drones", "trucks")
QUERIES = (
    # (text, horizon, options): horizon-eligible, not eligible, expiring
    # mid-stream, a join, an attribute read, a 3-D class.
    ("RETRIEVE o FROM cars o WHERE EVENTUALLY WITHIN 8 INSIDE(o, P)", 40, DEFAULT),
    ("RETRIEVE o FROM cars o WHERE EVENTUALLY WITHIN 8 INSIDE(o, P)", 40, UNSTAMPED),
    ("RETRIEVE o FROM cars o WHERE INSIDE(o, P)", 3, DEFAULT),
    ("RETRIEVE o FROM cars o, trucks t WHERE DIST(o, t) <= 6", 30, DEFAULT),
    ("RETRIEVE o FROM cars o WHERE EVENTUALLY WITHIN 8 o.fuel < 10", 40, DEFAULT),
    ("RETRIEVE d FROM drones d WHERE EVENTUALLY WITHIN 5 d.z_position <= 2", 25, DEFAULT),
)


# ---------------------------------------------------------------------------
# The reference: the write path and the router before the row write
# ---------------------------------------------------------------------------


class ReferenceDatabase(MostDatabase):
    """``MostDatabase`` with its write path as it stood before."""

    def update_dynamic(self, object_id, attr, value=None, function=None):
        obj = self.get(object_id)
        self._write(obj, (self._ref_dynamic_update(obj, attr, value, function),))

    def update_motion(self, object_id, velocity, position=None):
        obj = self.get(object_id)
        self._write(obj, self._ref_motion_updates(obj, velocity, position))

    def _ref_dynamic_update(self, obj, attr, value, function):
        if (
            value is not None
            and attr in obj.object_class.position_attributes
            and not math.isfinite(value)
        ):
            raise SchemaError(f"{attr} = {value} is not finite")
        old = obj.dynamic_attribute(attr)
        new = old.updated(self.clock.now, value=value, function=function)
        return MostUpdate(
            self.clock.now,
            obj.object_id,
            attr,
            old,
            new,
            class_name=obj.object_class.name,
            kind="dynamic",
        )

    def _ref_motion_updates(self, obj, velocity, position):
        names = obj.object_class.position_attributes
        if velocity.dim != len(names):
            raise SchemaError("velocity dimension mismatch")
        return tuple(
            self._ref_dynamic_update(
                obj,
                name,
                None if position is None else position[axis],
                LinearFunction(velocity[axis]),
            )
            for axis, name in enumerate(names)
        )

    def _write(self, obj, updates):
        for update in updates:
            obj.dynamic_attribute(update.attribute)
            obj._dynamic[update.attribute] = update.new
        self._columns[obj.object_class.name].write(obj.object_id, updates)
        self._commit(*updates)

    def ingest_motion(self, object_id, seq, velocity, position, measured_at):
        obj = self.get(object_id)
        if seq <= self._last_seq.get(object_id, -1):
            self.ingest_rejected += 1
            return False
        names = obj.object_class.position_attributes
        if velocity.dim != len(names) or position.dim != len(names):
            raise SchemaError("motion update dimension mismatch")
        now = self.clock.now
        if measured_at > now:
            raise SchemaError(f"update measured at {measured_at} arrives at {now}")
        if not math.isfinite(measured_at):
            raise SchemaError(f"update measured at non-finite {measured_at}")
        extrapolated = Point(
            *(
                p + v * (now - measured_at)
                for p, v in zip(position.coords, velocity.coords)
            )
        )
        updates = self._ref_motion_updates(obj, velocity, extrapolated)
        self._last_seq[object_id] = seq
        self._tracked.add(object_id)
        self._write(obj, updates)
        return True

    def _commit(self, *updates):
        self._log.extend(updates)
        self._version += 1
        for update in updates:
            self._last_update_time[update.object_id] = update.time
            self._hear(update.object_id)
        for listener in list(self._listeners):
            listener(updates)


def _ref_class_gate(db, update):
    def live(object_id):
        try:
            db.get(object_id)
        except SchemaError:
            return False
        return True

    if update.class_name is not None and not live(update.object_id):
        return False, update.class_name
    if update.class_name is not None:
        return True, update.class_name
    try:
        return True, db.get(update.object_id).object_class.name
    except SchemaError:
        return True, None


class ReferenceRouter(UpdateRouter):
    """The router's commit gate with a probe table per record."""

    def _on_commit(self, updates):
        if not self._queries:
            return
        db = self.db
        now = db.clock.now
        if now > self._ends[0]:
            self._reset([q for q in self._queries if now <= q.expires_at])
            if not self._queries:
                return
        reachable, cls = _ref_class_gate(db, updates[0])
        if not reachable:
            return
        key = (cls, tuple((u.kind, u.attribute) for u in updates))
        memo = self._routes.get(key)
        if memo is None:
            memo = self._routes[key] = self._route(cls, updates)
        footprints, route = memo
        ends = self._ends
        tables = [None] * len(updates)
        version = db.version
        for cq, deps, covered, e in route:
            if cq._deps is not deps:
                self._routes.clear()
                covered = _covered(cq, footprints)
            if not covered:
                cq.skipped_by_deps += 1
                continue
            cq.reached_version = version
            eligible = cq._validity is not None and cq._horizon_eligible
            end = ends[e]
            dirty = []
            for i in covered:
                table = tables[i]
                if table is None:
                    table = tables[i] = DivergenceProbe(updates[i], ends[-1]).table(ends)
                if table[e] < end or not eligible:
                    dirty.append((i, table[e]))
            if not dirty:
                cq.horizon_skipped += 1
                continue
            cq._take(updates, cls, footprints, dirty)



# ---------------------------------------------------------------------------
# Twin worlds
# ---------------------------------------------------------------------------


def build(db_class):
    db = db_class()
    if db_class is ReferenceDatabase:
        db._query_router = ReferenceRouter(db)
    db.create_class(
        ObjectClass(
            "cars",
            static_attributes=("color",),
            dynamic_attributes=("fuel",),
            spatial_dimensions=2,
        )
    )
    db.create_class(ObjectClass("drones", spatial_dimensions=3))
    db.create_class(ObjectClass("trucks", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(0, 0, 9, 9))
    # Non-dyadic coefficients round differently at different ends; the
    # parked car and the int coefficients re-anchor exactly.
    for oid, x, vx, vy in (("c0", -4.1, 0.7, 0.3), ("c1", 3.3, -1.1, 0.1), ("c2", 8, 0, 0)):
        db.add_moving_object(
            "cars",
            oid,
            Point(float(x), 1.0),
            Point(vx, vy),
            static={"color": "red"},
            dynamic_extra={"fuel": DynamicAttribute.linear(20.0, -0.3)},
        )
    db.add_moving_object("drones", "d0", Point(0.0, 1.0, 3.0), Point(0.5, 0.0, -0.25))
    db.add_moving_object("trucks", "t0", Point(0.0, 0.0), Point(0.2, 0.0))
    # A truck whose x triple is anchored in the future: every motion
    # write refused until the clock gets there (and the join query is
    # not horizon-eligible before then).
    db.add_object(
        "trucks",
        "late",
        dynamic={
            "x_position": DynamicAttribute(1, 6, LinearFunction(1)),
            "y_position": DynamicAttribute.linear(2.0, -0.0),
        },
    )
    for oid in ("c0", "c1", "d0"):
        db.track(oid)
    return db


class Twin:
    """One database of a pair, with what its listener saw."""

    def __init__(self, db_class):
        self.db = build(db_class)
        self.calls = []
        self.marks = []
        self.queries = [
            ContinuousQuery(self.db, parse_query(text), horizon=h, options=options)
            for text, h, options in QUERIES
        ]
        self.db.on_update(self._listen)

    def _listen(self, updates):
        db = self.db
        self.calls.append(
            (
                repr(updates),
                db.version,
                db.last_update_time(updates[0].object_id)
                if updates[0].object_id in OBJECTS
                else None,
            )
        )


def motion_of(db, oid, when):
    """``(velocity, position at when)`` of the object's current laws."""
    obj = db.get(oid)
    axes = [obj.dynamic_attribute(n) for n in obj.object_class.position_attributes]
    return (
        tuple(a.function.value(1.0) for a in axes),
        tuple(a.value_at(when) for a in axes),
    )


INGESTS = ("heartbeat", "change", "ints", "zero", "stale", "refused")


def ingest_args(db, what, oid, a, b, seq):
    """``(seq, velocity, position, measured_at)`` of an ingest step;
    ``seq`` is one past the last one sent."""
    now = db.clock.now
    dim = db.get(oid).object_class.spatial_dimensions
    ones = [1.0] * dim
    if what == "heartbeat":
        # The unchanged law re-announced, measured ``a % 3`` ticks ago.
        when = now - a % 3
        return (seq, *motion_of(db, oid, when), when)
    if what == "change":
        return seq, [a / 10, -b / 7, a / 4][:dim], [b / 3, a, 0.5][:dim], now
    if what == "ints":
        return seq, [a, b, 1][:dim], [b, 0, a][:dim], now
    if what == "zero":
        # Signed zeros in the velocity, the fix and the elapsed time.
        velocity = [-0.0 if a % 2 else 0.0, 0.0 if b % 2 else -0.0, -0.0]
        return seq, velocity[:dim], [-0.0] * dim, now
    if what == "stale":
        # A duplicate or a straggler: at or below the last one sent.
        return seq - 1 - a % 2, ones, [0.0] * dim, now
    # Refused: a non-finite coordinate, a measurement from the future or
    # at NaN, a dimension mismatch (3 for a 2-D class, 2 for a 3-D one).
    poisoned = list(ones)
    poisoned[b % dim] = (math.nan, math.inf, -math.inf)[a % 3]
    other = [1.0] * (5 - dim)
    return [
        (seq, ones, poisoned, now),
        (seq, poisoned, ones, now),
        (seq, ones, ones, now + 1 + a % 2),
        (seq, ones, ones, math.nan),
        (seq, other, ones, now),
        (seq, ones, other, now),
    ][b % 6]


def apply(db, step, seqs):
    what, oid, a, b = step
    if what == "tick":
        return db.clock.tick()
    if what == "read":
        return None
    if what == "ghost":
        # An id the database never admitted, tagged or not.
        tag = "cars" if a % 2 else None
        return db._commit(MostUpdate(db.clock.now, "ghost", "x_position", None, 1.0, tag))
    if what in INGESTS:
        seq, velocity, position, when = ingest_args(db, what, oid, a, b, seqs[oid] + 1)
        if what != "stale":
            seqs[oid] += 1  # a refused write consumes nothing; send the next anyway
        return db.ingest_motion(oid, seq, Point(*velocity), Point(*position), when)
    dim = db.get(oid).object_class.spatial_dimensions
    if what == "motion":
        velocity = [a / 10, -0.0 if b % 2 else b / 3, 0.0][:dim]
        position = None if b % 3 else Point(*([a / 7, 0.1, -1.0][:dim]))
        return db.update_motion(oid, Point(*velocity), position)
    if what == "piecewise":
        law = PiecewiseLinearFunction([(0, a / 4), (1 + b % 4, -1.0)])
        return db.update_dynamic(oid, "x_position", function=law)
    if oid not in CARS:
        return None  # fuel and color are car attributes
    if what == "fuel":
        return db.update_dynamic(oid, "fuel", value=float(a))
    assert what == "color", what
    return db.update_static(oid, "color", "blue" if a % 2 else "red")


def run(db, step, seqs):
    """One stream step on one database: ``("ok", result)`` or the error."""
    try:
        return ("ok", apply(db, step, seqs))
    except (SchemaError, MotionError) as exc:
        return (type(exc).__name__, str(exc))


def column_state(db, cls):
    columns = db.motion_columns(cls)
    rows = columns.rows()
    arrays = [
        (a.dtype.str, np.ascontiguousarray(a).tobytes())
        for a in (rows.value, rows.updatetime, rows.slope, rows.kind, rows.intflags)
    ]
    fallback = {row: repr(triple) for row, triple in rows.fallback.items()}
    return arrays, fallback, repr(columns.latest), columns.eventful(), list(columns.ids)


def query_state(cq):
    return (
        cq.horizon_skipped,
        cq.skipped_by_deps,
        cq.reached_version,
        list(cq._dirty_objects),
        repr(cq._dirty_divergence),
        cq._dirty,
        cq._needs_full,
    )


def assert_twins_agree(real, ref, step):
    db, rb = real.db, ref.db
    assert db.version == rb.version, step
    assert [repr(u) for u in db.iter_log()] == [repr(u) for u in rb.iter_log()], step
    assert real.calls == ref.calls, step
    for mine, theirs in zip(real.marks, ref.marks):
        assert db.heard_since(mine) == rb.heard_since(theirs), step
    assert db._last_seq == rb._last_seq, step
    assert db.ingest_rejected == rb.ingest_rejected, step
    for oid in OBJECTS:
        assert db.is_tracked(oid) == rb.is_tracked(oid), step
        assert db.staleness(oid) == rb.staleness(oid), step
        obj, robj = db.get(oid), rb.get(oid)
        for attr in obj.object_class.all_dynamic:
            assert repr(obj.dynamic_attribute(attr)) == repr(robj.dynamic_attribute(attr))
    for cls in CLASSES:
        assert column_state(db, cls) == column_state(rb, cls), (step, cls)
    for i, (cq, rq) in enumerate(zip(real.queries, ref.queries)):
        assert query_state(cq) == query_state(rq), (step, i)


oids = st.sampled_from(OBJECTS)
small = st.integers(-9, 9)
steps = st.tuples(
    st.sampled_from(
        [
            "heartbeat",
            "heartbeat",
            "heartbeat",
            "change",
            "ints",
            "zero",
            "stale",
            "refused",
            "motion",
            "piecewise",
            "fuel",
            "color",
            "ghost",
            "tick",
            "read",
        ]
    ),
    oids,
    small,
    small,
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(stream=st.lists(steps, min_size=1, max_size=30))
def test_row_write_matches_the_record_building_ingest(stream):
    real, ref = Twin(MostDatabase), Twin(ReferenceDatabase)
    assert type(UpdateRouter.of(ref.db)) is ReferenceRouter
    assert type(UpdateRouter.of(real.db)) is UpdateRouter
    seqs = {"real": dict.fromkeys(OBJECTS, 0), "ref": dict.fromkeys(OBJECTS, 0)}
    for step in stream:
        for twin in (real, ref):
            twin.marks.append(twin.db.heard_serial)
        got = run(real.db, step, seqs["real"])
        want = run(ref.db, step, seqs["ref"])
        assert got == want, step
        if step[0] == "read":
            for cq in real.queries + ref.queries:
                cq.refresh()
            for a, b in zip(real.queries, ref.queries):
                assert a.current() == b.current(), step
        assert_twins_agree(real, ref, step)


def test_the_wall_reaches_every_outcome():
    """A fixed stream through each branch the random wall relies on: a
    skipped heartbeat, a dirtying change, a stale seq, each refusal, the
    future-anchored triple and a piecewise law heartbeated back."""
    real, ref = Twin(MostDatabase), Twin(ReferenceDatabase)
    seqs = {"real": dict.fromkeys(OBJECTS, 0), "ref": dict.fromkeys(OBJECTS, 0)}
    stream = [
        ("tick", "c0", 0, 0),
        ("heartbeat", "c2", 0, 0),
        ("heartbeat", "c0", 1, 0),
        ("change", "c1", 3, 2),
        ("stale", "c1", 0, 0),
        ("stale", "c1", 1, 0),
        ("refused", "c0", 0, 0),
        ("refused", "c0", 1, 1),
        ("refused", "d0", 2, 2),
        ("refused", "c0", 0, 3),
        ("refused", "d0", 0, 4),
        ("refused", "c0", 0, 5),
        ("heartbeat", "late", 0, 0),
        ("piecewise", "c2", 2, 1),
        ("heartbeat", "c2", 0, 0),
        ("zero", "d0", 1, 0),
        ("tick", "c0", 0, 0),
        ("tick", "c0", 0, 0),
        ("tick", "c0", 0, 0),
        ("heartbeat", "c0", 0, 0),
    ]
    outcomes = []
    for step in stream:
        for twin in (real, ref):
            twin.marks.append(twin.db.heard_serial)
        got = run(real.db, step, seqs["real"])
        assert got == run(ref.db, step, seqs["ref"]), step
        outcomes.append(got)
        assert_twins_agree(real, ref, step)
    assert ("ok", False) in outcomes  # stale and duplicate
    refusals = {o[0] for o in outcomes if o[0] != "ok"}
    assert refusals == {"SchemaError", "MotionError"}
    first = real.queries[0]
    assert first.horizon_skipped > 0 and first.reached_version == real.db.version
    assert real.queries[1].horizon_skipped == 0  # not horizon-eligible
    assert real.queries[2].expires_at < real.db.clock.now  # expired mid-stream


def test_a_negative_zero_velocity_is_stored_as_sent():
    """A heartbeat keeps the old law only when the slope is the same
    float bit for bit: ``-0.0`` over a stored ``0.0`` is a new law, as
    ``update_motion`` installs it."""
    ingested, moved = build(MostDatabase), build(MostDatabase)
    assert ingested.get("c2").dynamic_attribute("x_position").function == LinearFunction(0)
    stored = ingested.get("c2").dynamic_attribute("x_position").function.slope
    assert math.copysign(1.0, stored) == 1.0
    ingested.ingest_motion("c2", 1, Point(-0.0, 0.0), Point(8.0, 1.0), 0)
    moved.update_motion("c2", Point(-0.0, 0.0), Point(8.0, 1.0))
    for db in (ingested, moved):
        x, y = (db.get("c2").dynamic_attribute(a) for a in ("x_position", "y_position"))
        assert math.copysign(1.0, x.function.slope) == -1.0
        assert math.copysign(1.0, y.function.slope) == 1.0
    assert repr(ingested.log) == repr(moved.log)
    rows = [db.motion_columns("cars").rows() for db in (ingested, moved)]
    assert rows[0].slope.tobytes() == rows[1].slope.tobytes()
    assert np.signbit(rows[0].slope[2 * 3 + 1])  # c2's x row


def test_a_heartbeat_keeps_the_old_law_object():
    """The bit-identical slope case: no new ``LinearFunction``, and the
    recorded triple still equals what a fresh one would give."""
    db = build(MostDatabase)
    db.clock.tick(2)
    old = db.get("c0").dynamic_attribute("x_position")
    velocity, position = motion_of(db, "c0", 2)
    assert db.ingest_motion("c0", 1, Point(*velocity), Point(*position), 2)
    new = db.get("c0").dynamic_attribute("x_position")
    assert new.function is old.function
    assert new == DynamicAttribute(position[0], 2, LinearFunction(velocity[0]))


def test_one_hear_per_commit():
    db = build(MostDatabase)
    before = db.heard_serial
    db.ingest_motion("d0", 1, Point(1.0, 1.0, 1.0), Point(0.0, 0.0, 0.0), 0)
    assert db.heard_serial == before + 1
    assert db.heard_since(before) == ["d0"]
    db.update_motion("c0", Point(1.0, 2.0))
    assert db.heard_serial == before + 2
    assert db.heard_since(before) == ["c0", "d0"]


@settings(max_examples=300)
@given(
    update=dynamic_updates() | static_updates,
    ends=st.lists(st.integers(0, 40).map(float), min_size=1, max_size=6),
)
def test_the_router_table_is_the_probe_table(update, ends):
    ends = sorted(set(ends))
    assert _divergence_table(update, ends) == DivergenceProbe(update, ends[-1]).table(ends)


def test_a_static_attribute_holding_triples_takes_the_static_verdict():
    """Only a dynamic record takes the linear verdict: a static value
    that happens to be a linear triple is compared as a value."""
    old = DynamicAttribute(0.0, 0, LinearFunction(1.0))
    update = MostUpdate(3, "c0", "color", old, old.updated(3), "cars", "static")
    ends = [2.0, 10.0]
    assert _divergence_table(update, ends) == [3.0, 3.0]
    assert _divergence_table(replace(update, kind="dynamic"), ends) == [math.inf] * 2
