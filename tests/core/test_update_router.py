"""The update router: one routed gate per commit for every query.

Two walls and a lifecycle:

* the router ≡ the per-query listener it replaced.  ``ReferenceListener``
  below is that listener kept test-local: every record of every commit
  runs each query's own class, known-object, read-set and validity
  gates, exactly as before commits carried several records.  Over random
  mixed streams — heartbeats, real motion changes, attribute and static
  updates, an unbound class, tagged and untagged ghost ids, queries
  registered (with ends that interleave or repeat the live ones),
  cancelled, read or expiring mid-stream — every query ends every commit
  with the same dirty objects, dirty footprints, dirty divergence and
  full-refresh flag as its reference, and the same skip reason (one per
  commit: read-set, validity horizon, or none);
* the route memo lifecycle: registration, cancellation, expiry, a
  registry crash and rebuild, read-sets replaced after registration
  (the unpruned twins of the dependency walls), and a memo that never
  outlives the queries it routes to.
"""

import itertools
from dataclasses import replace

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    ContinuousQuery,
    DynamicAttribute,
    MostDatabase,
    ObjectClass,
)
from repro.core.database import MostUpdate
from repro.core.queries import UpdateRouter
from repro.errors import SchemaError
from repro.ftl import parse_query
from repro.ftl.analysis.deps import update_footprint
from repro.ftl.context import DEFAULT
from repro.geometry import Point
from repro.server.metrics import ServerMetrics
from repro.server.protocol import SubscribeMsg
from repro.server.registry import SubscriptionRegistry
from repro.spatial import Polygon
from tests.ftl.test_divergence_probe import reference_divergence

POSITION = "RETRIEVE o FROM cars o WHERE EVENTUALLY WITHIN 8 INSIDE(o, P)"
FUEL = "RETRIEVE o FROM cars o WHERE EVENTUALLY WITHIN 8 o.fuel < 10"
MIXED = "RETRIEVE o FROM cars o WHERE EVENTUALLY (INSIDE(o, P) AND o.fuel > 5)"
NEAR = "RETRIEVE o FROM cars o, trucks t WHERE DIST(o, t) <= 6"
UNSTAMPED = replace(DEFAULT, validity_horizons=False)
CARS = ("c0", "c1", "c2")


def build_db() -> MostDatabase:
    db = MostDatabase()
    db.create_class(
        ObjectClass(
            "cars",
            static_attributes=("color",),
            dynamic_attributes=("fuel",),
            spatial_dimensions=2,
        )
    )
    db.create_class(ObjectClass("trucks", spatial_dimensions=2))
    db.create_class(ObjectClass("birds", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(0, 0, 9, 9))
    # Non-dyadic speeds: a re-anchored law may round differently at
    # different window ends.
    for i, (x, vx, vy) in enumerate([(-4.1, 0.7, 0.3), (3.3, -1.1, 0.1), (8, 0, 0)]):
        db.add_moving_object(
            "cars",
            f"c{i}",
            Point(float(x), 1.0),
            Point(vx, vy),
            static={"color": "red"},
            dynamic_extra={"fuel": DynamicAttribute.linear(20.0, -0.3)},
        )
    db.add_moving_object("trucks", "t0", Point(0.0, 0.0), Point(0.2, 0.0))
    db.add_moving_object("birds", "b0", Point(0.0, 0.0), Point(1.0, 1.0))
    return db


class ReferenceListener:
    """The per-query listener the router replaced, one record at a time."""

    def __init__(self, db: MostDatabase, cq: ContinuousQuery) -> None:
        self.db = db
        self.cq = cq
        self.reset()

    def reset(self) -> None:
        self.dirty = False
        self.needs_full = False
        self.objects: set = set()
        self.deps: set | None = set()
        self.divergence: dict | None = {}

    def state(self) -> tuple:
        return (
            self.dirty,
            self.needs_full,
            self.objects,
            self.deps,
            self.divergence,
        )

    def on_record(self, update: MostUpdate) -> str:
        cq, db = self.cq, self.db
        if cq._cancelled or db.clock.now > cq.expires_at:
            return "dead"
        cls = update.class_name
        if cls is None:
            try:
                cls = db.get(update.object_id).object_class.name
            except SchemaError:
                cls = None
        if cls is not None:
            if cls not in cq._bound_classes:
                return "class"
            if update.class_name is not None:
                try:
                    db.get(update.object_id)
                except SchemaError:
                    return "class"
            if cq._deps is not None:
                fp = update_footprint(update, db)
                if fp is not None and not cq._deps.query_reads.covers(fp):
                    return "deps"
        end = float(cq.expires_at)
        if cq._validity is not None and cq._horizon_eligible:
            if reference_divergence(update, end) >= end:
                return "horizon"
        self.dirty = True
        if cls is None:
            self.needs_full = True
            return "dirty"
        self.objects.add(update.object_id)
        if self.deps is not None:
            fp = update_footprint(update, db)
            if fp is None:
                self.deps = None
                self.divergence = None
            else:
                self.deps.add(fp)
                if self.divergence is not None:
                    div = reference_divergence(update, end)
                    prev = self.divergence.get(fp)
                    self.divergence[fp] = div if prev is None else min(prev, div)
        return "dirty"

    def on_commit(self, updates) -> str:
        """The commit's one skip reason, as the router must count it."""
        reasons = {self.on_record(u) for u in updates}
        for reason in ("dirty", "horizon", "deps"):
            if reason in reasons:
                return reason
        return "none"


def routed_state(cq: ContinuousQuery) -> tuple:
    return (
        cq._dirty,
        cq._needs_full,
        set(cq._dirty_objects),  # kept in commit order
        cq._dirty_deps,
        cq._dirty_divergence,
    )


def counters(cq: ContinuousQuery) -> tuple[int, int]:
    return cq.skipped_by_deps, cq.horizon_skipped


def heartbeat(db: MostDatabase, oid: str) -> None:
    obj = db.get(oid)
    now = db.clock.now
    axes = [obj.dynamic_attribute(n) for n in obj.object_class.position_attributes]
    db.update_motion(
        oid,
        Point(*(a.function.value(1.0) for a in axes)),
        position=Point(*(a.value_at(now) for a in axes)),
    )


def apply(db: MostDatabase, step: tuple) -> bool:
    """Run one stream step; whether it committed."""
    what, oid, value = step
    if what == "heartbeat":
        heartbeat(db, oid)
    elif what == "motion":
        db.update_motion(oid, Point(value / 10, -value / 7))
    elif what == "jump":
        db.update_motion(oid, Point(0.0, 0.0), position=Point(value, value / 3))
    elif what == "fuel":
        db.update_dynamic(oid, "fuel", value=float(value))
    elif what == "fuel_heartbeat":
        db.update_dynamic(oid, "fuel")
    elif what == "color":
        db.update_static(oid, "color", "blue" if value % 2 else "red")
    elif what == "truck":
        db.update_motion("t0", Point(value / 10, 0.0))
    elif what == "bird":
        db.update_motion("b0", Point(value / 10, 0.0))
    elif what == "ghost":
        db._commit(MostUpdate(db.clock.now, "ghost", "x_position", None, 1.0, class_name="cars"))
    elif what == "untagged_ghost":
        db._commit(MostUpdate(db.clock.now, "ghost", "x_position", None, 1.0))
    else:
        return False
    return True


oids = st.sampled_from(CARS)
small = st.integers(-9, 9)
steps = st.one_of(
    st.tuples(st.sampled_from(["heartbeat", "motion", "jump"]), oids, small),
    st.tuples(st.sampled_from(["fuel", "fuel_heartbeat", "color"]), oids, small),
    st.tuples(
        st.sampled_from(
            [
                "truck",
                "bird",
                "ghost",
                "untagged_ghost",
                "tick",
                "read",
                "cancel",
                "register",
            ]
        ),
        st.integers(0, 6),
        small,
    ),
)
specs = st.lists(
    st.tuples(
        st.sampled_from([POSITION, FUEL, MIXED, NEAR]),
        st.sampled_from(["interval", "incremental"]),
        st.sampled_from([2, 4, 40]),
        st.sampled_from(["default", "unstamped", "unpruned"]),
    ),
    min_size=1,
    max_size=5,
)


@settings(
    max_examples=80,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(specs=specs, stream=st.lists(steps, min_size=1, max_size=30))
def test_router_matches_the_per_query_listener(specs, stream):
    db = build_db()
    queries = []
    for text, method, horizon, flavour in specs:
        options = UNSTAMPED if flavour == "unstamped" else DEFAULT
        cq = ContinuousQuery(
            db, parse_query(text), horizon=horizon, method=method, options=options
        )
        if flavour == "unpruned":
            cq._deps = None
        queries.append(cq)
    refs = [ReferenceListener(db, cq) for cq in queries]
    expected: dict[int, str] = {}
    commit: list[MostUpdate] = []

    def reference(updates) -> None:
        commit[:] = updates
        for i, ref in enumerate(refs):
            expected[i] = ref.on_commit(updates)

    db.on_update(reference)  # after the router: it sees routed state
    router = UpdateRouter.of(db)
    for step in stream:
        what, pick, value = step
        if what == "tick":
            db.clock.tick()
            continue
        if what == "register":
            # Ends at 2, 4 and 40 repeat the first queries' ends; 3 and 6
            # fall between them.
            target = (2, 3, 4, 6, 40)[value % 5]
            cq = ContinuousQuery(
                db,
                parse_query((POSITION, FUEL, MIXED, NEAR)[pick % 4]),
                horizon=max(1, target - db.clock.now),
                method=("interval", "incremental")[value % 2],
            )
            queries.append(cq)
            refs.append(ReferenceListener(db, cq))
            continue
        if what in ("read", "cancel"):
            i = pick % len(queries)
            if what == "read" and not queries[i]._cancelled:
                queries[i].refresh()
                refs[i].reset()
            elif what == "cancel":
                queries[i].cancel()
            continue
        before = [counters(cq) for cq in queries]
        expected.clear()
        assert apply(db, step)
        assert router._ends == sorted(
            {float(cq.expires_at) for cq in router.queries}
        )
        for i, (cq, ref) in enumerate(zip(queries, refs)):
            assert routed_state(cq) == ref.state(), (step, i)
            deps_skips, horizon_skips = counters(cq)
            assert (
                deps_skips - before[i][0],
                horizon_skips - before[i][1],
            ) == (
                int(expected[i] == "deps"),
                int(expected[i] == "horizon"),
            ), (step, i, expected[i])
            # Past the shared gates: what a trigger rechecks on, and what
            # ``affects`` answers record by record.
            reached = expected[i] in ("dirty", "horizon")
            assert (cq.reached_version == db.version) == reached, (step, i)
            if not cq._cancelled and db.clock.now <= cq.expires_at:
                assert any(cq.affects(u) for u in commit) == reached, (step, i)
    for cq in queries:
        cq.cancel()
    assert UpdateRouter.of(db).queries == ()


def test_the_wall_exercises_every_gate():
    """The differential wall is only meaningful if each reason occurs:
    a deterministic stream that hits all of them on one database."""
    db = build_db()
    position = ContinuousQuery(db, parse_query(POSITION), horizon=40)
    fuel = ContinuousQuery(db, parse_query(FUEL), horizon=40)
    db.clock.tick()
    heartbeat(db, "c2")  # a parked car: the re-anchored law is exact
    assert counters(position) == (0, 1) and counters(fuel) == (1, 0)
    db.update_motion("c1", Point(2.0, 2.0))
    assert position.needs_refresh and counters(fuel) == (2, 0)
    db.update_static("c2", "color", "blue")
    assert counters(position) == (1, 1)
    db._commit(MostUpdate(db.clock.now, "ghost", "x_position", None, 1.0))
    assert fuel.needs_refresh and fuel._needs_full


# ---------------------------------------------------------------------------
# Route-memo lifecycle
# ---------------------------------------------------------------------------


_speeds = itertools.count(5)


def routed_to(db: MostDatabase, oid: str = "c0") -> set:
    """The queries a real position commit dirties."""
    live = UpdateRouter.of(db).queries
    for cq in live:
        cq.refresh()
    speed = float(next(_speeds))  # never a heartbeat of the last call
    db.update_motion(oid, Point(speed, -speed))
    return {cq for cq in live if cq.needs_refresh}


class TestRouteLifecycle:
    def test_one_router_per_database_subscribed_once(self):
        db = build_db()
        listeners = len(db._listeners)
        first = ContinuousQuery(db, parse_query(POSITION), horizon=20)
        second = ContinuousQuery(db, parse_query(FUEL), horizon=20)
        assert len(db._listeners) == listeners + 1
        router = UpdateRouter.of(db)
        assert router.queries == (first, second)
        assert first._router is router is second._router

    def test_registration_and_cancellation_rebuild_the_memo(self):
        db = build_db()
        a = ContinuousQuery(db, parse_query(POSITION), horizon=40)
        router = UpdateRouter.of(db)
        assert routed_to(db) == {a}
        assert len(router._routes) == 1
        b = ContinuousQuery(db, parse_query(MIXED), horizon=40)
        assert len(router._routes) == 0  # registration invalidated the memo
        assert routed_to(db) == {a, b}
        a.cancel()
        assert router.queries == (b,) and len(router._routes) == 0
        assert routed_to(db) == {b}
        assert not a.needs_refresh  # a cancelled query is never routed
        a.cancel()  # idempotent
        assert router.queries == (b,)

    def test_expired_queries_leave_the_route(self):
        db = build_db()
        short = ContinuousQuery(db, parse_query(POSITION), horizon=2)
        long = ContinuousQuery(db, parse_query(POSITION), horizon=40)
        router = UpdateRouter.of(db)
        db.clock.tick(3)
        assert routed_to(db) == {long}
        assert router.queries == (long,)
        assert not short._dirty
        assert short.skipped_by_deps == short.horizon_skipped == 0

    def test_replaced_read_set_means_unpruned(self):
        db = build_db()
        pruned = ContinuousQuery(db, parse_query(POSITION), horizon=40)
        twin = ContinuousQuery(db, parse_query(POSITION), horizon=40)
        db.update_dynamic("c0", "fuel", value=3.0)  # memoises the route
        assert not pruned.needs_refresh and not twin.needs_refresh
        twin._deps = None
        db.update_dynamic("c0", "fuel", value=4.0)
        assert not pruned.needs_refresh
        assert twin.needs_refresh
        assert pruned.skipped_by_deps == 2 and twin.skipped_by_deps == 1

    def test_registry_crash_and_rebuild(self):
        db = build_db()
        registry = SubscriptionRegistry(db, ServerMetrics())
        rq = registry.register(SubscribeMsg(client_id="a", text=POSITION, horizon=40))
        old = rq.cq
        router = UpdateRouter.of(db)
        assert router.queries == (old,)
        registry.crash()
        assert router.queries == ()
        assert routed_to(db) == set() and not old.needs_refresh
        registry.rebuild()
        assert router.queries == (rq.cq,) and rq.cq is not old
        assert routed_to(db) == {rq.cq}

    def test_memo_holds_only_live_queries_after_many_cycles(self):
        db = build_db()
        keeper = ContinuousQuery(db, parse_query(POSITION), horizon=500)
        router = UpdateRouter.of(db)
        for i in range(200):
            cq = ContinuousQuery(
                db, parse_query(FUEL if i % 2 else MIXED), horizon=100 + i
            )
            db.update_motion(CARS[i % 3], Point(i / 10, 0.0))
            db.update_dynamic(CARS[i % 3], "fuel", value=float(i % 7))
            cq.cancel()
        assert router.queries == (keeper,)
        routed = {
            id(q)
            for _footprints, route in router._routes.values()
            for q, _deps, _covered, _end in route
        }
        assert routed <= {id(keeper)}
        assert router._ends == [float(keeper.expires_at)]
        assert len(db._listeners) == 1
