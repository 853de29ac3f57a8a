"""Incremental continuous-query maintenance: counters, dirty tracking,
fallbacks, and the fixed ``affects`` relevance test.

Pins the E4 counter semantics (`evaluations` stays 1 under clock ticks,
multi-attribute motion updates coalesce into one reevaluation), verifies
that updates to objects of unbound classes never dirty the answer, and
exercises the full-reevaluation fallback cases of the incremental path.
"""

import pytest

from repro.core import ContinuousQuery, MostDatabase, ObjectClass
from repro.core.database import MostUpdate
from repro.errors import QueryError
from repro.ftl import parse_query
from repro.ftl.incremental import supports_incremental
from repro.geometry import Point
from repro.spatial import Polygon


@pytest.fixture
def db() -> MostDatabase:
    database = MostDatabase()
    database.create_class(
        ObjectClass("cars", static_attributes=("price",), spatial_dimensions=2)
    )
    database.create_class(ObjectClass("motels", spatial_dimensions=2))
    database.create_class(ObjectClass("birds", spatial_dimensions=2))
    database.define_region("P", Polygon.rectangle(0, 0, 10, 10))
    for i in range(3):
        database.add_moving_object(
            "cars",
            f"c{i}",
            Point(-2.0 - 3 * i, 5.0),
            Point(1, 0),
            static={"price": 50 + i},
        )
    database.add_moving_object("motels", "m0", Point(5.0, 5.0))
    database.add_moving_object("birds", "b0", Point(0.0, 0.0), Point(1, 1))
    return database


ENTER_P = "RETRIEVE o FROM cars o WHERE EVENTUALLY WITHIN 3 INSIDE(o, P)"
NEAR = "RETRIEVE o, m FROM cars o, motels m WHERE EVENTUALLY DIST(o, m) <= 4"
ASSIGN_Q = (
    "RETRIEVE o FROM cars o WHERE [x := o.x_position.function]"
    " EVENTUALLY o.x_position.function >= 2 * x"
)

METHODS = ("interval", "incremental")


# ---------------------------------------------------------------------------
# E4 counter semantics (regression pins)
# ---------------------------------------------------------------------------


class TestE4Counters:
    @pytest.mark.parametrize("method", METHODS)
    def test_evaluations_stay_one_under_ticks(self, db, method):
        cq = ContinuousQuery(db, parse_query(ENTER_P), horizon=40, method=method)
        assert cq.evaluations == 1
        for _ in range(12):
            db.clock.tick()
            cq.current()
        # Re-display is interval lookup only; ticks never reevaluate.
        assert cq.evaluations == 1
        assert cq.full_evaluations == 1
        assert cq.incremental_refreshes == 0

    @pytest.mark.parametrize("method", METHODS)
    def test_motion_update_coalesces_to_one_reevaluation(self, db, method):
        cq = ContinuousQuery(db, parse_query(ENTER_P), horizon=40, method=method)
        # One logical motion update commits one MostUpdate per position
        # axis (x and y); lazy revalidation must coalesce them.
        db.update_motion("c0", Point(-1, 2), position=Point(3.0, 3.0))
        updates = [u for u in db.log if u.object_id == "c0"]
        assert len(updates) == 2  # two axes, two committed updates
        cq.current()
        assert cq.evaluations == 2
        if method == "incremental":
            assert cq.incremental_refreshes == 1
            assert cq.full_evaluations == 1

    def test_incremental_refresh_counted_in_evaluations(self, db):
        cq = ContinuousQuery(
            db, parse_query(ENTER_P), horizon=40, method="incremental"
        )
        for i in range(3):
            db.clock.tick()
            db.update_motion(f"c{i}", Point(2, 0))
            cq.current()
        assert cq.evaluations == 4  # 1 initial + 3 refreshes
        assert cq.full_evaluations == 1
        assert cq.incremental_refreshes == 3


# ---------------------------------------------------------------------------
# The affects() relevance test (bare-except fix)
# ---------------------------------------------------------------------------


class TestAffects:
    @pytest.mark.parametrize("method", METHODS)
    def test_unbound_class_update_does_not_dirty(self, db, method):
        cq = ContinuousQuery(db, parse_query(ENTER_P), horizon=40, method=method)
        db.update_motion("b0", Point(-2, -2))  # birds are not bound
        assert not cq._dirty
        cq.current()
        assert cq.evaluations == 1

    def test_affects_uses_update_metadata(self, db):
        cq = ContinuousQuery(db, parse_query(ENTER_P), horizon=40)
        tagged = MostUpdate(0, "c0", "x_position", 0, 1, class_name="cars")
        assert cq.affects(tagged)
        other = MostUpdate(0, "b0", "x_position", 0, 1, class_name="birds")
        assert not cq.affects(other)

    def test_unknown_object_is_conservatively_relevant(self, db):
        cq = ContinuousQuery(db, parse_query(ENTER_P), horizon=40)
        ghost = MostUpdate(0, "nobody", "x_position", 0, 1)
        assert cq.affects(ghost)

    def test_non_schema_errors_propagate(self, db, monkeypatch):
        # The old bare ``except Exception`` swallowed every failure; only
        # the object-missing SchemaError may be caught.
        cq = ContinuousQuery(db, parse_query(ENTER_P), horizon=40)

        def boom(_object_id):
            raise RuntimeError("unrelated failure")

        monkeypatch.setattr(db, "get", boom)
        ghost = MostUpdate(0, "nobody", "x_position", 0, 1)
        with pytest.raises(RuntimeError):
            cq.affects(ghost)

    def test_ghost_update_forces_full_reevaluation(self, db):
        cq = ContinuousQuery(
            db, parse_query(ENTER_P), horizon=40, method="incremental"
        )
        # An update that cannot be attributed to a bound object dirties
        # conservatively and disables the incremental path for this round.
        db._commit(MostUpdate(db.clock.now, "nobody", "x_position", 0, 1))
        cq.current()
        assert cq.evaluations == 2
        assert cq.full_evaluations == 2
        assert cq.incremental_refreshes == 0


# ---------------------------------------------------------------------------
# Incremental ≡ full on targeted scenarios
# ---------------------------------------------------------------------------


class TestIncrementalEquivalence:
    def test_two_class_join(self, db):
        q = parse_query(NEAR)
        cq_full = ContinuousQuery(copy_db(db), q, horizon=30)
        db2 = copy_db(db)
        cq_inc = ContinuousQuery(db2, q, horizon=30, method="incremental")
        db_full = cq_full.db
        for step in range(6):
            db_full.clock.tick()
            db2.clock.tick()
            oid = f"c{step % 3}"
            v = Point((-1) ** step, step % 2)
            db_full.update_motion(oid, v)
            db2.update_motion(oid, v)
            assert cq_full.current() == cq_inc.current()
            full_t = sorted(
                (t.values, t.begin, t.end) for t in cq_full.answer_tuples()
            )
            inc_t = sorted(
                (t.values, t.begin, t.end) for t in cq_inc.answer_tuples()
            )
            assert full_t == inc_t
        # Steps 0 and 2 re-issue the object's existing motion vector;
        # the temporal-validity gate proves those updates no-ops and
        # skips their refreshes entirely (DESIGN.md §11).
        assert cq_inc.incremental_refreshes == 4
        assert cq_inc.horizon_skipped > 0

    def test_static_attribute_update_refreshes_incrementally(self, db):
        q = parse_query(
            "RETRIEVE o FROM cars o WHERE ALWAYS o.price <= 60"
        )
        cq = ContinuousQuery(db, q, horizon=30, method="incremental")
        assert cq.current() == {("c0",), ("c1",), ("c2",)}
        db.update_static("c0", "price", 100)
        assert cq.current() == {("c1",), ("c2",)}
        assert cq.incremental_refreshes == 1


def copy_db(db: MostDatabase) -> MostDatabase:
    """Fresh database with the same classes, regions, and object states."""
    import copy

    out = MostDatabase()
    for name in db.class_names():
        out.create_class(db.object_class(name))
    for name, region in db._regions.items():
        out.define_region(name, region)
    for obj in db.all_objects():
        out.add_object(
            obj.object_class.name,
            obj.object_id,
            static={
                a: obj.static_value(a)
                for a in obj.object_class.static_attributes
            },
            dynamic={
                a: copy.deepcopy(obj.dynamic_attribute(a))
                for a in obj.object_class.all_dynamic
            },
        )
    return out


# ---------------------------------------------------------------------------
# Fallback cases
# ---------------------------------------------------------------------------


class TestFallbacks:
    def test_assign_formula_falls_back_to_full(self, db):
        q = parse_query(ASSIGN_Q)
        assert not supports_incremental(q.where)
        cq = ContinuousQuery(db, q, horizon=20, method="incremental")
        assert not cq._use_incremental
        db.update_motion("c0", Point(3, 0))
        cq.current()
        assert cq.evaluations == 2
        assert cq.full_evaluations == 2
        assert cq.incremental_refreshes == 0

    def test_population_growth_falls_back_to_full(self, db):
        cq = ContinuousQuery(
            db, parse_query(ENTER_P), horizon=40, method="incremental"
        )
        db.add_moving_object("cars", "c-new", Point(3.0, 3.0), Point(0, 0))
        # add_object commits nothing, so no listener hears of it; the
        # next read sees the population change (whether or not an update
        # came in between) and recomputes from scratch.
        db.update_motion("c-new", Point(1, 1))
        # c0 (x=-2, v=1) enters P within the 3-tick window; c1/c2 start too
        # far back; the inserted car starts inside P.
        assert cq.current() == {("c0",), ("c-new",)}
        assert cq.full_evaluations == 2
        assert cq.incremental_refreshes == 0
        # Once re-seeded, later updates go back to the incremental path.
        db.update_motion("c-new", Point(-1, 0))
        cq.current()
        assert cq.incremental_refreshes == 1

    def test_unknown_method_rejected(self, db):
        with pytest.raises(QueryError):
            ContinuousQuery(db, parse_query(ENTER_P), horizon=10, method="magic")

    def test_expired_query_ignores_updates(self, db):
        cq = ContinuousQuery(
            db, parse_query(ENTER_P), horizon=3, method="incremental"
        )
        db.clock.tick(5)
        db.update_motion("c0", Point(5, 5))
        assert cq.current() == set()
        assert cq.evaluations == 1
