"""Persistent queries through the interval algorithm (paper future work).

The paper postpones persistent-query processing.  Our extension evaluates
them with the appendix interval algorithm whenever the recorded
trajectories are continuous piecewise-linear, falling back to the
per-state evaluator otherwise; these tests pin the reconstruction, the
fallback triggers, and the equivalence of the two paths.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MostDatabase,
    ObjectClass,
    PersistentQuery,
    RecordedHistory,
)
from repro.errors import QueryError
from repro.ftl import parse_query
from repro.geometry import Point
from repro.motion import LinearFunction, PiecewiseLinearFunction, SinusoidFunction
from repro.spatial import Polygon


@pytest.fixture
def db() -> MostDatabase:
    database = MostDatabase()
    database.create_class(ObjectClass("cars", spatial_dimensions=2))
    database.define_region("P", Polygon.rectangle(0, 0, 10, 10))
    return database


class TestRecordedMovingPoint:
    def test_single_version(self, db):
        db.add_moving_object("cars", "o", Point(1, 2), Point(3, 0))
        mp = RecordedHistory(db, 0).moving_point("o")
        assert mp.position_at(0) == Point(1, 2)
        assert mp.position_at(4) == Point(13, 2)

    def test_piecewise_from_updates(self, db):
        db.add_moving_object("cars", "o", Point(0, 0), Point(5, 0))
        db.clock.tick(2)
        db.update_motion("o", Point(1, 1))  # continuous: keeps implied pos
        mp = RecordedHistory(db, 0).moving_point("o")
        assert mp.position_at(2) == Point(10, 0)
        assert mp.position_at(4) == Point(12, 2)
        # Matches the per-value reconstruction everywhere.
        h = RecordedHistory(db, 0)
        for t in (0, 1, 2, 3, 7):
            assert mp.position_at(t).x == h.value("o", "x_position", t)
            assert mp.position_at(t).y == h.value("o", "y_position", t)

    def test_anchor_after_history_start(self, db):
        db.clock.tick(3)
        db.add_moving_object("cars", "late", Point(0, 0), Point(1, 0))
        mp = RecordedHistory(db, 0).moving_point("late")
        # Timeline starts at the insert; extrapolation backwards is linear.
        assert mp.position_at(3) == Point(0, 0)

    def test_jump_raises(self, db):
        db.add_moving_object("cars", "o", Point(0, 0), Point(5, 0))
        db.clock.tick(2)
        db.update_motion("o", Point(0, 0), position=Point(500, 0))  # GPS snap
        with pytest.raises(QueryError):
            RecordedHistory(db, 0).moving_point("o")

    def test_piecewise_versions_keep_their_own_pieces(self, db):
        db.add_moving_object("cars", "o", Point(-3, 1), Point(1, 0))
        db.clock.tick(2)
        db.update_dynamic(
            "o", "x_position", function=PiecewiseLinearFunction([(0, 0), (5, 4)])
        )
        db.clock.tick(3)
        # Clipped at the next version: the breakpoint at 2 + 5 = 7 is
        # never reached, this one takes over at 5.
        db.update_dynamic(
            "o", "y_position", function=PiecewiseLinearFunction([(0, -1), (1, 2)])
        )
        db.clock.tick(1)
        db.update_dynamic("o", "x_position", function=LinearFunction(0.5))
        h = RecordedHistory(db, 0)
        mp = h.moving_point("o")
        for k in range(0, 41):
            t = k / 2
            assert mp.position_at(t).x == pytest.approx(h.value("o", "x_position", t))
            assert mp.position_at(t).y == pytest.approx(h.value("o", "y_position", t))

    def test_piecewise_version_after_the_start(self, db):
        db.add_moving_object("cars", "o", Point(0, 0), Point(1, 1))
        db.clock.tick(4)
        db.update_dynamic(
            "o", "x_position", function=PiecewiseLinearFunction([(0, 2), (3, -1)])
        )
        db.clock.tick(1)
        h = RecordedHistory(db, 2)
        mp = h.moving_point("o")
        for t in (2, 3, 4, 5, 6, 7, 8, 9, 12):
            assert mp.position_at(t).x == pytest.approx(h.value("o", "x_position", t))

    def test_nonlinear_raises(self, db):
        db.add_moving_object("cars", "o", Point(0, 0), Point(1, 0))
        db.clock.tick(1)
        db.update_dynamic("o", "x_position", function=SinusoidFunction(1, 1))
        with pytest.raises(QueryError):
            RecordedHistory(db, 0).moving_point("o")

    def test_non_spatial_raises(self, db):
        db.create_class(ObjectClass("plain"))
        db.add_object("plain", "p")
        with pytest.raises(QueryError):
            RecordedHistory(db, 0).moving_point("p")


ENTER_P = "RETRIEVE o FROM cars o WHERE EVENTUALLY WITHIN 20 INSIDE(o, P)"


class TestPersistentViaInterval:
    def test_interval_method_used_for_continuous_histories(self, db):
        db.add_moving_object("cars", "o", Point(-50, 5), Point(1, 0))
        pq = PersistentQuery(db, parse_query(ENTER_P), horizon=80)
        assert pq.last_method == "interval"
        db.clock.tick(3)
        db.update_motion("o", Point(5, 0))  # continuous speed-up
        assert pq.last_method == "interval"
        # From the anchor (t=0): o reaches P's x-range quickly now.
        assert pq.current() == {("o",)}

    def test_fallback_to_naive_on_jump(self, db):
        db.add_moving_object("cars", "o", Point(-500, 5), Point(0, 0))
        pq = PersistentQuery(db, parse_query(ENTER_P), horizon=80)
        assert pq.current() == set()
        db.clock.tick(5)
        db.update_motion("o", Point(0, 0), position=Point(5, 5))  # jump!
        assert pq.last_method == "naive"
        assert pq.current() == {("o",)}

    def test_forced_interval_raises_on_jump(self, db):
        db.add_moving_object("cars", "o", Point(-500, 5), Point(0, 0))
        pq = PersistentQuery(db, parse_query(ENTER_P), horizon=40, method="interval")
        with pytest.raises(QueryError):
            db.clock.tick(1)
            db.update_motion("o", Point(0, 0), position=Point(5, 5))

    def test_piecewise_law_takes_the_interval_path(self, db):
        """One car switched to a piecewise law: the interval evaluator
        answers (it used to refuse the version), and agrees with naive."""
        db.add_moving_object("cars", "o", Point(-8, 5), Point(0, 0))
        db.update_dynamic(
            "o", "x_position", function=PiecewiseLinearFunction([(0, 0), (5, 4)])
        )
        query = parse_query(ENTER_P)
        interval = PersistentQuery(db, query, horizon=30, method="interval")
        auto = PersistentQuery(db, query, horizon=30)
        naive = PersistentQuery(db, query, horizon=30, method="naive")
        assert interval.last_method == auto.last_method == "interval"
        assert interval.current() == auto.current() == naive.current() == {("o",)}
        rows = [
            dict(query.evaluate(RecordedHistory(db, 0), 30, method=m).rows())
            for m in ("interval", "naive")
        ]
        assert rows[0] == rows[1]

    def test_unknown_method_rejected(self, db):
        db.add_moving_object("cars", "o", Point(0, 0))
        with pytest.raises(QueryError):
            PersistentQuery(db, parse_query(ENTER_P), horizon=10, method="psychic")

    def test_speed_doubling_query_still_works(self, db):
        # The section 2.3 query uses sub-attribute terms (per-tick sampled
        # under a recorded history) and must agree across methods.
        q = parse_query(
            "RETRIEVE o FROM cars o WHERE [x := o.x_position.function]"
            " EVENTUALLY o.x_position.function >= 2 * x"
        )
        db.add_moving_object("cars", "o", Point(0, 5), Point(5, 0))
        via_auto = PersistentQuery(db, q, horizon=10)
        via_naive = PersistentQuery(db, q, horizon=10, method="naive")
        db.clock.tick(2)
        db.update_dynamic("o", "x_position", function=LinearFunction(10))
        assert via_auto.current() == via_naive.current() == {("o",)}


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=5),   # ticks until update
            st.integers(min_value=-3, max_value=3),  # new vx
            st.integers(min_value=-3, max_value=3),  # new vy
        ),
        max_size=4,
    )
)
def test_interval_equals_naive_over_recorded_histories(updates):
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(0, 0, 10, 10))
    db.add_moving_object("cars", "o", Point(-8, 5), Point(2, 0))
    for dt, vx, vy in updates:
        db.clock.tick(dt)
        db.update_motion("o", Point(vx, vy))
    history_a = RecordedHistory(db, 0)
    history_b = RecordedHistory(db, 0)
    q = parse_query(ENTER_P)
    interval = dict(q.evaluate(history_a, 25, method="interval").rows())
    naive = dict(q.evaluate(history_b, 25, method="naive").rows())
    assert interval == naive


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),   # ticks until update
            st.booleans(),                           # piecewise x law?
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-3, max_value=3),
        ),
        max_size=4,
    ),
    st.integers(min_value=0, max_value=6),           # history start
)
def test_interval_equals_naive_over_piecewise_versions(updates, start):
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(0, 0, 10, 10))
    db.add_moving_object("cars", "o", Point(-8, 5), Point(2, 0))
    for dt, piecewise, a, b in updates:
        db.clock.tick(dt)
        if piecewise:
            law = PiecewiseLinearFunction([(0, a), (1 + abs(b) % 3, b), (4, -a)])
            db.update_dynamic("o", "x_position", function=law)
        else:
            db.update_motion("o", Point(a, b))
    q = parse_query(ENTER_P)
    interval = dict(q.evaluate(RecordedHistory(db, start), 25, method="interval").rows())
    naive = dict(q.evaluate(RecordedHistory(db, start), 25, method="naive").rows())
    assert interval == naive


class TestObjectsEnterAtTheirInsert:
    """An object inserted after a persistent query's anchor enters the
    recorded history at its insert tick, and the insert re-evaluates
    the query.  World: ``P = [0, 10]^2``, one car ``c0`` parked far
    away, the anchor at 0, horizon 40."""

    @staticmethod
    def world() -> MostDatabase:
        db = MostDatabase()
        db.create_class(ObjectClass("cars", spatial_dimensions=2))
        db.define_region("P", Polygon.rectangle(0, 0, 10, 10))
        db.add_moving_object("cars", "c0", Point(100, 100), Point(0, 0))
        return db

    @pytest.mark.parametrize("method", ["interval", "naive"])
    def test_no_state_before_the_insert_holds_the_object(self, method):
        # c1 parks inside P from t = 30: EVENTUALLY WITHIN 20 at t = 0
        # looks at [0, 20], where c1 is in no state.
        db = self.world()
        pq = PersistentQuery(
            db,
            parse_query(
                "RETRIEVE o FROM cars o WHERE EVENTUALLY WITHIN 20 INSIDE(o, P)"
            ),
            40,
            method=method,
        )
        db.clock.tick(30)
        db.add_moving_object("cars", "c1", Point(5, 5), Point(0, 0))
        db.update_motion("c0", Point(1, 0))  # an unrelated commit
        assert pq.current() == set()
        assert pq.last_method == method
        # Over the whole horizon c1 is inside P from its insert on.
        history = RecordedHistory(db, 0)
        query = parse_query("RETRIEVE o FROM cars o WHERE INSIDE(o, P)")
        relation = query.evaluate_full(history, 40, method=method)
        assert [
            (inst, [(iv.start, iv.end) for iv in iset])
            for inst, iset in relation.rows()
        ] == [(("c1",), [(30, 40)])]

    @pytest.mark.parametrize("method", ["interval", "naive"])
    def test_an_insert_alone_re_evaluates(self, method):
        db = self.world()
        pq = PersistentQuery(
            db,
            parse_query("RETRIEVE o FROM cars o WHERE EVENTUALLY INSIDE(o, P)"),
            40,
            method=method,
        )
        assert (pq.current(), pq.evaluations) == (set(), 1)
        db.add_moving_object("cars", "c1", Point(5, 5), Point(0, 0))
        assert pq.current() == {("c1",)}
        assert pq.evaluations == 2
        assert pq.current() == {("c1",)} and pq.evaluations == 2

    def test_a_late_insert_satisfies_an_unbounded_eventually(self):
        db = self.world()
        text = "RETRIEVE o FROM cars o WHERE EVENTUALLY INSIDE(o, P)"
        answers = []
        for method in ("interval", "naive"):
            pq = PersistentQuery(db, parse_query(text), 40, method=method)
            answers.append(pq)
        db.clock.tick(30)
        db.add_moving_object("cars", "c1", Point(5, 5), Point(0, 0))
        assert [pq.current() for pq in answers] == [{("c1",)}] * 2

    @pytest.mark.parametrize("method", ["interval", "auto", "naive"])
    def test_an_insert_after_the_horizon_enters_no_state(self, method):
        # The clock passes anchor + horizon = 40, then c1 parks inside P
        # at t = 50: no state of [0, 40] holds it, so nothing satisfies
        # INSIDE over the window and EVENTUALLY INSIDE is false at 0.
        db = self.world()
        pq = PersistentQuery(
            db,
            parse_query("RETRIEVE o FROM cars o WHERE EVENTUALLY INSIDE(o, P)"),
            40,
            method=method,
        )
        db.clock.tick(50)
        db.add_moving_object("cars", "c1", Point(5, 5), Point(0, 0))
        assert pq.current() == set()
        db.update_motion("c0", Point(1, 0))  # a commit re-evaluates too
        assert pq.current() == set()
        assert pq.last_method == ("interval" if method == "auto" else method)
        query = parse_query("RETRIEVE o FROM cars o WHERE INSIDE(o, P)")
        relations = [
            query.evaluate_full(RecordedHistory(db, 0), 40, method=m)
            for m in ("interval", "naive")
        ]
        assert [list(r.rows()) for r in relations] == [[], []]
