"""Unit tests for database histories (section 2.2 semantics)."""

import pytest

from repro.core import FutureHistory, MostDatabase, ObjectClass, RecordedHistory
from repro.core.history import epoch_token
from repro.errors import QueryError, SchemaError
from repro.geometry import Point
from repro.motion import LinearFunction


@pytest.fixture
def db() -> MostDatabase:
    database = MostDatabase()
    database.create_class(
        ObjectClass("cars", static_attributes=("color",), spatial_dimensions=2)
    )
    database.add_moving_object(
        "cars", "c1", Point(0, 0), Point(5, 0), static={"color": "red"}
    )
    return database


class TestFutureHistory:
    def test_dynamic_values_evolve(self, db):
        h = FutureHistory(db)
        assert h.value("c1", "x_position", 0) == 0
        assert h.value("c1", "x_position", 4) == 20
        assert h.position("c1", 2) == Point(10, 0)

    def test_static_values_constant(self, db):
        h = FutureHistory(db)
        assert h.value("c1", "color", 0) == "red"
        assert h.value("c1", "color", 1000) == "red"

    def test_snapshot_isolated_from_updates(self, db):
        """A history is pinned to the content it was opened on: after a
        commit every reader refuses, naming both versions, and a new
        history reads the new world."""
        h = FutureHistory(db)
        db.clock.tick(1)
        db.update_motion("c1", Point(0, 99))
        db.update_static("c1", "color", "blue")
        readers = (
            lambda: h.value("c1", "x_position", 4),
            lambda: h.value("c1", "color", 4),
            lambda: h.object_ids("cars"),
            lambda: h.moving_point("c1"),
            lambda: h.dynamic_triple("c1", "x_position"),
            lambda: h.position("c1", 4),
        )
        for read in readers:
            with pytest.raises(QueryError, match="version 0 .*version 2"):
                read()
        fresh = FutureHistory(db, start=0)
        assert fresh.value("c1", "x_position", 4) == 5
        assert fresh.value("c1", "color", 4) == "blue"

    def test_population_frozen(self, db):
        """An insert commits nothing (``db.version`` stays), but the
        population is part of the pin."""
        h = FutureHistory(db)
        db.add_moving_object("cars", "c2", Point(1, 1))
        assert db.version == 0
        with pytest.raises(QueryError, match=r"\(1 objects\).*\(2 objects\)"):
            h.object_ids("cars")
        assert FutureHistory(db).object_ids("cars") == ["c1", "c2"]

    def test_snapshot_keyword_removed(self, db):
        with pytest.raises(TypeError):
            FutureHistory(db, snapshot=True)
        with pytest.raises(TypeError):
            FutureHistory(db, snapshot=False)

    def test_unknown_object(self, db):
        h = FutureHistory(db)
        with pytest.raises(QueryError):
            h.value("nobody", "x_position", 0)
        with pytest.raises(QueryError):
            h.dynamic_triple("nobody", "x_position")
        with pytest.raises(SchemaError):
            h.moving_point("nobody")
        with pytest.raises(SchemaError):
            h.object_ids("boats")

    def test_epoch_token_is_the_pin(self, db):
        h = FutureHistory(db)
        pinned = epoch_token(h)
        assert pinned == (db.uid, 0, 1, ("cars",), (), 0.0)
        db.update_motion("c1", Point(1, 0))
        assert epoch_token(h) == pinned
        assert epoch_token(FutureHistory(db))[1] == 1
        assert epoch_token(RecordedHistory(db, start=0)) is None

    def test_unknown_attribute(self, db):
        h = FutureHistory(db)
        with pytest.raises(QueryError):
            h.value("c1", "altitude", 0)

    def test_state_view(self, db):
        h = FutureHistory(db)
        state = h.state(3)
        assert state.value("c1", "x_position") == 15
        assert state.position("c1") == Point(15, 0)
        with pytest.raises(QueryError):
            h.state(-1)

    def test_moving_point(self, db):
        h = FutureHistory(db)
        assert h.moving_point("c1").velocity == Point(5, 0)

    def test_dynamic_triple(self, db):
        h = FutureHistory(db)
        assert h.dynamic_triple("c1", "x_position").speed == 5
        with pytest.raises(QueryError):
            h.dynamic_triple("c1", "color")

    def test_region_passthrough(self, db):
        from repro.spatial import Ball

        db.define_region("C", Ball(Point(0, 0), 1))
        assert FutureHistory(db).region("C").radius == 1


class TestRecordedHistory:
    def test_replays_past_versions(self, db):
        # Section 2.3 scenario: speed 5, then updated to 7 at t=1, 10 at t=2.
        db.clock.tick(1)
        db.update_dynamic("c1", "x_position", function=LinearFunction(7))
        db.clock.tick(1)
        db.update_dynamic("c1", "x_position", function=LinearFunction(10))
        h = RecordedHistory(db, start=0)
        # x(t): 5t on [0,1], 5 + 7(t-1) on [1,2], 12 + 10(t-2) after.
        assert h.value("c1", "x_position", 0) == 0
        assert h.value("c1", "x_position", 1) == 5
        assert h.value("c1", "x_position", 2) == 12
        assert h.value("c1", "x_position", 3) == 22

    def test_future_beyond_now_uses_current_triple(self, db):
        db.clock.tick(2)
        db.update_motion("c1", Point(1, 0))
        h = RecordedHistory(db, start=0)
        # Beyond now: speed 1 from position (10, 0) at time 2.
        assert h.value("c1", "x_position", 12) == 20

    def test_static_rollback(self, db):
        db.clock.tick(5)
        db.update_static("c1", "color", "blue")
        h = RecordedHistory(db, start=0)
        assert h.value("c1", "color", 3) == "red"
        assert h.value("c1", "color", 5) == "blue"
        assert h.value("c1", "color", 9) == "blue"

    def test_population_is_current(self, db):
        h = RecordedHistory(db, start=0)
        db.add_moving_object("cars", "c2", Point(1, 1))
        assert set(h.object_ids("cars")) == {"c1", "c2"}
