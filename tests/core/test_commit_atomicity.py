"""One logical update is one commit, written whole or not at all.

A motion update writes one dynamic attribute per position axis.  Every
axis is computed before any is written; then all are installed, the log
gains one record per axis, ``version`` moves once and every listener is
called once with the whole commit.  So nobody — a trigger, a persistent
query, a server probe — ever observes a half-moved object, and an axis
that refuses its update leaves the object, the log, the version and the
ingest sequence exactly as they were.
"""

import asyncio
import math

import pytest

from repro.core import (
    ContinuousQuery,
    DynamicAttribute,
    MostDatabase,
    ObjectClass,
    PersistentQuery,
    TemporalTrigger,
)
from repro.distributed.network import SimNetwork
from repro.distributed.updates import MotionUpdate
from repro.errors import MotionError, SchemaError
from repro.ftl import parse_query
from repro.geometry import Point
from repro.server import CQServer, IngestBatch
from repro.server.protocol import INGEST_ACK, INGEST_BATCH
from repro.server.transport import ProtocolNode
from repro.spatial import Polygon
from repro.temporal import SimulationClock

INSIDE_P = "RETRIEVE o FROM cars o WHERE INSIDE(o, P)"
COLOR_BLIND = "RETRIEVE o FROM cars o WHERE EVENTUALLY WITHIN 8 INSIDE(o, P)"


def build_db(clock: SimulationClock | None = None) -> MostDatabase:
    db = MostDatabase(clock)
    db.create_class(
        ObjectClass("cars", static_attributes=("color",), spatial_dimensions=2)
    )
    db.define_region("P", Polygon.rectangle(0, 0, 10, 10))
    db.add_moving_object(
        "cars", "c", Point(20.0, 5.0), Point(0.0, 0.0), static={"color": "red"}
    )
    return db


def snapshot(db: MostDatabase) -> tuple:
    obj = db.get("c")
    return (
        db.version,
        db.log,
        obj.dynamic_attribute("x_position"),
        obj.dynamic_attribute("y_position"),
        db.last_ingested_seq("c"),
        db.is_tracked("c"),
    )


class TestOneCommitPerLogicalUpdate:
    def test_motion_update_is_one_commit_of_two_records(self):
        db = build_db()
        commits = []
        db.on_update(commits.append)
        db.clock.tick()
        db.update_motion("c", Point(1.0, -1.0), position=Point(3.0, 4.0))
        assert db.version == 1
        assert len(db.log) == 2
        assert [len(c) for c in commits] == [2]
        assert [u.attribute for u in commits[0]] == ["x_position", "y_position"]
        assert commits[0] == db.log

    def test_listener_sees_every_axis_already_written(self):
        db = build_db()
        seen = []
        db.on_update(lambda _commit: seen.append(db.get("c").position_at(0)))
        db.update_motion("c", Point(0.0, 0.0), position=Point(5.0, 50.0))
        assert seen == [Point(5.0, 50.0)]

    def test_static_and_dynamic_updates_are_one_record_commits(self):
        db = build_db()
        commits = []
        db.on_update(commits.append)
        db.update_static("c", "color", "blue")
        db.update_dynamic("c", "x_position", value=1.0)
        assert [len(c) for c in commits] == [1, 1]
        assert db.version == 2 and len(db.log) == 2


class TestNoTornReads:
    def test_trigger_never_sees_a_half_moved_car(self):
        """(20, 5) → (5, 50) crosses no point of P = [0, 10]²; written
        axis by axis the car would sit at (5, 5) in between."""
        db = build_db()
        cq = ContinuousQuery(db, parse_query(INSIDE_P), horizon=20)
        entered, left = [], []
        TemporalTrigger(db, cq, on_enter=entered.append, on_leave=left.append)
        db.update_motion("c", Point(0.0, 0.0), position=Point(5.0, 50.0))
        assert entered == [] and left == []
        assert cq.current() == set()

    def test_persistent_query_reevaluates_once_per_motion_update(self):
        db = build_db()
        pq = PersistentQuery(db, parse_query(INSIDE_P), horizon=20)
        assert pq.evaluations == 1
        db.clock.tick()
        db.update_motion("c", Point(0.0, 0.0), position=Point(5.0, 50.0))
        assert pq.evaluations == 2

    def test_trigger_reuses_the_routed_decision(self):
        """A static update the query never reads is one skip, not one
        for the router and one more for the trigger's own gate."""
        db = build_db()
        cq = ContinuousQuery(db, parse_query(COLOR_BLIND), horizon=20)
        TemporalTrigger(db, cq, on_enter=lambda _inst: None)
        before = cq.evaluations
        db.clock.tick()
        db.update_static("c", "color", "blue")
        assert cq.skipped_by_deps == 1
        assert cq.evaluations == before


class TestTriggerRechecksPerCommit:
    """Whether a trigger rechecks is decided by the commit, not by
    whether its query still waits for a refresh — another reader may
    already have refreshed it."""

    def test_two_triggers_on_one_query_both_see_enter_and_leave(self):
        db = build_db()
        cq = ContinuousQuery(db, parse_query(INSIDE_P), horizon=20)
        events = {"a": [], "b": []}
        for name, log in events.items():
            TemporalTrigger(
                db,
                cq,
                on_enter=lambda inst, log=log: log.append(("enter", inst)),
                on_leave=lambda inst, log=log: log.append(("leave", inst)),
            )
        # In and out again within one tick: the next tick's check sees no
        # difference, so only the per-commit rechecks can report them.
        db.update_motion("c", Point(0.0, 0.0), position=Point(5.0, 5.0))
        db.update_motion("c", Point(0.0, 0.0), position=Point(20.0, 5.0))
        expected = [("enter", ("c",)), ("leave", ("c",))]
        assert events == {"a": expected, "b": expected}

    def test_horizon_skipped_heartbeat_rechecks_a_stale_tuple(self):
        """The heartbeat leaves the trajectory unchanged (the validity
        gate drops it) but makes the car fresh again: its tuple comes
        back at once, not at the next tick."""
        db = MostDatabase()
        db.create_class(ObjectClass("cars", spatial_dimensions=2))
        db.define_region("P", Polygon.rectangle(0, 0, 10, 10))
        db.add_moving_object("cars", "c", Point(5.0, 5.0), Point(0.0, 0.0))
        db.ingest_motion("c", 0, Point(0.0, 0.0), Point(5.0, 5.0), 0)
        cq = ContinuousQuery(
            db, parse_query(INSIDE_P), horizon=20, staleness_bound=2
        )
        entered, left = [], []
        TemporalTrigger(db, cq, on_enter=entered.append, on_leave=left.append)
        db.clock.tick(3)
        assert entered == [("c",)] and left == [("c",)]
        db.ingest_motion("c", 1, Point(0.0, 0.0), Point(5.0, 5.0), 3)
        assert cq.horizon_skipped == 1
        assert entered == [("c",), ("c",)]


class TestRefusedMotionUpdateWritesNothing:
    """y's triple is anchored at 5 while the clock reads 2: the y axis
    refuses the update, so x must not move either."""

    def _world(self, clock: SimulationClock) -> MostDatabase:
        db = MostDatabase(clock)
        db.create_class(ObjectClass("cars", spatial_dimensions=2))
        clock.tick(2)
        db.add_object(
            "cars",
            "c",
            dynamic={
                "x_position": DynamicAttribute.linear(0.0, 1.0, updatetime=0),
                "y_position": DynamicAttribute.linear(0.0, 1.0, updatetime=5),
            },
        )
        return db

    def test_update_motion_raises_before_writing(self):
        db = self._world(SimulationClock())
        commits = []
        db.on_update(commits.append)
        before = snapshot(db)
        with pytest.raises(MotionError):
            db.update_motion("c", Point(2.0, 2.0), position=Point(1.0, 1.0))
        assert snapshot(db) == before
        assert commits == []

    def test_ingest_consumes_neither_seq_nor_tracking(self):
        db = self._world(SimulationClock())
        commits = []
        db.on_update(commits.append)
        before = snapshot(db)
        assert before[4:] == (-1, False)
        with pytest.raises(MotionError):
            db.ingest_motion("c", 0, Point(2.0, 2.0), Point(1.0, 1.0), 2)
        assert snapshot(db) == before
        assert commits == []
        # The same seq applies once the update is acceptable.
        db.clock.tick(3)
        assert db.ingest_motion("c", 0, Point(2.0, 2.0), Point(1.0, 1.0), 5)
        assert db.last_ingested_seq("c") == 0 and db.version == 1

    @pytest.mark.parametrize(
        "position", [Point(math.nan, 0.0), Point(math.inf, 0.0), Point(1.0, -math.inf)]
    )
    def test_ingest_refuses_a_non_finite_position(self, position):
        """Installed, a NaN or infinite coordinate would drop the car out
        of every answer without a word; refused, it consumes nothing."""
        db = build_db()
        commits = []
        db.on_update(commits.append)
        before = snapshot(db)
        with pytest.raises(SchemaError, match="not finite"):
            db.ingest_motion("c", 0, Point(0.0, 0.0), position, 0)
        assert snapshot(db) == before
        assert commits == []
        assert db.ingest_motion("c", 0, Point(0.0, 0.0), Point(1.0, 1.0), 0)

    @pytest.mark.parametrize("measured_at", [math.nan, -math.inf, math.inf])
    def test_ingest_refuses_a_non_finite_measurement_time(self, measured_at):
        db = build_db()
        db.clock.tick(5)
        before = snapshot(db)
        with pytest.raises(SchemaError):
            db.ingest_motion("c", 0, Point(0.0, 0.0), Point(1.0, 1.0), measured_at)
        assert snapshot(db) == before

    @pytest.mark.parametrize("velocity", [Point(math.nan, 0.0), Point(0.0, math.inf)])
    def test_a_non_finite_velocity_breaks_the_motion_law(self, velocity):
        """``f(0) == 0`` is NaN for an infinite or NaN slope.  (Ingest
        extrapolates the fix along the velocity first, which already
        makes it non-finite.)"""
        db = build_db()
        before = snapshot(db)
        with pytest.raises((MotionError, SchemaError)):
            db.ingest_motion("c", 0, velocity, Point(1.0, 1.0), 0)
        with pytest.raises(MotionError):
            db.update_motion("c", velocity)
        with pytest.raises(MotionError):
            db.add_moving_object("cars", "d", Point(1.0, 1.0), velocity)
        assert snapshot(db) == before
        assert db.class_count("cars") == 1

    def test_update_motion_and_insert_refuse_a_non_finite_position(self):
        db = build_db()
        before = snapshot(db)
        with pytest.raises(SchemaError, match="not finite"):
            db.update_motion("c", Point(0.0, 0.0), position=Point(math.nan, 0.0))
        with pytest.raises(SchemaError, match="not finite"):
            db.add_moving_object("cars", "d", Point(0.0, math.inf))
        assert snapshot(db) == before
        assert db.class_count("cars") == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_update_dynamic_refuses_a_non_finite_position(self, value):
        db = build_db()
        commits = []
        db.on_update(commits.append)
        before = snapshot(db)
        with pytest.raises(SchemaError, match="not finite"):
            db.update_dynamic("c", "y_position", value=value)
        assert snapshot(db) == before
        assert commits == []
        db.update_dynamic("c", "y_position", value=7.0)
        assert db.get("c").position_at(db.clock.now) == Point(20.0, 7.0)

    def test_server_counts_it_rejected_and_leaves_the_database(self):
        clock = SimulationClock()
        db = self._world(clock)
        network = SimNetwork(clock)
        server = CQServer(db, network)
        sender = ProtocolNode("r0", network)
        before = snapshot(db)
        update = MotionUpdate("c", 0, 2, Point(1.0, 1.0), Point(2.0, 2.0))
        sender.send(server.server_id, INGEST_BATCH, IngestBatch("r0", 0, (update,)))
        asyncio.run(server.serve(epochs=1))
        assert server.metrics.updates_rejected == 1
        assert server.metrics.updates_applied == 0
        assert snapshot(db) == before

    def test_server_rejects_a_non_finite_update_and_keeps_running(self):
        """A NaN coordinate (JSON ``NaN`` decodes to one) is rejected and
        acked; the next update of the same batch still applies."""
        clock = SimulationClock()
        db = build_db(clock)
        network = SimNetwork(clock)
        server = CQServer(db, network)
        sender = ProtocolNode("r0", network)
        acks = []
        sender.on_kind(INGEST_ACK, lambda message: acks.append(message.payload))
        bad = MotionUpdate("c", 0, 0, Point(math.nan, 5.0), Point(0.0, 0.0))
        good = MotionUpdate("c", 1, 0, Point(4.0, 5.0), Point(0.0, 0.0))
        sender.send(server.server_id, INGEST_BATCH, IngestBatch("r0", 0, (bad, good)))
        asyncio.run(server.serve(epochs=2))
        assert server.metrics.updates_rejected == 1
        assert server.metrics.updates_applied == 1
        assert [ack.acked for ack in acks] == [(("c", 1),)]
        assert db.last_ingested_seq("c") == 1
        assert db.get("c").position_at(clock.now) == Point(4.0, 5.0)
