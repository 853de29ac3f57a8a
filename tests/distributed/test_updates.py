"""Tests for the fault-tolerant position-update pipeline.

Sequence numbers, acks, retry-with-backoff, idempotent server ingest,
and extrapolation of late deliveries — the protocol cases on the one
reporter/server pair (:class:`BatchingReporter` → :class:`CQServer`),
the ``ingest_motion`` / staleness cases on the database alone.
"""

import asyncio

import pytest

from repro.core import MostDatabase, ObjectClass
from repro.distributed import FaultPlan, LinkFaults, MobileNode, SimNetwork
from repro.errors import SchemaError
from repro.geometry import Point
from repro.motion import linear_moving_point
from repro.server import BatchingReporter, CQServer
from repro.temporal import SimulationClock


def make_db():
    clock = SimulationClock()
    db = MostDatabase(clock)
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.add_moving_object("cars", "car-0", Point(0.0, 0.0))
    db.track("car-0")
    return clock, db


def make_world(faults):
    """One server database + network + one reporting mobile node."""
    clock, db = make_db()
    net = SimNetwork(clock, faults=faults)
    server = CQServer(db, net)
    node = MobileNode(
        "car-0", net, linear_moving_point(Point(0, 0), Point(0, 0))
    )
    return db, net, server, node, BatchingReporter(node, object_id="car-0")


def drive(server, epochs):
    """Run the epoch loop; each epoch ticks the shared clock once."""
    asyncio.run(server.serve(epochs=epochs))


def position(db, object_id):
    obj = db.get(object_id)
    names = obj.object_class.position_attributes
    now = db.clock.now
    return Point(*(obj.dynamic_attribute(n).value_at(now) for n in names))


class TestHappyPath:
    def test_report_applies_and_acks(self):
        db, net, server, node, rep = make_world(FaultPlan(seed=0))
        rep.report(Point(2.0, 0.0), position=Point(1.0, 1.0))
        assert rep.in_flight == 1
        drive(server, 2)  # flushed on the first tick, landed on the second
        assert server.metrics.updates_applied == 1
        assert rep.in_flight == 1  # the ack is still in flight
        drive(server, 1)
        assert rep.in_flight == 0
        assert rep.acked_through == 0
        assert rep.retransmissions == 0
        assert db.last_ingested_seq("car-0") == 0

    def test_position_extrapolated_to_apply_time(self):
        db, net, server, node, rep = make_world(
            FaultPlan(seed=0, default=LinkFaults(delay=(4, 4)))
        )
        drive(server, 2)
        rep.report(Point(3.0, 0.0), position=Point(10.0, 0.0))
        # Flushed at t=3, four ticks in flight: applied at t=7, measured
        # at t=2.
        drive(server, 5)
        assert server.metrics.updates_applied == 1
        # p0 + v * (7 - 2) = 10 + 15 = 25, then value_at(now=7) adds 0.
        assert position(db, "car-0") == Point(25.0, 0.0)
        assert db.last_update_time("car-0") == 7


class TestIdempotence:
    def test_duplicate_delivery_rejected_but_acked(self):
        db, net, server, node, rep = make_world(
            FaultPlan(seed=0, default=LinkFaults(duplicate=1.0))
        )
        rep.report(Point(1.0, 0.0))
        drive(server, 2)
        assert server.metrics.updates_applied == 1
        assert server.metrics.updates_rejected == 1
        assert db.ingest_rejected == 1
        drive(server, 1)
        assert rep.in_flight == 0

    def test_out_of_order_straggler_rejected(self):
        clock, db = make_db()
        # Deliver seq 1 first, then the seq 0 it overtook.
        assert db.ingest_motion(
            "car-0", 1, Point(2.0, 0.0), Point(0.0, 0.0), 0
        )
        assert not db.ingest_motion(
            "car-0", 0, Point(1.0, 0.0), Point(0.0, 0.0), 0
        )
        assert db.last_ingested_seq("car-0") == 1
        # The newer motion vector is in force.
        obj = db.get("car-0")
        assert obj.dynamic_attribute("x_position").function.value(1.0) == 2.0

    def test_ingest_rejects_future_measurement(self):
        clock, db = make_db()
        with pytest.raises(SchemaError):
            db.ingest_motion("car-0", 5, Point(1, 0), Point(0, 0), 99)

    def test_ingest_dimension_mismatch(self):
        clock, db = make_db()
        with pytest.raises(SchemaError):
            db.ingest_motion("car-0", 5, Point(1, 0, 0), Point(0, 0, 0), 0)


class TestRetry:
    def test_retries_until_heal_then_converges(self):
        db, net, server, node, rep = make_world(
            FaultPlan(seed=3, default=LinkFaults(drop=1.0), heal_at=10)
        )
        rep.report(Point(5.0, 0.0), position=Point(0.0, 0.0))
        drive(server, 8)
        assert server.metrics.updates_applied == 0
        assert rep.retransmissions > 0
        drive(server, 12)  # healed: a retry gets through, ack drains
        assert server.metrics.updates_applied == 1
        assert rep.in_flight == 0
        # The server's trajectory matches the node's ground truth.
        assert position(db, "car-0") == node.position_now()

    def test_backoff_spaces_out_retries(self):
        db, net, server, node, rep = make_world(
            FaultPlan(seed=3, default=LinkFaults(drop=1.0))
        )
        rep.report(Point(1.0, 0.0))
        drive(server, 20)
        # 20 ticks of a flat 3-tick retry would mean ~7 sends; backoff
        # (3, 6, 8, 8, ... jittered) caps it well below that.
        assert 2 <= net.stats.attempted <= 5
        assert net.stats.attempted == 1 + rep.retransmissions

    def test_lost_ack_triggers_rerequest_and_reack(self):
        db, net, server, node, rep = make_world(
            FaultPlan(
                seed=3,
                links={("cq-server", "car-0"): LinkFaults(drop=1.0)},
                heal_at=6,
            )
        )
        rep.report(Point(1.0, 0.0))
        drive(server, 2)
        assert server.metrics.updates_applied == 1  # update got through
        drive(server, 2)
        assert rep.in_flight == 1  # but the ack was lost
        drive(server, 10)  # healed: retry -> duplicate rejected -> ack lands
        assert server.metrics.updates_rejected >= 1
        assert rep.in_flight == 0

    def test_reconnect_reannounces_current_motion(self):
        db, net, server, node, rep = make_world(
            FaultPlan(seed=3, crashes={"car-0": [(3, 7)]})
        )
        rep.report(Point(1.0, 0.0), position=Point(0.0, 0.0))
        drive(server, 2)
        assert server.metrics.updates_applied == 1
        drive(server, 1)
        # Motion changes while the node's radio is down: nothing is
        # sent, the update stays unacked.
        rep.report(Point(0.0, 2.0))
        drive(server, 12)
        # After restart the re-announce converges the server.
        assert rep.in_flight == 0
        assert rep.sent == 3  # two reports and the re-announcement
        assert position(db, "car-0") == node.position_now()
        obj = db.get("car-0")
        assert obj.dynamic_attribute("y_position").function.value(1.0) == 2.0


class TestStalenessAccounting:
    def test_untracked_objects_always_fresh(self):
        clock, db = make_db()
        db.add_moving_object("cars", "beacon", Point(5.0, 5.0))
        clock.tick(30)
        assert db.staleness("beacon") == 0
        assert not db.is_tracked("beacon")

    def test_tracked_staleness_grows_and_resets(self):
        clock, db = make_db()
        clock.tick(4)
        assert db.staleness("car-0") == 4
        clock.tick()
        assert db.ingest_motion("car-0", 0, Point(1, 0), Point(0, 0), 4)
        assert db.staleness("car-0") == 0
        assert db.last_update_time("car-0") == 5

    def test_ingest_marks_tracked(self):
        clock, db = make_db()
        db.add_moving_object("cars", "late", Point(0.0, 0.0))
        assert not db.is_tracked("late")
        db.ingest_motion("late", 0, Point(1, 0), Point(0, 0), 0)
        assert db.is_tracked("late")

    def test_unknown_object_raises(self):
        clock, db = make_db()
        with pytest.raises(SchemaError):
            db.staleness("ghost")
        with pytest.raises(SchemaError):
            db.track("ghost")
