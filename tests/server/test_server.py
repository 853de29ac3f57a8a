"""Epoch-loop server tests: ingest, backpressure, fan-out, crash-restart."""

import asyncio
import json

import pytest

from repro.core.database import MostDatabase
from repro.core.objects import ObjectClass
from repro.distributed.network import FaultPlan, SimNetwork
from repro.distributed.node import MobileNode
from repro.distributed.updates import MotionUpdate
from repro.errors import DistributedError
from repro.geometry import Point
from repro.motion import linear_moving_point
from repro.server import (
    BACKPRESSURE,
    NORMAL,
    SHEDDING,
    BatchingReporter,
    CQServer,
    IngestBatch,
    SubscriberClient,
    SubscribeMsg,
)
from repro.server.protocol import (
    DELTA,
    HEARTBEAT,
    INGEST_ACK,
    INGEST_BATCH,
    INGEST_BUSY,
    SUBSCRIBE,
    SUBSCRIBED,
    DeltaMsg,
    HeartbeatMsg,
    SubscribedMsg,
    WireTuple,
    decode_line,
)
from repro.server.transport import ProtocolNode
from repro.temporal import SimulationClock

QUERY = "RETRIEVE v FROM trackers v, beacons b WHERE DIST(v, b) <= 60"
OTHER_QUERY = "RETRIEVE v FROM trackers v, beacons b WHERE DIST(v, b) <= 25"


def build_world(n_trackers=2, **server_kw):
    clock = SimulationClock()
    db = MostDatabase(clock)
    network = SimNetwork(clock, faults=FaultPlan(seed=0))
    db.create_class(ObjectClass("trackers", spatial_dimensions=2))
    db.create_class(ObjectClass("beacons", spatial_dimensions=2))
    db.add_moving_object("beacons", "beacon", Point(0.0, 0.0))
    server = CQServer(db, network, **server_kw)
    reporters = []
    for i in range(n_trackers):
        oid = f"tracker-{i}"
        db.add_moving_object("trackers", oid, Point(10.0 * i, 0.0), Point(1.0, 0.0))
        db.track(oid)
        node = MobileNode(
            oid, network, linear_moving_point(Point(10.0 * i, 0.0), Point(1.0, 0.0))
        )
        reporters.append(BatchingReporter(node, object_id=oid))
    return db, network, server, reporters


def drive(server, epochs):
    asyncio.run(server.serve(epochs=epochs))


class TestSubscription:
    def test_snapshot_resync_then_truth(self):
        db, network, server, reporters = build_world()
        client = SubscriberClient(network, "c1", QUERY, horizon=200)
        drive(server, 6)
        assert client.subscribed
        assert client.snapshots_received >= 1
        rq = next(iter(server.registry.queries.values()))
        assert client.display_at() == rq.cq.current()

    def test_unknown_class_refused_with_schema_error(self):
        db, network, server, _ = build_world()
        bad = SubscriberClient(
            network, "c1", "RETRIEVE g FROM ghosts g WHERE DIST(g, g) <= 1",
            horizon=50,
        )
        drive(server, 4)
        assert bad.error is not None
        assert "SchemaError" in bad.error
        assert "ghosts" in bad.error
        assert not bad.subscribed
        assert server.registry.queries == {}

    def test_identical_subscriptions_share_one_query(self):
        db, network, server, _ = build_world()
        a = SubscriberClient(network, "c1", QUERY, horizon=200)
        b = SubscriberClient(network, "c2", QUERY, horizon=200)
        drive(server, 5)
        assert a.subscribed and b.subscribed
        assert len(server.registry.queries) == 1
        assert server.metrics.subscriptions == 2

    def test_method_key_joins_the_existing_query(self):
        """How a registered query is evaluated is not on the wire: a frame
        that still says ``"method"`` shares the query of one that does
        not, and that query is maintained incrementally."""
        db, network, server, _ = build_world()
        SubscriberClient(network, "c1", QUERY, horizon=200)
        drive(server, 4)
        frame = {
            "kind": SUBSCRIBE, "client_id": "c2", "text": QUERY,
            "horizon": 200, "method": "naive",
        }
        server._dispatch("c2", *decode_line(json.dumps(frame).encode()))
        (rq,) = server.registry.queries.values()
        assert rq.subscribers == {"c1", "c2"}
        assert rq.cq.method == "incremental"
        assert not hasattr(rq, "method")
        with pytest.raises(TypeError):
            SubscriberClient(network, "c3", QUERY, horizon=200, method="naive")

    @pytest.mark.parametrize(
        "bad",
        [
            {"policy": "bogus"},
            {"policy": "periodic", "period": 0},
            {"window": -1},
            {"staleness_bound": -1.0},
            {"horizon": -1},
        ],
        ids=lambda bad: "-".join(bad),
    )
    def test_bad_subscription_values_fail_at_the_caller(self, bad):
        db, network, server, _ = build_world()
        fields = {"horizon": 200, **bad}
        with pytest.raises(DistributedError):
            SubscriberClient(network, "c1", QUERY, **fields)
        with pytest.raises(DistributedError):
            SubscribeMsg(client_id="c1", text=QUERY, **fields)

    def test_refused_session_leaves_the_registry_untouched(self, monkeypatch):
        """Refuse before register: whatever stops a session from opening,
        the durable table, the sharing key and the database's listener
        list are what they were before the frame."""
        db, network, server, _ = build_world()
        first = SubscriberClient(network, "c1", QUERY, horizon=200)
        drive(server, 4)
        registry = server.registry
        before = (
            dict(registry.queries),
            dict(registry.records),
            dict(registry._by_spec),
            dict(server.sessions),
            list(db._listeners),
        )

        def refuse(*args, **kwargs):
            raise DistributedError("no session today")

        monkeypatch.setattr("repro.server.epoch.ClientSession", refuse)
        joiner = SubscriberClient(network, "c2", QUERY, horizon=200)
        fresh = SubscriberClient(network, "c3", OTHER_QUERY, horizon=200)
        drive(server, 4)
        for client in (joiner, fresh):
            assert "no session today" in client.error
            assert not client.subscribed
        assert before == (
            registry.queries,
            registry.records,
            registry._by_spec,
            server.sessions,
            db._listeners,
        )
        # The surviving subscription is live, and restart reopens it.
        monkeypatch.undo()
        assert first.display_at() == registry.queries["q0"].cq.current()
        server.crash()
        server.restart()
        assert list(server.sessions) == [("c1", "q0")]

    def test_updates_flow_to_display(self):
        db, network, server, reporters = build_world(n_trackers=1)
        client = SubscriberClient(network, "c1", QUERY, horizon=200)
        drive(server, 4)
        # Send the tracker far away; the display must drop it.
        reporters[0].report(Point(50.0, 0.0), position=Point(500.0, 0.0))
        drive(server, 10)
        assert client.display_at() == set()
        rq = next(iter(server.registry.queries.values()))
        assert rq.cq.current() == set()


class TestBackpressure:
    def _flood_world(self, capacity, batch_limit):
        clock = SimulationClock()
        db = MostDatabase(clock)
        network = SimNetwork(clock)  # synchronous: sends deliver inline
        db.create_class(ObjectClass("trackers", spatial_dimensions=2))
        db.add_moving_object("trackers", "t0", Point(0.0, 0.0), Point(1.0, 0.0))
        db.track("t0")
        server = CQServer(
            db, network, inbox_capacity=capacity, batch_limit=batch_limit
        )
        sender = ProtocolNode("r0", network)
        replies = []
        sender.on_kind(INGEST_ACK, lambda m: replies.append(("ack", m.payload)))
        sender.on_kind(INGEST_BUSY, lambda m: replies.append(("busy", m.payload)))
        return db, server, sender, replies

    def _batch(self, batch_seq, n, start_seq=0):
        return IngestBatch(
            "r0",
            batch_seq,
            tuple(
                MotionUpdate("t0", start_seq + i, 0, Point(0.0, 0.0), Point(1.0, 0.0))
                for i in range(n)
            ),
        )

    def test_full_inbox_refuses_batch_explicitly(self):
        db, server, sender, replies = self._flood_world(capacity=6, batch_limit=64)
        assert sender.send("cq-server", INGEST_BATCH, self._batch(0, 4))
        sender.send("cq-server", INGEST_BATCH, self._batch(1, 4, start_seq=4))
        # Second batch exceeds headroom: refused atomically, nothing dropped.
        assert server.inbox_depth == 4
        kinds = [k for k, _ in replies]
        assert kinds == ["busy"]
        assert replies[0][1].batch_seq == 1
        assert replies[0][1].retry_after >= 1
        assert server.metrics.busy_signals == 1

    def test_inbox_never_exceeds_capacity(self):
        db, server, sender, replies = self._flood_world(capacity=8, batch_limit=4)
        seq = 0
        for b in range(12):
            sender.send("cq-server", INGEST_BATCH, self._batch(b, 3, start_seq=seq))
            seq += 3
        assert server.metrics.inbox_high_water <= 8
        assert server.inbox_depth <= 8

    def test_credits_vanish_above_high_watermark(self):
        db, server, sender, replies = self._flood_world(capacity=8, batch_limit=64)
        sender.send("cq-server", INGEST_BATCH, self._batch(0, 7))
        assert server._credits() == 0  # 7/8 >= 0.75 watermark
        drive(server, 1)
        acks = [p for k, p in replies if k == "ack"]
        assert acks and acks[-1].credits >= 1  # drained: allowance restored

    def test_shedding_level_under_backlog(self):
        db, server, sender, replies = self._flood_world(capacity=12, batch_limit=2)
        sender.send("cq-server", INGEST_BATCH, self._batch(0, 2))
        sender.send("cq-server", INGEST_BATCH, self._batch(1, 2, 2))
        sender.send("cq-server", INGEST_BATCH, self._batch(2, 2, 4))
        drive(server, 1)
        assert server.level == SHEDDING  # backlog left after the batch limit
        drive(server, 4)
        assert server.level == NORMAL
        assert server.metrics.epochs_at_level[SHEDDING] >= 1

    def test_ladder_level_names(self):
        assert {NORMAL, BACKPRESSURE, SHEDDING} == {
            "normal", "backpressure", "shedding"
        }


class TestHorizonAttribution:
    """Clean-query skips are credited to the gate that earned them:
    the temporal-validity gate when covered updates were dropped beyond
    the horizon since the last round, the dependency gate otherwise."""

    def test_clean_skips_attributed_to_their_gate(self):
        db, network, server, _ = build_world()
        rq = server.registry.register(
            SubscribeMsg(client_id="c0", text=QUERY, horizon=100)
        )
        # Round 1: no update arrived at all — the plain dependency gate.
        server.registry.refresh_round(now=0)
        assert server.metrics.deps_skipped_refreshes == 1
        assert server.metrics.horizon_skipped_refreshes == 0
        # Heartbeat: re-issues the exact current motion law, which the
        # validity gate proves a no-op inside the query window.
        db.update_motion(
            "tracker-0", Point(1.0, 0.0), position=Point(0.0, 0.0)
        )
        assert rq.cq.horizon_skipped > 0
        server.registry.refresh_round(now=0)
        assert server.metrics.horizon_skipped_refreshes == 1
        assert server.metrics.deps_skipped_refreshes == 1
        # A genuinely new motion vector dirties and refreshes: neither
        # skip counter moves.
        refreshes_before = server.metrics.refreshes
        db.update_motion("tracker-0", Point(2.0, 0.0))
        server.registry.refresh_round(now=0)
        assert server.metrics.refreshes == refreshes_before + 1
        assert server.metrics.horizon_skipped_refreshes == 1
        assert server.metrics.deps_skipped_refreshes == 1

    def test_metrics_export_horizon_counter(self):
        from repro.server.metrics import ServerMetrics

        assert ServerMetrics().to_dict()["horizon_skipped_refreshes"] == 0

    def test_rebuild_reanchors_the_attribution_baseline(self):
        db, network, server, _ = build_world()
        rq = server.registry.register(
            SubscribeMsg(client_id="c0", text=QUERY, horizon=100)
        )
        db.update_motion(
            "tracker-0", Point(1.0, 0.0), position=Point(0.0, 0.0)
        )
        assert rq.cq.horizon_skipped > 0
        server.registry.crash()
        server.registry.rebuild()
        # The rebuilt query starts with a fresh skip counter; without
        # re-anchoring, the next clean round would be mis-credited.
        server.registry.refresh_round(now=0)
        assert server.metrics.horizon_skipped_refreshes == 0
        assert server.metrics.deps_skipped_refreshes == 1


class TestIngest:
    def test_malformed_update_rejected_not_fatal(self):
        db, network, server, _ = build_world(n_trackers=0)
        sender = ProtocolNode("rx", network)
        acks = []
        sender.on_kind(INGEST_ACK, lambda m: acks.append(m.payload))
        ghost = MotionUpdate(
            "no-such-object", 0, 0, Point(0.0, 0.0), Point(0.0, 0.0)
        )
        sender.send("cq-server", INGEST_BATCH, IngestBatch("rx", 0, (ghost,)))
        drive(server, 3)  # must not raise
        assert server.metrics.updates_rejected == 1
        # Rejected but acked, so the sender stops retrying it.
        assert [a.batch_seq for a in acks] == [0]

    def test_unknown_and_mispaired_kinds_are_ignored(self):
        db, network, server, _ = build_world(n_trackers=1)
        sender = ProtocolNode("rx", network)
        update = MotionUpdate(
            "tracker-0", 0, 0, Point(0.0, 0.0), Point(2.0, 0.0)
        )
        # A bare update on the retired single-update kind, and an ingest
        # kind carrying the wrong payload class: neither is served.
        sender.send("cq-server", "motion-update", update)
        sender.send("cq-server", INGEST_BATCH, update)
        drive(server, 3)  # must not raise
        assert server.inbox_depth == 0
        assert server.metrics.updates_enqueued == 0
        assert server.metrics.updates_applied == 0
        # One refusal counter, the batch one.
        exported = server.metrics.to_dict()
        assert [k for k in exported if "busy" in k] == ["busy_signals"]


class TestCrashRestart:
    def test_restart_resyncs_by_snapshot_with_new_incarnation(self):
        db, network, server, reporters = build_world(n_trackers=1)
        client = SubscriberClient(network, "c1", QUERY, horizon=300)
        drive(server, 5)
        snaps_before = client.snapshots_received
        server.crash()
        reporters[0].report(Point(-1.0, 0.0))  # retried across the outage
        drive(server, 3)
        assert server.crashed
        server.restart()
        drive(server, 20)
        assert server.incarnation == 2
        assert client.incarnation == 2
        assert client.snapshots_received > snaps_before
        assert server.metrics.crashes == 1 and server.metrics.restarts == 1
        assert reporters[0].drained()  # the update survived the crash
        rq = next(iter(server.registry.queries.values()))
        assert client.display_at() == rq.cq.current()

    def test_registry_table_is_durable_sessions_are_not(self):
        db, network, server, _ = build_world()
        SubscriberClient(network, "c1", QUERY, horizon=200)
        drive(server, 4)
        assert server.sessions
        server.crash()
        assert server.sessions == {}
        assert server.registry.records  # durable subscription table
        server.restart()
        assert server.sessions  # rebuilt from the table

    def test_new_incarnation_confirmation_resets_the_client_cursor(self):
        """A restarted server's ``subscribed`` can overtake its resync
        snapshot; the snapshot (seq 1 again) must still replace the
        display instead of reading as a duplicate of the old stream."""
        network = SimNetwork(SimulationClock())  # synchronous delivery
        server = ProtocolNode("cq-server", network)
        client = SubscriberClient(network, "c1", QUERY, horizon=200)

        def snapshot(incarnation, *names):
            adds = tuple(
                WireTuple((n,), 0.0, 100.0, (n, "beacon")) for n in names
            )
            return DeltaMsg("q0", incarnation, 1, 0, adds, (), snapshot=True)

        def delta(seq, name):
            add = WireTuple((name,), 0.0, 100.0, (name, "beacon"))
            return DeltaMsg("q0", 1, seq, 0, (add,), ())

        server.send("c1", SUBSCRIBED, SubscribedMsg("c1", "q0", 1))
        server.send("c1", DELTA, snapshot(1, "old-a"))
        server.send("c1", DELTA, delta(2, "old-b"))
        server.send("c1", DELTA, delta(3, "old-c"))
        assert (client.incarnation, client.last_seq) == (1, 3)
        server.send("c1", SUBSCRIBED, SubscribedMsg("c1", "q0", 2))
        server.send("c1", DELTA, snapshot(2, "new"))
        assert (client.incarnation, client.last_seq) == (2, 1)
        assert client.display_at() == {("new",)}


class TestLiveness:
    def test_silent_client_pauses_sends_then_resumes(self):
        db, network, server, reporters = build_world(n_trackers=1)
        client = SubscriberClient(network, "c1", QUERY, horizon=300)
        drive(server, 5)
        network.set_disconnections("c1", [(6, 20)])
        drive(server, 24)  # outage exceeds the heartbeat timeout
        assert server.metrics.disconnects >= 1
        assert server.metrics.reconnects >= 1
        drive(server, 10)
        rq = next(iter(server.registry.queries.values()))
        assert client.display_at() == rq.cq.current()
        session = next(iter(server.sessions.values()))
        assert session.connected

    def test_heartbeat_reaches_exactly_its_clients_sessions(self):
        """One client with two subscriptions, a bystander with one: a
        heartbeat refreshes both of the sender's sessions and nobody
        else's — before and after a crash rebuilt the sessions."""
        db, network, server, _ = build_world()
        wide = QUERY.replace("<= 60", "<= 90")
        nodes = {cid: ProtocolNode(cid, network) for cid in ("c1", "c2")}
        for cid, text in (("c1", QUERY), ("c2", QUERY), ("c1", wide)):
            nodes[cid].send(
                "cq-server", SUBSCRIBE, SubscribeMsg(cid, text, horizon=100)
            )
        drive(server, 3)
        for _round in range(2):
            nodes["c1"].send("cq-server", HEARTBEAT, HeartbeatMsg("c1", 0))
            drive(server, 2)
            heard = {"c1": [], "c2": []}
            for (cid, _), session in server.sessions.items():
                heard[cid].append(session.last_heard)
            assert len(heard["c1"]) == 2 and len(heard["c2"]) == 1
            assert min(heard["c1"]) > max(heard["c2"])
            server.crash()
            server.restart()


class TestShedding:
    def test_round_robin_budget_refreshes_all_eventually(self):
        db, network, server, _ = build_world()
        texts = [
            QUERY,
            QUERY.replace("60", "40"),
            QUERY.replace("60", "20"),
        ]
        for i, text in enumerate(texts):
            server.registry.register(
                SubscribeMsg(client_id=f"c{i}", text=text, horizon=100)
            )
        for epoch in range(3):
            # Dirty every query (a position update is in every DIST
            # query's read-set) so the budget, not dependency pruning,
            # decides who refreshes this round.  The half-tick position
            # jump breaks the motion law, so the temporal-validity gate
            # cannot prove the update a no-op either.
            db.update_motion(
                "tracker-0",
                Point(1.0, 0.0),
                position=Point(float(epoch) + 0.5, 0.0),
            )
            server.registry.refresh_round(now=0, budget=1)
        assert server.metrics.refreshes == 3
        # Each round: 1 refreshed within budget; the other two dirty
        # queries are shed (they stay dirty and would refresh next).
        assert server.metrics.shed_refreshes == 6  # 2 skipped per round
