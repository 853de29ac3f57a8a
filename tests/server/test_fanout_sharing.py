"""Fan-out does work in proportion to what changed — as exact counts.

``ServerMetrics.diffs_computed`` / ``tuples_carried`` let the sharing be
asserted instead of timed: one answer-state diff per state change
however many sessions read it, no per-tuple work in a session that is in
sync, and no chain of dead answer states behind the live one.
"""

import asyncio
import gc
import weakref

from repro.core.database import MostDatabase
from repro.core.objects import ObjectClass
from repro.distributed.network import SimNetwork
from repro.distributed.node import MobileNode
from repro.geometry import Point
from repro.motion import linear_moving_point
from repro.server import BatchingReporter, CQServer, SubscriberClient
from repro.server.metrics import ServerMetrics
from repro.server.protocol import DeltaAck, WireTuple
from repro.server.registry import AnswerState, SubscriberRecord
from repro.server.session import ClientSession
from repro.temporal import SimulationClock

QUERY = "RETRIEVE v FROM trackers v, beacons b WHERE DIST(v, b) <= 60"
N_SESSIONS = 32


class World:
    """One shared query, ``N_SESSIONS`` subscribers, synchronous links."""

    def __init__(self, n_clients=N_SESSIONS, n_trackers=6):
        self.clock = SimulationClock()
        self.db = MostDatabase(self.clock)
        self.network = SimNetwork(self.clock)
        self.db.create_class(ObjectClass("trackers", spatial_dimensions=2))
        self.db.create_class(ObjectClass("beacons", spatial_dimensions=2))
        self.db.add_moving_object("beacons", "beacon", Point(0.0, 0.0))
        self.server = CQServer(self.db, self.network, heartbeat_timeout=3)
        self.reporters = []
        self._heading = -9.0
        for i in range(n_trackers):
            oid, start = f"tracker-{i}", Point(5.0 * i, 0.0)
            self.db.add_moving_object("trackers", oid, start, Point(0.0, 0.0))
            self.db.track(oid)
            node = MobileNode(oid, self.network, linear_moving_point(start, Point(0.0, 0.0)))
            self.reporters.append(BatchingReporter(node, object_id=oid))
        self.clients = [
            SubscriberClient(self.network, f"c{i}", QUERY, horizon=2000)
            for i in range(n_clients)
        ]
        self.epochs(4)
        assert all(c.snapshots_received == 1 for c in self.clients)
        (self.rq,) = self.server.registry.queries.values()

    @property
    def metrics(self):
        return self.server.metrics

    def epochs(self, n):
        asyncio.run(self.server.serve(epochs=n))

    def changing_epochs(self, n):
        """``n`` epochs, one tracker changing course in each; returns how
        many times the query's answer state was rebuilt."""
        changes = 0
        for _ in range(n):
            # Back and forth along x: every report is a real change.
            self._heading = -self._heading
            self.reporters[0].report(Point(self._heading, 0.0))
            before = self.rq.state
            self.epochs(1)
            changes += self.rq.state is not before
        return changes


class TestOneDiffPerStateChange:
    def test_32_sessions_share_each_diff(self):
        world = World()
        assert len(world.server.sessions) == N_SESSIONS
        assert world.metrics.diffs_computed == 0  # snapshots diff nothing
        changes = world.changing_epochs(10)
        assert changes >= 8
        assert world.metrics.diffs_computed == changes
        assert world.metrics.to_dict()["diffs_computed"] == changes
        # ... and every client followed: same display, same cursor.
        shown = {frozenset(c.display) for c in world.clients}
        assert len(shown) == 1 and shown.pop() == world.rq.state.keys
        assert len({c.last_seq for c in world.clients}) == 1

    def test_a_session_resuming_from_an_older_state_adds_exactly_one(self):
        world = World()
        laggard = world.clients[N_SESSIONS // 2]  # mid-order on purpose
        start = world.clock.now
        world.network.set_disconnections(laggard.client_id, [(start + 1, start + 8)])
        changes = world.changing_epochs(8)
        session = world.server.sessions[(laggard.client_id, world.rq.query_id)]
        assert not session.connected
        assert world.metrics.diffs_computed == changes
        changes += world.changing_epochs(4)  # back on the air at the 1st
        assert session.connected
        assert world.metrics.diffs_computed == changes + 1
        assert set(laggard.display) == set(world.clients[0].display)

    def test_refreshes_that_change_little_carry_the_rest(self):
        world = World()
        sent_before = world.metrics.tuples_sent
        changes = world.changing_epochs(10)
        live = len(world.rq.state.tuples)
        assert live >= 4
        # Every rebuilt state kept the begin of (nearly) every live tuple
        # instead of retracting and re-adding it to every subscriber.
        assert world.metrics.tuples_carried >= changes * (live - 2)
        assert world.metrics.to_dict()["tuples_carried"] == world.metrics.tuples_carried
        resent = world.metrics.tuples_sent - sent_before
        assert resent <= 2 * changes * N_SESSIONS


class _Poison:
    """Stands in for ``tuples`` / ``keys``: any walk over it fails."""

    def __iter__(self):
        raise AssertionError("a session in sync walked the whole answer")

    __len__ = __contains__ = __sub__ = __rsub__ = __iter__


def _state(rows, computed_at, metrics):
    return AnswerState(
        computed_at=computed_at,
        tuples=tuple(
            WireTuple(values=(v,), begin=b, end=e, support=(v, "beacon"))
            for v, b, e in rows
        ),
        metrics=metrics,
    )


class TestNoPerTupleWorkInSync:
    def _sessions(self, metrics, sent):
        return [
            ClientSession(
                SubscriberRecord(f"c{i}", "q0", "immediate", 1, None, None),
                send=lambda dst, kind, payload, size: sent.append((dst, payload)) or True,
                metrics=metrics,
                incarnation=1,
                now=0,
            )
            for i in range(N_SESSIONS)
        ]

    def test_sessions_in_sync_read_only_the_memoised_delta(self):
        metrics, sent = ServerMetrics(), []
        sessions = self._sessions(metrics, sent)
        rows = [(f"v{i}", 0.0, 50.0) for i in range(20)]
        first = _state(rows, 0, metrics)
        for s in sessions:
            s.step(0, first)
            s.on_ack(DeltaAck(s.client_id, "q0", 1, 1), now=0)
        second = _state(rows[1:] + [("new", 1.0, 50.0)], 1, metrics)
        sessions[0].step(1, second)  # computes and memoises the diff
        assert metrics.diffs_computed == 1
        second.tuples = second.keys = _Poison()
        del sent[:]
        for s in sessions[1:]:
            s.step(1, second)
        assert metrics.diffs_computed == 1
        assert len(sent) == N_SESSIONS - 1
        for _, msg in sent:
            assert [t.values for t in msg.adds] == [("new",)]
            assert [t.values for t in msg.retracts] == [("v0",)]
        # An epoch with nothing new: nobody touches the state at all.
        del sent[:]
        second.by_key = _Poison()
        for s in sessions:
            s.on_ack(DeltaAck(s.client_id, "q0", 1, 2), now=1)
            s.step(2, second)
        assert sent == [] and metrics.diffs_computed == 1


class TestMemoNeverChains:
    def test_dead_answer_states_are_collected(self):
        world = World(n_clients=3, n_trackers=3)
        # One subscriber goes silent for good: its paused session pins
        # the state it last folded, and nothing older or newer.
        world.network.set_disconnections(
            world.clients[2].client_id, [(world.clock.now + 1, 10_000)]
        )
        seen = []
        for _ in range(200):
            world.changing_epochs(1)
            if not seen or seen[-1]() is not world.rq.state:
                seen.append(weakref.ref(world.rq.state))
        assert len(seen) >= 150
        gc.collect()
        alive = [ref for ref in seen if ref() is not None]
        # The current state and the silent session's base.
        assert len(alive) <= 2
        assert alive[-1]() is world.rq.state
