"""Unit tests for the message-passing simulation and mobile nodes."""

import pytest

from repro.distributed import (
    FaultPlan,
    LinkFaults,
    MobileClient,
    MobileNode,
    SimNetwork,
)
from repro.errors import DistributedError
from repro.ftl.relations import AnswerTuple
from repro.geometry import Point
from repro.motion import linear_moving_point


class TestNetwork:
    def test_register_and_send(self):
        net = SimNetwork()
        seen = []
        net.register("a", seen.append)
        net.register("b", lambda m: None)
        assert net.send("b", "a", "ping", {"x": 1}, size=3)
        assert len(seen) == 1
        assert seen[0].payload == {"x": 1}
        assert net.stats.delivered == 1
        assert net.stats.bytes_sent == 3

    def test_duplicate_register(self):
        net = SimNetwork()
        net.register("a", lambda m: None)
        with pytest.raises(DistributedError):
            net.register("a", lambda m: None)

    def test_unknown_destination(self):
        net = SimNetwork()
        net.register("a", lambda m: None)
        with pytest.raises(DistributedError):
            net.send("a", "ghost", "ping", None)

    def test_disconnection_drops(self):
        net = SimNetwork()
        net.register("a", lambda m: None)
        net.register("b", lambda m: None)
        net.set_disconnections("b", [(2, 4)])
        assert net.send("a", "b", "ping", None)
        net.clock.tick(3)  # now = 3, inside the window
        assert not net.send("a", "b", "ping", None)
        assert not net.send("b", "a", "ping", None)  # offline source too
        net.clock.tick(2)  # now = 5
        assert net.send("a", "b", "ping", None)
        assert net.stats.dropped == 2

    def test_disconnection_unknown_node(self):
        net = SimNetwork()
        with pytest.raises(DistributedError):
            net.set_disconnections("ghost", [(0, 1)])

    def test_broadcast(self):
        net = SimNetwork()
        for n in ("a", "b", "c"):
            net.register(n, lambda m: None)
        net.set_disconnections("c", [(0, 10)])
        assert net.broadcast("a", "q", None) == 1  # only b reachable

    def test_log(self):
        # The network keeps no message log of its own (it grew without
        # bound under an always-on server): a delivery is observed
        # through the destination's handler and the aggregate stats.
        net = SimNetwork()
        seen = []
        net.register("a", lambda m: None)
        net.register("b", seen.append)
        net.send("a", "b", "x", 1, size=3)
        assert [(m.src, m.dst, m.kind, m.payload) for m in seen] == [
            ("a", "b", "x", 1)
        ]
        assert (net.stats.delivered, net.stats.bytes_sent) == (1, 3)
        assert not hasattr(net, "log")


class TestDisconnectionBoundaries:
    """Pinned semantics: windows are closed ``[start, end]`` — offline at
    both endpoints, reachable again from ``end + 1``."""

    def make(self, windows):
        net = SimNetwork()
        net.register("a", lambda m: None)
        net.register("b", lambda m: None)
        net.set_disconnections("b", windows)
        return net

    def test_offline_exactly_at_window_start(self):
        net = self.make([(2, 4)])
        net.clock.tick(2)  # now == start
        assert not net.is_connected("b")
        assert not net.send("a", "b", "ping", None)

    def test_offline_exactly_at_window_end(self):
        net = self.make([(2, 4)])
        net.clock.tick(4)  # now == end
        assert not net.is_connected("b")
        assert not net.send("a", "b", "ping", None)

    def test_online_first_tick_after_window(self):
        net = self.make([(2, 4)])
        net.clock.tick(5)  # now == end + 1
        assert net.is_connected("b")
        assert net.send("a", "b", "ping", None)

    def test_online_last_tick_before_window(self):
        net = self.make([(2, 4)])
        net.clock.tick(1)  # now == start - 1
        assert net.is_connected("b")
        assert net.send("a", "b", "ping", None)

    def test_adjacent_windows_merge_at_shared_endpoint(self):
        # [2,4] and [4,6] share the endpoint 4: there is no momentary
        # reconnection — the node behaves as offline over all of [2,6].
        net = self.make([(2, 4), (4, 6)])
        for t in range(2, 7):
            assert not net.is_connected("b", at=t)
        assert net.is_connected("b", at=7)

    def test_explicit_probe_times(self):
        net = self.make([(3, 3)])  # single-tick outage
        assert net.is_connected("b", at=2)
        assert not net.is_connected("b", at=3)
        assert net.is_connected("b", at=4)


class TestFaultPlan:
    def pair(self, faults):
        net = SimNetwork(faults=faults)
        got = []
        net.register("a", lambda m: None)
        net.register("b", got.append)
        return net, got

    def test_clean_plan_delivers_next_tick(self):
        net, got = self.pair(FaultPlan(seed=1))
        assert net.send("a", "b", "ping", 1)
        assert got == []  # queued, not synchronous
        assert net.in_flight == 1
        net.clock.tick()
        assert [m.payload for m in got] == [1]
        assert net.stats.delivered == 1

    def test_pump_delivers_without_tick(self):
        net, got = self.pair(FaultPlan(seed=1))
        net.send("a", "b", "ping", 1)
        assert net.pump() == 1
        assert [m.payload for m in got] == [1]

    def test_drop_everything(self):
        net, got = self.pair(FaultPlan(seed=1, default=LinkFaults(drop=1.0)))
        assert not net.send("a", "b", "ping", 1)
        net.clock.tick(5)
        assert got == []
        assert net.stats.dropped == 1

    def test_duplicate_everything(self):
        net, got = self.pair(
            FaultPlan(seed=1, default=LinkFaults(duplicate=1.0))
        )
        net.send("a", "b", "ping", 1)
        net.clock.tick()
        assert [m.payload for m in got] == [1, 1]
        assert net.stats.duplicated == 1
        assert net.stats.delivered == 2

    def test_fixed_delay(self):
        net, got = self.pair(
            FaultPlan(seed=1, default=LinkFaults(delay=(3, 3)))
        )
        net.send("a", "b", "ping", 1)
        net.clock.tick(2)
        assert got == []
        net.clock.tick()
        assert [m.payload for m in got] == [1]
        assert got[0].time == 3
        assert got[0].sent_at == 0

    def test_delay_can_reorder_across_sends(self):
        net, got = self.pair(
            FaultPlan(
                seed=1,
                links={("a", "b"): LinkFaults(delay=(4, 4))},
            )
        )
        net.send("a", "b", "slow", "first")
        net.clock.tick()
        # Second message sent later on a faster (default clean) link...
        # use a different src so the per-link override doesn't apply.
        net.register("c", lambda m: None)
        net.send("c", "b", "fast", "second")
        net.clock.tick(5)
        assert [m.payload for m in got] == ["second", "first"]
        assert net.stats.reordered == 1

    def test_crash_window_drops_at_delivery_time(self):
        net, got = self.pair(
            FaultPlan(
                seed=1,
                default=LinkFaults(delay=(2, 2)),
                crashes={"b": [(2, 5)]},
            )
        )
        net.send("a", "b", "ping", 1)  # due at t=2, b crashed [2,5]
        net.clock.tick(6)
        assert got == []
        assert net.stats.dropped == 1
        # After restart the node is reachable again.
        assert net.send("a", "b", "ping", 2)
        net.clock.tick(3)
        assert [m.payload for m in got] == [2]

    def test_crashed_source_cannot_send(self):
        net, got = self.pair(FaultPlan(seed=1, crashes={"a": [(0, 3)]}))
        assert not net.send("a", "b", "ping", 1)
        assert net.stats.dropped == 1

    def test_determinism_same_seed_same_trace(self):
        def trace(seed):
            net, got = self.pair(
                FaultPlan(
                    seed=seed,
                    default=LinkFaults(
                        drop=0.3, duplicate=0.3, delay=(0, 4), reorder=0.5
                    ),
                )
            )
            for i in range(30):
                net.send("a", "b", "m", i)
                net.clock.tick()
            net.clock.tick(6)
            return [(m.payload, m.time) for m in got]

        assert trace(7) == trace(7)
        assert trace(7) != trace(8)  # and the seed actually matters

    def test_heal_at_stops_faults(self):
        net, got = self.pair(
            FaultPlan(seed=1, default=LinkFaults(drop=1.0), heal_at=10)
        )
        assert not net.send("a", "b", "ping", "lost")
        net.clock.tick(10)
        assert net.send("a", "b", "ping", "healed")
        net.clock.tick()
        assert [m.payload for m in got] == ["healed"]

    def test_link_fault_validation(self):
        with pytest.raises(DistributedError):
            LinkFaults(drop=1.5)
        with pytest.raises(DistributedError):
            LinkFaults(delay=(3, 1))


class TestMobileNode:
    def test_snapshot_and_position(self):
        net = SimNetwork()
        node = MobileNode(
            "car1", net, linear_moving_point(Point(0, 0), Point(2, 0)),
            attributes={"price": 10},
        )
        net.clock.tick(3)
        assert node.position_now() == Point(6, 0)
        snap = node.snapshot()
        assert snap["id"] == "car1"
        assert snap["attributes"] == {"price": 10}

    def test_inbox_and_kind_handler(self):
        net = SimNetwork()
        a = MobileNode("a", net, linear_moving_point(Point(0, 0), Point(0, 0)))
        MobileNode("b", net, linear_moving_point(Point(0, 0), Point(0, 0)))
        hits = []
        a.on_kind("probe", hits.append)
        net.send("b", "a", "probe", 42)
        net.send("b", "a", "other", 43)
        # Handled messages are consumed, not retained; only the
        # unhandled one stays unread.
        assert len(a.inbox) == 1
        assert a.inbox[0].kind == "other"
        assert a.handled == 1
        assert len(hits) == 1

    def test_inbox_cap_and_overflow_counter(self):
        net = SimNetwork()
        a = MobileNode(
            "a",
            net,
            linear_moving_point(Point(0, 0), Point(0, 0)),
            inbox_limit=3,
        )
        MobileNode("b", net, linear_moving_point(Point(0, 0), Point(0, 0)))
        for i in range(5):
            net.send("b", "a", "junk", i)
        assert len(a.inbox) == 3
        assert a.inbox_overflow == 2
        # Handled kinds never consume inbox capacity, even when full.
        hits = []
        a.on_kind("probe", hits.append)
        net.send("b", "a", "probe", 99)
        assert len(hits) == 1
        assert a.inbox_overflow == 2

    def test_drain_inbox(self):
        net = SimNetwork()
        a = MobileNode("a", net, linear_moving_point(Point(0, 0), Point(0, 0)))
        MobileNode("b", net, linear_moving_point(Point(0, 0), Point(0, 0)))
        net.send("b", "a", "x", 1)
        net.send("b", "a", "y", 2)
        net.send("b", "a", "x", 3)
        xs = a.drain_inbox("x")
        assert [m.payload for m in xs] == [1, 3]
        assert [m.kind for m in a.inbox] == ["y"]
        rest = a.drain_inbox()
        assert [m.payload for m in rest] == [2]
        assert a.inbox == []

    def test_inbox_limit_validation(self):
        net = SimNetwork()
        with pytest.raises(DistributedError):
            MobileNode(
                "a",
                net,
                linear_moving_point(Point(0, 0), Point(0, 0)),
                inbox_limit=0,
            )

    def test_update_motion_local_only(self):
        net = SimNetwork()
        node = MobileNode("a", net, linear_moving_point(Point(0, 0), Point(1, 0)))
        node.update_motion(linear_moving_point(Point(0, 0), Point(0, 5)))
        net.clock.tick(2)
        assert node.position_now() == Point(0, 10)
        assert net.stats.attempted == 0  # nothing transmitted


class TestMobileClient:
    def tup(self, value, begin, end):
        return AnswerTuple((value,), begin, end)

    def test_memory_validation(self):
        with pytest.raises(DistributedError):
            MobileClient(memory=0)

    def test_receive_and_display(self):
        client = MobileClient()
        client.receive([self.tup("a", 0, 5), self.tup("b", 3, 9)], now=0)
        assert client.display_at(1) == {("a",)}
        assert client.display_at(4) == {("a",), ("b",)}
        assert client.display_at(7) == {("b",)}

    def test_memory_limit_rejects(self):
        client = MobileClient(memory=1)
        accepted = client.receive([self.tup("a", 0, 5), self.tup("b", 0, 5)], now=0)
        assert accepted == 1
        assert client.rejected == 1
        assert client.free_slots == 0

    def test_eviction_frees_memory(self):
        client = MobileClient(memory=1)
        client.receive([self.tup("a", 0, 2)], now=0)
        assert client.receive([self.tup("b", 3, 5)], now=3) == 1
        assert client.display_at(4) == {("b",)}

    def test_duplicate_receive_ignored(self):
        client = MobileClient()
        t = self.tup("a", 0, 5)
        client.receive([t], now=0)
        client.receive([t], now=1)
        assert len(client) == 1

    def test_retract(self):
        client = MobileClient()
        t = self.tup("a", 0, 5)
        client.receive([t], now=0)
        client.retract([t])
        assert client.display_at(1) == set()

    def test_unbounded_free_slots(self):
        assert MobileClient().free_slots is None
