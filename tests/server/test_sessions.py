"""ClientSession unit tests: reliable delivery, replay, policy pacing."""

import pytest

from repro.distributed.backoff import RetrySchedule
from repro.errors import DistributedError
from repro.server.metrics import ServerMetrics
from repro.server.protocol import (
    POLICIES,
    DeltaAck,
    HeartbeatMsg,
    ResumeMsg,
    WireTuple,
)
from repro.server.registry import AnswerState, SubscriberRecord
from repro.server.session import ClientSession, make_policy


def record(policy="immediate", period=1, window=None, bound=None):
    return SubscriberRecord(
        client_id="c1",
        query_id="q0",
        policy=policy,
        period=period,
        window=window,
        staleness_bound=bound,
    )


def state(tuples, computed_at=0):
    wire = tuple(
        WireTuple(values=(v,), begin=b, end=e, support=(v, "beacon"))
        for v, b, e in tuples
    )
    return AnswerState(
        computed_at=computed_at,
        tuples=wire,
        keys=frozenset(t.key() for t in wire),
    )


class Collector:
    def __init__(self):
        self.sent = []

    def __call__(self, dst, kind, payload, size):
        self.sent.append((dst, kind, payload))
        return True

    def deltas(self):
        return [p for _, k, p in self.sent if k == "cq-delta"]


def build(policy="immediate", window=None, schedule=None, max_log=256):
    out = Collector()
    session = ClientSession(
        record(policy=policy, window=window),
        send=out,
        metrics=ServerMetrics(),
        incarnation=1,
        now=0,
        schedule=schedule or RetrySchedule(base=2, factor=2, cap=8, jitter=0.0),
        max_log=max_log,
    )
    return session, out


class TestDelivery:
    def test_first_step_is_a_snapshot(self):
        session, out = build()
        session.step(0, state([("a", 0.0, 10.0)]))
        (msg,) = out.deltas()
        assert msg.snapshot and msg.seq == 1
        assert [t.values for t in msg.adds] == [("a",)]

    def test_seqs_are_monotonic_and_acks_prune_the_log(self):
        session, out = build()
        session.step(0, state([("a", 0.0, 10.0)]))
        session.step(1, state([("a", 0.0, 10.0), ("b", 1.0, 9.0)]))
        seqs = [m.seq for m in out.deltas()]
        assert seqs == [1, 2]
        assert session.unacked == 2
        session.on_ack(DeltaAck("c1", "q0", 1, 2), now=2)
        assert session.unacked == 0 and session.acked_through == 2

    def test_answer_shrink_sends_retract(self):
        session, out = build()
        session.step(0, state([("a", 0.0, 10.0), ("b", 0.0, 10.0)]))
        session.on_ack(DeltaAck("c1", "q0", 1, 1), now=1)
        session.step(1, state([("a", 0.0, 10.0)]))
        msg = out.deltas()[-1]
        assert [t.values for t in msg.retracts] == [("b",)]
        assert msg.adds == ()

    def test_expired_tuples_drop_silently(self):
        session, out = build()
        session.step(0, state([("a", 0.0, 3.0)]))
        session.on_ack(DeltaAck("c1", "q0", 1, 1), now=1)
        session.step(5, state([]))  # end 3 < now 5: the client evicted it
        assert len(out.deltas()) == 1  # no retract message needed
        assert session.drained()

    def test_unacked_deltas_retransmit_with_backoff(self):
        session, out = build()
        session.step(0, state([("a", 0.0, 10.0)]))
        assert len(out.deltas()) == 1
        session.step(1, state([("a", 0.0, 10.0)]))  # not due yet (base 2)
        assert len(out.deltas()) == 1
        session.step(2, state([("a", 0.0, 10.0)]))  # due: retransmit
        assert len(out.deltas()) == 2
        assert session.metrics.delta_retransmissions == 1
        # Second retry backs off multiplicatively (2 * 2 = 4 ticks).
        session.step(5, state([("a", 0.0, 10.0)]))
        assert len(out.deltas()) == 2
        session.step(6, state([("a", 0.0, 10.0)]))
        assert len(out.deltas()) == 3

    def test_stale_incarnation_ack_ignored(self):
        session, out = build()
        session.step(0, state([("a", 0.0, 10.0)]))
        session.on_ack(DeltaAck("c1", "q0", incarnation=0, seq=1), now=1)
        assert session.unacked == 1


class TestResume:
    def test_resume_replays_logged_deltas(self):
        session, out = build()
        session.step(0, state([("a", 0.0, 10.0)]))
        session.step(1, state([("a", 0.0, 10.0), ("b", 1.0, 9.0)]))
        n = len(out.deltas())
        session.on_resume(ResumeMsg("c1", "q0", 1, have_seq=1), now=2)
        session.step(2, state([("a", 0.0, 10.0), ("b", 1.0, 9.0)]))
        replayed = out.deltas()[n:]
        assert [m.seq for m in replayed] == [2]

    def test_resume_behind_pruned_log_forces_snapshot(self):
        session, out = build()
        session.step(0, state([("a", 0.0, 10.0)]))
        session.on_ack(DeltaAck("c1", "q0", 1, 1), now=1)  # seq 1 pruned
        session.step(1, state([("a", 0.0, 10.0), ("b", 1.0, 9.0)]))  # seq 2
        session.on_ack(DeltaAck("c1", "q0", 1, 2), now=2)
        session.step(2, state([("a", 0.0, 10.0), ("b", 1.0, 9.0), ("c", 2.0, 8.0)]))
        # Client claims it only has seq 1; 2 is gone from the log.
        session.on_resume(ResumeMsg("c1", "q0", 1, have_seq=1), now=3)
        assert session.needs_snapshot
        session.step(3, state([("c", 2.0, 8.0)]))
        assert out.deltas()[-1].snapshot

    def test_log_overflow_degrades_to_snapshot(self):
        session, out = build(max_log=2)
        for i in range(4):
            session.step(
                i, state([(f"v{j}", float(j), 50.0) for j in range(i + 1)])
            )
        assert session.needs_snapshot or any(
            m.snapshot for m in out.deltas()[1:]
        )

    def test_wrong_incarnation_resume_forces_snapshot(self):
        session, out = build()
        session.step(0, state([("a", 0.0, 10.0)]))
        session.on_resume(ResumeMsg("c1", "q0", incarnation=0, have_seq=0), now=1)
        assert session.needs_snapshot


class TestLiveness:
    def test_heartbeat_timeout_disconnects_and_touch_reconnects(self):
        session, out = build()
        session.step(0, state([("a", 0.0, 10.0)]))
        session.check_liveness(9)  # default timeout 8, last_heard 0
        assert not session.connected
        n = len(out.deltas())
        session.step(10, state([("a", 0.0, 10.0), ("b", 0.0, 9.0)]))
        assert len(out.deltas()) == n  # no sends while disconnected
        session.on_heartbeat(HeartbeatMsg("c1", 11), now=11)
        assert session.connected
        assert session.metrics.disconnects == 1
        assert session.metrics.reconnects == 1


class TestPolicyPacing:
    def test_delayed_policy_holds_future_tuples(self):
        session, out = build(policy="delayed")
        session.step(0, state([("now", 0.0, 10.0), ("later", 6.0, 12.0)]))
        snap = out.deltas()[0]
        assert snap.snapshot
        assert [t.values for t in snap.adds] == [("now",)]
        session.on_ack(DeltaAck("c1", "q0", 1, 1), now=1)
        session.step(3, state([("now", 0.0, 10.0), ("later", 6.0, 12.0)]))
        assert len(out.deltas()) == 1  # begin 6 still in the future
        session.step(6, state([("now", 0.0, 10.0), ("later", 6.0, 12.0)]))
        assert [t.values for t in out.deltas()[-1].adds] == [("later",)]

    def test_window_limits_tuples_per_delta(self):
        session, out = build(window=2)
        session.step(
            0, state([(f"v{i}", 0.0, 10.0) for i in range(5)])
        )
        first = out.deltas()[0]
        assert len(first.adds) == 2  # the advertised window caps each send
        session.on_ack(DeltaAck("c1", "q0", 1, 1, free_slots=2), now=1)
        session.step(1, state([(f"v{i}", 0.0, 10.0) for i in range(5)]))
        assert len(out.deltas()[-1].adds) == 2

    def test_zero_free_slots_sends_nothing(self):
        session, out = build(window=4)
        session.step(0, state([("a", 0.0, 10.0)]))
        session.on_ack(DeltaAck("c1", "q0", 1, 1, free_slots=0), now=1)
        session.step(1, state([("a", 0.0, 10.0), ("b", 0.0, 10.0)]))
        assert len(out.deltas()) == 1  # window exhausted: hold the delta


class TestMakePolicy:
    def test_known_policies(self):
        assert make_policy("immediate").__class__.__name__ == "ImmediatePolicy"
        assert make_policy("delayed").__class__.__name__ == "DelayedPolicy"
        assert make_policy("periodic", 3).period == 3
        # What SUBSCRIBE validation lets through is what sessions can pace.
        assert {type(make_policy(name)).__name__ for name in POLICIES} == {
            "ImmediatePolicy", "DelayedPolicy", "PeriodicPolicy",
        }

    def test_unknown_policy_raises(self):
        with pytest.raises(DistributedError):
            make_policy("sometimes")
