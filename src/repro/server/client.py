"""Client-side endpoints of the continuous-query server.

:class:`SubscriberClient` maintains a continuous query's answer as a
local *display* (the paper's "display the result of Q continuously"):
it subscribes (with retry), applies sequence-numbered deltas in order,
detects gaps and asks for replay, survives disconnections with a
resumable cursor, and adopts snapshot resyncs after a server
crash-restart.  Staleness is aged **conservatively** on the client:
``max_age + (now - aged_from)`` can only over-estimate the true age
(later server updates only make objects fresher), so a tuple the client
shows *unflagged* is guaranteed within its ``staleness_bound`` no matter
how long the delta sat in flight.

:class:`BatchingReporter` is the one way a mobile computer's explicit
updates (section 2.3) reach the server: motion changes accumulate
locally and travel as one :class:`IngestBatch` per flush, gated by the
server-granted credit allowance, retried with jittered backoff, and
held back when the server says busy.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import replace
from typing import Any

from repro.distributed.backoff import RetrySchedule
from repro.distributed.network import Message, SimNetwork
from repro.distributed.node import MobileNode
from repro.distributed.updates import MotionUpdate
from repro.geometry import Point
from repro.motion.moving import linear_moving_point
from repro.server.protocol import (
    CONTROL_SIZE,
    DELTA,
    DELTA_ACK,
    HEARTBEAT,
    INGEST_ACK,
    INGEST_BATCH,
    INGEST_BUSY,
    RESUME,
    SERVER_ID,
    SUBSCRIBE,
    SUBSCRIBED,
    UPDATE_SIZE,
    DeltaAck,
    DeltaMsg,
    HeartbeatMsg,
    IngestAck,
    IngestBatch,
    IngestBusy,
    ResumeMsg,
    SubscribeMsg,
    SubscribedMsg,
    WireTuple,
)
from repro.server.transport import ProtocolNode

#: Ticks between a subscriber's liveness heartbeats.
HEARTBEAT_EVERY = 2
#: Ticks a subscriber waits for ``SUBSCRIBED`` before asking again.
RESUBSCRIBE_AFTER = 4


class SubscriberClient:
    """One display client of the continuous-query server."""

    def __init__(
        self,
        network: SimNetwork,
        client_id: str,
        text: str,
        horizon: int,
        server_id: str = SERVER_ID,
        policy: str = "immediate",
        period: int = 1,
        window: int | None = None,
        staleness_bound: float | None = None,
    ) -> None:
        self.node = ProtocolNode(client_id, network)
        self.network = network
        self.clock = network.clock
        self.client_id = client_id
        self.server_id = server_id
        self.text = text
        self.horizon = horizon
        self.policy = policy
        self.period = period
        self.window = window
        self.staleness_bound = staleness_bound
        # Built here so a value the server would refuse fails at the
        # caller; each (re)subscribe sends it with the current cursor.
        self._subscribe = SubscribeMsg(
            client_id=client_id,
            text=text,
            horizon=horizon,
            policy=policy,
            period=period,
            window=window,
            staleness_bound=staleness_bound,
        )
        self.query_id: str | None = None
        self.incarnation = 0
        #: Highest contiguous delta seq applied (the resumable cursor).
        self.last_seq = 0
        #: key -> (WireTuple, aged_from): what the display holds.
        self.display: dict[tuple[Any, ...], tuple[WireTuple, int]] = {}
        self.subscribed = False
        #: Refusal diagnostic from the server (subscription given up).
        self.error: str | None = None
        self.deltas_received = 0
        self.snapshots_received = 0
        self.duplicates = 0
        self.gaps = 0
        self.resumes_sent = 0
        self._next_subscribe = self.clock.now
        self._was_connected = network.is_connected(client_id)
        self.node.on_kind(SUBSCRIBED, self._on_subscribed)
        self.node.on_kind(DELTA, self._on_delta)
        self.clock.on_tick(self._on_tick)

    # ------------------------------------------------------------------
    def free_slots(self) -> int | None:
        """Open display slots (``None`` = unwindowed client)."""
        if self.window is None:
            return None
        return max(0, self.window - len(self.display))

    def _send(self, kind: str, payload: object, size: int = CONTROL_SIZE) -> bool:
        return self.node.send(self.server_id, kind, payload, size=size)

    def _send_resume(self) -> None:
        if self.query_id is None:
            return
        self.resumes_sent += 1
        self._send(
            RESUME,
            ResumeMsg(
                client_id=self.client_id,
                query_id=self.query_id,
                incarnation=self.incarnation,
                have_seq=self.last_seq,
            ),
        )

    def _ack(self) -> None:
        if self.query_id is None:
            return
        self._send(
            DELTA_ACK,
            DeltaAck(
                client_id=self.client_id,
                query_id=self.query_id,
                incarnation=self.incarnation,
                seq=self.last_seq,
                free_slots=self.free_slots(),
            ),
        )

    # ------------------------------------------------------------------
    def _on_subscribed(self, message: Message) -> None:
        msg = message.payload
        assert isinstance(msg, SubscribedMsg)
        if msg.error is not None:
            # Fail-fast refusal (e.g. SchemaError for an unknown class):
            # record the diagnostic and stop retrying a hopeless query.
            self.error = msg.error
            self.subscribed = False
            return
        self.query_id = msg.query_id
        if msg.incarnation > self.incarnation:
            # A restarted server numbers its stream from 1 again; under
            # the old cursor its resync snapshot would read as a
            # duplicate and the display would keep pre-crash tuples.
            self.incarnation = msg.incarnation
            self.last_seq = 0
        self.subscribed = True

    def _on_delta(self, message: Message) -> None:
        msg = message.payload
        assert isinstance(msg, DeltaMsg)
        if self.query_id is not None and msg.query_id != self.query_id:
            return
        if msg.incarnation < self.incarnation:
            return  # pre-restart straggler
        if msg.snapshot:
            if msg.incarnation == self.incarnation and msg.seq <= self.last_seq:
                # A duplicated/delayed snapshot copy must not rewind the
                # display to stale contents — same seq gate as deltas.
                self.duplicates += 1
                self._ack()
                return
            # Full resync: replace the display, jump the cursor, adopt
            # the (possibly bumped) incarnation.
            self.display = {t.key(): (t, msg.aged_from) for t in msg.adds}
            self.incarnation = msg.incarnation
            self.last_seq = msg.seq
            self.query_id = msg.query_id
            self.snapshots_received += 1
            self.deltas_received += 1
            self._ack()
            return
        if msg.incarnation > self.incarnation:
            # A post-restart delta overtook its snapshot: ask the new
            # incarnation's session to resync us.
            self.gaps += 1
            self._send_resume()
            return
        if msg.seq <= self.last_seq:
            self.duplicates += 1
            self._ack()  # the previous ack was evidently lost
            return
        if msg.seq > self.last_seq + 1:
            self.gaps += 1
            self._send_resume()
            return
        for t in msg.retracts:
            self.display.pop(t.key(), None)
        for t in msg.adds:
            self.display[t.key()] = (t, msg.aged_from)
        self.last_seq = msg.seq
        self.deltas_received += 1
        self._ack()

    # ------------------------------------------------------------------
    def _on_tick(self, now: int) -> None:
        connected = self.network.is_connected(self.client_id)
        if not connected:
            self._was_connected = False
            return
        reconnected = not self._was_connected
        self._was_connected = True
        # Evict expired tuples locally — the server's diff assumes the
        # display drops a tuple the moment its interval ends.
        for key in [k for k in self.display if k[2] < now]:
            del self.display[key]
        if self.error is not None:
            return
        if not self.subscribed:
            if now >= self._next_subscribe:
                self._send(
                    SUBSCRIBE,
                    replace(
                        self._subscribe,
                        have_seq=self.last_seq if self.query_id else -1,
                        incarnation=self.incarnation,
                    ),
                )
                self._next_subscribe = now + RESUBSCRIBE_AFTER
            return
        if reconnected:
            # Back online with a live subscription: resume from the
            # cursor instead of resubscribing from scratch.
            self._send_resume()
        if now % HEARTBEAT_EVERY == 0:
            self._send(
                HEARTBEAT,
                HeartbeatMsg(
                    client_id=self.client_id,
                    sent_at=now,
                    free_slots=self.free_slots(),
                ),
            )

    # ------------------------------------------------------------------
    def flagged(self, key: tuple[Any, ...], now: int | None = None) -> bool:
        """Whether a held tuple is displayed with the *degraded* flag."""
        if self.staleness_bound is None:
            return False
        t = self.clock.now if now is None else now
        tup, aged_from = self.display[key]
        return tup.max_age + (t - aged_from) > self.staleness_bound

    def display_at(self, now: int | None = None) -> set[tuple[Any, ...]]:
        """Values displayed unflagged at ``now`` (default: current tick)."""
        t = self.clock.now if now is None else now
        return {
            tup.values
            for key, (tup, _) in self.display.items()
            if tup.active_at(t) and not self.flagged(key, t)
        }

    def displayable(self, now: int | None = None) -> set[tuple[Any, ...]]:
        """Every held ``(values, begin, end)`` still meaningful at ``now``
        (convergence comparisons ignore the flag and pending expiry)."""
        t = self.clock.now if now is None else now
        return {
            (tup.values, tup.begin, tup.end)
            for tup, _ in self.display.values()
            if tup.end >= t
        }


class BatchingReporter:
    """Batched, credit-gated motion reporting from one mobile node.

    Motion changes are recorded locally first (section 5.3) and queued;
    each flush sends the oldest unacked updates as one
    :class:`IngestBatch`, capped by the credit allowance the server's
    last ack granted.  An unacked batch is retransmitted with jittered
    backoff (duplicates are harmless: ingest is idempotent); a busy
    signal holds the batch without dropping anything.  After an outage
    the reporter re-announces its current motion, because it cannot know
    which pre-outage updates survived.
    """

    def __init__(
        self,
        node: MobileNode,
        server_id: str = SERVER_ID,
        object_id: object | None = None,
        schedule: RetrySchedule | None = None,
        seed: int | None = None,
    ) -> None:
        self.node = node
        self.network = node.network
        self.server_id = server_id
        self.object_id = object_id if object_id is not None else node.node_id
        # An ingest ack cannot be back before two epochs (the batch
        # lands on the next pump, its ack on the one after): base 3
        # jittered by 0.3 waits 2 or 3, never retrying a batch whose ack
        # is merely still in flight.
        self.schedule = schedule if schedule is not None else RetrySchedule(
            base=3.0, factor=2.0, cap=8.0, jitter=0.3
        )
        if seed is None:
            seed = zlib.crc32(repr(self.object_id).encode())
        self._rng = random.Random(seed)
        self.sent = 0
        self.batches_sent = 0
        self.retransmissions = 0
        self.busy_signals = 0
        self.acked_through = -1
        #: Server-granted allowance; ``None`` until the first ack.
        self.credits: int | None = None
        self._next_seq = 0
        self._next_batch_seq = 0
        self._last_velocity: Point | None = None
        # seq -> MotionUpdate, insertion-ordered (dict preserves it).
        self._unacked: dict[int, MotionUpdate] = {}
        # [batch_seq, updates, next retry tick, attempts] or None.
        self._outstanding: list[Any] | None = None
        self._was_connected = self.network.is_connected(node.node_id)
        node.on_kind(INGEST_ACK, self._on_ack)
        node.on_kind(INGEST_BUSY, self._on_busy)
        self.network.clock.on_tick(self._on_tick)

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Updates recorded but not yet acked."""
        return len(self._unacked)

    def drained(self) -> bool:
        """Everything recorded has been acked."""
        return not self._unacked

    def report(
        self, velocity: Point, position: Point | None = None
    ) -> MotionUpdate:
        """Record a motion change locally; it travels with the next flush."""
        now = self.network.clock.now
        fix = position if position is not None else self.node.position_now()
        self.node.update_motion(
            linear_moving_point(fix, velocity, anchor_time=now)
        )
        self._last_velocity = velocity
        update = MotionUpdate(
            object_id=self.object_id,
            seq=self._next_seq,
            measured_at=now,
            position=fix,
            velocity=velocity,
        )
        self._next_seq += 1
        self._unacked[update.seq] = update
        self.sent += 1
        return update

    # ------------------------------------------------------------------
    def _flush(self, now: int) -> None:
        cap = len(self._unacked) if self.credits is None else self.credits
        if cap <= 0:
            return
        updates = tuple(
            self._unacked[seq] for seq in sorted(self._unacked)[:cap]
        )
        if not updates:
            return
        batch = IngestBatch(
            reporter_id=str(self.node.node_id),
            batch_seq=self._next_batch_seq,
            updates=updates,
        )
        self._next_batch_seq += 1
        self._outstanding = [
            batch,
            now + self.schedule.interval(0, self._rng),
            0,
        ]
        self._transmit(batch)
        self.batches_sent += 1

    def _transmit(self, batch: IngestBatch) -> None:
        self.network.send(
            self.node.node_id,
            self.server_id,
            INGEST_BATCH,
            batch,
            size=UPDATE_SIZE * len(batch.updates),
        )

    def _on_ack(self, message: Message) -> None:
        msg = message.payload
        assert isinstance(msg, IngestAck)
        self.credits = msg.credits
        for _object_id, seq in msg.acked:
            # Cumulative per object (this reporter carries one object).
            for settled in [s for s in self._unacked if s <= seq]:
                del self._unacked[settled]
            self.acked_through = max(self.acked_through, seq)
        if (
            self._outstanding is not None
            and msg.batch_seq >= self._outstanding[0].batch_seq
        ):
            self._outstanding = None

    def _on_busy(self, message: Message) -> None:
        """The server refused the batch: hold it and come back later,
        jittered so a herd of refused reporters does not return at once."""
        msg = message.payload
        assert isinstance(msg, IngestBusy)
        if (
            self._outstanding is None
            or msg.batch_seq != self._outstanding[0].batch_seq
        ):
            return
        self.busy_signals += 1
        now = self.network.clock.now
        attempts = self._outstanding[2] + 1
        hold = max(
            int(msg.retry_after), self.schedule.interval(attempts, self._rng)
        )
        self._outstanding[1] = now + max(1, hold)
        self._outstanding[2] = attempts

    def _on_tick(self, now: int) -> None:
        connected = self.network.is_connected(self.node.node_id)
        if not connected:
            self._was_connected = False
            return
        if not self._was_connected:
            self._was_connected = True
            self._outstanding = None  # the outage likely ate it anyway
            if self._last_velocity is not None:
                self.report(self._last_velocity)
        if self._outstanding is None:
            self._flush(now)
            return
        batch, next_retry, attempts = self._outstanding
        # Drop updates from the in-flight batch that a (duplicated or
        # overlapping) ack already settled; retransmit the rest.
        live = tuple(u for u in batch.updates if u.seq in self._unacked)
        if not live:
            self._outstanding = None
            self._flush(now)
            return
        if next_retry > now:
            return
        if len(live) < len(batch.updates):
            batch = IngestBatch(batch.reporter_id, batch.batch_seq, live)
            self._outstanding[0] = batch
        self._transmit(batch)
        self.retransmissions += 1
        attempts += 1
        self._outstanding[1] = now + self.schedule.interval(
            attempts, self._rng
        )
        self._outstanding[2] = attempts
