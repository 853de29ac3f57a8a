"""The always-on continuous-query server: asyncio epoch loop.

One **epoch** = one tick of the shared simulation clock plus one pass of
server work:

1. **pump** — tick the clock; the network delivers in-flight messages
   (ingest batches land in the bounded inbox, client acks/resumes/
   heartbeats are routed to their sessions);
2. **ingest** — drain up to ``batch_limit`` queued motion updates into
   :meth:`~repro.core.database.MostDatabase.ingest_motion` (idempotent,
   sequence-checked) and ack them, amortising structural cache
   invalidation across the whole batch;
3. **refresh** — bring registered continuous queries up to date off
   their dirty frontiers (incremental maintenance; a clean query is a
   near-free no-op);
4. **fan-out** — diff each query's answer state and push deltas to
   subscriber sessions through their §5.2 transmission policies.

Backpressure is explicit end-to-end: a full inbox refuses the batch
with an :class:`~repro.server.protocol.IngestBusy` telling the reporter
when to come back (never a silent drop), and every ingest ack carries a
refreshed credit allowance that shrinks to zero as the queue climbs
past the high watermark.

The degradation ladder (DESIGN.md §9): ``normal`` → ``backpressure``
(credits withheld) → ``shedding`` (bounded refreshes per epoch,
round-robin; unrefreshed queries keep serving their last answer with
honestly aged staleness flags instead of blocking the loop).

Crash-restart: :meth:`CQServer.crash` drops every volatile structure
(inbox, sessions, live query instances); :meth:`CQServer.restart` bumps
the incarnation, re-evaluates from the durable registry, and resyncs
every subscriber by snapshot.  Reporters recover by batch retry; clients
by resumable cursors.
"""

from __future__ import annotations

import asyncio
import time
import zlib
from collections import deque

from repro.core.database import MostDatabase
from repro.distributed.backoff import RetrySchedule
from repro.distributed.network import SimNetwork
from repro.distributed.updates import MotionUpdate
from repro.errors import DistributedError, ReproError
from repro.server.metrics import (
    BACKPRESSURE,
    NORMAL,
    SHEDDING,
    ServerMetrics,
)
from repro.server.protocol import (
    CONTROL_SIZE,
    DELTA_ACK,
    HEARTBEAT,
    INGEST_ACK,
    INGEST_BATCH,
    INGEST_BUSY,
    RESUME,
    SERVER_ID,
    SUBSCRIBE,
    SUBSCRIBED,
    DeltaAck,
    HeartbeatMsg,
    IngestAck,
    IngestBatch,
    IngestBusy,
    ResumeMsg,
    SubscribedMsg,
    SubscribeMsg,
)
from repro.server.registry import SubscriberRecord, SubscriptionRegistry
from repro.server.session import ClientSession
from repro.server.transport import SimTransport, Transport

#: Inbox fill fraction beyond which ingest credits drop to zero (the
#: ``backpressure`` ladder level).
HIGH_WATERMARK = 0.75
#: Query refreshes allowed per epoch while shedding.
SHED_BUDGET = 4
#: Hold-off, in epochs, a refused reporter is told.
BUSY_RETRY_AFTER = 2


class CQServer:
    """The epoch-loop continuous-query server.

    Args:
        db: the MOST database (shares its clock with the network).
        network: the simulated transport; ``None`` builds a standalone
            server (TCP transport attached separately).
        inbox_capacity: bound of the epoch ingest queue, in updates.
        batch_limit: updates applied per epoch (the amortisation knob).
        heartbeat_timeout: epochs of client silence before its sessions
            pause sends.
        retry: backoff schedule for delta retransmission (jittered).
        seed: base RNG seed for per-session jitter decorrelation.
    """

    def __init__(
        self,
        db: MostDatabase,
        network: SimNetwork | None = None,
        server_id: str = SERVER_ID,
        inbox_capacity: int = 512,
        batch_limit: int = 128,
        heartbeat_timeout: int = 8,
        retry: RetrySchedule | None = None,
        seed: int = 0,
    ) -> None:
        if inbox_capacity < 1:
            raise DistributedError("inbox must hold at least one update")
        if batch_limit < 1:
            raise DistributedError("batch limit must be at least one update")
        self.db = db
        self.clock = db.clock
        self.server_id = server_id
        self.inbox_capacity = inbox_capacity
        self.batch_limit = batch_limit
        self.heartbeat_timeout = heartbeat_timeout
        self.retry = retry if retry is not None else RetrySchedule(
            base=2.0, factor=2.0, cap=8.0, jitter=0.3
        )
        self.seed = seed
        self.metrics = ServerMetrics()
        self.registry = SubscriptionRegistry(db, self.metrics)
        self.sessions: dict[tuple[str, str], ClientSession] = {}
        #: The same sessions by client, so a heartbeat reaches its
        #: client's sessions without walking everybody else's.
        self._client_sessions: dict[str, list[ClientSession]] = {}
        #: Queued ``(src, IngestBatch)`` entries; :attr:`inbox_depth`
        #: counts updates.
        self._inbox: deque[tuple[str, IngestBatch]] = deque()
        self.inbox_depth = 0
        self._reporters: set[str] = set()
        self.incarnation = 1
        self.crashed = False
        self.level = NORMAL
        self.transport: Transport | None = (
            SimTransport(network, server_id, self._dispatch)
            if network is not None
            else None
        )

    # ------------------------------------------------------------------
    # Inbound dispatch (transport-agnostic)
    # ------------------------------------------------------------------
    def _dispatch(self, src: str, kind: str, payload: object) -> None:
        """Route one inbound message (called by any transport)."""
        if self.crashed:
            return
        # The isinstance guards double as payload validation: a kind
        # carrying the wrong payload class is ignored like an unknown
        # kind, never crashed on.
        if kind == INGEST_BATCH and isinstance(payload, IngestBatch):
            self._on_batch(src, payload)
        elif kind == SUBSCRIBE and isinstance(payload, SubscribeMsg):
            self._on_subscribe(src, payload)
        elif kind == DELTA_ACK and isinstance(payload, DeltaAck):
            self._on_delta_ack(payload)
        elif kind == RESUME and isinstance(payload, ResumeMsg):
            self._on_resume(payload)
        elif kind == HEARTBEAT and isinstance(payload, HeartbeatMsg):
            self._on_heartbeat(payload)
        # Unknown kinds are ignored: a newer client's extras must not
        # crash the server.

    def _send(self, dst: str, kind: str, payload: object, size: int) -> bool:
        if self.transport is None:
            return False
        return self.transport.send(dst, kind, payload, size=size)

    @property
    def _headroom(self) -> int:
        return self.inbox_capacity - self.inbox_depth

    def _on_batch(self, src: str, batch: IngestBatch) -> None:
        self._reporters.add(src)
        if len(batch.updates) > self._headroom:
            # Explicit backpressure: refuse the whole batch atomically
            # and tell the reporter when to come back.
            self.metrics.busy_signals += 1
            self._send(
                src,
                INGEST_BUSY,
                IngestBusy(
                    batch_seq=batch.batch_seq,
                    retry_after=BUSY_RETRY_AFTER,
                ),
                CONTROL_SIZE,
            )
            return
        self._inbox.append((src, batch))
        self.inbox_depth += len(batch.updates)
        self.metrics.updates_enqueued += len(batch.updates)
        self.metrics.observe_inbox(self.inbox_depth)

    def _on_subscribe(self, src: str, msg: SubscribeMsg) -> None:
        """Refuse before register: everything that can fail (building the
        query, opening the session) runs before the durable table is
        written, so a refused subscription leaves no query to refresh
        and no record for :meth:`restart` to trip over."""
        now = self.clock.now
        try:
            rq, record = self.registry.prepare(msg)
        except ReproError as exc:
            self._refuse(src, msg, exc)
            return
        session = self.sessions.get((msg.client_id, rq.query_id))
        if session is None:
            try:
                self._open_session(record, now)
            except ReproError as exc:
                if rq.query_id not in self.registry.queries:
                    rq.cq.cancel()  # built for this frame; nobody holds it
                self._refuse(src, msg, exc)
                return
            self.metrics.subscriptions += 1
        self.registry.admit(rq, record)
        if (
            session is not None
            and msg.have_seq >= 0
            and msg.incarnation == self.incarnation
        ):
            # Reconnect to a live session: resume, don't resync.
            session.on_resume(
                ResumeMsg(
                    client_id=msg.client_id,
                    query_id=rq.query_id,
                    incarnation=msg.incarnation,
                    have_seq=msg.have_seq,
                ),
                now,
            )
        self._send(
            src,
            SUBSCRIBED,
            SubscribedMsg(
                client_id=msg.client_id,
                query_id=rq.query_id,
                incarnation=self.incarnation,
            ),
            CONTROL_SIZE,
        )

    def _refuse(self, src: str, msg: SubscribeMsg, exc: ReproError) -> None:
        # Fail fast with the diagnostic (SchemaError for unknown
        # classes, FtlAnalysisError for malformed queries) instead of a
        # deep evaluator error at first refresh.
        self._send(
            src,
            SUBSCRIBED,
            SubscribedMsg(
                client_id=msg.client_id,
                query_id="",
                incarnation=self.incarnation,
                error=f"{type(exc).__name__}: {exc}",
            ),
            CONTROL_SIZE,
        )

    def _open_session(self, record: SubscriberRecord, now: int) -> None:
        key = (record.client_id, record.query_id)
        session = self.sessions[key] = ClientSession(
            record,
            send=self._send,
            metrics=self.metrics,
            incarnation=self.incarnation,
            now=now,
            schedule=self.retry,
            seed=self.seed ^ zlib.crc32("|".join(key).encode()),
            heartbeat_timeout=self.heartbeat_timeout,
        )
        self._client_sessions.setdefault(key[0], []).append(session)

    def _on_delta_ack(self, ack: DeltaAck) -> None:
        session = self.sessions.get((ack.client_id, ack.query_id))
        if session is not None:
            session.on_ack(ack, self.clock.now)

    def _on_resume(self, msg: ResumeMsg) -> None:
        session = self.sessions.get((msg.client_id, msg.query_id))
        if session is not None:
            session.on_resume(msg, self.clock.now)

    def _on_heartbeat(self, msg: HeartbeatMsg) -> None:
        now = self.clock.now
        for session in self._client_sessions.get(msg.client_id, ()):
            session.on_heartbeat(msg, now)

    # ------------------------------------------------------------------
    # The epoch loop
    # ------------------------------------------------------------------
    def _credits(self) -> int:
        """Per-reporter ingest allowance granted with each ack."""
        if self.inbox_depth >= HIGH_WATERMARK * self.inbox_capacity:
            return 0
        return max(1, self._headroom // max(1, len(self._reporters)))

    def _drain_ingest(self) -> int:
        """Apply up to ``batch_limit`` queued updates; ack everything."""
        applied = 0
        budget = self.batch_limit
        while self._inbox and budget > 0:
            src, batch = self._inbox[0]
            if len(batch.updates) > budget and applied > 0:
                # Whole batches apply atomically within an epoch; an
                # oversized batch waits for a fresh budget — but at the
                # head of an untouched epoch it applies anyway, so a
                # batch larger than ``batch_limit`` can never stall the
                # queue forever.
                break
            self._inbox.popleft()
            acked: dict[object, int] = {}
            for update in batch.updates:
                if self._apply(update):
                    applied += 1
                acked[update.object_id] = max(
                    acked.get(update.object_id, -1), update.seq
                )
            self.inbox_depth -= len(batch.updates)
            budget -= len(batch.updates)
            self._send(
                src,
                INGEST_ACK,
                IngestAck(
                    batch_seq=batch.batch_seq,
                    acked=tuple(sorted(acked.items(), key=lambda kv: str(kv[0]))),
                    credits=self._credits(),
                ),
                CONTROL_SIZE,
            )
        return applied

    def _apply(self, update: MotionUpdate) -> bool:
        try:
            ok = self.db.ingest_motion(
                update.object_id,
                update.seq,
                update.velocity,
                update.position,
                update.measured_at,
            )
        except ReproError:
            # An update naming an unknown object (or malformed) must not
            # take the epoch loop down; it is rejected and acked so the
            # sender stops retrying it.
            self.metrics.updates_rejected += 1
            return False
        if ok:
            self.metrics.updates_applied += 1
        else:
            self.metrics.updates_rejected += 1
        return ok

    def _ladder_level(self, backlog: bool) -> str:
        if backlog:
            return SHEDDING
        if self.inbox_depth >= HIGH_WATERMARK * self.inbox_capacity:
            return BACKPRESSURE
        return NORMAL

    async def run_epoch(self) -> None:
        """One epoch: pump, ingest, refresh, fan out."""
        t0 = time.perf_counter()
        # Pump: in-flight messages due this tick reach their handlers
        # (ingest enqueues, acks/resumes/heartbeats hit sessions).
        self.clock.tick()
        now = self.clock.now
        self.metrics.epochs += 1
        if self.crashed:
            # Time passes while the loop is down; nothing is served.
            await asyncio.sleep(0)
            return
        self._drain_ingest()
        backlog = bool(self._inbox)
        self.level = self._ladder_level(backlog)
        self.metrics.epochs_at_level[self.level] += 1
        budget = SHED_BUDGET if self.level == SHEDDING else None
        self.registry.refresh_round(now, budget)
        for session in list(self.sessions.values()):
            session.check_liveness(now)
            rq = self.registry.queries.get(session.query_id)
            if rq is None:
                continue
            session.step(now, rq.state)
        self.metrics.epoch_latency.record(time.perf_counter() - t0)
        # A genuine suspension point: concurrent transports (TCP
        # readers) get the loop between epochs even at interval 0.
        await asyncio.sleep(0)

    async def serve(
        self, epochs: int | None = None, interval: float = 0.0
    ) -> None:
        """Run the epoch loop ``epochs`` times (forever when ``None``)."""
        remaining = epochs
        while remaining is None or remaining > 0:
            await self.run_epoch()
            if interval > 0:
                await asyncio.sleep(interval)
            if remaining is not None:
                remaining -= 1

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Kill the epoch loop's volatile state (simulated crash).

        The inbox, sessions, and live query instances are lost; the
        registry's durable subscription table and the database survive.
        While crashed, inbound messages are dropped on the floor —
        senders recover via their own retry machinery.
        """
        if self.crashed:
            return
        self.crashed = True
        self.metrics.crashes += 1
        if self.transport is not None:
            self.transport.down = True
        self._inbox.clear()
        self.inbox_depth = 0
        self.sessions.clear()
        self._client_sessions.clear()
        self.registry.crash()

    def restart(self) -> None:
        """Restart after a crash: re-evaluate, resync, carry on.

        Bumps the incarnation, rebuilds every registered query by full
        re-evaluation, and recreates subscriber sessions from the
        durable table — each starts with a snapshot resync, so clients
        converge tuple-for-tuple regardless of what the crash ate.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.metrics.restarts += 1
        if self.transport is not None:
            self.transport.down = False
        self.incarnation += 1
        self.registry.rebuild()
        now = self.clock.now
        for record in self.registry.records.values():
            if record.query_id in self.registry.queries:
                self._open_session(record, now)

    # ------------------------------------------------------------------
    def drained(self) -> bool:
        """Server-side quiescence: empty inbox, every session drained."""
        return (
            not self.crashed
            and not self._inbox
            and all(s.drained() for s in self.sessions.values())
        )
