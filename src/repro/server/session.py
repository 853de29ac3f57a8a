"""Per-subscriber sessions: policy-paced, reliable delta fan-out.

A session layers PR 2's reliability idioms over the paper's §5.2
transmission policies:

* **what** travels is decided by the answer-state diff — computed once
  per refresh by :meth:`~repro.server.registry.AnswerState.since` and
  shared by every session of the query, each folding it into what *its*
  client will hold once the log drains;
* **when** it travels is decided by the client's
  :class:`~repro.distributed.transmission.TransmissionPolicy`
  (immediate / delayed / periodic) under its advertised send window;
* **that** it arrives is the job of sequence-numbered
  :class:`~repro.server.protocol.DeltaMsg` entries retried with
  jittered backoff until cumulatively acked, with replay-after-resume
  and snapshot resync when the log cannot answer a cursor (pruned,
  overflowed, or lost to a server crash).

Sessions are volatile: a server crash loses them, and the rebuilt
session resynchronises its client with a snapshot under a bumped
incarnation number.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.distributed.backoff import RetrySchedule
from repro.distributed.transmission import (
    DelayedPolicy,
    ImmediatePolicy,
    PeriodicPolicy,
    TransmissionPolicy,
)
from repro.errors import DistributedError
from repro.server.metrics import ServerMetrics
from repro.server.protocol import (
    CONTROL_SIZE,
    DELTA,
    TUPLE_SIZE,
    DeltaAck,
    DeltaMsg,
    HeartbeatMsg,
    ResumeMsg,
    WireTuple,
)
from repro.server.registry import AnswerState, Key, SubscriberRecord

Send = Callable[[str, str, object, int], bool]  # (dst, kind, payload, size)


def make_policy(name: str, period: int = 1) -> TransmissionPolicy:
    """Instantiate one of the §5.2 policies by wire name."""
    if name == "immediate":
        return ImmediatePolicy()
    if name == "delayed":
        return DelayedPolicy()
    if name == "periodic":
        return PeriodicPolicy(period)
    raise DistributedError(f"unknown transmission policy {name!r}")


def _key_tuple(key: Key) -> WireTuple:
    """Rebuild the identity-only tuple a retraction names."""
    values, begin, end, support = key
    return WireTuple(values=values, begin=begin, end=end, support=support)


class ClientSession:
    """One (client, query) delivery pipeline on the server."""

    def __init__(
        self,
        record: SubscriberRecord,
        send: Send,
        metrics: ServerMetrics,
        incarnation: int,
        now: int,
        schedule: RetrySchedule | None = None,
        seed: int = 0,
        heartbeat_timeout: int = 8,
        max_log: int = 256,
    ) -> None:
        self.client_id = record.client_id
        self.query_id = record.query_id
        self.record = record
        self.policy = make_policy(record.policy, record.period)
        self.window = record.window
        self.staleness_bound = record.staleness_bound
        self._send_fn = send
        self.metrics = metrics
        self.incarnation = incarnation
        self.schedule = schedule if schedule is not None else RetrySchedule(
            base=2.0, factor=2.0, cap=8.0, jitter=0.3
        )
        self._rng = random.Random(seed)
        self.heartbeat_timeout = heartbeat_timeout
        self.max_log = max_log
        #: Keys the client will hold once the log drains — always a
        #: subset of ``_seen.keys``.
        self.delivered: set[Key] = set()
        #: The answer state last folded into ``delivered`` and the
        #: policy's staging list (set by the snapshot, then by ``step``).
        self._seen: AnswerState | None = None
        # seq -> [DeltaMsg, next retry tick, attempts]
        self.log: dict[int, list[Any]] = {}
        self.next_seq = 1
        self.acked_through = 0
        self.free_slots: int | None = record.window
        self.connected = True
        self.last_heard = now
        #: A fresh (or resynchronising) session starts with a snapshot.
        self.needs_snapshot = True

    # ------------------------------------------------------------------
    @property
    def unacked(self) -> int:
        """Deltas sent but not yet cumulatively acked."""
        return len(self.log)

    @property
    def pending(self) -> int:
        """Tuples staged by the policy but not yet sent."""
        return len(self.policy.pending)

    def _touch(self, now: int) -> None:
        """Any inbound message proves the client alive."""
        self.last_heard = now
        if not self.connected:
            self.connected = True
            self.metrics.reconnects += 1

    def check_liveness(self, now: int) -> None:
        """Heartbeat timeout: mark the client disconnected.

        Sends pause (the log is kept for replay) — a session never
        burns bandwidth on a client known to be unreachable.
        """
        if self.connected and now - self.last_heard > self.heartbeat_timeout:
            self.connected = False
            self.metrics.disconnects += 1

    # ------------------------------------------------------------------
    def on_ack(self, ack: DeltaAck, now: int) -> None:
        self._touch(now)
        if ack.incarnation != self.incarnation:
            return
        for seq in [s for s in self.log if s <= ack.seq]:
            del self.log[seq]
        self.acked_through = max(self.acked_through, ack.seq)
        self.free_slots = ack.free_slots

    def on_resume(self, msg: ResumeMsg, now: int) -> None:
        """Client asks for replay after ``have_seq`` (gap or reconnect)."""
        self._touch(now)
        self.metrics.resumes += 1
        if msg.incarnation != self.incarnation:
            self.needs_snapshot = True
            return
        have = msg.have_seq
        # Everything at or below the cursor is implicitly acked.
        for seq in [s for s in self.log if s <= have]:
            del self.log[seq]
        self.acked_through = max(self.acked_through, have)
        missing = [s for s in range(have + 1, self.next_seq) if s not in self.log]
        if missing:
            # The log cannot reconstruct the client's stream (pruned or
            # lost) — fall back to a snapshot resync.
            self.needs_snapshot = True
            return
        for seq in self.log:
            if seq > have:
                self.log[seq][1] = now  # replay on the next step

    def on_heartbeat(self, msg: HeartbeatMsg, now: int) -> None:
        self._touch(now)
        if msg.free_slots is not None or self.window is None:
            self.free_slots = msg.free_slots

    # ------------------------------------------------------------------
    def _transmit(self, msg: DeltaMsg) -> bool:
        size = TUPLE_SIZE * (len(msg.adds) + len(msg.retracts)) + CONTROL_SIZE
        return self._send_fn(self.client_id, DELTA, msg, size)

    def _append_log(self, msg: DeltaMsg, now: int) -> None:
        self.log[msg.seq] = [msg, now + self.schedule.interval(0, self._rng), 0]
        if len(self.log) > self.max_log:
            # Bounded memory: a client so far behind that the log
            # overflows gets a snapshot instead of an unbounded queue.
            self.log.clear()
            self.needs_snapshot = True

    def _send_snapshot(self, state: AnswerState, now: int) -> None:
        # A snapshot reconstructs what the client *would* hold had deltas
        # flowed normally, so its contents are paced by the same policy:
        # a delayed client's resync carries only tuples already begun;
        # the rest follow as ordinary deltas at their proper times.  The
        # client still replaces its whole display (stale entries from
        # before the resync vanish either way).
        self.policy.on_answer(list(state.tuples), now)
        due = self.policy.due(now, self._slots())
        msg = DeltaMsg(
            query_id=self.query_id,
            incarnation=self.incarnation,
            seq=self.next_seq,
            aged_from=state.computed_at,
            adds=tuple(due),
            retracts=(),
            snapshot=True,
        )
        self.next_seq += 1
        self.log.clear()
        self._append_log(msg, now)
        self.delivered = {t.key() for t in due}
        self._seen = state
        self.policy.mark_sent(due)
        if self.free_slots is not None:
            self.free_slots = max(0, self.free_slots - len(due))
        self._transmit(msg)
        self.needs_snapshot = False
        self.metrics.snapshots_sent += 1
        self.metrics.deltas_sent += 1
        self.metrics.tuples_sent += len(msg.adds)

    def _retransmit(self, now: int) -> None:
        """Resend overdue unacked deltas (jittered backoff)."""
        for seq in sorted(self.log):
            entry = self.log.get(seq)
            if entry is None:
                # A synchronous transport answered an earlier resend with
                # a cumulative ack before this loop got here.
                continue
            msg, next_retry, attempts = entry
            if next_retry > now:
                continue
            entry[1] = now + self.schedule.interval(attempts + 1, self._rng)
            entry[2] = attempts + 1
            self.metrics.delta_retransmissions += 1
            self._transmit(msg)

    def step(self, now: int, state: AnswerState) -> None:
        """One epoch of fan-out work for this client."""
        if not self.connected:
            return
        seen = self._seen
        if self.needs_snapshot or seen is None:
            self._send_snapshot(state, now)
            return
        self._retransmit(now)
        # Fold what changed since the state this session last saw — the
        # diff is shared by every session that stood at the same state.
        retract_keys: list[Key] = []
        staged: list[Any] = self.policy.pending
        if state is not seen:
            added, removed = state.since(seen)
            self._seen = state
            for key in removed:
                if key in self.delivered:
                    self.delivered.discard(key)
                    if key[2] >= now:  # else the client evicted it itself
                        retract_keys.append(key)
            # Staged tuples are re-read from the current state: a removed
            # one is unstaged, a kept one takes the ``max_age`` that goes
            # with this state's ``aged_from``.
            by_key = state.by_key
            staged = [
                by_key[k] for k in (t.key() for t in staged) if k in by_key
            ]
            staged.extend(added)
        elif not staged:
            return
        self.policy.on_answer(staged, now)
        due = self.policy.due(now, self._slots())
        if not due and not retract_keys:
            return
        msg = DeltaMsg(
            query_id=self.query_id,
            incarnation=self.incarnation,
            seq=self.next_seq,
            aged_from=state.computed_at,
            adds=tuple(due),
            retracts=tuple(_key_tuple(k) for k in retract_keys),
        )
        self.next_seq += 1
        self._append_log(msg, now)
        self.policy.mark_sent(due)
        self.delivered.update(t.key() for t in due)
        if self.free_slots is not None:
            self.free_slots = max(
                0, self.free_slots - len(due) + len(retract_keys)
            )
        self._transmit(msg)
        self.metrics.deltas_sent += 1
        self.metrics.tuples_sent += len(due)
        self.metrics.retract_tuples_sent += len(retract_keys)

    def _slots(self) -> int | None:
        """The send window the policy sees this epoch."""
        if self.window is None:
            return None
        return self.free_slots if self.free_slots is not None else self.window

    # ------------------------------------------------------------------
    def drained(self) -> bool:
        """No unacked deltas and nothing staged (quiescence probe)."""
        return not self.log and not self.needs_snapshot
