"""The durable subscription registry and per-query answer states.

The registry is the server's *durable* core: query texts and subscriber
records survive an epoch-loop crash (think: a subscription table in
stable storage), while the :class:`~repro.core.queries.ContinuousQuery`
instances and their incremental caches are volatile and rebuilt by
:meth:`SubscriptionRegistry.rebuild` on restart — a restarted server
re-evaluates from the database and resynchronises clients by snapshot.

Identical subscriptions (same text and horizon) share one registered
query: a thousand clients watching the same fleet cost one refresh per
epoch, not a thousand — and one answer diff
(:meth:`AnswerState.since`), over tuples that keep their identity while
nothing but time happens to them (:meth:`AnswerState.capture`).  How a
registered query is evaluated is not a subscriber's choice: every one is
maintained incrementally, in-process.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import Any

from repro.core.database import MostDatabase
from repro.core.queries import ContinuousQuery
from repro.errors import ReproError
from repro.ftl import parse_query
from repro.server.metrics import ServerMetrics
from repro.server.protocol import SubscribeMsg, WireTuple

#: A tuple's wire identity, :meth:`WireTuple.key`.
Key = tuple[Any, ...]
#: What :meth:`AnswerState.since` returns: the tuples added and the keys
#: removed relative to an older state, each in the order sessions send.
Delta = tuple[tuple[WireTuple, ...], tuple[Key, ...]]


@dataclass(eq=False)
class AnswerState:
    """The fanned-out answer of one query as of its last refresh.

    ``max_age`` annotations inside ``tuples`` are relative to
    ``computed_at``; consumers age them by ``now - computed_at`` — this
    is what lets a load-shedding server keep serving the *last* answer
    with honest staleness flags instead of blocking on a refresh.

    States compare by identity: a session remembers the state object it
    last folded and asks the current one what changed :meth:`since`.
    """

    computed_at: int
    tuples: tuple[WireTuple, ...]
    keys: frozenset[Key] = field(default_factory=frozenset)
    #: Where :meth:`since` counts the diffs it had to compute.
    metrics: ServerMetrics | None = field(default=None, repr=False)
    #: Keys that outlived a refresh which changed their age (a tuple
    #: still in the future keeps its ``begin``, so it is not re-sent
    #: when a support object reports): clients may hold a copy older
    #: than this state's, so :meth:`capture` must not carry them.
    unsettled: frozenset[Key] = frozenset()
    #: ``key -> tuple`` — sessions re-read staged tuples through it.
    by_key: dict[Key, WireTuple] = field(init=False, repr=False)
    # The diffs already computed, keyed weakly by their base: a state
    # must never keep an older state alive, or the memo would chain
    # every answer ever captured.
    _since: "weakref.WeakKeyDictionary[AnswerState, Delta]" = field(
        init=False, repr=False
    )

    def __post_init__(self) -> None:
        self.by_key = {t.key(): t for t in self.tuples}
        if not self.keys:
            self.keys = frozenset(self.by_key)
        self._since = weakref.WeakKeyDictionary()

    @staticmethod
    def capture(
        cq: ContinuousQuery,
        now: int,
        prev: "AnswerState | None" = None,
        metrics: ServerMetrics | None = None,
    ) -> "AnswerState":
        """Snapshot the query's stamped answer at the current tick.

        ``stamped_tuples()`` clips every interval to start at the
        refresh tick, so a tuple live across two refreshes comes back
        with a new ``begin`` — and a new key — although nothing about it
        changed.  A *continuing* tuple therefore keeps the ``begin`` it
        had in ``prev``: same ``(values, support, end)``, begun by
        ``now`` in both states, and exactly ``now - prev.computed_at``
        older.  The age clause is what makes the carry invisible: the
        client's conservative estimate ``max_age + (now - aged_from)``
        for the copy it already holds is, tick for tick, what a re-send
        would have told it.  Anything else — a new ``end``, a support
        object heard from since, an instantiation whose age stays 0, a
        key some client may hold an older copy of (``unsettled``) —
        takes today's ``begin`` and is retracted and re-added.
        """
        previous: dict[Key, WireTuple] = {}
        stale_copies: frozenset[Key] = frozenset()
        elapsed = 0
        if prev is not None:
            previous = {(t.values, t.support, t.end): t for t in prev.tuples}
            stale_copies = prev.unsettled
            elapsed = now - prev.computed_at
        tuples: list[WireTuple] = []
        unsettled: set[Key] = set()
        carried = 0
        for s in cq.stamped_tuples():
            begin = s.begin
            old = previous.get((s.values, s.support, s.end))
            if old is not None:
                if (
                    s.max_age == old.max_age + elapsed
                    and old.key() not in stale_copies
                ):
                    if old.begin <= now and begin <= now:
                        begin = old.begin
                        carried += 1
                elif old.begin == begin:
                    unsettled.add(old.key())
            tuples.append(
                WireTuple(
                    values=s.values,
                    begin=begin,
                    end=s.end,
                    support=s.support,
                    max_age=s.max_age,
                )
            )
        if metrics is not None:
            metrics.tuples_carried += carried
        return AnswerState(
            computed_at=now,
            tuples=tuple(tuples),
            metrics=metrics,
            unsettled=frozenset(unsettled),
        )

    def since(self, prev: "AnswerState") -> Delta:
        """``(added, removed)`` relative to the older state ``prev``.

        ``added`` holds this state's tuples in policy order ``(begin,
        end, str(values))``, ``removed`` the vanished keys in retract
        order.  Computed once per base: every session of the query that
        stood at ``prev`` shares the result, and a session that lagged
        asks for its own older base through the same function.
        """
        delta = self._since.get(prev)
        if delta is None:
            # Walk the dicts, not the key sets: ties in either order then
            # fall in answer order, whatever the process's hash seed.
            added = sorted(
                (t for k, t in self.by_key.items() if k not in prev.keys),
                key=lambda t: (t.begin, t.end, str(t.values)),
            )
            removed = sorted(
                (k for k in prev.by_key if k not in self.keys),
                key=lambda k: (k[1], k[2], str(k[0])),
            )
            delta = self._since[prev] = (tuple(added), tuple(removed))
            if self.metrics is not None:
                self.metrics.diffs_computed += 1
        return delta


@dataclass
class RegisteredQuery:
    """One registered continuous query plus its refresh bookkeeping."""

    query_id: str
    text: str
    horizon: int
    cq: ContinuousQuery
    state: AnswerState
    #: Client ids subscribed to this query.
    subscribers: set[str] = field(default_factory=set)
    _last_evaluations: int = 0
    #: ``cq.horizon_skipped`` as of the last refresh round — lets the
    #: round attribute a clean query to the temporal-validity gate
    #: rather than the plain dependency gate.
    _last_horizon_skipped: int = 0


@dataclass(frozen=True)
class SubscriberRecord:
    """The durable per-subscriber row (policy + window + bound)."""

    client_id: str
    query_id: str
    policy: str
    period: int
    window: int | None
    staleness_bound: float | None


class SubscriptionRegistry:
    """Registered queries, their answers, and the subscriber table."""

    def __init__(self, db: MostDatabase, metrics: ServerMetrics) -> None:
        self.db = db
        self.metrics = metrics
        self.queries: dict[str, RegisteredQuery] = {}
        self.records: dict[tuple[str, str], SubscriberRecord] = {}
        self._by_spec: dict[tuple[str, int], str] = {}
        self._next_id = 0
        self._rr: list[str] = []  # round-robin refresh order under shedding
        self._rr_pos = 0

    # ------------------------------------------------------------------
    def prepare(
        self, msg: SubscribeMsg
    ) -> tuple[RegisteredQuery, SubscriberRecord]:
        """Find (or build) the query a subscription names and the
        subscriber row it would add — storing neither; :meth:`admit`
        does, once nothing else can refuse the subscription.

        Raises the :class:`~repro.errors.SchemaError`-family diagnostic
        of :class:`ContinuousQuery` registration when the query is
        malformed or ranges over unknown classes — callers turn that
        into a refused-subscription reply, and no evaluator ever sees
        the bad query.
        """
        query_id = self._by_spec.get((msg.text, msg.horizon))
        if query_id is not None:
            rq = self.queries[query_id]
        else:
            query_id = f"q{self._next_id}"
            self._next_id += 1
            cq = self._build_cq(msg.text, msg.horizon)
            rq = RegisteredQuery(
                query_id=query_id,
                text=msg.text,
                horizon=msg.horizon,
                cq=cq,
                state=AnswerState.capture(
                    cq, self.db.clock.now, None, self.metrics
                ),
            )
            rq._last_evaluations = cq.evaluations
        record = SubscriberRecord(
            client_id=msg.client_id,
            query_id=query_id,
            policy=msg.policy,
            period=msg.period,
            window=msg.window,
            staleness_bound=msg.staleness_bound,
        )
        return rq, record

    def admit(self, rq: RegisteredQuery, record: SubscriberRecord) -> None:
        """Write a prepared subscription to the durable table."""
        if rq.query_id not in self.queries:
            self.queries[rq.query_id] = rq
            self._by_spec[(rq.text, rq.horizon)] = rq.query_id
            self._rr.append(rq.query_id)
        rq.subscribers.add(record.client_id)
        self.records[(record.client_id, rq.query_id)] = record

    def register(self, msg: SubscribeMsg) -> RegisteredQuery:
        """Register (or join) the query a subscription names."""
        rq, record = self.prepare(msg)
        self.admit(rq, record)
        return rq

    def _build_cq(self, text: str, horizon: int) -> ContinuousQuery:
        # Always incremental: a formula outside the maintainable fragment
        # falls back by itself and says why in ``incremental_rejection``.
        return ContinuousQuery(
            self.db, parse_query(text), horizon=horizon, method="incremental"
        )

    # ------------------------------------------------------------------
    def refresh(self, rq: RegisteredQuery, now: int) -> bool:
        """Bring one query's answer state up to date.

        Returns whether the answer state was rebuilt (i.e. the refresh
        actually re-evaluated something).  Records latency either way —
        the steady-state goal is that a refresh with no pending updates
        is nearly free, and the bench watches exactly this number.
        """
        t0 = time.perf_counter()
        rq.cq.refresh()
        rebuilt = rq.cq.evaluations != rq._last_evaluations
        if rebuilt:
            rq._last_evaluations = rq.cq.evaluations
            rq.state = AnswerState.capture(
                rq.cq, now, rq.state, self.metrics
            )
        self.metrics.refreshes += 1
        self.metrics.refresh_latency.record(time.perf_counter() - t0)
        return rebuilt

    def refresh_round(self, now: int, budget: int | None = None) -> int:
        """Refresh queries for this epoch.

        Queries no relevant update has dirtied since their last read are
        skipped outright (``ContinuousQuery.needs_refresh`` — the
        database's update router already filtered irrelevant commits, so
        a clean query provably has an unchanged answer);
        skips are counted in ``metrics.deps_skipped_refreshes`` and do
        not consume refresh budget.  A clean query that dropped covered
        updates through its temporal-validity gate since the previous
        round is credited to ``metrics.horizon_skipped_refreshes``
        instead (DESIGN.md §11).

        With ``budget=None`` every dirty query refreshes.  Under load
        shedding a bounded number refresh per epoch, round-robin so no
        query starves; the rest keep serving their last answer state,
        whose staleness flags age honestly (degradation ladder,
        DESIGN.md §9).  Returns the number refreshed.
        """
        if budget is None or budget >= len(self._rr):
            refreshed = 0
            for rq in list(self.queries.values()):
                if not rq.cq.needs_refresh:
                    self._count_skip(rq)
                    continue
                self.refresh(rq, now)
                refreshed += 1
            return refreshed
        refreshed = 0
        skipped = 0
        n = len(self._rr)
        for _ in range(n):
            query_id = self._rr[self._rr_pos % n]
            self._rr_pos += 1
            rq = self.queries.get(query_id)
            if rq is None:
                continue
            if not rq.cq.needs_refresh:
                self._count_skip(rq)
                continue
            if refreshed < budget:
                self.refresh(rq, now)
                refreshed += 1
            else:
                skipped += 1
        self.metrics.shed_refreshes += skipped
        return refreshed

    def _count_skip(self, rq: RegisteredQuery) -> None:
        """Attribute one clean-query skip to the gate that earned it."""
        if rq.cq.horizon_skipped > rq._last_horizon_skipped:
            self.metrics.horizon_skipped_refreshes += 1
        else:
            self.metrics.deps_skipped_refreshes += 1
        rq._last_horizon_skipped = rq.cq.horizon_skipped

    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Drop the volatile side: cancel every live continuous query.

        The texts and subscriber records (the durable table) survive.
        """
        for rq in self.queries.values():
            rq.cq.cancel()

    def rebuild(self) -> None:
        """Recreate every registered query after a crash-restart.

        Full re-evaluation from the (surviving) database; answer states
        are recaptured so restarted sessions can snapshot clients.
        Queries whose class universe disappeared mid-flight would raise
        here — the registry drops them rather than wedging the restart.
        """
        now = self.db.clock.now
        for query_id, rq in list(self.queries.items()):
            try:
                cq = self._build_cq(rq.text, rq.horizon)
            except ReproError:
                del self.queries[query_id]
                self._by_spec.pop((rq.text, rq.horizon), None)
                self._rr = [q for q in self._rr if q != query_id]
                continue
            rq.cq = cq
            rq._last_evaluations = cq.evaluations
            rq._last_horizon_skipped = cq.horizon_skipped
            # A rebuilt query answers from scratch: nothing continues
            # across a crash, every tuple takes a fresh ``begin``.
            rq.state = AnswerState.capture(cq, now, None, self.metrics)

    def cached_relations(self) -> int:
        """Total incremental-cache entries across registered queries."""
        return sum(rq.cq.cached_relations for rq in self.queries.values())
