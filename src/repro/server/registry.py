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
nothing but time happens to them (:meth:`AnswerState.capture`, which
re-stamps only the rows a refresh may have changed).  How a
registered query is evaluated is not a subscriber's choice: every one is
maintained incrementally, in-process.
"""

from __future__ import annotations

import heapq
import itertools
import time
import weakref
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from repro.core.database import MostDatabase
from repro.core.queries import ContinuousQuery, StampedTuple
from repro.errors import ReproError
from repro.ftl import parse_query
from repro.server.metrics import ServerMetrics
from repro.server.protocol import SubscribeMsg, WireTuple

#: A tuple's wire identity, :meth:`WireTuple.key`.
Key = tuple[Any, ...]
#: What :meth:`AnswerState.since` returns: the tuples added and the keys
#: removed relative to an older state, each in the order sessions send.
Delta = tuple[tuple[WireTuple, ...], tuple[Key, ...]]
#: One answer row of a state, by its support (the full instantiation):
#: ``(serial, stamped_at, tuples)`` — each tuple's ``max_age`` is as of
#: ``stamped_at``; ``serial`` tells the row's events from those of a row
#: it replaced.
_Row = tuple[int, int, tuple[WireTuple, ...]]
#: A pending row event ``(time, kind, serial, support)``: kind 0 — a
#: tuple begins at ``time`` (due once ``now >= time``); kind 1 — a tuple
#: ends at ``time`` (due once ``now > time``).
_Event = tuple[float, int, int, tuple[Any, ...]]

_serials = itertools.count()


def _aged(wire: WireTuple, stamped_at: int, now: int) -> WireTuple:
    """``wire`` with its ``max_age`` moved from ``stamped_at`` to ``now``."""
    if stamped_at == now:
        return wire
    return WireTuple(
        wire.values,
        wire.begin,
        wire.end,
        wire.support,
        wire.max_age + (now - stamped_at),
    )


def _add_order(t: WireTuple) -> tuple[Any, ...]:
    return (t.begin, t.end, str(t.values))


def _retract_order(k: Key) -> tuple[Any, ...]:
    return (k[1], k[2], str(k[0]))


def _schedule(
    events: list[_Event],
    serial: int,
    support: tuple[Any, ...],
    wires: tuple[WireTuple, ...],
    now: int,
) -> int:
    """Append a row's next events — its first end, its first begin after
    ``now`` — and return how many of its tuples have begun by ``now``."""
    events.append((wires[0].end, 1, serial, support))
    begun = 0
    for wire in wires:  # begun ones first
        if wire.begin > now:
            events.append((wire.begin, 0, serial, support))
            break
        begun += 1
    return begun


def _continued(
    group: list[StampedTuple],
    old_row: _Row,
    now: int,
    t0: int,
    stale_copies: frozenset[Key],
    unsettled: dict[Key, None],
) -> tuple[tuple[WireTuple, ...], int]:
    """One re-stamped row's tuples under the continuing rule against its
    tuples in the state of ``t0`` (:meth:`AnswerState.capture`), and how
    many kept their ``begin``; keys that outlived an age change join
    ``unsettled``."""
    _serial, old_stamped_at, old_wires = old_row
    olds = {w.end: w for w in old_wires}
    elapsed = now - t0
    wires: list[WireTuple] = []
    carried = 0
    for s in group:
        begin = s.begin
        old = olds.get(s.end)
        if old is not None:
            old_key = old.key()
            old_age = old.max_age + (t0 - old_stamped_at)
            if s.max_age == old_age + elapsed and old_key not in stale_copies:
                if old.begin <= now and begin <= now:
                    begin = old.begin
                    carried += 1
            elif old.begin == begin:
                unsettled[old_key] = None
        wires.append(WireTuple(s.values, begin, s.end, s.support, s.max_age))
    return tuple(wires), carried


class AnswerState:
    """The fanned-out answer of one query as of its last refresh.

    ``max_age`` annotations of the tuples it hands out (``tuples``,
    ``by_key``, :meth:`since`) are relative to ``computed_at``;
    consumers age them by ``now - computed_at`` — this is what lets a
    load-shedding server keep serving the *last* answer with honest
    staleness flags instead of blocking on a refresh.

    Inside, tuples are kept per answer row with the tick their age was
    stamped at, so a state built from the previous one shares every row
    nothing happened to (:meth:`capture`) and ages a tuple only where it
    leaves the state.

    States compare by identity: a session remembers the state object it
    last folded and asks the current one what changed :meth:`since`.
    """

    def __init__(
        self,
        computed_at: int,
        tuples: Iterable[WireTuple] = (),
        keys: frozenset[Key] | None = None,
        metrics: ServerMetrics | None = None,
        unsettled: frozenset[Key] = frozenset(),
    ) -> None:
        self.computed_at = computed_at
        #: Where :meth:`since` counts the diffs it had to compute.
        self.metrics = metrics
        #: Keys that outlived a refresh which changed their age (a tuple
        #: still in the future keeps its ``begin``, so it is not re-sent
        #: when a support object reports): clients may hold a copy older
        #: than this state's, so :meth:`capture` must not carry them.
        self.unsettled = unsettled
        self._rows: dict[tuple[Any, ...], _Row] = {}
        # What the next capture from this state reads: the row events in
        # a heap, how many tuples had begun by ``computed_at``, the rows
        # whose age stays 0 and those holding an unsettled key (both in
        # stamp order), and the query's mark of this answer.
        self._events: list[_Event] = []
        self._begun = 0
        self._zero_age: tuple[tuple[Any, ...], ...] = ()
        self._unsettled_rows: tuple[tuple[Any, ...], ...] = ()
        self._mark: tuple[Any, ...] | None = None
        # The diff against the state this one was captured from, emitted
        # by the capture and counted when a session first asks for it.
        self._base: "weakref.ref[AnswerState] | None" = None
        self._emitted: Delta = ((), ())
        # The diffs already computed, keyed weakly by their base: a state
        # must never keep an older state alive, or the memo would chain
        # every answer ever captured.
        self._since: "weakref.WeakKeyDictionary[AnswerState, Delta]" = (
            weakref.WeakKeyDictionary()
        )
        given = tuple(tuples)
        if given:
            grouped: dict[tuple[Any, ...], list[WireTuple]] = {}
            for t in given:
                grouped.setdefault(t.support, []).append(t)
            self._rows = {
                support: (next(_serials), computed_at, tuple(wires))
                for support, wires in grouped.items()
            }
            self.tuples = given
        if keys:
            self.keys = keys

    @cached_property
    def tuples(self) -> tuple[WireTuple, ...]:
        """Every tuple of the answer, row by row."""
        now = self.computed_at
        return tuple(
            _aged(wire, stamped_at, now)
            for _serial, stamped_at, wires in self._rows.values()
            for wire in wires
        )

    @cached_property
    def keys(self) -> frozenset[Key]:
        """Every tuple's key."""
        return frozenset(
            wire.key() for _s, _t, wires in self._rows.values() for wire in wires
        )

    @cached_property
    def by_key(self) -> Mapping[Key, WireTuple]:
        """``key -> tuple`` — sessions re-read staged tuples through it.
        A view: reading a key costs its row, not the answer."""
        return _ByKey(self)

    @staticmethod
    def capture(
        cq: ContinuousQuery,
        now: int,
        prev: "AnswerState | None" = None,
        metrics: ServerMetrics | None = None,
    ) -> "AnswerState":
        """Snapshot the query's stamped answer at the current tick.

        A stamped answer clips every interval to start at the refresh
        tick, so a tuple live across two refreshes would come back with
        a new ``begin`` — and a new key — although nothing about it
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

        The work is proportional to what changed, not to the answer.
        When ``prev`` is this query's answer one refresh ago
        (:meth:`ContinuousQuery.changed_since`), the state starts as
        ``prev``'s rows and re-stamps only the rows that may differ by
        more than age: those the refresh patched, those naming an object
        heard from since, those whose age stays 0, those holding an
        ``unsettled`` key, and those with a tuple that ended or began
        since (a heap of row events).  Every other row is ``prev``'s,
        key for key, exactly the elapsed ticks older.  Otherwise every
        row is stamped.  Either way the diff against ``prev`` falls out
        of the rows re-stamped and is what :meth:`since` returns for
        ``prev``; ``metrics`` counts the tuples carried and re-stamped.
        """
        mark, changed, refreshed_at = cq.changed_since(
            None if prev is None else prev._mark
        )
        state = AnswerState(now, metrics=metrics)
        state._mark = mark
        prev_rows = {} if prev is None else prev._rows
        t0 = now if prev is None else prev.computed_at
        carried = 0
        if prev is not None and changed is not None and refreshed_at == now:
            rows = dict(prev_rows)
            events = list(prev._events)
            touched = dict.fromkeys(changed)
            touched.update(dict.fromkeys(prev._zero_age))
            touched.update(dict.fromkeys(prev._unsettled_rows))
            while events:
                at, kind, serial, support = events[0]
                if at > now or (at == now and kind):
                    break
                heapq.heappop(events)
                row = rows.get(support)
                if row is not None and row[0] == serial:
                    touched[support] = None
            begun = prev._begun
            for support in touched:
                row = rows.pop(support, None)
                if row is not None:
                    begun -= sum(1 for w in row[2] if w.begin <= t0)
            # Every tuple of a row left alone had begun by ``t0`` or is
            # still to begin: carried as it stands.
            carried = begun
            stamped = cq.stamp_rows(touched)
        else:
            rows, events, begun = {}, [], 0
            touched = dict.fromkeys(prev_rows)
            stamped = cq.stamp_rows()
        stale_copies = frozenset() if prev is None else prev.unsettled
        unsettled: dict[Key, None] = {}
        zero_age: list[tuple[Any, ...]] = []
        added: list[WireTuple] = []
        removed: list[Key] = []
        scheduled: list[_Event] = []
        i, n = 0, len(stamped)
        while i < n:
            first = stamped[i]
            support = first.support
            j = i + 1
            while j < n and stamped[j].support is support:
                j += 1
            group, i = stamped[i:j], j
            old_row = prev_rows.get(support)
            if old_row is None:
                row_wires = tuple(
                    WireTuple(s.values, s.begin, s.end, support, s.max_age)
                    for s in group
                )
            else:
                row_wires, kept = _continued(
                    group, old_row, now, t0, stale_copies, unsettled
                )
                carried += kept
            if first.max_age == 0 and cq.ages_stay_zero(support):
                zero_age.append(support)
            serial = next(_serials)
            rows[support] = (serial, now, row_wires)
            begun += _schedule(scheduled, serial, support, row_wires, now)
            if prev is None:
                continue
            touched.pop(support, None)
            if old_row is None:
                added.extend(row_wires)
                continue
            old_keys = [w.key() for w in old_row[2]]
            new_keys = [w.key() for w in row_wires]
            added.extend(
                w for w, k in zip(row_wires, new_keys) if k not in old_keys
            )
            removed.extend(k for k in old_keys if k not in new_keys)
        for support in touched:  # rows gone from the answer
            old_row = prev_rows.get(support)
            if old_row is not None:
                removed.extend(w.key() for w in old_row[2])
        if len(events) + len(scheduled) > 4 * len(rows) + 256:
            # Compact: only the live rows' next events.
            events = []
            for support, (serial, _at, row_wires) in rows.items():
                _schedule(events, serial, support, row_wires, now)
            heapq.heapify(events)
        elif len(scheduled) > len(events):
            events.extend(scheduled)
            heapq.heapify(events)
        else:
            for event in scheduled:
                heapq.heappush(events, event)
        state._rows = rows
        state._events = events
        state._begun = begun
        state._zero_age = tuple(zero_age)
        state.unsettled = frozenset(unsettled)
        state._unsettled_rows = tuple(dict.fromkeys(k[3] for k in unsettled))
        if prev is not None:
            state._base = weakref.ref(prev)
            added.sort(key=_add_order)
            removed.sort(key=_retract_order)
            state._emitted = (tuple(added), tuple(removed))
        if metrics is not None:
            metrics.tuples_carried += carried
            metrics.tuples_restamped += n
        return state

    def since(self, prev: "AnswerState") -> Delta:
        """``(added, removed)`` relative to the older state ``prev``.

        ``added`` holds this state's tuples in policy order ``(begin,
        end, str(values))``, ``removed`` the vanished keys in retract
        order.  Computed once per base: every session of the query that
        stood at ``prev`` shares the result, and a session that lagged
        asks for its own older base through the same function.  The
        diff against the state this one was captured from is the one
        :meth:`capture` emitted; any other base takes a walk over both
        answers.
        """
        delta = self._since.get(prev)
        if delta is None:
            base = self._base
            if base is not None and base() is prev:
                delta = self._emitted
            else:
                # Walk the rows, not the key sets: ties in either order
                # then fall in answer order, whatever the hash seed.
                keys, prev_keys = self.keys, prev.keys
                added = sorted(
                    (t for t in self.tuples if t.key() not in prev_keys),
                    key=_add_order,
                )
                removed = sorted(
                    (k for k in prev.by_key if k not in keys),
                    key=_retract_order,
                )
                delta = (tuple(added), tuple(removed))
            self._since[prev] = delta
            if self.metrics is not None:
                self.metrics.diffs_computed += 1
        return delta


class _ByKey(Mapping[Key, WireTuple]):
    """:attr:`AnswerState.by_key`: keys found through their row."""

    __slots__ = ("_state",)

    def __init__(self, state: AnswerState) -> None:
        self._state = state

    def _find(self, key: Key) -> WireTuple | None:
        state = self._state
        row = state._rows.get(key[3])
        if row is not None:
            for wire in row[2]:
                if wire.key() == key:
                    return _aged(wire, row[1], state.computed_at)
        return None

    def __getitem__(self, key: Key) -> WireTuple:
        found = self._find(key)
        if found is None:
            raise KeyError(key)
        return found

    def __contains__(self, key: object) -> bool:
        return (
            isinstance(key, tuple)
            and len(key) == 4
            and self._find(key) is not None
        )

    def __iter__(self) -> Iterator[Key]:
        for _serial, _at, wires in self._state._rows.values():
            for wire in wires:
                yield wire.key()

    def __len__(self) -> int:
        return sum(len(row[2]) for row in self._state._rows.values())


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
        shared = rq.cq.shared_rows
        rq.cq.refresh()
        self.metrics.shared_rows += rq.cq.shared_rows - shared
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
