"""Differential wall for fan-out: carried identity + shared diff ≡ full diff.

Two claims of DESIGN.md §9 are checked against a **test-local reference
session** — the per-subscriber full diff ``ClientSession.step`` used to
run (three passes over the whole answer), kept here and nowhere else:

* *the shared diff is the full diff*: fed the very same answer states,
  the real session and the reference drive their clients to identical
  displays (keys, ages and all) tick for tick, and count the same
  tuples onto the wire — for every policy, period, window and bound,
  across dropped acks, a heartbeat-timeout gap with resume, and a log
  overflow;
* *the carried ``begin`` is invisible*: the real session fed **carried**
  states (``AnswerState.capture(cq, now, prev)``) against the reference
  fed the **raw** re-clipped ones a refresh produces.  Where a client is
  sent everything as soon as it exists (unwindowed; immediate, delayed,
  or periodic with period 1) what the two clients show and flag is equal
  at every tick.  A windowed or slower-periodic client of the reference
  *flickers* — every refresh retracts every live tuple at once and the
  re-add waits for a free slot or the next period — so there the wall
  asserts what stays true: the carry never costs the client a tuple the
  reference shows (periodic), never sends more (run for run, where no
  log overflow resynced the twins at different epochs), and both
  converge on the same display once the stream goes quiet.

Answers are generated, not evaluated: rows appear, change their ``end``
or ``begin``, hear from one support object, vanish and expire, on refreshed and
unrefreshed epochs alike.  Everything is in-process over a synchronous
:class:`SimNetwork`; no sockets, no database.
"""

from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queries import StampedTuple
from repro.distributed.backoff import RetrySchedule
from repro.distributed.network import SimNetwork
from repro.server.client import SubscriberClient
from repro.server.metrics import ServerMetrics
from repro.server.protocol import (
    CONTROL_SIZE,
    DELTA_ACK,
    HEARTBEAT,
    RESUME,
    SERVER_ID,
    SUBSCRIBE,
    SUBSCRIBED,
    DeltaMsg,
    SubscribedMsg,
    WireTuple,
)
from repro.server.registry import AnswerState, SubscriberRecord
from repro.server.session import ClientSession, _key_tuple
from repro.server.transport import ProtocolNode

HEARTBEAT_TIMEOUT = 3
DRAIN = 32


# ----------------------------------------------------------------------
# The reference: the full per-subscriber diff this PR deleted
# ----------------------------------------------------------------------
class FullDiffSession(ClientSession):
    """``ClientSession`` with the old ``step``: rediscover the delta by
    walking the whole answer against ``delivered``, every epoch."""

    def step(self, now, state):
        if not self.connected:
            return
        if self.needs_snapshot:
            self._send_snapshot(state, now)
            return
        self._retransmit(now)
        current = state.keys
        expired = {k for k in self.delivered if k not in current and k[2] < now}
        self.delivered -= expired
        retract_keys = sorted(
            (k for k in self.delivered if k not in current),
            key=lambda k: (k[1], k[2], str(k[0])),
        )
        undelivered = [t for t in state.tuples if t.key() not in self.delivered]
        self.policy.on_answer(undelivered, now)
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
        self.delivered |= {t.key() for t in due}
        self.delivered -= set(retract_keys)
        if self.free_slots is not None:
            self.free_slots = max(
                0, self.free_slots - len(due) + len(retract_keys)
            )
        self._transmit(msg)
        self.metrics.deltas_sent += 1
        self.metrics.tuples_sent += len(due)
        self.metrics.retract_tuples_sent += len(retract_keys)


# ----------------------------------------------------------------------
# A generated answer: rows that live, change and die
# ----------------------------------------------------------------------
@dataclass
class Row:
    values: tuple
    support: tuple
    begin: int
    end: int
    #: Tick each support object was last heard from; empty for an
    #: all-local instantiation, whose age is 0 at every refresh.
    heard: list = field(default_factory=list)

    def stamped(self, now):
        age = float(max((now - h for h in self.heard), default=0))
        return StampedTuple(
            self.values, float(max(self.begin, now)), float(self.end),
            age, self.support, False,
        )


class StubQuery:
    """What ``AnswerState.capture`` needs of a continuous query: the
    stamped rows, and which of them changed since the answer marked
    ``base`` (``changed=None``: every row may have, as after a full
    evaluation — the capture then stamps them all)."""

    def __init__(self, stamped, now=None, mark=None, base=None, changed=None,
                 local=()):
        self._stamped = stamped
        self._now = now
        self._mark, self._base, self._changed = mark, base, changed
        self._local = frozenset(local)

    def changed_since(self, mark):
        if self._changed is None or mark is None or mark != self._base:
            return self._mark, None, self._now
        return self._mark, list(self._changed), self._now

    def stamp_rows(self, insts=None):
        if insts is None:
            return list(self._stamped)
        rows = {}
        for s in self._stamped:
            rows.setdefault(s.support, []).append(s)
        return [s for inst in insts for s in rows.get(inst, ())]

    def ages_stay_zero(self, support):
        return support in self._local


def raw_state(stamped, now):
    """The state a refresh produced before this PR: every interval
    re-clipped at ``now``."""
    return AnswerState(
        computed_at=now,
        tuples=tuple(
            WireTuple(s.values, s.begin, s.end, s.support, s.max_age)
            for s in stamped
        ),
    )


class Answers:
    """Applies a generated script; yields the raw and the carried state
    of every refresh (the same objects on an unrefreshed epoch)."""

    def __init__(self, early_age_jumps=True):
        #: Whether a tuple's age may change out of step *before it
        #: begins* (a support object reports, or the instantiation is
        #: all-local).  Its key cannot change then, so the protocol does
        #: not re-send it and clients that were sent it at different
        #: times hold different — all conservative — ages for it.
        self.early_age_jumps = early_age_jumps
        self.rows = {}
        self.raw = raw_state([], 0)
        #: Refreshes so far: what the stub marks each answer with.
        self.refreshes = 0
        self.carried = AnswerState.capture(
            StubQuery([], 0, mark=self.refreshes), 0, None
        )

    def apply(self, now, refresh, ops):
        if not refresh:
            return
        # The rows this refresh touched — the change report of a real
        # query; rows clipped away as time passes are left to the capture.
        changed = {}
        for op in ops:
            name, rid = op[0], op[1]
            row = self.rows.get(rid)
            if row is not None or name == "add":
                changed[(rid, "beacon")] = None
            if name == "add" and row is None:
                _, _, offset, duration, local = op
                if local and not self.early_age_jumps:
                    offset = 0
                self.rows[rid] = Row(
                    values=(rid,),
                    support=(rid, "beacon"),
                    begin=now + offset,
                    end=now + offset + duration,
                    heard=[] if local else [now - 1, now - 2],
                )
            elif row is None:
                continue
            elif name == "remove":
                del self.rows[rid]
            elif name == "end":
                row.end = now + op[2]
            elif name == "begin":  # same end, satisfied from later/sooner
                later = op[2] if row.heard or self.early_age_jumps else 0
                row.begin = now + later
            elif name == "hear" and row.heard:
                if row.begin <= now or self.early_age_jumps:
                    row.heard[op[2]] = now
        for rid, row in list(self.rows.items()):
            if row.end < max(row.begin, now):
                del self.rows[rid]  # clipped away by the refresh
        stamped = [row.stamped(now) for row in self.rows.values()]
        self.raw = raw_state(stamped, now)
        self.refreshes += 1
        query = StubQuery(
            stamped, now,
            mark=self.refreshes, base=self.refreshes - 1, changed=changed,
            local=[row.support for row in self.rows.values() if not row.heard],
        )
        self.carried = AnswerState.capture(query, now, self.carried)


ROW_IDS = st.sampled_from("abcd")
ADD = st.tuples(
    st.just("add"), ROW_IDS, st.integers(0, 4), st.integers(1, 14),
    st.booleans(),
)
OPS = st.one_of(
    ADD,
    ADD,
    st.tuples(st.just("remove"), ROW_IDS),
    st.tuples(st.just("end"), ROW_IDS, st.integers(0, 14)),
    st.tuples(st.just("begin"), ROW_IDS, st.integers(0, 4)),
    st.tuples(st.just("hear"), ROW_IDS, st.integers(0, 1)),
)
#: One epoch: is the query refreshed, and what happened to its answer.
#: Two in three epochs refresh; an empty op list is a refresh that
#: changed nothing (every live tuple continues).
EPOCHS = st.lists(
    st.tuples(st.sampled_from([True, True, False]), st.lists(OPS, max_size=5)),
    min_size=6,
    max_size=28,
)


@dataclass(frozen=True)
class Faults:
    #: Ticks at which the client's acks are lost.
    ack_drops: frozenset = frozenset()
    #: Closed window over which the client is unreachable — longer than
    #: the heartbeat timeout, so the session pauses and later resumes.
    gap: tuple | None = None
    max_log: int = 256


GAPS = st.tuples(
    st.integers(3, 14), st.integers(HEARTBEAT_TIMEOUT + 2, 9)
).map(lambda g: (g[0], g[0] + g[1]))
FAULTS = st.builds(
    Faults,
    ack_drops=st.frozensets(st.integers(2, 30), max_size=24),
    gap=st.one_of(st.none(), GAPS),
    max_log=st.sampled_from([1, 3, 256]),
)
#: Lost acks only: the session never pauses and never resyncs.
LOST_ACKS = st.builds(
    Faults, ack_drops=st.frozensets(st.integers(2, 30), max_size=24)
)

# ----------------------------------------------------------------------
# One session + one real client over one synchronous network
# ----------------------------------------------------------------------
class Twin:
    def __init__(self, session_cls, policy, period, window, bound, faults):
        self.network = SimNetwork()
        self.clock = self.network.clock
        self.metrics = ServerMetrics()
        self.faults = faults
        self.session = None
        self._session_cls = session_cls
        self._record = SubscriberRecord("c1", "q0", policy, period, window, bound)
        server = ProtocolNode(SERVER_ID, self.network)
        server.on_kind(SUBSCRIBE, self._on_subscribe)
        server.on_kind(DELTA_ACK, self._on_ack)
        server.on_kind(RESUME, lambda m: self.session.on_resume(m.payload, self.clock.now))
        server.on_kind(HEARTBEAT, lambda m: self.session.on_heartbeat(m.payload, self.clock.now))
        self._server = server
        self.client = SubscriberClient(
            self.network, "c1", "Q", horizon=100, policy=policy,
            period=period, window=window, staleness_bound=bound,
        )
        if faults.gap is not None:
            self.network.set_disconnections("c1", [faults.gap])

    def _on_subscribe(self, message):
        if self.session is None:
            self.session = self._session_cls(
                self._record,
                send=lambda dst, kind, payload, size: self._server.send(
                    dst, kind, payload, size=size
                ),
                metrics=self.metrics,
                incarnation=1,
                now=self.clock.now,
                schedule=RetrySchedule(base=2.0, factor=2.0, cap=8.0, jitter=0.0),
                heartbeat_timeout=HEARTBEAT_TIMEOUT,
                max_log=self.faults.max_log,
            )
        self._server.send(
            "c1", SUBSCRIBED, SubscribedMsg("c1", "q0", 1), size=CONTROL_SIZE
        )

    def _on_ack(self, message):
        if self.clock.now not in self.faults.ack_drops:
            self.session.on_ack(message.payload, self.clock.now)

    def epoch(self, state):
        """One server epoch as ``CQServer.run_epoch`` orders it: pump
        (the client's tick handler runs), liveness, step."""
        self.clock.tick()
        now = self.clock.now
        if self.session is not None:
            self.session.check_liveness(now)
            self.session.step(now, state)

    # What the user of the client can observe -------------------------
    def shown(self):
        return self.client.display_at()

    def held(self):
        """Live held tuples by ``begin``-free identity, with the age the
        client estimates for each right now.  (A replayed delta may park
        an already expired tuple in the display until the next eviction;
        nothing reads it.)"""
        now = self.clock.now
        return {
            (k[0], k[2], k[3]): tup.max_age + (now - aged_from)
            for k, (tup, aged_from) in self.client.display.items()
            if tup.end >= now
        }

    def flagged(self):
        now = self.clock.now
        return {
            (k[0], k[2], k[3])
            for k in self.client.display
            if k[2] >= now and self.client.flagged(k)
        }

    def converged(self):
        now = self.clock.now
        return {
            (values, max(begin, now), end)
            for values, begin, end in self.client.displayable()
        }

    def sent(self):
        return self.metrics.tuples_sent + self.metrics.retract_tuples_sent


def run(script, faults, client, ref_input, check, early_age_jumps=True):
    """Drive both twins through the script, then a quiet drain.

    ``client`` is ``(policy, period, window, bound)``; the reference is
    fed ``answers.<ref_input>``, the real session the carried states;
    ``check(ref, real, answers)`` runs after every epoch.
    """
    answers = Answers(early_age_jumps)
    ref = Twin(FullDiffSession, *client, faults)
    real = Twin(ClientSession, *client, faults)
    quiet = [(False, [])] * DRAIN
    for refresh, ops in list(script) + quiet:
        answers.apply(ref.clock.now + 1, refresh, ops)
        ref.epoch(getattr(answers, ref_input))
        real.epoch(answers.carried)
        check(ref, real, answers)
    return ref, real, answers


def assert_never_sends_more(ref, real):
    """The carry only ever takes tuples off the wire — compared run for
    run unless a log overflow resynced one twin and not the other, or at
    another epoch (a snapshot re-sends whatever is held then, and the
    chattier reference gets its acks through at other ticks)."""
    if ref.metrics.snapshots_sent == real.metrics.snapshots_sent == 1:
        assert real.sent() <= ref.sent()


def live(answers, now):
    """What a converged display holds, clipped at ``now``."""
    return {
        (row.values, float(max(row.begin, now)), float(row.end))
        for row in answers.rows.values()
        if row.end >= now
    }


#: Policies that send a tuple the epoch it exists (or begins) …
PROMPT = st.sampled_from([("immediate", 1), ("delayed", 1), ("periodic", 1)])
#: … and the ones that make it wait for a period boundary.
SLOW = st.sampled_from([("periodic", 2), ("periodic", 3)])
WINDOWS = st.sampled_from([None, 2, 5])
BOUNDS = st.sampled_from([None, 3.0, 6.0])


# ----------------------------------------------------------------------
# (b) the shared diff is the full diff
# ----------------------------------------------------------------------
@settings(max_examples=200)
@given(EPOCHS, FAULTS, st.one_of(PROMPT, SLOW), WINDOWS, BOUNDS)
def test_shared_diff_equals_full_diff_on_the_same_states(
    script, faults, policy, window, bound
):
    def wire(twin):  # WireTuple equality leaves max_age out
        return {
            key: (tup.max_age, aged_from)
            for key, (tup, aged_from) in twin.client.display.items()
        }

    def check(ref, real, _):
        assert wire(real) == wire(ref)
        assert real.client.last_seq == ref.client.last_seq

    ref, real, _ = run(script, faults, (*policy, window, bound), "carried", check)
    for name in (
        "deltas_sent",
        "tuples_sent",
        "retract_tuples_sent",
        "snapshots_sent",
        "delta_retransmissions",
    ):
        assert getattr(real.metrics, name) == getattr(ref.metrics, name), name


# ----------------------------------------------------------------------
# (a) the carried begin is invisible
# ----------------------------------------------------------------------
@settings(max_examples=300)
@given(EPOCHS, FAULTS, PROMPT, BOUNDS)
def test_carried_states_display_as_reclipped_states(script, faults, policy, bound):
    def check(ref, real, _):
        assert real.shown() == ref.shown()
        assert real.flagged() == ref.flagged()
        assert real.held() == ref.held()  # same tuples, same ages

    ref, real, answers = run(
        script, faults, (*policy, None, bound), "raw", check,
        early_age_jumps=False,
    )
    assert real.converged() == ref.converged() == live(answers, real.clock.now)
    assert_never_sends_more(ref, real)


@settings(max_examples=200)
@given(EPOCHS, FAULTS, PROMPT, BOUNDS)
def test_ages_stay_conservative_when_a_key_outlives_an_age_jump(
    script, faults, policy, bound
):
    """A tuple still in the future keeps its key when a support object
    reports, so it is not re-sent and two sessions that sent it at
    different times (the reference logs more deltas, overflows and
    snapshots earlier) leave different ages with their clients.  Both
    hold the same tuples, and neither ever under-estimates an age —
    the guarantee the staleness flag rests on."""

    def check(ref, real, answers):
        assert real.held().keys() == ref.held().keys()
        if bound is None:
            assert real.shown() == ref.shown()
        now = real.clock.now
        for row in answers.rows.values():
            true_age = max((now - h for h in row.heard), default=0)
            for twin in (ref, real):
                estimate = twin.held().get((row.values, float(row.end), row.support))
                assert estimate is None or estimate >= true_age

    ref, real, answers = run(script, faults, (*policy, None, bound), "raw", check)
    assert real.converged() == ref.converged() == live(answers, real.clock.now)
    assert_never_sends_more(ref, real)


@settings(max_examples=200)
@given(EPOCHS, LOST_ACKS, SLOW, BOUNDS)
def test_slow_periodic_client_only_gains_by_the_carry(script, faults, policy, bound):
    """Between period boundaries the reference has retracted what it will
    re-add at the next one; the real client kept it.  Never the other
    way round.  (Lost acks are the only fault here: the chattier
    reference hears from its client at other ticks, so across a gap or a
    log overflow the two pause and resync at different epochs — and a
    periodic resync off a period boundary is empty by design.  The fold
    itself is held to exact equality under those faults above.)"""

    def check(ref, real, _):
        assert ref.shown() <= real.shown()
        assert ref.held().items() <= real.held().items()

    ref, real, answers = run(
        script, faults, (*policy, None, bound), "raw", check,
        early_age_jumps=False,
    )
    assert real.converged() == ref.converged() == live(answers, real.clock.now)
    assert_never_sends_more(ref, real)


@settings(max_examples=200)
@given(EPOCHS, FAULTS, st.one_of(PROMPT, SLOW), st.sampled_from([2, 5]), BOUNDS)
def test_windowed_client_converges_and_never_sends_more(
    script, faults, policy, window, bound
):
    """Under a binding window the reference's retract-all frees slots its
    re-adds then compete for with everything else staged, so the two
    fill the window differently mid-stream (fed the same states they do
    not: the first property).  What stays true: nothing more is sent, and
    once the stream is quiet and the answer fits, both show all of it."""
    ref, real, answers = run(
        script, faults, (*policy, window, bound), "raw", lambda *_: None
    )
    assert_never_sends_more(ref, real)
    final = live(answers, real.clock.now)
    assert real.converged() <= final
    if len(final) <= window:
        assert real.converged() == ref.converged() == final


# ----------------------------------------------------------------------
# The continuing rule, case by case
# ----------------------------------------------------------------------
def stamp(begin, end, age, values=("a",), support=("a", "beacon")):
    return StampedTuple(values, float(begin), float(end), float(age), support, False)


def capture(stamped, now, prev=None, metrics=None):
    return AnswerState.capture(StubQuery(stamped), now, prev, metrics)


class TestContinuingRule:
    def test_a_tuple_that_only_aged_keeps_its_begin(self):
        metrics = ServerMetrics()
        first = capture([stamp(3, 20, age=2)], 3, None, metrics)
        second = capture([stamp(5, 20, age=4)], 5, first, metrics)
        (t,) = second.tuples
        assert (t.begin, t.end, t.max_age) == (3.0, 20.0, 4.0)
        assert second.keys == first.keys
        assert second.since(first) == ((), ())
        assert metrics.tuples_carried == 1
        third = capture([stamp(9, 20, age=8)], 9, second, metrics)
        assert third.keys == first.keys and metrics.tuples_carried == 2

    def test_a_new_end_is_a_new_tuple(self):
        first = capture([stamp(3, 20, age=2)], 3)
        second = capture([stamp(5, 18, age=4)], 5, first)
        added, removed = second.since(first)
        assert [t.key() for t in added] == [(("a",), 5.0, 18.0, ("a", "beacon"))]
        assert removed == ((("a",), 3.0, 20.0, ("a", "beacon")),)

    def test_a_support_object_heard_from_since_is_a_new_tuple(self):
        # A re-send would tell the client a smaller age than the copy it
        # holds has grown to: the carry would not be invisible.
        first = capture([stamp(3, 20, age=2)], 3)
        second = capture([stamp(5, 20, age=1)], 5, first)
        assert [t.begin for t in second.tuples] == [5.0]
        assert not second.keys & first.keys

    def test_an_all_local_instantiation_is_a_new_tuple(self):
        # Its age is 0 at every refresh; a held copy would have aged.
        metrics = ServerMetrics()
        first = capture([stamp(3, 20, age=0)], 3, None, metrics)
        second = capture([stamp(5, 20, age=0)], 5, first, metrics)
        assert [t.begin for t in second.tuples] == [5.0]
        assert metrics.tuples_carried == 0

    def test_a_tuple_still_in_the_future_is_left_alone(self):
        metrics = ServerMetrics()
        first = capture([stamp(9, 20, age=2)], 3, None, metrics)
        second = capture([stamp(9, 20, age=4)], 5, first, metrics)
        assert second.keys == first.keys
        assert metrics.tuples_carried == 0
        # Once begun it continues from its own begin, not from a refresh.
        third = capture([stamp(11, 20, age=10)], 11, second, metrics)
        assert [t.begin for t in third.tuples] == [9.0]
        assert metrics.tuples_carried == 1

    def test_a_future_tuple_that_now_holds_already_is_a_new_tuple(self):
        first = capture([stamp(9, 20, age=2)], 3)
        second = capture([stamp(5, 20, age=4)], 5, first)
        assert [t.begin for t in second.tuples] == [5.0]

    def test_a_begun_tuple_that_now_begins_later_is_a_new_tuple(self):
        first = capture([stamp(3, 20, age=2)], 3)
        second = capture([stamp(9, 20, age=4)], 5, first)
        assert [t.begin for t in second.tuples] == [9.0]

    def test_a_key_that_outlived_an_age_jump_is_not_carried(self):
        # Heard from while still in the future: same key, so nothing was
        # re-sent and clients may hold the older, larger age.  The first
        # refresh after it begins must re-send it, as re-clipping did.
        first = capture([stamp(6, 20, age=5)], 3)
        second = capture([stamp(6, 20, age=0)], 5, first)
        assert second.keys == first.keys and second.unsettled == first.keys
        third = capture([stamp(6, 20, age=1)], 6, second)  # begin == now
        assert third.keys == first.keys and third.unsettled == first.keys
        fourth = capture([stamp(8, 20, age=3)], 8, third)
        assert [t.begin for t in fourth.tuples] == [8.0]
        assert not fourth.unsettled
        fifth = capture([stamp(9, 20, age=4)], 9, fourth)
        assert [t.begin for t in fifth.tuples] == [8.0]  # settled again

    def test_without_a_previous_state_every_begin_is_todays(self):
        state = capture([stamp(5, 20, age=4)], 5)
        assert [t.begin for t in state.tuples] == [5.0]
