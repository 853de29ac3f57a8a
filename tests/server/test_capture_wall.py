"""Differential wall for answer capture: carried by construction ≡ compared.

``AnswerState.capture`` starts from the previous state and re-stamps
only the rows a refresh may have changed (DESIGN.md §9).  The reference
here is the capture it replaced — stamp the whole answer, key every
previous tuple by ``(values, support, end)`` and compare every tuple —
kept test-local with the diff it was paired with.  Real
``ContinuousQuery`` refreshes over random fleets drive both, and after
every capture the wall holds, state for state:

* key → ``max_age``, the ``unsettled`` set and the carried count;
* ``since()`` added (with ages) and removed, as sets, against the state
  before and against an older base a lagging session would ask for;
* ``diffs_computed``.

The streams mix real velocity changes, heartbeats the validity gate
skips (they still reset their object's age), tracking an untracked car
(its age leaves 0), inserts (a full-evaluation fallback), rebuilds (a
new query, no previous state) and plain ticks, under which tuples
expire and future tuples begin.  Depots are untracked (age 0), and the
assignment query's support holds values that are no object (age inf).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MostDatabase, ObjectClass
from repro.core.queries import ContinuousQuery
from repro.ftl import parse_query
from repro.geometry import Point
from repro.server.metrics import ServerMetrics
from repro.server.protocol import WireTuple
from repro.server.registry import AnswerState
from repro.spatial import Polygon

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.ftl.analysis.diagnostics.FtlLintWarning"
)

HORIZON = 40
SPEEDS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
TEXTS = (
    "RETRIEVE o FROM cars o WHERE INSIDE(o, P)",
    "RETRIEVE o FROM cars o WHERE INSIDE(o, P) AND o.x_position <= 4",
    "RETRIEVE o FROM cars o WHERE INSIDE(o, P) UNTIL INSIDE(o, Q)",
    "RETRIEVE o FROM cars o WHERE EVENTUALLY WITHIN 5 INSIDE(o, Q)",
    "RETRIEVE v FROM cars v, depots d WHERE DIST(v, d) <= 9",
    "RETRIEVE a, b FROM cars a, cars b WHERE DIST(a, b) <= 6",
    "RETRIEVE o FROM cars o WHERE [x := o.x_position.function]"
    " EVENTUALLY o.x_position.function >= 2 * x",
)


# ----------------------------------------------------------------------
# The reference: the compare-everything capture and its diff
# ----------------------------------------------------------------------
class RefState:
    """The answer state as the whole-answer capture built it."""

    def __init__(self, computed_at, tuples, unsettled, counts):
        self.computed_at = computed_at
        self.tuples = tuples
        self.by_key = {t.key(): t for t in tuples}
        self.keys = frozenset(self.by_key)
        self.unsettled = unsettled
        self._counts = counts
        self._since = {}

    def since(self, prev):
        delta = self._since.get(id(prev))
        if delta is None:
            added = sorted(
                (t for k, t in self.by_key.items() if k not in prev.keys),
                key=lambda t: (t.begin, t.end, str(t.values)),
            )
            removed = sorted(
                (k for k in prev.by_key if k not in self.keys),
                key=lambda k: (k[1], k[2], str(k[0])),
            )
            delta = self._since[id(prev)] = (tuple(added), tuple(removed))
            self._counts["diffs"] += 1
        return delta


def reference_capture(cq, now, prev, counts):
    previous = {}
    stale_copies = frozenset()
    elapsed = 0
    if prev is not None:
        previous = {(t.values, t.support, t.end): t for t in prev.tuples}
        stale_copies = prev.unsettled
        elapsed = now - prev.computed_at
    tuples, unsettled = [], set()
    for s in cq.stamped_tuples():
        begin = s.begin
        old = previous.get((s.values, s.support, s.end))
        if old is not None:
            if s.max_age == old.max_age + elapsed and old.key() not in stale_copies:
                if old.begin <= now and begin <= now:
                    begin = old.begin
                    counts["carried"] += 1
            elif old.begin == begin:
                unsettled.add(old.key())
        tuples.append(WireTuple(s.values, begin, s.end, s.support, s.max_age))
    return RefState(now, tuple(tuples), frozenset(unsettled), counts)


# ----------------------------------------------------------------------
# Worlds and streams
# ----------------------------------------------------------------------
def build_db(cars, depots, tracked):
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.create_class(ObjectClass("depots", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(-6, -6, 6, 6))
    db.define_region("Q", Polygon.rectangle(2, 2, 14, 14))
    for i, (x, y, vx, vy) in enumerate(cars):
        db.add_moving_object("cars", f"c{i}", Point(x, y), Point(vx, vy))
        if tracked[i]:
            db.track(f"c{i}")
    for j, (x, y) in enumerate(depots):
        db.add_moving_object("depots", f"d{j}", Point(x, y))
    return db


def heartbeat(db, oid):
    """Re-announce an unchanged motion law, re-anchored at now."""
    obj = db.get(oid)
    now = db.clock.now
    axes = [obj.dynamic_attribute(n) for n in obj.object_class.position_attributes]
    db.update_motion(
        oid,
        Point(*(a.function.value(1.0) for a in axes)),
        position=Point(*(a.value_at(now) for a in axes)),
    )


COORD = st.integers(-12, 12).map(float)
SPEED = st.sampled_from(SPEEDS)
CARS = st.lists(st.tuples(COORD, COORD, SPEED, SPEED), min_size=1, max_size=6)
DEPOTS = st.lists(st.tuples(COORD, COORD), min_size=1, max_size=2)
CHANGE = st.tuples(st.just("change"), st.integers(0, 9), SPEED, SPEED)
HEARTBEAT = st.tuples(st.just("heartbeat"), st.integers(0, 9))
#: Mostly refreshes that patch; now and then a fallback or a rebuild.
STEP = st.one_of(
    st.tuples(st.just("tick"), st.integers(1, 3)),
    CHANGE,
    CHANGE,
    CHANGE,
    HEARTBEAT,
    HEARTBEAT,
    st.tuples(st.just("track"), st.integers(0, 9)),
    st.tuples(st.just("tick"), st.integers(1, 3)),
    st.sampled_from([("rebuild",), ("insert", 1.0, -1.0), ("insert", -3.0, 2.0)]),
)


class Twin:
    """One query, its real states and its reference states."""

    def __init__(self, db, text):
        self.db, self.text = db, text
        self.metrics = ServerMetrics()
        self.counts = {"carried": 0, "diffs": 0}
        self.cq = ContinuousQuery(
            db, parse_query(text), horizon=HORIZON, method="incremental"
        )
        self.real = [self.capture_real(None)]
        self.ref = [reference_capture(self.cq, db.clock.now, None, self.counts)]
        self.evaluations = self.cq.evaluations

    def capture_real(self, prev):
        return AnswerState.capture(self.cq, self.db.clock.now, prev, self.metrics)

    def rebuild(self):
        self.cq.cancel()
        self.cq = ContinuousQuery(
            self.db, parse_query(self.text), horizon=HORIZON, method="incremental"
        )
        self.evaluations = self.cq.evaluations
        self.real.append(self.capture_real(None))
        self.ref.append(
            reference_capture(self.cq, self.db.clock.now, None, self.counts)
        )
        self.check()

    def refresh(self):
        """The registry's refresh: capture only when it re-evaluated."""
        if self.db.clock.now > self.cq.expires_at:
            return
        self.cq.refresh()
        if self.cq.evaluations == self.evaluations:
            return
        self.evaluations = self.cq.evaluations
        now = self.db.clock.now
        self.real.append(self.capture_real(self.real[-1]))
        self.ref.append(reference_capture(self.cq, now, self.ref[-1], self.counts))
        self.check()

    def check(self):
        real, ref = self.real[-1], self.ref[-1]
        assert {t.key(): t.max_age for t in real.tuples} == {
            t.key(): t.max_age for t in ref.tuples
        }
        assert {k: t.max_age for k, t in real.by_key.items()} == {
            k: t.max_age for k, t in ref.by_key.items()
        }
        assert real.keys == ref.keys and len(real.by_key) == len(ref.keys)
        assert real.unsettled == ref.unsettled
        assert self.metrics.tuples_carried == self.counts["carried"]
        # The diff against the state before (emitted by the capture) and
        # against an older base (a lagging session's walk).
        for back in (2, 4):
            if len(self.real) >= back:
                got = real.since(self.real[-back])
                want = ref.since(self.ref[-back])
                assert {t.key(): t.max_age for t in got[0]} == {
                    t.key(): t.max_age for t in want[0]
                }
                assert len(got[0]) == len(want[0])
                assert set(got[1]) == set(want[1]) and len(got[1]) == len(want[1])
                assert real.since(self.real[-back]) is got  # memoised
        assert self.metrics.diffs_computed == self.counts["diffs"]


def apply(db, step, n_inserted):
    what = step[0]
    ids = db.object_ids_of("cars")
    if what == "tick":
        for _ in range(step[1]):
            db.clock.tick()
    elif what == "change":
        db.update_motion(ids[step[1] % len(ids)], Point(step[2], step[3]))
    elif what == "heartbeat":
        heartbeat(db, ids[step[1] % len(ids)])
    elif what == "track":
        db.track(ids[step[1] % len(ids)])
    elif what == "insert":
        db.add_moving_object(
            "cars", f"n{n_inserted}", Point(step[1], step[2]), Point(1.0, 0.0)
        )


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    cars=CARS,
    depots=DEPOTS,
    tracked=st.lists(st.booleans(), min_size=6, max_size=6),
    stream=st.lists(STEP, min_size=8, max_size=30),
    text=st.sampled_from(TEXTS),
)
def test_capture_matches_the_compare_everything_capture(
    cars, depots, tracked, stream, text
):
    run(cars, depots, tracked, stream, text)


def run(cars, depots, tracked, stream, text):
    db = build_db(cars, depots, tracked)
    twin = Twin(db, text)
    twin.check()
    inserted = 0
    for step in stream:
        if step[0] == "rebuild":
            twin.rebuild()
            continue
        apply(db, step, inserted)
        inserted += step[0] == "insert"
        twin.refresh()
    return twin


STILL_IN_P = (0.0, 0.0, 0.0, 0.0)
INTO_P = (20.0, 0.0, -1.0, 0.0)  # inside P over ticks 14..26
NORTHWARD = (-3.0, -20.0, 0.0, 1.0)


def test_a_heartbeat_the_gate_skipped_still_resets_ages():
    twin = run(
        [STILL_IN_P, INTO_P, NORTHWARD], [(0.0, 0.0)], [True] * 3,
        [("tick", 2), ("heartbeat", 0), ("tick", 1), ("change", 1, -2.0, 0.0)],
        TEXTS[0],
    )
    assert twin.cq.horizon_skipped == 1
    (c0,) = [t for t in twin.real[-1].tuples if t.values == ("c0",)]
    assert c0.max_age == 1  # heard at 2, not at 0


def test_a_future_tuple_heard_from_stays_unsettled():
    twin = run(
        [STILL_IN_P, INTO_P, NORTHWARD], [(0.0, 0.0)], [True] * 3,
        [
            ("tick", 2), ("heartbeat", 1), ("tick", 1), ("change", 0, 0.5, 0.0),
            ("tick", 1), ("change", 0, 0.0, 0.0),
            ("tick", 1), ("change", 0, 0.5, 0.0),
        ],
        TEXTS[0],
    )
    assert twin.cq.horizon_skipped == 1
    assert [s.unsettled for s in twin.real[-3:]] == [
        {(("c1",), 14, 26, ("c1",))}
    ] * 3


def test_tracking_a_car_moves_the_age_of_its_pairs():
    twin = run(
        [(0.0, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0), (4.0, 0.0, 0.0, 0.0)],
        [(0.0, 0.0)], [True, False, True],
        [("tick", 3), ("change", 0, 0.0, 0.5), ("tick", 2), ("track", 1),
         ("tick", 1), ("change", 2, 0.0, 0.5)],
        TEXTS[5],
    )
    assert len(twin.real) == 3
    ages = {t.support: t.max_age for t in twin.real[-1].tuples}
    assert ages[("c0", "c1")] == 6  # c1's clock runs from its insertion


# ----------------------------------------------------------------------
# Proportional to the change, as a count
# ----------------------------------------------------------------------
def _restamped_by(twin, step):
    before = twin.metrics.tuples_restamped
    step()
    twin.refresh()
    return twin.metrics.tuples_restamped - before


def _due(twin, car):
    """The rows the spec lets a capture stamp: those naming ``car``,
    and those with a tuple that ended or began since the last state."""
    t0, now = twin.ref[-2].computed_at, twin.ref[-1].computed_at
    due = {
        t.support
        for t in twin.ref[-2].tuples
        if t.end < now or t0 < t.begin <= now
    }
    return sum(
        1 for t in twin.ref[-1].tuples if car in t.support or t.support in due
    )


def test_one_dirty_object_restamps_only_its_rows():
    """An answer of 1 200 tuples; one car changes course.  The capture
    stamps the rows naming that car and the rows with a tuple that ended
    or began since — nothing else — and still matches the reference."""
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.create_class(ObjectClass("depots", spatial_dimensions=2))
    for i in range(300):
        db.add_moving_object("cars", f"c{i}", Point(float(i % 7), 0.0))
        db.track(f"c{i}")
    for j in range(3):
        db.add_moving_object("depots", f"d{j}", Point(float(j), 1.0))
    # A fourth depot drives off: its rows end within a few ticks.
    db.add_moving_object("depots", "gone", Point(0.0, 2.0), Point(0.0, 4.0))
    twin = Twin(db, "RETRIEVE v FROM cars v, depots d WHERE DIST(v, d) <= 10")
    assert len(twin.real[-1].tuples) >= 1_000
    db.clock.tick()
    restamped = _restamped_by(twin, lambda: db.update_motion("c0", Point(0.5, 0.0)))
    assert 0 < restamped == _due(twin, "c0") <= 8
    for _ in range(4):
        db.clock.tick()
    gone = {t.key() for t in twin.real[-1].tuples if "gone" in t.support}
    assert len(gone) >= 250
    restamped = _restamped_by(twin, lambda: db.update_motion("c1", Point(0.5, 0.0)))
    assert 0 < restamped == _due(twin, "c1") <= 8
    assert gone <= set(twin.real[-1].since(twin.real[-2])[1])
    assert twin.metrics.to_dict()["tuples_restamped"] == twin.metrics.tuples_restamped
