"""Answer stamping is scalar work per row (``repro.core.queries._stamp_rows``).

The stamper reads each object's age once per call and clips every
interval by its endpoints instead of building an ``IntervalSet`` per
row.  The wall here holds it, tuple for tuple and type for type, to a
test-local copy of the per-row set-building stamper it replaced, over
untracked and unknown objects, staleness bounds with degraded rows,
intervals straddling, touching and missing the clip window, empty
relations and one-point windows.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MostDatabase, ObjectClass
from repro.core.queries import (
    ContinuousQuery,
    StampedTuple,
    _object_age,
    _stamp_rows,
)
from repro.errors import TemporalError
from repro.ftl import parse_query
from repro.ftl.relations import FtlRelation
from repro.geometry import Point
from repro.spatial import Polygon
from repro.temporal import DENSE, DISCRETE, Interval, IntervalSet

PROPERTY = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_stamp_rows(db, relation, positions, bound, lo=None, hi=None):
    """The per-row stamper the scalar one replaced: one age lookup per
    value per row and one clipped ``IntervalSet`` per row."""
    out = []
    for inst, iset in relation.rows():
        age = max((_object_age(db, v) for v in inst), default=0.0)
        degraded = bound is not None and age > bound
        values = tuple(inst[p] for p in positions)
        if lo is not None and hi is not None:
            iset = iset.clip(lo, hi)
        for iv in iset:
            out.append(
                StampedTuple(values, iv.start, iv.end, age, inst, degraded)
            )
    return out


def typed(stamped):
    """Each tuple's fields with the type of every number beside it."""
    return [
        (
            t.values,
            (type(t.begin), t.begin),
            (type(t.end), t.end),
            (type(t.max_age), t.max_age),
            t.support,
            t.degraded,
        )
        for t in stamped
    ]


def world():
    """Cars heard from at different ticks, one never tracked."""
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    for i in range(4):
        db.add_moving_object(
            "cars", f"c{i}", Point(float(i), 0.0), Point(1, 0)
        )
    db.track("c0")
    db.track("c1")
    db.track("c2")
    for _ in range(3):
        db.clock.tick()
    db.update_motion("c1", Point(2, 0))
    db.clock.tick()
    db.update_motion("c2", Point(-1, 0))
    for _ in range(2):
        db.clock.tick()
    return db


#: ``c3`` is untracked (age 0) and ``ghost`` unknown (age inf).
IDS = ("c0", "c1", "c2", "c3", "ghost")

endpoint = st.one_of(
    st.integers(-4, 14),
    st.integers(-8, 28).map(lambda k: k / 2),
)


@st.composite
def interval_sets(draw):
    domain = draw(st.sampled_from((DISCRETE, DENSE)))
    pairs = draw(st.lists(st.tuples(endpoint, endpoint), max_size=4))
    ivs = [Interval(min(a, b), max(a, b)) for a, b in pairs]
    if draw(st.booleans()):
        ivs.append(Interval(draw(endpoint), math.inf))
    return IntervalSet(ivs, domain)


@st.composite
def relations(draw):
    arity = draw(st.integers(1, 2))
    relation = FtlRelation(tuple("ab"[:arity]))
    for _ in range(draw(st.integers(0, 6))):
        inst = tuple(draw(st.sampled_from(IDS)) for _ in range(arity))
        relation.set(inst, draw(interval_sets()))
    return relation


windows = st.one_of(
    st.just((None, None)),
    st.tuples(endpoint, endpoint).map(lambda p: (min(p), max(p))),
    endpoint.map(lambda t: (t, t)),
    st.tuples(endpoint, st.just(math.inf)),
)


@PROPERTY
@given(
    relation=relations(),
    window=windows,
    bound=st.one_of(st.none(), st.sampled_from((0, 1, 2.5, 3, 100))),
    targets=st.sampled_from(((0,), (0, 0), ())),
)
def test_scalar_stamps_equal_reference(relation, window, bound, targets):
    db = world()
    lo, hi = window
    positions = [p for p in targets if p < len(relation.variables)]
    got = _stamp_rows(db, relation, positions, bound, lo, hi)
    want = reference_stamp_rows(db, relation, positions, bound, lo, hi)
    assert typed(got) == typed(want)


@pytest.mark.parametrize(
    "lo, hi",
    [(3, 7), (5, 5), (0, 2), (2, 3), (7, 12), (2.5, 6.5), (8, 8), (12, 20)],
    ids=str,
)
def test_clip_edges_match_reference(lo, hi):
    """Intervals ``[2, 3]``, ``[5, 5]`` and ``[7, 9.5]``: windows
    straddling, touching at one end, holding one point, and missing
    every interval."""
    db = world()
    relation = FtlRelation(("a",))
    relation.set(
        ("c0",),
        IntervalSet(
            [Interval(2, 3), Interval(5, 5), Interval(7, 9.5)], DISCRETE
        ),
    )
    relation.set(("c3",), IntervalSet([Interval(2.0, 8.0)], DENSE))
    got = _stamp_rows(db, relation, [0], 2, lo, hi)
    assert typed(got) == typed(
        reference_stamp_rows(db, relation, [0], 2, lo, hi)
    )


def test_ages_and_degradation():
    """Untracked objects are age 0, unknown ids age inf, and a row is
    degraded by its oldest object."""
    db = world()
    relation = FtlRelation(("a", "b"))
    span = IntervalSet([Interval(6, 8)], DISCRETE)
    for inst in (("c3", "c3"), ("c2", "c3"), ("c1", "c2"), ("c0", "ghost")):
        relation.set(inst, span)
    got = {
        t.support: (t.max_age, t.degraded)
        for t in _stamp_rows(db, relation, [0], 2)
    }
    assert got == {
        ("c3", "c3"): (0, False),
        ("c2", "c3"): (2, False),
        ("c1", "c2"): (3, True),
        ("c0", "ghost"): (math.inf, True),
    }


def test_empty_relation_stamps_nothing():
    db = world()
    relation = FtlRelation(("a",))
    assert _stamp_rows(db, relation, [0], None, 5, 1) == []
    assert reference_stamp_rows(db, relation, [0], None, 5, 1) == []


def test_reversed_window_raises_like_clip():
    db = world()
    relation = FtlRelation(("a",))
    relation.set(("c0",), IntervalSet([Interval(1, 4)], DISCRETE))
    with pytest.raises(TemporalError):
        reference_stamp_rows(db, relation, [0], None, 5, 1)
    with pytest.raises(TemporalError):
        _stamp_rows(db, relation, [0], None, 5, 1)


def test_continuous_query_stamps_equal_reference():
    """A live query's stamped tuples after a few refreshes: the same as
    the reference stamper's over its maintained relation."""
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(-5, -5, 5, 5))
    for i in range(8):
        db.add_moving_object(
            "cars", f"c{i}", Point(i - 4, 2 - i), Point(1, 1)
        )
        db.track(f"c{i}")
    cq = ContinuousQuery(
        db,
        parse_query("RETRIEVE o FROM cars o WHERE INSIDE(o, P)"),
        horizon=12,
        method="incremental",
        staleness_bound=2,
    )
    for step in range(4):
        db.clock.tick()
        db.update_motion(f"c{step}", Point(-1, 0.5))
        got = cq.stamped_tuples()
        want = reference_stamp_rows(
            db,
            cq._rf,
            cq._target_positions,
            cq.staleness_bound,
            cq._last_refresh,
            cq.expires_at,
        )
        assert got and typed(got) == typed(want)
    assert any(t.degraded for t in got)
