"""Property tests for the :class:`IntervalSet` algebra invariants.

The appendix's chain construction relies on ``R_g`` interval sets being
*normalised*: sorted, pairwise disjoint, and with no two intervals
mergeable in the set's time domain ("a non-zero gap separating intervals").
Every operation must preserve that invariant, normalisation must be
idempotent, and complement must round-trip within its bounds.  The
incremental maintenance path patches these sets in and out of cached
relations, so the invariants now carry correctness weight beyond display.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TemporalError
from repro.temporal import DENSE, DISCRETE, Interval, IntervalSet

domains = st.sampled_from((DISCRETE, DENSE))

# Raw (possibly overlapping, unsorted) interval material.
raw_interval = st.tuples(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=0, max_value=15),
).map(lambda p: Interval(p[0], p[0] + p[1]))

raw_intervals = st.lists(raw_interval, max_size=8)


def make_set(intervals, domain) -> IntervalSet:
    return IntervalSet(intervals, domain)


def assert_normalised(s: IntervalSet) -> None:
    """The full invariant: sorted, disjoint, non-mergeable neighbours."""
    ivs = s.intervals
    for iv in ivs:
        assert iv.start <= iv.end
    for a, b in zip(ivs, ivs[1:]):
        assert a.end < b.start, f"{a} and {b} out of order or overlapping"
        assert not a.mergeable(b, s.domain), (
            f"{a} and {b} are adjacent in {s.domain.name} — normalisation "
            "must have coalesced them"
        )


# ---------------------------------------------------------------------------
# Normalisation
# ---------------------------------------------------------------------------


@given(raw_intervals, domains)
def test_construction_normalises(intervals, domain):
    assert_normalised(make_set(intervals, domain))


@given(raw_intervals, domains)
def test_normalisation_idempotent(intervals, domain):
    once = make_set(intervals, domain)
    twice = IntervalSet(once.intervals, domain)
    assert once == twice


@given(raw_intervals, domains)
def test_normalisation_preserves_membership(intervals, domain):
    s = make_set(intervals, domain)
    for t in range(-35, 50):
        raw = any(iv.start <= t <= iv.end for iv in intervals)
        assert s.contains(t) == raw


# ---------------------------------------------------------------------------
# Binary algebra keeps the invariant and matches pointwise semantics
# ---------------------------------------------------------------------------


@given(raw_intervals, raw_intervals, domains)
def test_union_invariant_and_semantics(xs, ys, domain):
    a, b = make_set(xs, domain), make_set(ys, domain)
    u = a.union(b)
    assert_normalised(u)
    for t in range(-35, 50):
        assert u.contains(t) == (a.contains(t) or b.contains(t))


@given(raw_intervals, raw_intervals, domains)
def test_intersection_invariant_and_semantics(xs, ys, domain):
    a, b = make_set(xs, domain), make_set(ys, domain)
    i = a.intersection(b)
    assert_normalised(i)
    for t in range(-35, 50):
        assert i.contains(t) == (a.contains(t) and b.contains(t))


@given(raw_intervals, raw_intervals)
def test_discrete_difference_invariant_and_semantics(xs, ys):
    a, b = make_set(xs, DISCRETE), make_set(ys, DISCRETE)
    d = a.difference(b)
    assert_normalised(d)
    for t in range(-35, 50):
        assert d.contains(t) == (a.contains(t) and not b.contains(t))


@given(raw_intervals, raw_intervals, domains)
def test_union_commutative_associative_material(xs, ys, domain):
    a, b = make_set(xs, domain), make_set(ys, domain)
    assert a.union(b) == b.union(a)
    assert a.union(a) == a  # idempotent
    assert a.intersection(a) == a


# ---------------------------------------------------------------------------
# Complement round-trips within its bounding interval
# ---------------------------------------------------------------------------

bounding = st.tuples(
    st.integers(min_value=-30, max_value=0),
    st.integers(min_value=1, max_value=40),
).map(lambda p: Interval(p[0], p[0] + p[1]))


@given(raw_intervals, bounding, domains)
def test_complement_invariant(intervals, bound, domain):
    s = make_set(intervals, domain)
    c = s.complement(bound)
    assert_normalised(c)
    # Nothing outside the bound.
    for iv in c.intervals:
        assert bound.start <= iv.start and iv.end <= bound.end


@given(raw_intervals, bounding)
def test_discrete_complement_partitions_the_bound(intervals, bound):
    s = make_set(intervals, DISCRETE)
    c = s.complement(bound)
    for t in range(int(bound.start), int(bound.end) + 1):
        assert c.contains(t) == (not s.contains(t))
    assert s.intersection(c).is_empty


@given(raw_intervals, bounding)
def test_discrete_complement_round_trip(intervals, bound):
    clipped = make_set(intervals, DISCRETE).clip(bound.start, bound.end)
    back = clipped.complement(bound).complement(bound)
    assert back == clipped


# ---------------------------------------------------------------------------
# Clip / shift / clamp keep the invariant
# ---------------------------------------------------------------------------


@given(raw_intervals, bounding, domains)
def test_clip_invariant(intervals, bound, domain):
    s = make_set(intervals, domain).clip(bound.start, bound.end)
    assert_normalised(s)
    if not s.is_empty:
        assert s.earliest >= bound.start and s.latest <= bound.end


def intersection_clip(s: IntervalSet, lo: float, hi: float) -> IntervalSet:
    """The general form ``clip`` replaced: intersect with ``[lo, hi]``."""
    return s.intersection(IntervalSet((Interval(lo, hi),), s.domain))


def exact(s: IntervalSet):
    return s.domain, [
        (type(iv.start), iv.start, type(iv.end), iv.end) for iv in s.intervals
    ]


#: Endpoints of either type, bounded or not.
endpoint = st.one_of(
    st.integers(min_value=-35, max_value=45),
    st.integers(min_value=-35, max_value=45).map(float),
    st.sampled_from((-math.inf, math.inf, 2.5)),
)


@given(raw_intervals, st.lists(endpoint, min_size=2, max_size=2), domains, st.booleans())
def test_clip_is_the_intersection_with_the_bounds(intervals, bounds, domain, tail):
    """One pass equals the general intersection exactly, endpoint types
    included: empty sets, sets inside the bounds, straddling either end,
    disjoint from them, unbounded, in both domains."""
    lo, hi = sorted(bounds)
    if lo == math.inf:
        return
    material = list(intervals) + ([Interval(20, math.inf)] if tail else [])
    s = make_set(material, domain)
    clipped = s.clip(lo, hi)
    assert exact(clipped) == exact(intersection_clip(s, lo, hi))
    assert_normalised(clipped)


def test_clip_cases():
    s = IntervalSet.from_pairs([(2, 4), (6, 9), (12, math.inf)], DISCRETE)
    assert IntervalSet.empty(DISCRETE).clip(0, 5).is_empty
    assert s.clip(0, math.inf) is s  # already inside: the set itself
    assert s.clip(2, math.inf) is s
    assert s.clip(3, 7).intervals == (Interval(3, 4), Interval(6, 7))
    assert s.clip(5, 5).is_empty  # in a gap
    assert s.clip(-9, -1).is_empty and s.clip(10, 11).is_empty  # disjoint
    assert s.clip(8, 100).intervals == (Interval(8, 9), Interval(12, 100))
    mixed = IntervalSet.from_pairs([(2.0, 4)], DENSE)
    assert exact(mixed.clip(2, 4.0)) == exact(intersection_clip(mixed, 2, 4.0))
    for lo, hi in ((5, 4), (math.nan, 3), (math.inf, math.inf)):
        with pytest.raises(TemporalError):  # the bounds' own interval error
            s.clip(lo, hi)


@given(raw_intervals, st.integers(min_value=-10, max_value=10), domains)
def test_shift_invariant_and_reversible(intervals, delta, domain):
    s = make_set(intervals, domain)
    shifted = s.shift(delta)
    assert_normalised(shifted)
    assert shifted.shift(-delta) == s
    assert shifted.total_duration == s.total_duration


@given(raw_intervals, st.integers(min_value=-30, max_value=40), domains)
def test_clamp_start_invariant(intervals, lo, domain):
    s = make_set(intervals, domain).clamp_start(lo)
    assert_normalised(s)
    if not s.is_empty:
        assert s.earliest >= lo


# ---------------------------------------------------------------------------
# Unbounded intervals (the Always/Until joins produce [t, inf) sets)
# ---------------------------------------------------------------------------


@given(raw_intervals, st.integers(min_value=-30, max_value=30), domains)
def test_unbounded_tail_normalises(intervals, tail_start, domain):
    s = make_set(
        list(intervals) + [Interval(tail_start, math.inf)], domain
    )
    assert_normalised(s)
    assert s.latest == math.inf
    assert s.contains(10**9)
