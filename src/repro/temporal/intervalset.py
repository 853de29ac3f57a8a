"""Normalised sets of time intervals.

The appendix requires that, per variable instantiation, the satisfaction
intervals stored in ``R_g`` be non-overlapping **and non-consecutive**:
"there is a non-zero gap separating intervals in tuples that give identical
values to corresponding variables".  :class:`IntervalSet` maintains exactly
that invariant — its intervals are sorted, pairwise disjoint, and no two of
them are mergeable in the set's time domain — so the algorithm's chain
construction can rely on it.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from repro.errors import TemporalError
from repro.temporal.domain import DENSE, TimeDomain
from repro.temporal.interval import Interval


class IntervalSet:
    """An immutable, normalised union of closed time intervals.

    Construction coalesces overlapping / adjacent intervals according to the
    given :class:`~repro.temporal.TimeDomain`.  All set operations return new
    instances in the same domain.
    """

    __slots__ = ("_intervals", "_domain")

    def __init__(
        self,
        intervals: Iterable[Interval] = (),
        domain: TimeDomain = DENSE,
    ) -> None:
        self._domain = domain
        self._intervals: tuple[Interval, ...] = self._normalise(intervals, domain)

    @staticmethod
    def _normalise(
        intervals: Iterable[Interval], domain: TimeDomain
    ) -> tuple[Interval, ...]:
        items = sorted(intervals)
        merged: list[Interval] = []
        for iv in items:
            if merged and merged[-1].mergeable(iv, domain):
                last = merged.pop()
                merged.append(last.hull(iv))
            else:
                merged.append(iv)
        return tuple(merged)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, domain: TimeDomain = DENSE) -> "IntervalSet":
        """The empty set of time points."""
        return cls((), domain)

    @classmethod
    def point(cls, t: float, domain: TimeDomain = DENSE) -> "IntervalSet":
        """The singleton set ``{t}``."""
        return cls((Interval(t, t),), domain)

    @classmethod
    def span(
        cls, start: float, end: float, domain: TimeDomain = DENSE
    ) -> "IntervalSet":
        """The single interval ``[start, end]``."""
        return cls((Interval(start, end),), domain)

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[tuple[float, float]],
        domain: TimeDomain = DENSE,
    ) -> "IntervalSet":
        """Build from ``(start, end)`` pairs."""
        return cls((Interval(s, e) for s, e in pairs), domain)

    @classmethod
    def from_ticks(
        cls, ticks: Iterable[int], domain: TimeDomain
    ) -> "IntervalSet":
        """Build from individual integer ticks (discrete domains)."""
        return cls((Interval(t, t) for t in ticks), domain)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def domain(self) -> TimeDomain:
        """The time domain governing adjacency."""
        return self._domain

    @property
    def intervals(self) -> tuple[Interval, ...]:
        """The normalised intervals in increasing order."""
        return self._intervals

    @property
    def is_empty(self) -> bool:
        """Whether the set contains no time point."""
        return not self._intervals

    @property
    def earliest(self) -> float:
        """Smallest time point in the set."""
        if self.is_empty:
            raise TemporalError("empty interval set has no earliest point")
        return self._intervals[0].start

    @property
    def latest(self) -> float:
        """Largest time point in the set (may be ``inf``)."""
        if self.is_empty:
            raise TemporalError("empty interval set has no latest point")
        return self._intervals[-1].end

    @property
    def total_duration(self) -> float:
        """Sum of interval lengths."""
        return sum(iv.duration for iv in self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __bool__(self) -> bool:
        return not self.is_empty

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return (
            self._domain == other._domain
            and self._intervals == other._intervals
        )

    def __hash__(self) -> int:
        return hash((self._domain, self._intervals))

    def __repr__(self) -> str:
        body = ", ".join(str(iv) for iv in self._intervals)
        return f"IntervalSet({{{body}}}, {self._domain.name})"

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------
    def contains(self, t: float) -> bool:
        """Whether the time point ``t`` belongs to the set (binary search)."""
        lo, hi = 0, len(self._intervals) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            iv = self._intervals[mid]
            if t < iv.start:
                hi = mid - 1
            elif t > iv.end:
                lo = mid + 1
            else:
                return True
        return False

    def interval_containing(self, t: float) -> Interval | None:
        """The unique interval containing ``t``, or ``None``."""
        lo, hi = 0, len(self._intervals) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            iv = self._intervals[mid]
            if t < iv.start:
                hi = mid - 1
            elif t > iv.end:
                lo = mid + 1
            else:
                return iv
        return None

    def first_point_at_or_after(self, t: float) -> float | None:
        """Earliest point of the set that is ``>= t`` (``None`` if none)."""
        for iv in self._intervals:
            if iv.end >= t:
                return max(iv.start, t)
        return None

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    def _check_domain(self, other: "IntervalSet") -> None:
        if self._domain != other._domain:
            raise TemporalError(
                f"domain mismatch: {self._domain.name} vs {other._domain.name}"
            )

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Set union (re-normalised)."""
        self._check_domain(other)
        return IntervalSet(self._intervals + other._intervals, self._domain)

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        """Set intersection via a linear merge of the two sorted lists."""
        self._check_domain(other)
        out: list[Interval] = []
        i, j = 0, 0
        a, b = self._intervals, other._intervals
        while i < len(a) and j < len(b):
            overlap = a[i].intersection(b[j])
            if overlap is not None:
                out.append(overlap)
            if a[i].end <= b[j].end:
                i += 1
            else:
                j += 1
        return IntervalSet(out, self._domain)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Set difference ``self - other``.

        In the dense domain the result of removing a closed interval is
        half-open; we approximate by keeping closed remainders that share
        the cut endpoint, which is exact for the discrete domain and
        measure-preserving for the dense one.  Discrete cuts step a full
        tick past the removed interval.
        """
        self._check_domain(other)
        step = self._domain.gap
        out: list[Interval] = []
        for iv in self._intervals:
            pieces = [iv]
            for cut in other._intervals:
                if cut.start > iv.end:
                    break
                next_pieces: list[Interval] = []
                for piece in pieces:
                    if not piece.overlaps(cut):
                        next_pieces.append(piece)
                        continue
                    if cut.start - step >= piece.start:
                        next_pieces.append(
                            Interval(piece.start, cut.start - step)
                        )
                    if cut.end + step <= piece.end and cut.end != math.inf:
                        next_pieces.append(Interval(cut.end + step, piece.end))
                pieces = next_pieces
            out.extend(pieces)
        return IntervalSet(out, self._domain)

    def complement(self, within: Interval) -> "IntervalSet":
        """Complement relative to the bounding interval ``within``."""
        return IntervalSet((within,), self._domain).difference(self)

    def clip(self, lo: float, hi: float) -> "IntervalSet":
        """Intersection with the single interval ``[lo, hi]``.

        One pass over the intervals: the set itself when it already lies
        inside, otherwise each overlapping interval cut to the bounds.
        A cut subsequence of a normalised set stays normalised (cutting
        only widens the gaps), so nothing is re-normalised.
        """
        if not lo <= hi or lo == math.inf:
            Interval(lo, hi)  # raises the interval's own error
        ivs = self._intervals
        if not ivs or (lo <= ivs[0].start and ivs[-1].end <= hi):
            return self
        out: list[Interval] = []
        for iv in ivs:
            if iv.end < lo:
                continue
            if iv.start > hi:
                break
            if lo <= iv.start and iv.end <= hi:
                out.append(iv)
            else:
                out.append(Interval(max(iv.start, lo), min(iv.end, hi)))
        clipped = IntervalSet.__new__(IntervalSet)
        clipped._domain = self._domain
        clipped._intervals = tuple(out)
        return clipped

    def shift(self, delta: float) -> "IntervalSet":
        """Translate every interval by ``delta``."""
        return IntervalSet(
            (iv.shift(delta) for iv in self._intervals), self._domain
        )

    def clamp_start(self, lo: float) -> "IntervalSet":
        """Drop everything before ``lo`` (keep partial overlaps)."""
        out = []
        for iv in self._intervals:
            if iv.end < lo:
                continue
            out.append(Interval(max(iv.start, lo), iv.end))
        return IntervalSet(out, self._domain)

    def covers(self, probe: Interval) -> bool:
        """Whether a single stored interval contains ``probe`` entirely."""
        for iv in self._intervals:
            if iv.contains_interval(probe):
                return True
            if iv.start > probe.start:
                break
        return False

    # ------------------------------------------------------------------
    # Discrete helpers (testing and the naive FTL evaluator)
    # ------------------------------------------------------------------
    def ticks(self, horizon: int | None = None) -> list[int]:
        """All integer ticks in the set, optionally clipped to
        ``[0, horizon]``.  Only valid when every interval is bounded or a
        horizon is supplied."""
        out: list[int] = []
        for iv in self._intervals:
            end = iv.end
            if end == math.inf:
                if horizon is None:
                    raise TemporalError(
                        "cannot enumerate an unbounded interval set"
                    )
                end = horizon
            lo = math.ceil(iv.start)
            hi = math.floor(min(end, horizon) if horizon is not None else end)
            out.extend(range(lo, hi + 1))
        return out

    def discretized(self) -> "IntervalSet":
        """Project a dense satisfaction set onto integer clock ticks.

        The kinetic solvers work in continuous time but the paper's
        database history has one state per tick (section 2.2): tick ``t``
        satisfies iff it falls inside some dense interval.  Each interval
        ``[s, e]`` becomes ``[ceil(s), floor(e)]`` (dropped when empty).
        """
        from repro.temporal.domain import DISCRETE

        out = []
        for iv in self._intervals:
            lo = math.ceil(iv.start)
            hi = iv.end if iv.end == math.inf else math.floor(iv.end)
            if lo <= hi:
                out.append(Interval(lo, hi))
        return IntervalSet(out, DISCRETE)

    @classmethod
    def from_boolean_samples(
        cls,
        samples: Sequence[bool],
        domain: TimeDomain,
        start: int = 0,
    ) -> "IntervalSet":
        """Build from a dense boolean vector over consecutive ticks.

        Used by the naive FTL reference evaluator: ``samples[i]`` says
        whether the predicate holds at tick ``start + i``.
        """
        out: list[Interval] = []
        run_start: int | None = None
        for offset, flag in enumerate(samples):
            t = start + offset
            if flag and run_start is None:
                run_start = t
            elif not flag and run_start is not None:
                out.append(Interval(run_start, t - 1))
                run_start = None
        if run_start is not None:
            out.append(Interval(run_start, start + len(samples) - 1))
        return cls(out, domain)
