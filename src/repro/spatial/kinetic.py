"""Kinetic predicates: *when* does a spatial relation hold?

This module is the base case of the paper's appendix algorithm: "we assume
that there is a routine, which for each possible relevant instantiation of
values to the free variables in g, gives us the intervals during which the
relation R is satisfied.  Clearly, this algorithm has to use the initial
positions and functions according to which the dynamic variables change."

Every solver returns a dense-domain
:class:`~repro.temporal.IntervalSet` of satisfaction times inside an
evaluation window:

* **Analytic path** — when all participating motions are piecewise linear
  (the paper's motion-vector case) the answers are exact: distance
  predicates reduce to quadratic inequalities per linear leg, polygon
  containment to edge-crossing events.
* **Numeric path** — for other motions (section 4: "the ideas can be
  extended to nonlinear functions") the solvers isolate boundary crossings
  by dense sampling plus bisection refinement.

Moving regions (the driver's 5-mile circle that "moves as a rigid body
having the motion vector of the car") are handled by the relative-motion
reduction: subtract the carrier's displacement from the point's motion and
test against the static region.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.errors import SpatialError
from repro.motion.functions import TimeFunction
from repro.motion.moving import LinearPiece, MovingPoint
from repro.spatial.geometry import Point, Vector
from repro.spatial.polygon import Polygon
from repro.spatial.predicates import enclosing_ball
from repro.spatial.regions import Ball
from repro.temporal import DENSE, Interval, IntervalSet

#: Default sample count per window for the numeric fallback.
NUMERIC_SAMPLES = 512
#: Bisection tolerance when refining a numeric boundary crossing.
NUMERIC_TOL = 1e-9


# ---------------------------------------------------------------------------
# Generic numeric machinery
# ---------------------------------------------------------------------------
def when_true(
    predicate: Callable[[float], bool],
    window: Interval,
    samples: int = NUMERIC_SAMPLES,
) -> IntervalSet:
    """Numeric satisfaction intervals of an arbitrary boolean predicate.

    Samples the window densely, then bisects every sign change to
    :data:`NUMERIC_TOL`.  Exact up to features narrower than the sample
    step; callers that can do better analytically should.
    """
    if window.is_unbounded:
        raise SpatialError("numeric solver needs a bounded window")
    if samples < 2:
        raise SpatialError("need at least two samples")
    step = window.duration / (samples - 1)
    ts = [window.start + i * step for i in range(samples)]
    flags = [predicate(t) for t in ts]

    pieces: list[Interval] = []
    run_start: float | None = ts[0] if flags[0] else None
    for i in range(1, samples):
        if flags[i] == flags[i - 1]:
            continue
        boundary = _bisect_flip(predicate, ts[i - 1], ts[i], flags[i - 1])
        if flags[i]:  # false -> true
            run_start = boundary
        else:  # true -> false
            pieces.append(Interval(run_start, boundary))
            run_start = None
    if run_start is not None:
        pieces.append(Interval(run_start, window.end))
    return IntervalSet(pieces, DENSE)


def _bisect_flip(
    predicate: Callable[[float], bool],
    lo: float,
    hi: float,
    lo_value: bool,
) -> float:
    """Locate the flip point of ``predicate`` in ``(lo, hi)``."""
    for _ in range(80):
        if hi - lo <= NUMERIC_TOL:
            break
        mid = (lo + hi) / 2
        if predicate(mid) == lo_value:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def when_below(
    g: Callable[[float], float],
    window: Interval,
    samples: int = NUMERIC_SAMPLES,
) -> IntervalSet:
    """Numeric satisfaction intervals of ``g(t) <= 0``."""
    return when_true(lambda t: g(t) <= 0.0, window, samples)


# ---------------------------------------------------------------------------
# Quadratic inequality helper (the analytic workhorse)
# ---------------------------------------------------------------------------
def _quadratic_at_most_zero(
    a: float, b: float, c: float, lo: float, hi: float
) -> list[Interval]:
    """Solve ``a s^2 + b s + c <= 0`` for ``s`` in ``[lo, hi]``."""
    eps = 1e-12
    if abs(a) < eps:
        if abs(b) < eps:
            return [Interval(lo, hi)] if c <= eps else []
        root = -c / b
        if b > 0:
            s0, s1 = lo, min(root, hi)
        else:
            s0, s1 = max(root, lo), hi
        return [Interval(s0, s1)] if s0 <= s1 else []
    disc = b * b - 4 * a * c
    if disc < 0:
        # No real roots: sign is constant, that of `a`.
        return [Interval(lo, hi)] if a < 0 else []
    sq = math.sqrt(disc)
    r0 = (-b - sq) / (2 * a)
    r1 = (-b + sq) / (2 * a)
    if r0 > r1:
        r0, r1 = r1, r0
    if a > 0:
        s0, s1 = max(r0, lo), min(r1, hi)
        if s0 <= s1:
            return [Interval(s0, s1)]
        # Grazing contact at a window endpoint can be lost to underflow in
        # the discriminant; recover the touch point when the overshoot is
        # within floating-point noise.
        tol = 1e-9 * max(1.0, abs(lo), abs(hi))
        if s0 - s1 <= tol:
            touch = min(max((s0 + s1) / 2, lo), hi)
            return [Interval(touch, touch)]
        return []
    out = []
    if lo <= min(r0, hi):
        out.append(Interval(lo, min(r0, hi)))
    if max(r1, lo) <= hi:
        out.append(Interval(max(r1, lo), hi))
    return out


# ---------------------------------------------------------------------------
# Piece pairing
# ---------------------------------------------------------------------------
def _paired_pieces(
    m1: MovingPoint, m2: MovingPoint, window: Interval
) -> list[tuple[float, float, Point, Vector]] | None:
    """Relative motion ``m1 - m2`` as linear legs ``(start, end, d0, dv)``,
    or ``None`` when either motion is not piecewise linear."""
    p1 = m1.linear_pieces(window.start, window.end)
    p2 = m2.linear_pieces(window.start, window.end)
    if p1 is None or p2 is None:
        return None
    legs = paired_legs(p1, p2, window)
    if not legs:
        d0 = m1.position_at(window.start) - m2.position_at(window.start)
        legs.append((window.start, window.end, d0, Vector.zero(d0.dim)))
    return legs


def paired_legs(
    p1: list[LinearPiece], p2: list[LinearPiece], window: Interval
) -> list[tuple[float, float, Point, Vector]]:
    """Pair two linear-piece decompositions into relative-motion legs.

    Exposed separately so the batch backend (:mod:`repro.motion.batch`)
    can pair per-object pieces it has already derived (and memoized)
    through the identical arithmetic the scalar path uses.
    """
    cuts = sorted(
        {window.start, window.end}
        | {p.start for p in p1}
        | {p.start for p in p2}
    )
    legs: list[tuple[float, float, Point, Vector]] = []
    for lo, hi in zip(cuts, cuts[1:]):
        a = _piece_at(p1, lo)
        b = _piece_at(p2, lo)
        d0 = a.position_at(lo) - b.position_at(lo)
        dv = a.velocity - b.velocity
        legs.append((lo, hi, d0, dv))
    return legs


def _piece_at(pieces: list[LinearPiece], t: float) -> LinearPiece:
    chosen = pieces[0]
    for p in pieces:
        if p.start <= t + 1e-12:
            chosen = p
        else:
            break
    return chosen


# ---------------------------------------------------------------------------
# Distance predicates
# ---------------------------------------------------------------------------
def when_dist_at_most(
    m1: MovingPoint,
    m2: MovingPoint,
    r: float,
    window: Interval,
    samples: int = NUMERIC_SAMPLES,
) -> IntervalSet:
    """When is ``DIST(o1, o2) <= r``?

    Analytic per linear leg (``|d0 + dv s|^2 <= r^2`` is a quadratic in
    ``s``), numeric fallback otherwise.  This is the solver behind the
    airport query Q of section 1 ("airplanes that will come within 30
    miles of the airport in the next 10 minutes").
    """
    if r < 0:
        raise SpatialError("distance threshold may not be negative")
    legs = _paired_pieces(m1, m2, window)
    if legs is None:
        return when_below(
            lambda t: m1.position_at(t).distance_to(m2.position_at(t)) - r,
            window,
            samples,
        )
    pieces: list[Interval] = []
    for lo, hi, d0, dv in legs:
        a = dv.norm_squared
        b = 2 * d0.dot(dv)
        c = d0.norm_squared - r * r
        for sol in _quadratic_at_most_zero(a, b, c, 0.0, hi - lo):
            pieces.append(Interval(lo + sol.start, lo + sol.end))
    return IntervalSet(pieces, DENSE)


def when_dist_at_least(
    m1: MovingPoint,
    m2: MovingPoint,
    r: float,
    window: Interval,
    samples: int = NUMERIC_SAMPLES,
) -> IntervalSet:
    """When is ``DIST(o1, o2) >= r``? (complement of the strict interior)."""
    if r < 0:
        raise SpatialError("distance threshold may not be negative")
    legs = _paired_pieces(m1, m2, window)
    if legs is None:
        return when_below(
            lambda t: r - m1.position_at(t).distance_to(m2.position_at(t)),
            window,
            samples,
        )
    pieces: list[Interval] = []
    for lo, hi, d0, dv in legs:
        # |d0 + dv s|^2 >= r^2  <=>  -(a s^2 + b s + c) <= 0
        a = dv.norm_squared
        b = 2 * d0.dot(dv)
        c = d0.norm_squared - r * r
        for sol in _quadratic_at_most_zero(-a, -b, -c, 0.0, hi - lo):
            pieces.append(Interval(lo + sol.start, lo + sol.end))
    return IntervalSet(pieces, DENSE)


# ---------------------------------------------------------------------------
# Ball containment
# ---------------------------------------------------------------------------
def when_inside_ball(
    m: MovingPoint,
    ball: Ball,
    window: Interval,
    carrier: MovingPoint | None = None,
    samples: int = NUMERIC_SAMPLES,
) -> IntervalSet:
    """When is the moving point inside the (possibly moving) ball?

    A ``carrier`` makes the ball move rigidly with the carrier's motion —
    the section 1 scenario of a circle drawn around a car that "moves as a
    rigid body having the motion vector of the car".
    """
    center = carrier if carrier is not None else MovingPoint(ball.center)
    if carrier is not None:
        # Ball centre offset from the carrier is preserved by rigid motion.
        offset = ball.center - carrier.position_at(window.start)
        center = _offset_mover(carrier, offset)
    return when_dist_at_most(m, center, ball.radius, window, samples)


def _offset_mover(carrier: MovingPoint, offset: Point) -> MovingPoint:
    """A point rigidly attached to ``carrier`` at a constant offset."""
    return MovingPoint(
        carrier.anchor + offset,
        carrier.functions,
        anchor_time=carrier.anchor_time,
    )


# ---------------------------------------------------------------------------
# Polygon containment
# ---------------------------------------------------------------------------
def when_inside_polygon(
    m: MovingPoint,
    polygon: Polygon,
    window: Interval,
    carrier: MovingPoint | None = None,
    samples: int = NUMERIC_SAMPLES,
) -> IntervalSet:
    """When is the moving point inside the (possibly moving) polygon?

    For piecewise-linear motion the answer is exact: containment can only
    change when the point crosses a polygon edge, so we compute all edge
    crossing times per linear leg, split the leg there, and classify each
    sub-interval by a midpoint containment test.  A ``carrier`` moves the
    polygon rigidly; the relative-motion reduction subtracts its
    displacement from the point's motion.
    """
    if m.dim != 2:
        raise SpatialError("polygon containment requires 2-D motion")
    reference = carrier if carrier is not None else MovingPoint(Point(0.0, 0.0))

    legs = _paired_pieces(m, reference, window)
    if legs is None:
        if carrier is None:
            return when_true(
                lambda t: polygon.contains(m.position_at(t)), window, samples
            )
        ref0 = reference.position_at(window.start)

        def moving_contains(t: float) -> bool:
            shifted = polygon.translated(reference.position_at(t) - ref0)
            return shifted.contains(m.position_at(t))

        return when_true(moving_contains, window, samples)

    # Work in the carrier's frame: p_rel(t) = m(t) - carrier(t) must lie in
    # the polygon expressed relative to the carrier's window-start position
    # (m(t) in poly + carrier(t) - carrier(start)  <=>
    #  p_rel(t) in poly - carrier(start)).  With no carrier the reference is
    # the static origin, so d0 is simply m(lo) and `base` the polygon itself.
    base = polygon
    if carrier is not None:
        base = polygon.translated(-reference.position_at(window.start))

    pieces: list[Interval] = []
    for lo, hi, d0, dv in legs:
        origin = d0
        events = {0.0, hi - lo}
        for edge in base.edges:
            for s in _segment_crossings(origin, dv, edge.a, edge.b, hi - lo):
                events.add(s)
        ordered = sorted(events)
        for s0, s1 in zip(ordered, ordered[1:]):
            mid = (s0 + s1) / 2
            probe = origin + dv * mid
            if base.contains(probe):
                pieces.append(Interval(lo + s0, lo + s1))
        # Measure-zero touches (the path grazes a vertex or edge without
        # entering): the midpoint test above only finds open runs, so test
        # the event instants themselves.
        for s in ordered:
            if base.contains(origin + dv * s):
                pieces.append(Interval(lo + s, lo + s))
    return IntervalSet(pieces, DENSE)


def when_outside_polygon(
    m: MovingPoint,
    polygon: Polygon,
    window: Interval,
    carrier: MovingPoint | None = None,
    samples: int = NUMERIC_SAMPLES,
) -> IntervalSet:
    """When is the moving point outside the polygon? (window complement)."""
    inside = when_inside_polygon(m, polygon, window, carrier, samples)
    return inside.complement(window)


def _segment_crossings(
    p0: Point, v: Vector, a: Point, b: Point, s_max: float
) -> list[float]:
    """Times ``s`` in ``[0, s_max]`` when ``p0 + v s`` meets segment
    ``[a, b]``."""
    ab = b - a
    denom = v.cross2d(ab)
    out: list[float] = []
    if abs(denom) > 1e-12:
        # Lines are not parallel: single candidate crossing.
        ap0 = a - p0
        s = ap0.cross2d(ab) / denom
        if -1e-12 <= s <= s_max + 1e-12:
            # Parameter along the edge.
            if abs(ab.x) >= abs(ab.y):
                u = (p0.x + v.x * s - a.x) / ab.x if ab.x else 0.0
            else:
                u = (p0.y + v.y * s - a.y) / ab.y if ab.y else 0.0
            if -1e-9 <= u <= 1 + 1e-9:
                out.append(min(max(s, 0.0), s_max))
        return out
    # Parallel: crossings only matter when collinear — entering/leaving the
    # segment happens at the projections of a and b onto the path.
    if abs((a - p0).cross2d(v)) > 1e-9:
        return out
    v2 = v.norm_squared
    if v2 < 1e-18:
        return out
    for endpoint in (a, b):
        s = (endpoint - p0).dot(v) / v2
        if -1e-12 <= s <= s_max + 1e-12:
            out.append(min(max(s, 0.0), s_max))
    return out


# ---------------------------------------------------------------------------
# WITHIN-A-SPHERE
# ---------------------------------------------------------------------------
def when_within_sphere(
    r: float,
    movers: Sequence[MovingPoint],
    window: Interval,
    samples: int = NUMERIC_SAMPLES,
) -> IntervalSet:
    """When can the moving points be enclosed in a sphere of radius ``r``?

    For two points this is exactly ``DIST <= 2r``; for more the minimal
    enclosing ball radius is evaluated numerically (its boundary crossings
    are isolated by sampling + bisection).
    """
    if r < 0:
        raise SpatialError("sphere radius may not be negative")
    if not movers:
        return IntervalSet((window,), DENSE)
    if len(movers) == 1:
        return IntervalSet((window,), DENSE)
    if len(movers) == 2:
        return when_dist_at_most(movers[0], movers[1], 2 * r, window, samples)
    return when_true(
        lambda t: enclosing_ball(
            [m.position_at(t) for m in movers]
        ).radius
        <= r + 1e-9,
        window,
        samples,
    )


# ---------------------------------------------------------------------------
# Scalar dynamic attributes (non-spatial hybrid systems, section 2.1)
# ---------------------------------------------------------------------------
def when_value_in_range(
    anchor_value: float,
    function: TimeFunction,
    lo: float,
    hi: float,
    window: Interval,
    anchor_time: float = 0.0,
    samples: int = NUMERIC_SAMPLES,
) -> IntervalSet:
    """When is a scalar dynamic attribute's value in ``[lo, hi]``?

    Covers the section 4 index query "Retrieve the objects for which
    currently ``4 < A < 5``" and its continuous variant, for arbitrary
    attribute functions (temperature, fuel consumption, ...).
    """
    if hi < lo:
        raise SpatialError("empty value range")

    def value_at(t: float) -> float:
        return anchor_value + function.value(t - anchor_time)

    bps = function.linear_breakpoints(window.end - anchor_time)
    if bps is None:
        return when_true(lambda t: lo <= value_at(t) <= hi, window, samples)

    cuts = sorted(
        {window.start, window.end}
        | {
            bp + anchor_time
            for bp, _ in bps
            if window.start < bp + anchor_time < window.end
        }
    )
    pieces: list[Interval] = []
    for seg_lo, seg_hi in zip(cuts, cuts[1:]):
        v0 = value_at(seg_lo)
        slope = _scalar_slope(bps, seg_lo - anchor_time)
        span = seg_hi - seg_lo
        # lo <= v0 + slope * s <= hi for s in [0, span]
        sols = _linear_band(v0, slope, lo, hi, span)
        pieces.extend(Interval(seg_lo + s0, seg_lo + s1) for s0, s1 in sols)
    return IntervalSet(pieces, DENSE)


def _scalar_slope(bps: list[tuple[float, float]], rel_t: float) -> float:
    slope = bps[0][1]
    for start, k in bps:
        if start <= rel_t + 1e-12:
            slope = k
        else:
            break
    return slope


def _linear_band(
    v0: float, slope: float, lo: float, hi: float, span: float
) -> list[tuple[float, float]]:
    """Solve ``lo <= v0 + slope*s <= hi`` for ``s`` in ``[0, span]``."""
    # A slope that cannot representably change v0 by the end of the span
    # cannot change it at any instant before, so the value is a constant
    # (denormal slopes otherwise yield astronomically wrong crossing
    # times).  A slope that does change it is solved, however small:
    # the change may carry the value across a bound.
    if slope == 0 or v0 + slope * span == v0:
        return [(0.0, span)] if lo <= v0 <= hi else []
    s_lo = (lo - v0) / slope
    s_hi = (hi - v0) / slope
    if s_lo > s_hi:
        s_lo, s_hi = s_hi, s_lo
    s0, s1 = max(s_lo, 0.0), min(s_hi, span)
    return [(s0, s1)] if s0 <= s1 else []
