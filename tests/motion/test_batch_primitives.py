"""Property tests for the vectorized kinetic primitives (DESIGN.md §8).

Every numpy path in :mod:`repro.motion.batch` replicates the scalar
helper in :mod:`repro.spatial.kinetic` operation for operation, so the
properties here demand *exact* agreement — same intervals, same emission
order, same endpoints bit for bit (``==`` treats ``-0.0`` as ``0.0``,
the one float divergence the replication permits).  Engineered tangency
and grazing strategies pin the PR 4 margin cases: ``a·(s-r)²`` contacts
where the discriminant hovers at zero, and paths that cross a polygon
exactly through a vertex.
"""

import random
from contextlib import nullcontext

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MostDatabase, ObjectClass
from repro.core.dynamic import DynamicAttribute
from repro.core.history import FutureHistory
from repro.ftl import parse_query
from repro.ftl.context import EvalContext
from repro.ftl.evaluator import IntervalEvaluator
from repro.geometry import Point, Vector
from repro.motion import LinearFunction, MovingPoint, PiecewiseLinearFunction
from repro.motion.batch import (
    DistanceBatch,
    LinearTable,
    PolygonBatch,
    interval_sets,
    quadratic_at_most_zero_batch,
    segment_crossings_batch,
)
from repro.spatial import Polygon
from repro.spatial.kinetic import (
    _quadratic_at_most_zero,
    _segment_crossings,
    when_dist_at_least,
    when_dist_at_most,
    when_inside_polygon,
)
from repro.temporal import Interval

from tests.ftl.test_batch_solver import scalar_reference

# ---------------------------------------------------------------------------
# Quadratic root finding:  a s^2 + b s + c <= 0  on  [0, hi]
# ---------------------------------------------------------------------------

finite = st.floats(
    min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
)
spans = st.floats(min_value=0.0, max_value=30.0, allow_nan=False)


def scalar_pairs(a, b, c, hi):
    return [
        (iv.start, iv.end)
        for iv in _quadratic_at_most_zero(a, b, c, 0.0, hi)
    ]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(finite, finite, finite, spans), min_size=1, max_size=40
    )
)
def test_quadratic_batch_matches_scalar(coeffs):
    a, b, c, hi = (list(col) for col in zip(*coeffs))
    batched = quadratic_at_most_zero_batch(a, b, c, hi)
    for i, lanes in enumerate(batched):
        assert lanes == scalar_pairs(a[i], b[i], c[i], hi[i]), (
            f"lane {i}: a={a[i]!r} b={b[i]!r} c={c[i]!r} hi={hi[i]!r}"
        )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-8, max_value=8, allow_nan=False).filter(
                lambda x: abs(x) > 1e-6
            ),
            st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
            spans,
        ),
        min_size=1,
        max_size=40,
    )
)
def test_quadratic_batch_matches_scalar_at_tangencies(shapes):
    """Engineered double roots ``a (s - r)^2 <= 0``: the discriminant is
    analytically zero but floats leave it hovering around ±ulp, the exact
    regime the scalar helper's graze recovery handles.  The batch must
    follow it branch for branch — no flakes, no spurious or lost
    touch-intervals."""
    a = [s[0] for s in shapes]
    b = [-2.0 * s[0] * s[1] for s in shapes]
    c = [s[0] * s[1] * s[1] for s in shapes]
    hi = [s[2] for s in shapes]
    batched = quadratic_at_most_zero_batch(a, b, c, hi)
    for i, lanes in enumerate(batched):
        assert lanes == scalar_pairs(a[i], b[i], c[i], hi[i]), (
            f"lane {i}: a={a[i]!r} root={shapes[i][1]!r} hi={hi[i]!r}"
        )


def test_quadratic_batch_degenerate_rows():
    """Constant, linear, and sign-flipped rows in one batch — the branch
    coverage the random floats rarely compose in a single call."""
    rows = [
        (0.0, 0.0, -1.0, 5.0),   # always true
        (0.0, 0.0, 1.0, 5.0),    # never true
        (0.0, 2.0, -4.0, 5.0),   # linear, b > 0
        (0.0, -2.0, 4.0, 5.0),   # linear, b < 0
        (1.0, -4.0, 3.0, 5.0),   # opens up, two roots
        (-1.0, 4.0, -3.0, 5.0),  # opens down, two slots
        (1.0, 0.0, 1.0, 5.0),    # opens up, no real roots
        (-1.0, 0.0, -1.0, 5.0),  # opens down, no real roots
        (1e-15, 1.0, -2.0, 5.0),  # |a| under the scalar epsilon
    ]
    a, b, c, hi = (list(col) for col in zip(*rows))
    batched = quadratic_at_most_zero_batch(a, b, c, hi)
    for i, lanes in enumerate(batched):
        assert lanes == scalar_pairs(a[i], b[i], c[i], hi[i]), rows[i]


# ---------------------------------------------------------------------------
# Segment crossings
# ---------------------------------------------------------------------------

coords = st.floats(
    min_value=-20, max_value=20, allow_nan=False, allow_infinity=False
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(coords, coords, coords, coords, spans),
        min_size=1,
        max_size=25,
    ),
    st.tuples(coords, coords, coords, coords),
)
def test_crossings_batch_matches_scalar(paths, seg):
    a = Point(seg[0], seg[1])
    b = Point(seg[2], seg[3])
    p0s = [Point(p[0], p[1]) for p in paths]
    vs = [Vector(p[2], p[3]) for p in paths]
    s_maxes = [p[4] for p in paths]
    batched = segment_crossings_batch(p0s, vs, s_maxes, a, b)
    for i in range(len(paths)):
        expect = _segment_crossings(p0s[i], vs[i], a, b, s_maxes[i])
        assert batched[i] == expect, f"path {i}: {paths[i]} seg {seg}"


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-10, max_value=10),
    st.integers(min_value=-10, max_value=10),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
)
def test_crossings_batch_vertex_grazing(ax, ay, vx, vy, s_hit):
    """Paths steered to meet a segment *endpoint* exactly at ``s_hit``
    (and collinear runs along the segment itself): the tolerance windows
    around the endpoint projections must match the scalar helper's."""
    a = Point(float(ax), float(ay))
    b = Point(float(ax + 4), float(ay + 2))
    v = Vector(float(vx), float(vy))
    cases = [
        # Hits vertex a at s_hit exactly.
        (Point(a.x - v.x * s_hit, a.y - v.y * s_hit), v, 2 * s_hit),
        # Hits vertex b at s_hit exactly.
        (Point(b.x - v.x * s_hit, b.y - v.y * s_hit), v, 2 * s_hit),
        # Collinear with the segment, sliding along it.
        (a, Vector(4.0, 2.0), s_hit),
        # Parallel offset: never crosses.
        (Point(a.x, a.y + 1.0), Vector(4.0, 2.0), s_hit),
    ]
    p0s = [c[0] for c in cases]
    vs = [c[1] for c in cases]
    s_maxes = [c[2] for c in cases]
    batched = segment_crossings_batch(p0s, vs, s_maxes, a, b)
    for i in range(len(cases)):
        expect = _segment_crossings(p0s[i], vs[i], a, b, s_maxes[i])
        assert batched[i] == expect, f"case {i}: {cases[i]}"


# ---------------------------------------------------------------------------
# End-to-end queues against the scalar solvers
# ---------------------------------------------------------------------------

WINDOW = Interval(0, 12)


def linear_mover(x, y, vx, vy) -> MovingPoint:
    return MovingPoint(
        Point(float(x), float(y)),
        [LinearFunction(float(vx)), LinearFunction(float(vy))],
    )


def oracle_dist(m1, m2, r, at_least):
    solve = when_dist_at_least if at_least else when_dist_at_most
    dense = solve(m1, m2, float(r), WINDOW)
    return dense.discretized().clip(WINDOW.start, WINDOW.end)


small_ints = st.integers(min_value=-9, max_value=9)
velocities = st.integers(min_value=-3, max_value=3)


def slot_of(table, leg):
    """One single leg appended to the table, as a one-slot array."""
    return table.add_rows(
        np.array([leg.origin.coords], dtype=float),
        np.array([leg.velocity.coords], dtype=float),
    )


def solved_sets(batch):
    """A batch's kernel output as one interval set per row."""
    return interval_sets(len(batch), batch.solve())


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            small_ints, small_ints, velocities, velocities,
            small_ints, small_ints, velocities, velocities,
            st.integers(min_value=0, max_value=8),
            st.booleans(),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_distance_batch_matches_scalar_solver(rows):
    """A DistanceBatch of single-leg pairs against
    ``when_dist_at_most``/``at_least`` discretized and clipped exactly as
    the evaluator does.  Integer lattices make grazing contacts
    (dist ≡ r at a tick) common rather than rare."""
    table = LinearTable(WINDOW.start, WINDOW.end)
    batch = DistanceBatch(table)
    oracles = []
    for row in rows:
        x1, y1, vx1, vy1, x2, y2, vx2, vy2, r, at_least = row
        m1 = linear_mover(x1, y1, vx1, vy1)
        m2 = linear_mover(x2, y2, vx2, vy2)
        s1 = slot_of(table, m1.single_leg(WINDOW.start, WINDOW.end))
        s2 = slot_of(table, m2.single_leg(WINDOW.start, WINDOW.end))
        batch.add_pairs(s1, s2, float(r), at_least)
        oracles.append(oracle_dist(m1, m2, r, at_least))
    solved = solved_sets(batch)
    for i, (got, want) in enumerate(zip(solved, oracles)):
        assert got == want, f"lane {i}: {rows[i]}"


POLYGONS = [
    Polygon.rectangle(-4, -4, 4, 4),
    Polygon([Point(0, -5), Point(6, 0), Point(0, 5), Point(-6, 0)]),
    # Non-convex: a notch cut into a square.
    Polygon(
        [
            Point(-5, -5),
            Point(5, -5),
            Point(5, 5),
            Point(0, 0),
            Point(-5, 5),
        ]
    ),
]


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(small_ints, small_ints, velocities, velocities),
        min_size=1,
        max_size=10,
    ),
    st.integers(min_value=0, max_value=len(POLYGONS) - 1),
)
def test_polygon_batch_matches_scalar_solver(rows, poly_idx):
    """PolygonBatch against ``when_inside_polygon`` discretized and
    clipped.  Integer starts and velocities drive paths exactly through
    vertices and along edges — the grazing-crossing regime."""
    polygon = POLYGONS[poly_idx]
    table = LinearTable(WINDOW.start, WINDOW.end)
    batch = PolygonBatch(polygon, table)
    oracles = []
    for i, (x, y, vx, vy) in enumerate(rows):
        m = linear_mover(x, y, vx, vy)
        batch.add_slots(slot_of(table, m.single_leg(WINDOW.start, WINDOW.end)))
        dense = when_inside_polygon(m, polygon, WINDOW)
        oracles.append(dense.discretized().clip(WINDOW.start, WINDOW.end))
    solved = solved_sets(batch)
    for i, (got, want) in enumerate(zip(solved, oracles)):
        assert got == want, f"lane {i}: {rows[i]}"


def test_polygon_batch_piecewise_legs_match_scalar_solver():
    """Piecewise movers through every polygon, seeded exhaustively rather
    than property-sampled, beside linear ones: the batch never sees a
    multi-leg mover — its rows run the scalar sweep inline — and the
    default evaluation, the scalar reference and the naive evaluator
    give the same rows, the first two with the same counters."""
    rng = random.Random(77)
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    for i, polygon in enumerate(POLYGONS):
        db.define_region(f"R{i}", polygon)
    for i in range(25):
        x, y = rng.randint(-9, 9), rng.randint(-9, 9)
        v1 = (rng.randint(-3, 3), rng.randint(-3, 3))
        v2 = (rng.randint(-3, 3), rng.randint(-3, 3))
        axes = zip(("x_position", "y_position"), (x, y), v1, v2)
        db.add_object(
            "cars",
            f"bend{i}",
            dynamic={
                axis: DynamicAttribute(
                    float(at), 0, PiecewiseLinearFunction([(0.0, a), (4.0, b)])
                )
                for axis, at, a, b in axes
            },
        )
        db.add_moving_object("cars", f"line{i}", Point(x, y), Point(*v1))
    for i in range(len(POLYGONS)):
        query = parse_query(f"RETRIEVE o FROM cars o WHERE INSIDE(o, R{i})")
        runs = []
        for scalar in (False, True):
            db.kinetic_cache.clear()
            ctx = EvalContext(FutureHistory(db), WINDOW.end, query.bindings)
            evaluator = IntervalEvaluator(ctx)
            with scalar_reference() if scalar else nullcontext():
                relation = evaluator.evaluate(query.where)
            runs.append((dict(relation.rows()), evaluator.counters()))
        assert runs[0] == runs[1], f"R{i}"
        naive = query.evaluate(FutureHistory(db), WINDOW.end, method="naive")
        assert runs[0][0] == dict(naive.rows()), f"R{i}"
        assert any(oid.startswith("bend") for (oid,) in runs[0][0])


def test_grazing_distance_contacts_are_exact():
    """dist ≡ r contacts engineered directly: two movers whose closest
    approach equals the bound exactly (closing speed 1 on one axis), the
    canonical tangency the PR 4 margin exists for."""
    table = LinearTable(WINDOW.start, WINDOW.end)
    batch = DistanceBatch(table)
    oracles = []
    for i, r in enumerate(range(0, 7)):
        # m1 runs along y = 0; m2 sits at (6, r): closest approach is
        # exactly r at t = 6.
        m1 = linear_mover(0, 0, 1, 0)
        m2 = linear_mover(6, r, 0, 0)
        s1 = slot_of(table, m1.single_leg(WINDOW.start, WINDOW.end))
        s2 = slot_of(table, m2.single_leg(WINDOW.start, WINDOW.end))
        batch.add_pairs(s1, s2, float(r), False)
        oracles.append(oracle_dist(m1, m2, r, False))
    solved = solved_sets(batch)
    for i, (got, want) in enumerate(zip(solved, oracles)):
        assert got == want, f"grazing radius {i}"
        # The touch instant t=6 itself must be in the answer.
        assert want.contains(6)


def test_quadratic_shim_rejects_nothing_scalar_accepts():
    """Cross-check emission order on a randomized sweep large enough to
    hit every branch pairing (the shim is the documented contract the
    DistanceBatch fast path is built on)."""
    rng = random.Random(5)
    rows = []
    for _ in range(500):
        kind = rng.randrange(4)
        if kind == 0:
            a, b, c = 0.0, 0.0, rng.uniform(-5, 5)
        elif kind == 1:
            a, b, c = 0.0, rng.uniform(-5, 5), rng.uniform(-5, 5)
        else:
            a = rng.uniform(-5, 5)
            root = rng.uniform(0, 10)
            if kind == 2:  # tangent
                b, c = -2 * a * root, a * root * root
            else:
                b, c = rng.uniform(-20, 20), rng.uniform(-20, 20)
        rows.append((a, b, c, rng.uniform(0, 15)))
    a, b, c, hi = (list(col) for col in zip(*rows))
    batched = quadratic_at_most_zero_batch(a, b, c, hi)
    for i, lanes in enumerate(batched):
        assert lanes == scalar_pairs(a[i], b[i], c[i], hi[i]), rows[i]
