"""Vectorized batch kinetic solving.

The scalar solvers in :mod:`repro.spatial.kinetic` answer one candidate
instantiation at a time; dense worlds submit thousands of near-identical
quadratic solves per atom.  This module answers *all* surviving rows of an
atom in one numpy pass:

* single-leg ``DIST`` / ball / ``WITHIN_SPHERE`` rows reduce to
  vectorized quadratic root-finding over coefficient arrays, one lane per
  row (:class:`DistanceBatch`);
* single-leg polygon ``INSIDE`` / ``OUTSIDE`` rows run as a batched
  edge-crossing sweep plus a vectorized containment classifier
  (:class:`PolygonBatch`);
* everything else (multi-leg or nonlinear motion, ``SinusoidFunction``,
  unknown motion, degenerate windows) stays on the scalar solvers — the
  caller simply does not enqueue those rows.

Queued rows are slots of one :class:`LinearTable`: each mover's leg
position at the window start and its velocity.

Every vectorized kernel replicates the scalar solver's floating-point
arithmetic operation-for-operation (same association, same tolerances,
including the PR 4 grazing-contact recovery), so the interval sets it
returns are equal — via ``IntervalSet.__eq__`` — to the scalar answers,
not merely close.  The evaluator-level differential walls
(``tests/ftl/test_atom_kernels.py`` and its batch-against-scalar
sibling) and the hypothesis properties in
``tests/motion/test_batch_primitives.py`` enforce this.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.spatial.geometry import Point
from repro.spatial.polygon import Polygon
from repro.temporal import DISCRETE, Interval, IntervalSet

__all__ = [
    "quadratic_at_most_zero_batch",
    "segment_crossings_batch",
    "interval_sets",
    "value_band",
    "LinearTable",
    "DistanceBatch",
    "PolygonBatch",
]

#: Degeneracy threshold shared with ``kinetic._quadratic_at_most_zero``.
_EPS = 1e-12


# ---------------------------------------------------------------------------
# Vectorized quadratic kernel
# ---------------------------------------------------------------------------
def _quadratic_slots(a, b, c, hi):
    """Solve ``a s^2 + b s + c <= 0`` for ``s`` in ``[0, hi]``, elementwise.

    Returns ``(lo0, hi0, ok0, lo1, hi1, ok1)`` — up to two solution
    intervals per lane, in increasing order.  Each branch mirrors the
    corresponding branch of ``kinetic._quadratic_at_most_zero`` with
    ``lo = 0.0`` exactly (same operations, same tolerances), so selected
    lanes reproduce the scalar answers bit-for-bit up to the sign of zero.
    """
    shape = a.shape
    lo0 = np.zeros(shape)
    hi0 = np.zeros(shape)
    ok0 = np.zeros(shape, dtype=bool)
    lo1 = np.zeros(shape)
    hi1 = np.zeros(shape)
    ok1 = np.zeros(shape, dtype=bool)

    with np.errstate(all="ignore"):
        lin = np.abs(a) < _EPS
        const = lin & (np.abs(b) < _EPS)

        # Constant: satisfied everywhere or nowhere.
        sel = const & (c <= _EPS)
        hi0 = np.where(sel, hi, hi0)
        ok0 = ok0 | sel

        # Linear: a single root splits the window.
        linear = lin & ~const
        root = -c / b
        s0_lin = np.where(b > 0, 0.0, np.maximum(root, 0.0))
        s1_lin = np.where(b > 0, np.minimum(root, hi), hi)
        sel = linear & (s0_lin <= s1_lin)
        lo0 = np.where(sel, s0_lin, lo0)
        hi0 = np.where(sel, s1_lin, hi0)
        ok0 = ok0 | sel

        # True quadratic.
        quad = ~lin
        disc = b * b - 4 * a * c
        sel = quad & (disc < 0) & (a < 0)  # no real roots, negative leading
        hi0 = np.where(sel, hi, hi0)
        ok0 = ok0 | sel

        roots = quad & (disc >= 0)
        sq = np.sqrt(np.where(disc >= 0, disc, 0.0))
        r0 = (-b - sq) / (2 * a)
        r1 = (-b + sq) / (2 * a)
        rlo = np.minimum(r0, r1)
        rhi = np.maximum(r0, r1)

        # Opens upward: satisfied between the roots.
        opens_up = roots & (a > 0)
        s0 = np.maximum(rlo, 0.0)
        s1 = np.minimum(rhi, hi)
        sel = opens_up & (s0 <= s1)
        lo0 = np.where(sel, s0, lo0)
        hi0 = np.where(sel, s1, hi0)
        ok0 = ok0 | sel
        # Grazing contact lost to discriminant underflow: recover the
        # touch point when the overshoot is within floating-point noise.
        tol = 1e-9 * np.maximum(1.0, np.abs(hi))
        graze = opens_up & (s0 > s1) & (s0 - s1 <= tol)
        touch = np.minimum(np.maximum((s0 + s1) / 2, 0.0), hi)
        lo0 = np.where(graze, touch, lo0)
        hi0 = np.where(graze, touch, hi0)
        ok0 = ok0 | graze

        # Opens downward: satisfied outside the roots (up to two pieces).
        opens_down = roots & (a < 0)
        first_hi = np.minimum(rlo, hi)
        sel = opens_down & (0.0 <= first_hi)
        hi0 = np.where(sel, first_hi, hi0)  # lo0 stays 0.0
        ok0 = ok0 | sel
        second_lo = np.maximum(rhi, 0.0)
        sel = opens_down & (second_lo <= hi)
        lo1 = np.where(sel, second_lo, lo1)
        hi1 = np.where(sel, hi, hi1)
        ok1 = ok1 | sel

    return lo0, hi0, ok0, lo1, hi1, ok1


def quadratic_at_most_zero_batch(
    a: Sequence[float],
    b: Sequence[float],
    c: Sequence[float],
    hi: Sequence[float],
) -> list[list[tuple[float, float]]]:
    """Batched ``kinetic._quadratic_at_most_zero(a, b, c, 0.0, hi)``.

    Returns, per input lane, the solution intervals as ``(start, end)``
    pairs in the same order the scalar helper emits them.
    """
    arrays = [np.asarray(v, dtype=float) for v in (a, b, c, hi)]
    lo0, hi0, ok0, lo1, hi1, ok1 = _quadratic_slots(*arrays)
    out: list[list[tuple[float, float]]] = []
    for i in range(arrays[0].shape[0]):
        lanes: list[tuple[float, float]] = []
        if ok0[i]:
            lanes.append((float(lo0[i]), float(hi0[i])))
        if ok1[i]:
            lanes.append((float(lo1[i]), float(hi1[i])))
        out.append(lanes)
    return out


# ---------------------------------------------------------------------------
# Discrete assembly: kernel rows -> DISCRETE answers
# ---------------------------------------------------------------------------
#: Kernel output: ``(row, begin, end)`` int64 arrays, one entry per
#: discrete interval of a row, rows in any order.
Pieces = tuple[np.ndarray, np.ndarray, np.ndarray]

_EMPTY_DISCRETE = IntervalSet.empty(DISCRETE)


def interval_sets(n_rows: int, pieces: Pieces) -> list[IntervalSet]:
    """The one boundary from kernel output to interval sets: per row
    ``0 .. n_rows - 1``, the DISCRETE set of its pieces, with Python-int
    tick endpoints — what the scalar solve's discretize-and-clip emits.
    A row without pieces gets the (shared, immutable) empty set."""
    rows, begins, ends = pieces
    out = [_EMPTY_DISCRETE] * n_rows
    grouped: dict[int, list[Interval]] = {}
    for row, begin, end in zip(rows.tolist(), begins.tolist(), ends.tolist()):
        group = grouped.get(row)
        if group is None:
            grouped[row] = [Interval(begin, end)]
        else:
            group.append(Interval(begin, end))
    for row, group in grouped.items():
        out[row] = IntervalSet(group, DISCRETE)
    return out


def _tick_pieces(
    rows: np.ndarray,
    dense_lo: np.ndarray,
    dense_hi: np.ndarray,
    ok: np.ndarray,
    start: float,
    end: float,
) -> Pieces:
    """Dense pieces ``[dense_lo, dense_hi]`` (where ``ok``) discretized
    and clipped to ``[start, end]`` as the scalar pipeline does —
    ``[ceil(lo), floor(hi)]``, dropped when empty, then clipped and
    dropped again — as kernel output."""
    with np.errstate(invalid="ignore"):
        dl = np.ceil(dense_lo)
        dh = np.floor(dense_hi)
        keep = ok & (dl <= dh)
        dl = np.maximum(dl, start)
        dh = np.minimum(dh, end)
        keep &= dl <= dh
    idx = np.flatnonzero(keep)
    return (
        rows[idx],
        dl[idx].astype(np.int64),
        dh[idx].astype(np.int64),
    )


def _concat(parts: list[Pieces]) -> Pieces:
    if not parts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    rows, begins, ends = zip(*parts)
    return np.concatenate(rows), np.concatenate(begins), np.concatenate(ends)


# ---------------------------------------------------------------------------
# Single-leg coefficient table
# ---------------------------------------------------------------------------
class LinearTable:
    """Single-leg ``(origin, velocity)`` columns, padded to three axes.

    The batch orchestrator appends each atom's movers as one block of
    rows; the solvers then gather coefficient rows by slot index instead
    of re-deriving the linear pieces per candidate pair.
    """

    def __init__(self, start: float, end: float) -> None:
        self.start = start
        self.end = end
        self._n = 0
        self._origins: list[np.ndarray] = []
        self._velocities: list[np.ndarray] = []
        self._cols: tuple[np.ndarray, np.ndarray] | None = None

    def add_rows(
        self, origins: np.ndarray, velocities: np.ndarray
    ) -> np.ndarray:
        """Append single-leg movers — ``(k, dim)`` arrays of each leg's
        position at the window start and its velocity — and return
        their slots."""
        k, dim = origins.shape
        for block, parts in (
            (origins, self._origins),
            (velocities, self._velocities),
        ):
            padded = np.zeros((k, 3))
            padded[:, :dim] = block
            parts.append(padded)
        slots = np.arange(self._n, self._n + k)
        self._n += k
        self._cols = None
        return slots

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(origins, velocities)`` as ``(n, 3)`` float arrays."""
        if self._cols is None:
            self._cols = (
                np.concatenate([np.zeros((0, 3)), *self._origins]),
                np.concatenate([np.zeros((0, 3)), *self._velocities]),
            )
        return self._cols


# ---------------------------------------------------------------------------
# Linear dynamic attribute against a bound (o.attr <= c, o.attr >= c)
# ---------------------------------------------------------------------------
#: Int coefficients (and window ends) up to this magnitude keep every
#: int intermediate of the scalar band exact in float64.
_INT_SAFE = float(2**24)


def value_band(
    v: np.ndarray,
    u: np.ndarray,
    k: np.ndarray,
    intflags: np.ndarray,
    bound: float,
    at_least: bool,
    start: int,
    end: int,
) -> tuple[np.ndarray, Pieces]:
    """``v + k * (t - u) <= bound`` (``>=`` with ``at_least``) over
    ``[start, end]``, ``start < end``, for linear rows of motion columns
    (value, updatetime, slope and int flags, one entry per row):
    ``(taken[n], pieces)`` — each taken row's at most one tick interval.

    The scalar path (``when_value_in_range`` over the evaluator's
    sentinel range, ``_linear_band``, ``discretized().clip()``) is
    repeated operation for operation: the open side becomes a sentinel
    beyond any value the window reaches, ``max`` / ``min`` keep their
    first argument unless the second is strictly beyond it (NaN
    included), a bound beyond the sentinel is never reached, a slope
    that cannot move the value by the window's end is a constant, and
    each bound is divided by the slope.  A row is not taken — the scalar
    path must solve it — when its update time cuts the window in two,
    or when an int coefficient is too large for float64 to repeat the
    scalar int arithmetic exactly.
    """
    width = end - start
    with np.errstate(all="ignore"):
        reach = np.abs(v) + (np.abs(k * 1.0) + 1) * ((end - u) + 1)
        reach = reach * 10
        sentinel = np.where(reach > 1e12, reach, 1e12)
        if at_least:
            lo = np.where(-sentinel > bound, -sentinel, bound)
            hi = np.where(sentinel < np.inf, sentinel, np.inf)
        else:
            lo = np.where(-sentinel > -np.inf, -sentinel, -np.inf)
            hi = np.where(sentinel < bound, sentinel, bound)
        taken = ~((start < u) & (u < end))
        small = (
            (np.abs(v) <= _INT_SAFE)
            & (np.abs(u) <= _INT_SAFE)
            & (np.abs(k) <= _INT_SAFE)
        )
        window_small = max(abs(start), abs(end)) <= _INT_SAFE
        taken &= (intflags == 0) | (small & window_small)
        v0 = v + k * (start - u)
        flat = (k == 0) | (v0 + k * width == v0)
        s_lo = (lo - v0) / k
        s_hi = (hi - v0) / k
        swap = s_lo > s_hi
        s_lo, s_hi = np.where(swap, s_hi, s_lo), np.where(swap, s_lo, s_hi)
        s0 = np.where(0.0 > s_lo, 0.0, s_lo)
        s1 = np.where(width < s_hi, width, s_hi)
        ok = np.where(flat, (lo <= v0) & (v0 <= hi), s0 <= s1) & ~(hi < lo)
        s0 = np.where(flat, 0.0, s0)
        s1 = np.where(flat, width, s1)
    return taken, _tick_pieces(
        np.arange(v.size), start + s0, start + s1, ok & taken, start, end
    )


# ---------------------------------------------------------------------------
# Distance batch (DIST compare, balls, two-mover spheres)
# ---------------------------------------------------------------------------
class DistanceBatch:
    """Queued ``DIST(m1, m2) <= r`` (or ``>= r``) rows, solved in one pass.

    Each row is a pair of slots into a :class:`LinearTable`: two
    single-leg movers over the whole window.
    """

    def __init__(self, table: LinearTable) -> None:
        self._table = table
        self._n = 0
        self._pair_i: list[np.ndarray] = []
        self._pair_j: list[np.ndarray] = []
        self._pair_rr: list[np.ndarray] = []
        self._pair_neg: list[np.ndarray] = []

    def __len__(self) -> int:
        return self._n

    def add_pairs(
        self, slots1: np.ndarray, slots2: np.ndarray, r: float, at_least: bool
    ) -> np.ndarray:
        """Queue single-leg pairs over the whole window, one row per
        slot pair; returns their rows."""
        k = len(slots1)
        rows = np.arange(self._n, self._n + k)
        self._n += k
        self._pair_i.append(slots1)
        self._pair_j.append(slots2)
        self._pair_rr.append(np.full(k, r * r, dtype=float))
        self._pair_neg.append(np.full(k, at_least, dtype=bool))
        return rows

    def solve(self) -> Pieces:
        """Answer every queued row: its clipped DISCRETE intervals, as
        kernel output (:func:`interval_sets` makes them sets)."""
        if not self._n:
            return _concat([])
        start, end = self._table.start, self._table.end
        origins, velocities = self._table.columns()
        i = np.concatenate(self._pair_i)
        j = np.concatenate(self._pair_j)
        o1, v1 = origins[i], velocities[i]
        o2, v2 = origins[j], velocities[j]
        # The scalar leg evaluates each piece at the window start:
        # position_at(start) = origin + velocity * 0.
        d0 = (o1 + v1 * 0.0) - (o2 + v2 * 0.0)
        dv = v1 - v2
        rows = np.arange(self._n)
        hi = np.full(self._n, float(end - start))
        rr = np.concatenate(self._pair_rr)
        neg = np.concatenate(self._pair_neg)

        # a = |dv|^2, b = 2 d0.dv, c = |d0|^2 - r^2, accumulated in the
        # same left-to-right order as Point.norm_squared / Point.dot.
        a = dv[:, 0] * dv[:, 0]
        a = a + dv[:, 1] * dv[:, 1]
        a = a + dv[:, 2] * dv[:, 2]
        dot = 0.0 + d0[:, 0] * dv[:, 0]
        dot = dot + d0[:, 1] * dv[:, 1]
        dot = dot + d0[:, 2] * dv[:, 2]
        b = 2 * dot
        c = d0[:, 0] * d0[:, 0]
        c = c + d0[:, 1] * d0[:, 1]
        c = c + d0[:, 2] * d0[:, 2]
        c = c - rr
        # DIST >= r solves the negated quadratic.
        a = np.where(neg, -a, a)
        b = np.where(neg, -b, b)
        c = np.where(neg, -c, c)

        lo = float(start)
        lo0, hi0, ok0, lo1, hi1, ok1 = _quadratic_slots(a, b, c, hi)
        return _concat(
            [
                _tick_pieces(rows, lo + lo_s, lo + hi_s, ok, start, end)
                for lo_s, hi_s, ok in ((lo0, hi0, ok0), (lo1, hi1, ok1))
                if ok.any()
            ]
        )


# ---------------------------------------------------------------------------
# Polygon batch (INSIDE / OUTSIDE against a fixed polygon)
# ---------------------------------------------------------------------------
#: Polygon edge columns by polygon identity (:func:`polygon_edges`).
#: Polygons never mutate, so an entry never goes stale; bounded and
#: cleared wholesale, and identity-guarded like the region tokens.
_EDGE_COLUMNS: dict[int, tuple[Polygon, tuple[np.ndarray, ...]]] = {}
_EDGE_COLUMNS_LIMIT = 256


def polygon_edges(polygon: Polygon) -> tuple[np.ndarray, ...]:
    """A polygon's edges as columns ``(ax, ay, bx, by, abx, aby, ns)``:
    each edge's start and end coordinates, its vector ``b - a`` and that
    vector's squared norm — built once per polygon and shared by every
    solve against it (read-only)."""
    entry = _EDGE_COLUMNS.get(id(polygon))
    if entry is not None and entry[0] is polygon:
        return entry[1]
    edges = polygon.edges
    vectors = [e.vector for e in edges]
    columns = (
        np.asarray([e.a.x for e in edges]),
        np.asarray([e.a.y for e in edges]),
        np.asarray([e.b.x for e in edges]),
        np.asarray([e.b.y for e in edges]),
        np.asarray([w.x for w in vectors]),
        np.asarray([w.y for w in vectors]),
        np.asarray([w.norm_squared for w in vectors]),
    )
    for column in columns:
        column.flags.writeable = False
    if len(_EDGE_COLUMNS) >= _EDGE_COLUMNS_LIMIT:
        _EDGE_COLUMNS.clear()
    _EDGE_COLUMNS[id(polygon)] = (polygon, columns)
    return columns


def clear_polygon_edges() -> None:
    """Drop the edge-column memo (a forked shard worker starts clean,
    see :func:`repro.parallel.worker.reset_worker_caches`)."""
    _EDGE_COLUMNS.clear()

class PolygonBatch:
    """Queued polygon containment rows against one static polygon.

    Runs the scalar sweep's three stages vectorized: edge-crossing event
    detection over a (leg x edge) grid, then one containment classification
    pass over every midpoint / event probe, then per-row assembly.  Returns
    *inside* sets; the caller complements for OUTSIDE.
    """

    def __init__(self, polygon: Polygon, table: LinearTable) -> None:
        self._polygon = polygon
        self._table = table
        self._n = 0
        self._slots: list[np.ndarray] = []

    def __len__(self) -> int:
        return self._n

    def add_slots(self, slots: np.ndarray) -> np.ndarray:
        """Queue single-leg 2-D movers registered in the table, one row
        per slot; returns their rows."""
        k = len(slots)
        rows = np.arange(self._n, self._n + k)
        self._n += k
        self._slots.append(slots)
        return rows

    def solve(self) -> Pieces:
        """Answer every queued row: the clipped DISCRETE intervals of its
        *inside* set, as kernel output.

        Per row, as the scalar sweep: the event instants are the set of
        both ends of the leg and its edge crossings, each gap between two
        consecutive events is classified at its midpoint and each event
        at itself, and the contained ones become pieces.  The event sets
        are the rows of one matrix — sorted, equal neighbours dropped
        (NaN marks no event) and sorted again, so each row holds its
        distinct events first in increasing order."""
        start, end = self._table.start, self._table.end
        n = self._n
        if not n:
            return _concat([])
        origins, velocities = self._table.columns()
        slots = np.concatenate(self._slots)
        go = origins[slots][:, :2]
        gv = velocities[slots][:, :2]
        # Scalar leg: d0 = m.position_at(start) - reference(0, 0),
        # dv = velocity - 0; position_at(start) = origin + velocity*0.
        o = (go + gv * 0.0) - 0.0
        v = gv - 0.0
        smax = np.full(n, float(end - start))

        events = np.concatenate(
            [np.zeros((n, 1)), smax[:, None], self._crossings(o, v, smax)],
            axis=1,
        )
        events.sort(axis=1)
        repeat = np.zeros(events.shape, dtype=bool)
        repeat[:, 1:] = events[:, 1:] == events[:, :-1]
        events[repeat] = np.nan
        events.sort(axis=1)
        known = ~np.isnan(events)
        ent_m, col_m = np.nonzero(known[:, 1:])
        ent_e, col_e = np.nonzero(known)
        first = np.concatenate([events[ent_m, col_m], events[ent_e, col_e]])
        last = np.concatenate([events[ent_m, col_m + 1], events[ent_e, col_e]])
        probe_ent = np.concatenate([ent_m, ent_e])
        midpoints = (first[: ent_m.size] + last[: ent_m.size]) / 2
        contained = self._contains(
            o, v, probe_ent, np.concatenate([midpoints, first[ent_m.size :]])
        )
        lo = float(start)
        return _tick_pieces(
            probe_ent,
            lo + first,
            lo + last,
            contained,
            start,
            end,
        )

    # ------------------------------------------------------------------
    def _crossings(self, o, v, smax) -> np.ndarray:
        """Vectorized ``kinetic._segment_crossings`` over (entry x edge):
        per entry, the crossing of each edge (the single non-parallel
        candidate), then the projections of each edge's two endpoints
        onto a collinear path — NaN where there is none."""
        ox, oy = o[:, 0:1], o[:, 1:2]
        vx, vy = v[:, 0:1], v[:, 1:2]
        sm = smax[:, None]
        ax, ay, bx, by, abx, aby, _ns = polygon_edges(self._polygon)

        with np.errstate(all="ignore"):
            denom = vx * aby - vy * abx
            nonpar = np.abs(denom) > 1e-12
            # Non-parallel: single candidate crossing.
            s = ((ax - ox) * aby - (ay - oy) * abx) / denom
            in_range = (-1e-12 <= s) & (s <= sm + 1e-12)
            ux = np.where(
                abx != 0.0, ((ox + vx * s) - ax) / abx, 0.0
            )
            uy = np.where(
                aby != 0.0, ((oy + vy * s) - ay) / aby, 0.0
            )
            u = np.where(np.abs(abx) >= np.abs(aby), ux, uy)
            hit = nonpar & in_range & (-1e-9 <= u) & (u <= 1 + 1e-9)
            found = [np.where(hit, np.minimum(np.maximum(s, 0.0), sm), np.nan)]
            if nonpar.all():
                return found[0]

            # Parallel: only collinear overlap produces crossings, at the
            # projections of the edge endpoints onto the path.
            collinear = ~nonpar & (
                np.abs((ax - ox) * vy - (ay - oy) * vx) <= 1e-9
            )
            v2 = vx * vx + vy * vy
            moving = v2 >= 1e-18
            for ex, ey in ((ax, ay), (bx, by)):
                s_e = ((ex - ox) * vx + (ey - oy) * vy) / v2
                ok = (
                    collinear
                    & moving
                    & (-1e-12 <= s_e)
                    & (s_e <= sm + 1e-12)
                )
                found.append(
                    np.where(ok, np.minimum(np.maximum(s_e, 0.0), sm), np.nan)
                )
        return np.concatenate(found, axis=1)

    def _contains(self, o, v, probe_ent, probe_s):
        """Vectorized ``Polygon.contains`` for probe points on the paths."""
        if probe_ent.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        px = (o[:, 0][probe_ent] + v[:, 0][probe_ent] * probe_s)[:, None]
        py = (o[:, 1][probe_ent] + v[:, 1][probe_ent] * probe_s)[:, None]
        ax, ay, bx, by, abx, aby, ns = polygon_edges(self._polygon)

        with np.errstate(all="ignore"):
            apx = px - ax
            apy = py - ay
            # Boundary pre-check (tol = 1e-12, per-edge scale guard).
            cross = abx * apy - aby * apx
            near = np.abs(cross) <= 1e-12 * np.maximum(1.0, ns)
            dot = 0.0 + abx * apx
            dot = dot + aby * apy
            on_edge = near & (-1e-12 <= dot) & (dot <= ns + 1e-12)
            boundary = on_edge.any(axis=1)
            # Ray cast: count upward/downward edge crossings left of p.
            straddles = (ay > py) != (by > py)
            x_cross = ax + (py - ay) * (bx - ax) / (by - ay)
            toggles = straddles & (px < x_cross)
            inside = (toggles.sum(axis=1) % 2) == 1
        return boundary | inside


# ---------------------------------------------------------------------------
# Scalar-oracle shims for the property tests
# ---------------------------------------------------------------------------
def segment_crossings_batch(
    p0s: Sequence[Point],
    vs: Sequence[Point],
    s_maxes: Sequence[float],
    a: Point,
    b: Point,
) -> list[list[float]]:
    """Batched ``kinetic._segment_crossings`` against one segment.

    Returns, per path, the crossing times in the scalar helper's emission
    order (the single non-parallel candidate, or the ``a`` then ``b``
    endpoint projections when collinear).
    """
    n = len(p0s)
    ox = np.asarray([p.x for p in p0s])
    oy = np.asarray([p.y for p in p0s])
    vx = np.asarray([w.x for w in vs])
    vy = np.asarray([w.y for w in vs])
    sm = np.asarray(s_maxes, dtype=float)
    abx = (b - a).x
    aby = (b - a).y

    out: list[list[float]] = [[] for _ in range(n)]
    with np.errstate(all="ignore"):
        denom = vx * aby - vy * abx
        nonpar = np.abs(denom) > 1e-12
        s = ((a.x - ox) * aby - (a.y - oy) * abx) / denom
        in_range = (-1e-12 <= s) & (s <= sm + 1e-12)
        if abs(abx) >= abs(aby):
            u = np.where(abx != 0.0, ((ox + vx * s) - a.x) / abx, 0.0)
        else:
            u = np.where(aby != 0.0, ((oy + vy * s) - a.y) / aby, 0.0)
        hit = nonpar & in_range & (-1e-9 <= u) & (u <= 1 + 1e-9)
        s_val = np.minimum(np.maximum(s, 0.0), sm)
        for i in np.nonzero(hit)[0]:
            out[i].append(float(s_val[i]))

        collinear = ~nonpar & (
            np.abs((a.x - ox) * vy - (a.y - oy) * vx) <= 1e-9
        )
        v2 = vx * vx + vy * vy
        moving = v2 >= 1e-18
        for endpoint in (a, b):
            s_e = ((endpoint.x - ox) * vx + (endpoint.y - oy) * vy) / v2
            ok = collinear & moving & (-1e-12 <= s_e) & (s_e <= sm + 1e-12)
            val = np.minimum(np.maximum(s_e, 0.0), sm)
            for i in np.nonzero(ok)[0]:
                out[i].append(float(val[i]))
    return out
