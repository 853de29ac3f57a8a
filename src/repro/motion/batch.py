"""Vectorized batch kinetic solving.

The scalar solvers in :mod:`repro.spatial.kinetic` answer one candidate
instantiation at a time; dense worlds submit thousands of near-identical
quadratic solves per atom.  This module answers *all* surviving rows of an
atom in one numpy pass:

* linear-motion ``DIST`` / ball / ``WITHIN_SPHERE`` rows reduce to
  vectorized quadratic root-finding over coefficient arrays, one entry per
  linear breakpoint piece (:class:`DistanceBatch`);
* polygon ``INSIDE`` / ``OUTSIDE`` rows run as a batched edge-crossing
  sweep plus a vectorized containment classifier (:class:`PolygonBatch`);
* everything else (nonlinear motion, ``SinusoidFunction``, unknown motion,
  degenerate windows) stays on the scalar root-isolation fallback — the
  caller simply does not enqueue those rows.

Every vectorized kernel replicates the scalar solver's floating-point
arithmetic operation-for-operation (same association, same tolerances,
including the PR 4 grazing-contact recovery), so the interval sets it
returns are equal — via ``IntervalSet.__eq__`` — to the scalar answers,
not merely close.  The differential wall in
``tests/ftl/test_batch_solver.py`` and the hypothesis properties in
``tests/motion/test_batch_primitives.py`` enforce this.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.motion.moving import LinearPiece
from repro.spatial.geometry import Point
from repro.spatial.polygon import Polygon
from repro.temporal import DISCRETE, IntervalSet

__all__ = [
    "quadratic_at_most_zero_batch",
    "segment_crossings_batch",
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
# Discrete assembly: dense solution pieces -> cached DISCRETE answer
# ---------------------------------------------------------------------------
def _discrete_set(pairs: list[tuple[float, float]]) -> IntervalSet:
    """A normalized DISCRETE set from already discretized+clipped pairs."""
    return IntervalSet.from_pairs(pairs, DISCRETE)


def _discretize_pairs(
    pairs: list[tuple[float, float]], start: float, end: float
) -> IntervalSet:
    """Scalar discretize+clip of dense ``(s, e)`` pieces.

    Mirrors ``IntervalSet.discretized().clip(start, end)``: the tick set
    is invariant under dense-side normalization, so per-piece ceil/floor
    followed by one DISCRETE normalization yields the identical canonical
    form the scalar pipeline produces.
    """
    out: list[tuple[float, float]] = []
    for s, e in pairs:
        dl: float = math.ceil(s)
        dh: float = math.floor(e)
        if dl > dh:
            continue
        if dl < start:
            dl = start
        if dh > end:
            dh = end
        if dl <= dh:
            out.append((dl, dh))
    return _discrete_set(out)


def _scatter_discrete(
    rows,
    n_rows: int,
    base,
    slots,
    start: float,
    end: float,
) -> list[IntervalSet]:
    """Fan per-leg quadratic solutions back into per-row DISCRETE sets."""
    pairs: list[list[tuple[float, float]]] = [[] for _ in range(n_rows)]
    lo0, hi0, ok0, lo1, hi1, ok1 = slots
    for lo_s, hi_s, ok in ((lo0, hi0, ok0), (lo1, hi1, ok1)):
        if not ok.any():
            continue
        dense_lo = base + lo_s
        dense_hi = base + hi_s
        dl = np.ceil(dense_lo)
        dh = np.floor(dense_hi)
        keep = ok & (dl <= dh)
        dl = np.maximum(dl, start)
        dh = np.minimum(dh, end)
        keep = keep & (dl <= dh)
        idx = np.nonzero(keep)[0]
        for row, s, e in zip(
            rows[idx].tolist(), dl[idx].tolist(), dh[idx].tolist()
        ):
            pairs[row].append((s, e))
    return [_discrete_set(p) for p in pairs]


# ---------------------------------------------------------------------------
# Single-leg coefficient table
# ---------------------------------------------------------------------------
class LinearTable:
    """Per-object single-leg ``(origin, velocity)`` columns.

    The batch orchestrator registers each distinct mover once; the solvers
    then gather coefficient rows by slot index instead of re-deriving the
    linear pieces per candidate pair.
    """

    def __init__(self, start: float, end: float) -> None:
        self.start = start
        self.end = end
        self._slots: dict[object, int] = {}
        self._origins: list[tuple[float, ...]] = []
        self._velocities: list[tuple[float, ...]] = []
        self._dims: list[int] = []
        self._cols: tuple | None = None

    def add(self, key: object, piece: LinearPiece) -> int:
        """Register (or look up) the single-leg mover under ``key``."""
        slot = self._slots.get(key)
        if slot is not None:
            return slot
        slot = len(self._origins)
        self._slots[key] = slot
        o = piece.origin.coords
        v = piece.velocity.coords
        pad = (0.0,) * (3 - len(o))
        self._origins.append(o + pad)
        self._velocities.append(v + pad)
        self._dims.append(len(o))
        self._cols = None
        return slot

    def dim(self, slot: int) -> int:
        """Spatial dimensionality of the mover in ``slot``."""
        return self._dims[slot]

    def columns(self):
        """``(origins, velocities)`` as ``(n, 3)`` float arrays."""
        if self._cols is None:
            self._cols = (
                np.asarray(self._origins, dtype=float).reshape(-1, 3),
                np.asarray(self._velocities, dtype=float).reshape(-1, 3),
            )
        return self._cols


# ---------------------------------------------------------------------------
# Distance batch (DIST compare, balls, two-mover spheres)
# ---------------------------------------------------------------------------
class DistanceBatch:
    """Queued ``DIST(m1, m2) <= r`` (or ``>= r``) rows, solved in one pass.

    Single-leg pairs are stored as slot indices into a
    :class:`LinearTable`; multi-leg pairs contribute their pre-paired
    relative-motion legs (from ``kinetic.paired_legs``) directly.
    """

    def __init__(self, table: LinearTable) -> None:
        self._table = table
        self._n = 0
        self._pair_rows: list[int] = []
        self._pair_i: list[int] = []
        self._pair_j: list[int] = []
        self._pair_rr: list[float] = []
        self._pair_neg: list[bool] = []
        self._leg_rows: list[int] = []
        self._leg_lo: list[float] = []
        self._leg_hi: list[float] = []
        self._leg_d0: list[tuple[float, ...]] = []
        self._leg_dv: list[tuple[float, ...]] = []
        self._leg_rr: list[float] = []
        self._leg_neg: list[bool] = []

    def __len__(self) -> int:
        return self._n

    def add_pair(self, slot1: int, slot2: int, r: float, at_least: bool) -> int:
        """Queue a single-leg pair over the whole window."""
        row = self._n
        self._n += 1
        self._pair_rows.append(row)
        self._pair_i.append(slot1)
        self._pair_j.append(slot2)
        self._pair_rr.append(r * r)
        self._pair_neg.append(at_least)
        return row

    def add_legs(
        self,
        legs: Sequence[tuple[float, float, Point, Point]],
        r: float,
        at_least: bool,
    ) -> int:
        """Queue a multi-leg pair as explicit relative-motion legs."""
        row = self._n
        self._n += 1
        rr = r * r
        for lo, hi, d0, dv in legs:
            o = d0.coords
            v = dv.coords
            pad = (0.0,) * (3 - len(o))
            self._leg_rows.append(row)
            self._leg_lo.append(lo)
            self._leg_hi.append(hi - lo)
            self._leg_d0.append(o + pad)
            self._leg_dv.append(v + pad)
            self._leg_rr.append(rr)
            self._leg_neg.append(at_least)
        return row

    def solve(self) -> list[IntervalSet]:
        """Answer every queued row as a clipped DISCRETE interval set."""
        start, end = self._table.start, self._table.end
        d0_parts = []
        dv_parts = []
        lo_parts = []
        hi_parts = []
        rr_parts = []
        neg_parts = []
        row_parts = []
        if self._pair_rows:
            origins, velocities = self._table.columns()
            i = np.asarray(self._pair_i, dtype=int)
            j = np.asarray(self._pair_j, dtype=int)
            o1, v1 = origins[i], velocities[i]
            o2, v2 = origins[j], velocities[j]
            # The scalar leg evaluates each piece at the window start:
            # position_at(start) = origin + velocity * 0.
            p1 = o1 + v1 * 0.0
            p2 = o2 + v2 * 0.0
            d0_parts.append(p1 - p2)
            dv_parts.append(v1 - v2)
            n = len(self._pair_rows)
            lo_parts.append(np.full(n, float(start)))
            hi_parts.append(np.full(n, float(end - start)))
            rr_parts.append(np.asarray(self._pair_rr, dtype=float))
            neg_parts.append(np.asarray(self._pair_neg, dtype=bool))
            row_parts.append(np.asarray(self._pair_rows, dtype=int))
        if self._leg_rows:
            d0_parts.append(
                np.asarray(self._leg_d0, dtype=float).reshape(-1, 3)
            )
            dv_parts.append(
                np.asarray(self._leg_dv, dtype=float).reshape(-1, 3)
            )
            lo_parts.append(np.asarray(self._leg_lo, dtype=float))
            hi_parts.append(np.asarray(self._leg_hi, dtype=float))
            rr_parts.append(np.asarray(self._leg_rr, dtype=float))
            neg_parts.append(np.asarray(self._leg_neg, dtype=bool))
            row_parts.append(np.asarray(self._leg_rows, dtype=int))
        if not d0_parts:
            return []

        d0 = np.concatenate(d0_parts)
        dv = np.concatenate(dv_parts)
        lo = np.concatenate(lo_parts)
        hi = np.concatenate(hi_parts)
        rr = np.concatenate(rr_parts)
        neg = np.concatenate(neg_parts)
        rows = np.concatenate(row_parts)

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

        slots = _quadratic_slots(a, b, c, hi)
        return _scatter_discrete(rows, self._n, lo, slots, start, end)


# ---------------------------------------------------------------------------
# Polygon batch (INSIDE / OUTSIDE against a fixed polygon)
# ---------------------------------------------------------------------------
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
        # One entry per (row, leg).
        self._ent_row: list[int] = []
        self._ent_lo: list[float] = []
        self._ent_smax: list[float] = []
        self._ent_o: list[tuple[float, float]] = []
        self._ent_v: list[tuple[float, float]] = []
        self._pair_entries: list[int] = []  # entries still needing o/v gather
        self._pair_slots: list[int] = []

    def __len__(self) -> int:
        return self._n

    def add_slot(self, slot: int) -> int:
        """Queue a single-leg 2-D mover registered in the table."""
        row = self._n
        self._n += 1
        entry = len(self._ent_row)
        self._ent_row.append(row)
        self._ent_lo.append(self._table.start)
        self._ent_smax.append(self._table.end - self._table.start)
        self._ent_o.append((0.0, 0.0))  # patched from the table at solve()
        self._ent_v.append((0.0, 0.0))
        self._pair_entries.append(entry)
        self._pair_slots.append(slot)
        return row

    def add_legs(
        self, legs: Sequence[tuple[float, float, Point, Point]]
    ) -> int:
        """Queue a multi-leg mover as explicit relative-motion legs."""
        row = self._n
        self._n += 1
        for lo, hi, d0, dv in legs:
            self._ent_row.append(row)
            self._ent_lo.append(lo)
            self._ent_smax.append(hi - lo)
            self._ent_o.append((d0.x, d0.y))
            self._ent_v.append((dv.x, dv.y))
        return row

    def solve(self) -> list[IntervalSet]:
        """Answer every queued row as a clipped DISCRETE *inside* set."""
        start, end = self._table.start, self._table.end
        n_ent = len(self._ent_row)
        if not n_ent:
            return []
        o = np.asarray(self._ent_o, dtype=float).reshape(-1, 2)
        v = np.asarray(self._ent_v, dtype=float).reshape(-1, 2)
        if self._pair_entries:
            origins, velocities = self._table.columns()
            ent = np.asarray(self._pair_entries, dtype=int)
            slots = np.asarray(self._pair_slots, dtype=int)
            go = origins[slots][:, :2]
            gv = velocities[slots][:, :2]
            # Scalar leg: d0 = m.position_at(start) - reference(0, 0),
            # dv = velocity - 0; position_at(start) = origin + velocity*0.
            o[ent] = (go + gv * 0.0) - 0.0
            v[ent] = gv - 0.0
        smax = np.asarray(self._ent_smax, dtype=float)

        events: list[set[float]] = [
            {0.0, s} for s in self._ent_smax
        ]
        self._collect_crossings(o, v, smax, events)

        # Flatten midpoint and event-instant probes for one classification.
        ordered_per_ent = [sorted(ev) for ev in events]
        probe_ent: list[int] = []
        probe_s: list[float] = []
        for i, ordered in enumerate(ordered_per_ent):
            for s0, s1 in zip(ordered, ordered[1:]):
                probe_ent.append(i)
                probe_s.append((s0 + s1) / 2)
            for s in ordered:
                probe_ent.append(i)
                probe_s.append(s)
        contained = self._contains(
            o, v, np.asarray(probe_ent, dtype=int),
            np.asarray(probe_s, dtype=float),
        ).tolist()

        pairs: list[list[tuple[float, float]]] = [[] for _ in range(self._n)]
        pos = 0
        for i, ordered in enumerate(ordered_per_ent):
            row = self._ent_row[i]
            lo = self._ent_lo[i]
            row_pairs = pairs[row]
            for s0, s1 in zip(ordered, ordered[1:]):
                if contained[pos]:
                    row_pairs.append((lo + s0, lo + s1))
                pos += 1
            for s in ordered:
                if contained[pos]:
                    row_pairs.append((lo + s, lo + s))
                pos += 1
        return [_discretize_pairs(p, start, end) for p in pairs]

    # ------------------------------------------------------------------
    def _collect_crossings(self, o, v, smax, events) -> None:
        """Vectorized ``kinetic._segment_crossings`` over (entry x edge)."""
        ox, oy = o[:, 0:1], o[:, 1:2]
        vx, vy = v[:, 0:1], v[:, 1:2]
        sm = smax[:, None]
        edges = self._polygon.edges
        ax = np.asarray([e.a.x for e in edges])
        ay = np.asarray([e.a.y for e in edges])
        abx = np.asarray([e.vector.x for e in edges])
        aby = np.asarray([e.vector.y for e in edges])
        bx = np.asarray([e.b.x for e in edges])
        by = np.asarray([e.b.y for e in edges])

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
            s_val = np.minimum(np.maximum(s, 0.0), sm)
            for i, j in zip(*np.nonzero(hit)):
                events[i].add(float(s_val[i, j]))

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
                val = np.minimum(np.maximum(s_e, 0.0), sm)
                for i, j in zip(*np.nonzero(ok)):
                    events[i].add(float(val[i, j]))

    def _contains(self, o, v, probe_ent, probe_s):
        """Vectorized ``Polygon.contains`` for probe points on the paths."""
        if probe_ent.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        px = (o[:, 0][probe_ent] + v[:, 0][probe_ent] * probe_s)[:, None]
        py = (o[:, 1][probe_ent] + v[:, 1][probe_ent] * probe_s)[:, None]
        edges = self._polygon.edges
        ax = np.asarray([e.a.x for e in edges])
        ay = np.asarray([e.a.y for e in edges])
        bx = np.asarray([e.b.x for e in edges])
        by = np.asarray([e.b.y for e in edges])
        vectors = [e.vector for e in edges]
        abx = np.asarray([w.x for w in vectors])
        aby = np.asarray([w.y for w in vectors])
        ns = np.asarray([w.norm_squared for w in vectors])

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
# Coefficient/breakpoint array export (motion columns)
# ---------------------------------------------------------------------------
#: ``MotionRows.kind`` codes of one dynamic-attribute row.
KIND_LINEAR = 0
KIND_PIECEWISE = 1
KIND_PICKLED = 2

#: ``MotionRows.intflags`` bits: which fields were ``int``-typed.
FLAG_VALUE_INT = 1
FLAG_UPDATETIME_INT = 2
FLAG_SLOPE_INT = 4


class MotionRows:
    """Flattened dynamic-attribute triples as coefficient arrays.

    One row per ``(object, attribute)`` triple, in caller order:
    ``value`` / ``updatetime`` / ``slope`` float64 columns plus a ``kind``
    code (:data:`KIND_LINEAR`; :data:`KIND_PIECEWISE` with breakpoints in
    the ragged ``pw_*`` pool; :data:`KIND_PICKLED`, an exact per-row
    fallback in :attr:`fallback`) and an ``intflags`` bitmask recording
    which fields were ``int``-typed so the consumer can restore exact
    value types.  This is the wire format the sharded evaluator ships
    through shared memory (:mod:`repro.parallel.motion`) and the columns
    the atom pruner's trajectory-MBR tables are computed from
    (:mod:`repro.ftl.atoms`).
    """

    def __init__(
        self,
        value,
        updatetime,
        slope,
        kind,
        intflags,
        pw_offsets,
        pw_starts,
        pw_slopes,
        fallback: dict,
    ) -> None:
        self.value = value
        self.updatetime = updatetime
        self.slope = slope
        self.kind = kind
        self.intflags = intflags
        self.pw_offsets = pw_offsets
        self.pw_starts = pw_starts
        self.pw_slopes = pw_slopes
        #: Row index → original triple, for rows the arrays cannot carry
        #: exactly (nonlinear functions, non-numeric or non-float64-exact
        #: values).
        self.fallback = fallback


def _exact_numeric(x: object) -> bool:
    """Whether ``x`` is an int/float that round-trips through float64."""
    if type(x) is float:
        return True
    if type(x) is int:
        try:
            return int(float(x)) == x
        except (OverflowError, ValueError):
            return False
    return False


def export_motion_rows(triples) -> MotionRows:
    """Flatten dynamic-attribute triples into :class:`MotionRows`."""
    from repro.motion.functions import (
        LinearFunction,
        PiecewiseLinearFunction,
    )

    n = len(triples)
    value = np.zeros(n)
    updatetime = np.zeros(n)
    slope = np.zeros(n)
    kind = np.zeros(n, dtype=np.int8)
    intflags = np.zeros(n, dtype=np.int8)
    pw_offsets: list[int] = [0]
    pw_starts: list[float] = []
    pw_slopes: list[float] = []
    fallback: dict[int, object] = {}

    for row, triple in enumerate(triples):
        fn = triple.function
        fn_type = type(fn)
        if not (
            _exact_numeric(triple.value)
            and _exact_numeric(triple.updatetime)
            and fn_type in (LinearFunction, PiecewiseLinearFunction)
        ):
            kind[row] = KIND_PICKLED
            fallback[row] = triple
            continue
        flags = 0
        if type(triple.value) is int:
            flags |= FLAG_VALUE_INT
        if type(triple.updatetime) is int:
            flags |= FLAG_UPDATETIME_INT
        value[row] = float(triple.value)
        updatetime[row] = float(triple.updatetime)
        if fn_type is LinearFunction:
            if not _exact_numeric(fn.slope):
                kind[row] = KIND_PICKLED
                fallback[row] = triple
                continue
            if type(fn.slope) is int:
                flags |= FLAG_SLOPE_INT
            slope[row] = float(fn.slope)
            kind[row] = KIND_LINEAR
        else:  # PiecewiseLinearFunction: pieces are floats by construction
            kind[row] = KIND_PIECEWISE
            for s, k in fn.pieces:
                pw_starts.append(s)
                pw_slopes.append(k)
            pw_offsets.append(len(pw_starts))
        intflags[row] = flags

    return MotionRows(
        value=value,
        updatetime=updatetime,
        slope=slope,
        kind=kind,
        intflags=intflags,
        pw_offsets=np.asarray(pw_offsets, dtype=np.int64),
        pw_starts=np.asarray(pw_starts, dtype=np.float64),
        pw_slopes=np.asarray(pw_slopes, dtype=np.float64),
        fallback=fallback,
    )


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
