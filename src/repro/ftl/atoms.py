"""Accelerated atom evaluation: index pruning + a shared solve cache.

The appendix algorithm's base case enumerates the full cartesian product
of an atom's variable domains and runs one kinetic solve per
instantiation — ``O(n^2)`` closed-form solves for binary ``DIST``/
``WITHIN_SPHERE`` atoms even when almost no pair of objects ever comes
near each other inside the window.  This module supplies the two layers
that make the base case cheap (both on by default, see DESIGN.md §7):

**Layer 1 — conservative index pruning** (:class:`AtomIndexPruner`).
Per evaluation window, every FROM-bound object's piecewise-linear
trajectory is decomposed into per-leg spatial bounding boxes covering
``[ctx.start, ctx.end]``, stored as one columnar table per spatial
dimensionality: ``lo`` / ``hi`` corner arrays plus the owner of each
row, filled once and frozen.  A context's window never changes, so
nothing here needs a tree — only an exact overlap filter — and a probe
is one vectorised closed-interval overlap mask over all rows.
``INSIDE``/``OUTSIDE`` atoms probe the region's bounding box,
``WITHIN_SPHERE``/``DIST``-comparison atoms probe the object's own leg
boxes inflated by the radius.  An instantiation outside the candidate
set is *known* without any solve: the empty set for ``INSIDE``/
``dist <= r``, the full window for ``OUTSIDE``/``dist >= r``.
Soundness follows from MBR over-approximation: satisfaction at any dense
time implies spatial overlap of the (inflated) boxes, so a non-candidate
can never satisfy the positive predicate.  Objects whose motion is
nonlinear or non-spatial are *unprunable* — always candidates — so the
solve path sees exactly the inputs (and raises exactly the errors) the
exhaustive path would.

**Layer 2 — shared kinetic-solve cache** (:class:`KineticSolveCache`).
A bounded memo table attached to the :class:`~repro.core.database.
MostDatabase` (``db.kinetic_cache``), keyed by the atom kind, its
canonical arguments, the *exact* evaluation window, and the
participating objects' frozen motion triples.  Repeated subformulas,
plan-ordered re-evaluations, the three evaluators, and continuous-query
refreshes after irrelevant updates all reuse solved interval sets.
Motion updates invalidate naturally: an explicit update produces a new
``(value, updatetime, function)`` triple, hence a new key.  Keys always
pin the exact window because the numeric fallback solvers sample a
window-dependent grid — reusing a clipped superset answer could differ
near the boundary.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import QueryError, SchemaError
from repro.ftl.ast import Compare, Dist, Formula, Inside, Outside, WithinSphere
from repro.ftl.relations import EMPTY_SET
from repro.geometry import Point
from repro.motion import batch
from repro.motion.moving import LinearPiece, MovingPoint
from repro.spatial.kinetic import paired_legs
from repro.spatial.polygon import Polygon
from repro.spatial.regions import Ball
from repro.temporal import DISCRETE, IntervalSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.history import History
    from repro.ftl.context import Env, EvalContext

#: Default bound on cached solve entries (FIFO eviction beyond this).
DEFAULT_CACHE_ENTRIES = 8192

#: Comparison operators a DIST atom can be pruned under, and how each op
#: reads once the pair is known to stay strictly farther apart than the
#: bound for the whole window: ``True`` → the atom holds everywhere.
_DIST_OPS = {"<": False, "<=": False, ">": True, ">=": True}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


class KineticSolveCache:
    """Bounded FIFO memo table of kinetic atom solves.

    Values are :class:`~repro.temporal.IntervalSet` answers exactly as
    the interval evaluator would have computed them (discretized and
    clipped to the window baked into the key), so a hit is
    indistinguishable — tuple-for-tuple — from a fresh solve.

    **Window-shifted reuse** (pass 8).  Exact-window keying makes a pure
    time advance — same motion triples, same horizon end, later start —
    a guaranteed miss.  When the evaluator *proves* an entry
    shift-reusable (the atom's validity horizon is non-bottom, i.e.
    every read trajectory is piecewise-linear and solved analytically,
    so the dense answer is window-independent and clipping commutes with
    discretization), it stamps the ``put`` with the solved window and
    the horizon's concrete expiry.  A later exact miss whose key differs
    *only* in the window may then be answered by clipping the stamped
    entry, provided the requested window is contained in the stored one
    and starts before the stamp expires.  Unstamped entries (numeric
    fallback solvers sample a window-dependent grid) never shift.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES) -> None:
        self.max_entries = max_entries
        self._entries: "OrderedDict[object, IntervalSet]" = OrderedDict()
        #: Window-erased index of stamped entries: ``key[:1] + key[2:]``
        #: → (solved window, full key, validity expiry).
        self._stamped: "OrderedDict[object, tuple[tuple[float, float], object, float]]" = (
            OrderedDict()
        )
        #: Cumulative lookup stats across every evaluator sharing this
        #: cache (per-evaluator counts live on the evaluators).
        self.hits = 0
        self.misses = 0
        self.shift_hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: object) -> IntervalSet | None:
        """The cached answer, or ``None``."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(
        self,
        key: object,
        value: IntervalSet,
        stamp: tuple[tuple[float, float], float] | None = None,
    ) -> None:
        """Store one solved answer, evicting FIFO beyond the bound.

        ``stamp`` is ``(solved_window, t_expire)``; only the evaluator
        passes it, and only when the atom's validity horizon proves the
        answer window-independent (see the class docstring).
        """
        entries = self._entries
        if key in entries:
            return
        entries[key] = value
        if stamp is not None and isinstance(key, tuple) and len(key) >= 2:
            window, expire = stamp
            self._stamped[key[:1] + key[2:]] = (window, key, expire)
            while len(self._stamped) > self.max_entries:
                self._stamped.popitem(last=False)
        while len(entries) > self.max_entries:
            entries.popitem(last=False)

    def shifted_get(self, key: object) -> IntervalSet | None:
        """Window-shifted reuse probe, tried after an exact miss.

        Answers from a stamped entry whose key differs only in the
        window, clipped to the requested window — exact because stamped
        answers are dense analytic solutions discretized per tick, so
        ``solve([s,e]).clip(s',e') == solve([s',e'])`` whenever
        ``[s',e'] ⊆ [s,e]`` and the motion triples (in the key) match.
        The stamp's expiry additionally ties reuse to the static
        validity horizon: a requested start at or beyond it refuses.
        """
        if not (isinstance(key, tuple) and len(key) >= 2):
            return None
        window = key[1]
        if not (isinstance(window, tuple) and len(window) == 2):
            return None
        entry = self._stamped.get(key[:1] + key[2:])
        if entry is None:
            return None
        stored_window, full_key, expire = entry
        lo, hi = stored_window
        req_lo, req_hi = window
        if not (lo <= req_lo and req_hi <= hi and req_lo < expire):
            return None
        value = self._entries.get(full_key)
        if value is None:
            return None  # the backing entry was evicted
        self.shift_hits += 1
        return value.clip(float(req_lo), float(req_hi))

    def clear(self) -> None:
        """Drop every entry (stats are kept)."""
        self._entries.clear()
        self._stamped.clear()


# ---------------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------------


class _SolveToken:
    """Hash-caching wrapper around a heavyweight token value.

    A solve key is hashed several times per candidate row (the
    ``_keyed`` hashability check, cache probes, pending-set bookkeeping,
    the final ``put``) and Python tuples re-hash their contents every
    time — for a 16-vertex polygon token that is the dominant cost of
    the whole key layer.  The wrapper computes the hash once; equality
    still compares the underlying values, so key semantics — including
    invalidation on region redefinition or motion update — are
    unchanged.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: object) -> None:
        self.value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _SolveToken):
            return self.value == other.value
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_SolveToken({self.value!r})"


def motion_token(history: "History", object_id: object) -> object | None:
    """A hashable token identifying an object's frozen motion state.

    The token is the tuple of position-axis ``(value, updatetime,
    function)`` triples — the exact inputs every kinetic solver reads —
    so two cache keys collide only when the solved trajectories are
    identical.  Returns ``None`` (uncacheable) for recorded histories
    (their trajectories splice the update log, not a frozen triple) and
    for objects without spatial attributes.
    """
    from repro.core.history import FutureHistory

    if not isinstance(history, FutureHistory):
        return None
    try:
        obj = history.db.get(object_id)
    except SchemaError:
        return None
    names = obj.object_class.position_attributes
    if not names:
        return None
    try:
        triples = tuple(
            history.dynamic_triple(object_id, attr) for attr in names
        )
    except QueryError:
        return None
    return triples


#: Memo of wrapped region tokens, keyed by region identity.  Regions are
#: immutable (``Ball`` is frozen, ``Polygon`` never mutates its
#: vertices) so a token can never go stale for a given object; distinct
#: objects with equal geometry still produce *equal* tokens, preserving
#: the name-independent key semantics.  Bounded and cleared wholesale —
#: correctness never depends on a memo hit.
_REGION_TOKENS: dict[int, tuple[object, "_SolveToken"]] = {}
_REGION_TOKEN_LIMIT = 256


def region_token(region: object) -> object | None:
    """A hashable token identifying a region's geometry (name-independent,
    so redefining a named region can never serve a stale answer)."""
    entry = _REGION_TOKENS.get(id(region))
    if entry is not None and entry[0] is region:
        return entry[1]
    if isinstance(region, Ball):
        raw: object = region
    elif isinstance(region, Polygon):
        raw = ("poly", region.vertices)
    else:
        return None
    token = _SolveToken(raw)
    if len(_REGION_TOKENS) >= _REGION_TOKEN_LIMIT:
        _REGION_TOKENS.clear()
    _REGION_TOKENS[id(region)] = (region, token)
    return token


def clear_region_tokens() -> None:
    """Drop the module-level region-token memo.

    A freshly forked shard worker inherits the parent's memo by memory
    copy; the entries are keyed by the *parent's* object identities and
    pin the parent's region objects alive in the child for no benefit.
    Workers clear the memo on startup and repopulate it against their own
    replica (see :func:`repro.parallel.worker.reset_worker_caches`).
    """
    _REGION_TOKENS.clear()


def _ctx_motion_token(
    ctx: "EvalContext", object_id: object
) -> "_SolveToken | None":
    """Per-context memo of wrapped motion tokens.  A context covers one
    evaluation of one frozen history — tokens cannot go stale within its
    lifetime — and the cached hash keeps per-row key construction cheap."""
    memo = ctx._motion_tokens
    if object_id in memo:
        return memo[object_id]
    raw = motion_token(ctx.history, object_id)
    token = None if raw is None else _SolveToken(raw)
    memo[object_id] = token
    return token


def _window(ctx: "EvalContext") -> tuple[int, int]:
    return (ctx.start, ctx.end)


def _keyed(parts: tuple) -> tuple | None:
    try:
        hash(parts)
    except TypeError:
        return None
    return parts


def region_solve_key(
    ctx: "EvalContext", region: object, object_id: object
) -> tuple | None:
    """Key of the *inside* interval set of one object vs one region
    (``OUTSIDE`` complements the cached answer on retrieval)."""
    rtok = region_token(region)
    mtok = _ctx_motion_token(ctx, object_id)
    if rtok is None or mtok is None:
        return None
    return _keyed(("region", _window(ctx), rtok, mtok))


def sphere_solve_key(
    ctx: "EvalContext", radius: float, object_ids: list[object]
) -> tuple | None:
    """Key of a ``WITHIN_SPHERE`` solve.  Object order is preserved (not
    sorted): the predicate is symmetric but the numeric solver need not
    be bit-for-bit order-independent, and structural equality with the
    exhaustive path matters more than a few extra entries."""
    tokens = []
    for oid in object_ids:
        tok = _ctx_motion_token(ctx, oid)
        if tok is None:
            return None
        tokens.append(tok)
    return _keyed(("sphere", _window(ctx), float(radius), tuple(tokens)))


def dist_solve_key(
    ctx: "EvalContext", op: str, bound: float, a: object, b: object
) -> tuple | None:
    """Key of a ``DIST(a, b) op bound`` fast-path solve."""
    ta = _ctx_motion_token(ctx, a)
    tb = _ctx_motion_token(ctx, b)
    if ta is None or tb is None:
        return None
    return _keyed(("dist", _window(ctx), op, float(bound), ta, tb))


def attr_solve_key(
    ctx: "EvalContext", op: str, bound: float, triple: object
) -> tuple | None:
    """Key of a linear dynamic-attribute range fast-path solve; the
    frozen triple itself is the motion token."""
    return _keyed(("attr", _window(ctx), op, float(bound), triple))


# ---------------------------------------------------------------------------
# Layer 1: the index pruner
# ---------------------------------------------------------------------------


class _MbrTable:
    """The frozen leg boxes of one spatial dimensionality, as columns:
    ``lo[d, N]`` / ``hi[d, N]`` corner arrays (one contiguous row per
    axis) plus the owning object of each of the ``N`` boxes."""

    __slots__ = ("lo", "hi", "owners", "members")

    def __init__(
        self,
        lo: list[list[float]],
        hi: list[list[float]],
        owners: list[object],
    ) -> None:
        self.lo = np.ascontiguousarray(np.array(lo, dtype=float).T)
        self.hi = np.ascontiguousarray(np.array(hi, dtype=float).T)
        self.owners = owners
        self.members = frozenset(owners)

    def overlapping(
        self, probe_lo: np.ndarray, probe_hi: np.ndarray
    ) -> set[object]:
        """Owners of the boxes that overlap (closed intervals, every
        axis) any of the ``K`` probe boxes ``probe_lo[d, K]`` /
        ``probe_hi[d, K]``."""
        mask = (self.lo[:, None, :] <= probe_hi[:, :, None]) & (
            probe_lo[:, :, None] <= self.hi[:, None, :]
        )
        owners = self.owners
        hits = np.flatnonzero(mask.all(axis=0).any(axis=0))
        return {owners[i] for i in hits.tolist()}


class AtomIndexPruner:
    """Per-window trajectory MBR table answering atom candidate queries.

    Built lazily on first use from the evaluation context: every
    FROM-bound object's :meth:`~repro.motion.moving.MovingPoint.
    linear_pieces` over ``[ctx.start, ctx.end]`` become per-leg spatial
    bounding boxes, one row each of a structure-of-arrays table per
    spatial dimensionality (time is not a table axis, so candidate sets
    are window-wide, a strictly conservative coarsening).  The table is
    filled once and never updated — the context it serves is one frozen
    window — so a probe is a single vectorised closed-interval overlap
    mask over all rows: exact, and ``O(N)`` at the fleet sizes a window
    holds.  Objects that cannot be plotted — nonlinear motion, no
    spatial attributes — are *unprunable*: members of every candidate
    set, so the exact solve path handles them (and raises on them)
    exactly as the exhaustive evaluator would.
    """

    def __init__(self, ctx: "EvalContext") -> None:
        self.ctx = ctx
        self._built = False
        self._tables: dict[int, _MbrTable] = {}
        #: Indexed object -> ``(dim, first row, one past its last row)``.
        self._rows: dict[object, tuple[int, int, int]] = {}
        self._unprunable: set[object] = set()
        #: Unprunables whose exhaustive solve would *raise* (nonspatial,
        #: unknown id).  Pruning an instantiation containing one would
        #: swallow the error the exhaustive path reports, so gates refuse.
        self._raising: set[object] = set()
        self._region_cands: dict[object, frozenset] = {}
        self._pair_cands: dict[tuple, frozenset] = {}
        #: Largest |coordinate| indexed; inflation pads scale with it so
        #: the solvers' relative boundary tolerance can never out-reach
        #: the pruning boxes.
        self._scale = 1.0

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def _build(self) -> None:
        if self._built:
            return
        self._built = True
        ctx = self.ctx
        # dim -> (lo rows, hi rows, owners), frozen into tables below.
        columns: dict[int, tuple[list, list, list]] = {}
        seen: set[object] = set()
        for var in ctx.bindings:
            for oid in ctx.domain(var):
                if oid not in seen:
                    seen.add(oid)
                    self._index_object(oid, columns)
        for dim, (lo, hi, owners) in columns.items():
            table = self._tables[dim] = _MbrTable(lo, hi, owners)
            self._scale = max(
                self._scale,
                float(np.abs(table.lo).max()),
                float(np.abs(table.hi).max()),
            )

    def _index_object(
        self, oid: object, columns: dict[int, tuple[list, list, list]]
    ) -> None:
        ctx = self.ctx
        try:
            mover = ctx.moving_point(oid)
            pieces = mover.linear_pieces(ctx.start, ctx.end)
        except (QueryError, SchemaError):
            self._unprunable.add(oid)
            self._raising.add(oid)
            return
        if pieces is None:  # nonlinear motion: solve exactly, always
            self._unprunable.add(oid)
            return
        dim = mover.dim
        lo, hi, owners = columns.setdefault(dim, ([], [], []))
        first = len(owners)
        for piece in pieces:
            span = piece.end - piece.start
            a = piece.origin.coords
            b = [x + v * span for x, v in zip(a, piece.velocity.coords)]
            lo.append([min(x, y) for x, y in zip(a, b)])
            hi.append([max(x, y) for x, y in zip(a, b)])
            owners.append(oid)
        self._rows[oid] = (dim, first, len(owners))

    @property
    def _pad(self) -> float:
        """Extra inflation absorbing the solvers' boundary slack (which
        is relative to coordinate magnitude, see e.g. Ball.contains)."""
        return 1e-6 * (1.0 + self._scale)

    def is_indexed(self, oid: object) -> bool:
        """Whether ``oid`` has rows in the table — the only objects a
        gate may prune.  An id the table has never seen (assigned-
        variable value, unknown object) and every unprunable object must
        take the solve path, which decides — or raises — exactly as the
        exhaustive evaluator would."""
        self._build()
        return oid in self._rows

    def _safe(self, oid: object) -> bool:
        """Whether the exhaustive solve path is guaranteed not to raise
        for this object (indexed, or unprunable for nonlinearity only)."""
        return self.is_indexed(oid) or (
            oid in self._unprunable and oid not in self._raising
        )

    # ------------------------------------------------------------------
    # Candidate queries
    # ------------------------------------------------------------------
    def _candidates(
        self, dim: int, probe_lo: np.ndarray, probe_hi: np.ndarray
    ) -> set[object]:
        """Every unprunable object, every object of another
        dimensionality (the exact path raises or decides on those), and
        the ``dim``-dimensional objects a probe box touches."""
        cands = set(self._unprunable)
        for d, table in self._tables.items():
            if d == dim:
                cands |= table.overlapping(probe_lo, probe_hi)
            else:
                cands |= table.members
        return cands

    def region_candidates(self, region: object) -> frozenset | None:
        """Objects that may intersect the region during the window, or
        ``None`` when the region's geometry cannot be boxed."""
        token = region_token(region)
        if token is None:
            return None
        hit = self._region_cands.get(token)
        if hit is not None:
            return hit
        self._build()
        pad = self._pad
        if isinstance(region, Polygon):
            min_x, min_y, max_x, max_y = region.bounding_box()
            lo = [min_x - pad, min_y - pad]
            hi = [max_x + pad, max_y + pad]
        else:  # Ball (region_token already filtered the rest)
            lo = [c - region.radius - pad for c in region.center]
            hi = [c + region.radius + pad for c in region.center]
        out = frozenset(
            self._candidates(len(lo), np.array([lo]).T, np.array([hi]).T)
        )
        self._region_cands[token] = out
        return out

    def pair_candidates(self, oid: object, radius: float) -> frozenset | None:
        """Objects that may come within ``radius`` of ``oid`` at some
        time of the window (``oid`` itself included), or ``None`` when
        ``oid`` is unprunable (every object is then a candidate)."""
        self._build()
        rows = self._rows.get(oid)
        if rows is None:
            return None
        key = (oid, float(radius))
        hit = self._pair_cands.get(key)
        if hit is not None:
            return hit
        dim, first, stop = rows
        table = self._tables[dim]
        inflate = radius + self._pad
        cands = self._candidates(
            dim,
            table.lo[:, first:stop] - inflate,
            table.hi[:, first:stop] + inflate,
        )
        cands.add(oid)
        out = frozenset(cands)
        self._pair_cands[key] = out
        return out

    # ------------------------------------------------------------------
    # The atom gate
    # ------------------------------------------------------------------
    def gate(
        self, f: Formula
    ) -> "Callable[[Env], IntervalSet | None] | None":
        """A per-instantiation gate for one atom, or ``None`` when the
        atom kind is not prunable.

        The gate maps an environment to the *known* answer (no solve
        needed) or ``None`` (run the solve path).  Known answers are
        structurally identical to what the solve path would produce:
        ``EMPTY_SET`` and the full discrete window span are exactly the
        shapes the discretize-and-clip pipeline emits.
        """
        ctx = self.ctx
        full = IntervalSet.span(ctx.start, ctx.end, DISCRETE)

        if isinstance(f, (Inside, Outside)):
            try:
                region = ctx.history.region(f.region)
            except SchemaError:
                return None  # let the solve path raise identically
            cands = self.region_candidates(region)
            if cands is None:
                return None
            miss = EMPTY_SET if isinstance(f, Inside) else full
            obj_term = f.obj

            def region_gate(env: "Env") -> IntervalSet | None:
                oid = ctx.eval_term(obj_term, env, ctx.start)
                if oid in cands or not self.is_indexed(oid):
                    return None
                return miss

            return region_gate

        if isinstance(f, WithinSphere):
            # All k points fit in a radius-r sphere only if every pair is
            # within 2r of each other at that moment — a necessary
            # condition, so one far pair kills the instantiation.
            diameter = 2.0 * float(f.radius)
            if diameter < 0:
                return None  # let the solve path raise identically
            objs = f.objs

            def sphere_gate(env: "Env") -> IntervalSet | None:
                oids = [ctx.eval_term(o, env, ctx.start) for o in objs]
                # Any participant whose exhaustive solve would raise (or
                # that the index has never seen) forces the solve path.
                if not all(self._safe(o) for o in oids):
                    return None
                for i, a in enumerate(oids):
                    cands = self.pair_candidates(a, diameter)
                    if cands is None:
                        continue
                    for b in oids[i + 1 :]:
                        if self.is_indexed(b) and b not in cands:
                            return EMPTY_SET
                return None

            return sphere_gate

        if isinstance(f, Compare):
            spec = self._dist_spec(f)
            if spec is None:
                return None
            dist_term, bound_term, op = spec
            holds_when_far = _DIST_OPS[op]

            def dist_gate(env: "Env") -> IntervalSet | None:
                bound = ctx.eval_term(bound_term, env, ctx.start)
                if not isinstance(bound, (int, float)) or bound < 0:
                    return None
                a = ctx.eval_term(dist_term.left, env, ctx.start)
                b = ctx.eval_term(dist_term.right, env, ctx.start)
                cands = self.pair_candidates(a, float(bound))
                if cands is None or b in cands or not self.is_indexed(b):
                    return None
                # Both indexed, disjoint after inflation: the pair stays
                # strictly farther than the bound for the whole window.
                return full if holds_when_far else EMPTY_SET

            return dist_gate

        return None

    def _dist_spec(
        self, f: Compare
    ) -> tuple[Dist, object, str] | None:
        """Normalise ``DIST(a, b) op bound`` with the distance on the
        left, mirroring the evaluator's fast path (plus strict ops,
        which prune identically)."""
        if f.op not in _DIST_OPS:
            return None
        ctx = self.ctx
        if isinstance(f.left, Dist) and ctx.term_invariant(f.right):
            return f.left, f.right, f.op
        if isinstance(f.right, Dist) and ctx.term_invariant(f.left):
            return f.right, f.left, _FLIP[f.op]
        return None


# ---------------------------------------------------------------------------
# Layer 3: batch submission of kinetic solves
# ---------------------------------------------------------------------------


class KineticBatch:
    """One atom's worth of kinetic solves, submitted as a batch.

    The interval evaluator queues each surviving instantiation's solve
    request here instead of solving it inline.  Requests whose motion is
    piecewise linear over the window become rows of the vectorized
    backend (:mod:`repro.motion.batch`): ``DIST`` comparisons,
    ``INSIDE``/``OUTSIDE`` of a ball, and two-object ``WITHIN_SPHERE``
    reduce to the quadratic kernel; polygon containment to the
    edge-crossing sweep.  Everything else — nonlinear motion, spheres
    over ``k != 2`` objects, dimension mismatches, negative radii — is
    rejected (:meth:`submit` returns ``None``) and the evaluator runs
    the scalar closure at submit time, preserving evaluation order and
    error behaviour exactly.

    Movers that cannot be resolved raise from :meth:`submit` itself,
    which the evaluator calls at the same product-order position where
    the scalar path would have run (and raised from) the solve closure.
    """

    def __init__(self, ctx: "EvalContext") -> None:
        self.ctx = ctx
        self._table = batch.LinearTable(ctx.start, ctx.end)
        #: oid -> ("single" | "multi", pieces) or (None, None) when the
        #: motion is not piecewise linear over the window.
        self._motions: dict[object, tuple] = {}
        self._centers: dict[Ball, list[LinearPiece]] = {}
        self._reference: list[LinearPiece] | None = None
        self._dist: batch.DistanceBatch | None = None
        self._polys: dict[object, batch.PolygonBatch] = {}
        self._solved: dict[int, list[IntervalSet]] = {}

    # ------------------------------------------------------------------
    # Motion classification
    # ------------------------------------------------------------------
    def _motion(self, oid: object) -> tuple:
        """``("single", [leg])``, ``("multi", pieces)``, or ``(None,
        None)`` for one object, memoized; raises exactly as
        ``ctx.moving_point`` would."""
        entry = self._motions.get(oid)
        if entry is None:
            mover = self.ctx.moving_point(oid)
            leg = mover.single_leg(self.ctx.start, self.ctx.end)
            if leg is not None:
                entry = ("single", [leg])
            else:
                pieces = mover.linear_pieces(self.ctx.start, self.ctx.end)
                entry = (
                    ("multi", pieces) if pieces is not None else (None, None)
                )
            self._motions[oid] = entry
        return entry

    def _ball_center(self, region: Ball) -> list[LinearPiece]:
        """The static ball-center mover's single leg (the same virtual
        ``MovingPoint(ball.center)`` the scalar solver pairs against)."""
        legs = self._centers.get(region)
        if legs is None:
            leg = MovingPoint(region.center).single_leg(
                self.ctx.start, self.ctx.end
            )
            assert leg is not None  # static motion is always one leg
            legs = self._centers[region] = [leg]
        return legs

    def _ref_pieces(self) -> list[LinearPiece]:
        """The polygon solver's static ``(0, 0)`` reference pieces."""
        if self._reference is None:
            pieces = MovingPoint(Point(0.0, 0.0)).linear_pieces(
                self.ctx.start, self.ctx.end
            )
            assert pieces is not None  # static motion is always linear
            self._reference = pieces
        return self._reference

    def _dist_batch(self) -> batch.DistanceBatch:
        if self._dist is None:
            self._dist = batch.DistanceBatch(self._table)
        return self._dist

    def _poly_batch(self, region: Polygon) -> batch.PolygonBatch:
        token = region_token(region)
        pb = self._polys.get(token)
        if pb is None:
            pb = self._polys[token] = batch.PolygonBatch(region, self._table)
        return pb

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, vec: tuple) -> tuple | None:
        """Queue one vectorizable solve, returning an opaque handle, or
        ``None`` when only the scalar closure applies."""
        kind = vec[0]
        if kind == "dist":
            return self._submit_dist(vec[1], vec[2], vec[3], vec[4])
        if kind == "region":
            return self._submit_region(vec[1], vec[2])
        if kind == "sphere":
            obj_ids, radius = vec[1], vec[2]
            if len(obj_ids) != 2 or radius < 0:
                return None
            # Two movers fit in a radius-r sphere exactly when they are
            # within 2r of each other — the scalar reduction.
            return self._submit_dist(
                obj_ids[0], obj_ids[1], 2 * radius, False
            )
        return None  # pragma: no cover - descriptor kinds are closed

    def _submit_dist(
        self, a: object, b: object, bound: float, at_least: bool
    ) -> tuple | None:
        ka, pa = self._motion(a)
        if ka is None:
            return None
        kb, pb = self._motion(b)
        if kb is None:
            return None
        if pa[0].origin.dim != pb[0].origin.dim:
            return None  # the scalar closure raises the mismatch error
        dist = self._dist_batch()
        if ka == "single" and kb == "single":
            row = dist.add_pair(
                self._table.add(a, pa[0]),
                self._table.add(b, pb[0]),
                bound,
                at_least,
            )
        else:
            legs = paired_legs(pa, pb, self.ctx.window)
            row = dist.add_legs(legs, bound, at_least)
        return (dist, row)

    def _submit_region(self, obj_id: object, region: object) -> tuple | None:
        if isinstance(region, Ball):
            if region.radius < 0:
                return None  # the scalar closure raises
            kind, pieces = self._motion(obj_id)
            if kind is None:
                return None
            center = self._ball_center(region)
            if pieces[0].origin.dim != center[0].origin.dim:
                return None
            dist = self._dist_batch()
            if kind == "single":
                row = dist.add_pair(
                    self._table.add(obj_id, pieces[0]),
                    self._table.add(("__ball_center__", region), center[0]),
                    region.radius,
                    False,
                )
            else:
                legs = paired_legs(pieces, center, self.ctx.window)
                row = dist.add_legs(legs, region.radius, False)
            return (dist, row)
        if isinstance(region, Polygon):
            kind, pieces = self._motion(obj_id)
            if kind is None:
                return None
            if pieces[0].origin.dim != 2:
                return None  # the scalar closure raises the 2-D error
            pb = self._poly_batch(region)
            if kind == "single":
                row = pb.add_slot(self._table.add(obj_id, pieces[0]))
            else:
                legs = paired_legs(pieces, self._ref_pieces(), self.ctx.window)
                row = pb.add_legs(legs)
            return (pb, row)
        return None  # unsupported region: the scalar closure raises

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def solve(self) -> None:
        """Run every queued batch through the vectorized kernels."""
        if self._dist is not None:
            self._solved[id(self._dist)] = self._dist.solve()
        for pb in self._polys.values():
            self._solved[id(pb)] = pb.solve()

    def result(self, handle: tuple) -> IntervalSet:
        """The solved answer for one :meth:`submit` handle."""
        queue, row = handle
        return self._solved[id(queue)][row]
