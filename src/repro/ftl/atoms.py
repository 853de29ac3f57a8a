"""Accelerated atom evaluation: index pruning + stamped solve reuse.

The appendix algorithm's base case enumerates the full cartesian product
of an atom's variable domains and runs one kinetic solve per
instantiation — ``O(n^2)`` closed-form solves for binary ``DIST``/
``WITHIN_SPHERE`` atoms even when almost no pair of objects ever comes
near each other inside the window.  This module supplies the two layers
that make the base case cheap (both on by default, see DESIGN.md §7):

**Layer 1 — conservative index pruning** (:class:`AtomIndexPruner`).
Per object class and evaluation window, every member's piecewise-linear
trajectory is decomposed into per-leg spatial bounding boxes covering
``[ctx.start, ctx.end]``, stored as one columnar table
(:class:`ClassMbrTable`): ``lo`` / ``hi`` corner arrays plus the owner
of each row, computed in one vectorised pass over the motion columns
for linear movers, filled once and frozen.  The database keeps the
tables of its current content version (:class:`MbrTableCache`), so
every query and context over that version and window shares one build.
A window never changes, so nothing here needs a tree — only an exact
overlap filter, :func:`overlap_join`: one sorted sweep of a table's
rows against every box of a probe table, answering as CSR partner
arrays.  ``INSIDE``/``OUTSIDE`` atoms join the region's bounding box
against each class table; ``WITHIN_SPHERE``/``DIST``-comparison atoms
join one class table's leg boxes, inflated by the radius, against
another's, once per atom, and read each object's partners off the
result.  An instantiation outside the candidate
set is *known* without any solve: the empty set for ``INSIDE``/
``dist <= r``, the full window for ``OUTSIDE``/``dist >= r``.
Soundness follows from MBR over-approximation: satisfaction at any dense
time implies spatial overlap of the (inflated) boxes, so a non-candidate
can never satisfy the positive predicate.  Objects whose motion is
nonlinear or non-spatial are *unprunable* — always candidates — so the
solve path sees exactly the inputs (and raises exactly the errors) the
exhaustive path would.

**Layer 2 — stamped solve reuse** (:class:`KineticSolveCache`).
A bounded table attached to the :class:`~repro.core.database.
MostDatabase` (``db.kinetic_cache``), keyed by the atom kind, its
canonical arguments and the participating objects' frozen motion
triples — not the window.  Only an atom evaluated under a validity
stamp (a continuous query's refresh with validity horizons, DESIGN.md
§11) builds a key and reads or writes the table; every other
evaluation solves.  The stamp proves each trajectory the atom reads
piecewise-linear and solved in closed form, so the dense answer does
not depend on the window and a stored answer clipped to any contained
window that starts before the stamp expires is the answer a fresh
solve would give.  Motion updates invalidate naturally: an explicit
update produces a new ``(value, updatetime, function)`` triple, hence
a new key.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from functools import partial
from itertools import repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from repro.core.columns import MotionRows, linear_legs
from repro.errors import QueryError, SchemaError
from repro.ftl.ast import (
    Compare,
    Const,
    Dist,
    Formula,
    Inside,
    Outside,
    Var,
    WithinSphere,
)
from repro.ftl.relations import EMPTY_SET, Instantiation
from repro.motion import batch
from repro.motion.moving import MovingPoint
from repro.spatial.polygon import Polygon
from repro.spatial.regions import Ball
from repro.temporal import DISCRETE, IntervalSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.history import History
    from repro.ftl.context import EvalContext

#: Default bound on cached solve entries (FIFO eviction beyond this).
DEFAULT_CACHE_ENTRIES = 8192

#: Comparison operators a DIST atom can be pruned under, and how each op
#: reads once the pair is known to stay strictly farther apart than the
#: bound for the whole window: ``True`` → the atom holds everywhere.
_DIST_OPS = {"<": False, "<=": False, ">": True, ">=": True}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: One atom's rows split by :meth:`AtomIndexPruner.partition`: the
#: positions of the rows to solve (an ascending int array), the count of
#: decided rows, and the answer every decided row has.
AtomPartition = tuple[np.ndarray, int, IntervalSet]

#: One stored solve of :class:`KineticSolveCache`: the window it was
#: solved over, the expiry of its validity stamp and the answer.
SolveEntry = tuple[tuple[int, int], float, IntervalSet]


def _radius(bound: object) -> float:
    """A ``DIST`` bound as a pruning radius, or NaN when the solve path
    must decide: not a number, negative, or NaN (``not >=`` refuses NaN,
    which no box is within)."""
    if not isinstance(bound, (int, float)) or not bound >= 0:
        return math.nan
    return float(bound)


class KineticSolveCache:
    """Bounded FIFO table of stamped kinetic atom solves.

    An entry is ``key -> (solved window, stamp expiry, answer)``, the
    answer discretized and clipped to the solved window exactly as the
    interval evaluator computed it.  A lookup hits when the stored
    window contains the requested one and the request starts before the
    expiry; it returns the answer clipped to the request, which is
    ``solve([s', e'])`` because ``solve([s, e]).clip(s', e') ==
    solve([s', e'])`` for analytic solves whenever ``[s', e'] ⊆ [s, e]``
    (the equal window is the trivial case).  Only a solve writes an
    entry, replacing the key's older one; a hit writes nothing.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES) -> None:
        self.max_entries = max_entries
        self._store: "OrderedDict[object, SolveEntry]" = OrderedDict()
        #: Cumulative lookup stats across every evaluator sharing this
        #: table (per-evaluator counts live on the evaluators).
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: object, window: tuple[int, int]) -> IntervalSet | None:
        """The stored answer clipped to ``window``, or ``None``."""
        entry = self._store.get(key)
        if entry is not None:
            solved, expire, value = entry
            start, end = window
            if solved[0] <= start and end <= solved[1] and start < expire:
                self.hits += 1
                return value if solved == window else value.clip(start, end)
        self.misses += 1
        return None

    def put(
        self,
        key: object,
        window: tuple[int, int],
        expire: float,
        value: IntervalSet,
    ) -> None:
        """Store one solve over ``window`` under a stamp expiring at
        ``expire``, replacing the key's entry and evicting FIFO beyond
        the bound."""
        store = self._store
        store.pop(key, None)
        store[key] = (window, expire, value)
        while len(store) > self.max_entries:
            store.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (stats are kept)."""
        self._store.clear()


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

    The token is the object's position rows read off its class's motion
    columns (:meth:`~repro.core.columns.MotionColumns.token`) — the exact
    inputs every kinetic solver reads — so two cache keys collide only
    when the solved trajectories are identical, and equal exactly when
    the position triples are equal.  Returns ``None`` (uncacheable) for
    recorded histories (their trajectories splice the update log, not a
    frozen triple), for a history whose database moved on, for unknown
    objects and for objects without spatial attributes.
    """
    from repro.core.history import FutureHistory

    if not isinstance(history, FutureHistory):
        return None
    try:
        columns, number = history.motion_slot(object_id)
    except QueryError:
        return None
    if not columns.dim:
        return None
    return columns.token(number)


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


def linear_motion_tokens(
    ctx: "EvalContext",
    ids: Sequence[object],
    value: np.ndarray,
    updatetime: np.ndarray,
    slope: np.ndarray,
) -> list["_SolveToken"]:
    """The wrapped motion tokens of the objects ``ids`` whose position
    rows hold the ``(objects, dim)`` coefficients given, every axis
    :data:`~repro.core.columns.KIND_LINEAR`, through the per-context
    memo of :func:`_ctx_motion_token`: per axis the float coefficients,
    exactly what :meth:`~repro.core.columns.MotionColumns.token` reads."""
    memo = ctx._motion_tokens
    out: list[_SolveToken] = []
    columns: tuple[list, list, list] | None = None
    for i, oid in enumerate(ids):
        token = memo.get(oid)
        if token is None:
            if columns is None:
                columns = (value.tolist(), updatetime.tolist(), slope.tolist())
            values, updatetimes, slopes = columns
            token = memo[oid] = _SolveToken(
                tuple(zip(values[i], updatetimes[i], slopes[i]))
            )
        out.append(token)
    return out


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
    return _keyed(("region", rtok, mtok))


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
    return _keyed(("sphere", float(radius), tuple(tokens)))


def dist_solve_key(
    ctx: "EvalContext", op: str, bound: float, a: object, b: object
) -> tuple | None:
    """Key of a ``DIST(a, b) op bound`` fast-path solve."""
    ta = _ctx_motion_token(ctx, a)
    tb = _ctx_motion_token(ctx, b)
    if ta is None or tb is None:
        return None
    return _keyed(("dist", op, float(bound), ta, tb))


# ---------------------------------------------------------------------------
# Layer 1: the index pruner
# ---------------------------------------------------------------------------


class _MbrTable:
    """Frozen boxes of one dimensionality ``dim``, as columns: ``lo[d,
    N]`` / ``hi[d, N]`` corner arrays (one contiguous row per axis)
    built from ``N`` rows of ``d`` corners each, plus the owning object
    of each of the ``N`` boxes — one class's leg boxes, or a region's
    one probe box."""

    __slots__ = ("lo", "hi", "owners", "members", "dim", "_sweep", "_heads")

    def __init__(
        self,
        lo: "list[list[float]] | np.ndarray",
        hi: "list[list[float]] | np.ndarray",
        owners: list[object],
    ) -> None:
        self.lo = np.ascontiguousarray(np.array(lo, dtype=float).T)
        self.hi = np.ascontiguousarray(np.array(hi, dtype=float).T)
        self.owners = owners
        self.members = frozenset(owners)
        self.dim = int(self.lo.shape[0])
        self._sweep: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._heads: np.ndarray | None = None

    def sweep(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(order, lo0, reach)``: the rows in ascending axis-0 ``lo``
        order, their axis-0 ``lo`` in that order, and the running
        maximum of their axis-0 ``hi`` in that order — every row before
        position ``k`` ends at or before ``reach[k - 1]``.  Computed on
        first use and kept, so every join against a shared class table
        sorts it once."""
        if self._sweep is None:
            order = np.argsort(self.lo[0], kind="stable")
            self._sweep = (
                order,
                self.lo[0][order],
                np.maximum.accumulate(self.hi[0][order]),
            )
        return self._sweep

    def heads(self) -> np.ndarray:
        """Per row, the first row of its owner: an object's rows are
        contiguous, so this is the owner's number in the table — the
        ``first`` of :attr:`ClassMbrTable.rows`.  Computed on first use
        and kept."""
        if self._heads is None:
            first: dict[object, int] = {}
            self._heads = np.array(
                [first.setdefault(o, row) for row, o in enumerate(self.owners)],
                dtype=np.int64,
            )
        return self._heads


#: Candidate pairs :func:`overlap_join` tests per numpy pass, bounding
#: its scratch arrays on a dense self-join.
_JOIN_BLOCK = 1 << 18


def overlap_join(
    left: _MbrTable, right: _MbrTable, inflate: float
) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of a ``left`` box grown by ``inflate`` and a ``right``
    box that overlap, as CSR arrays ``(indptr, rows)``: the right rows
    left row ``i`` meets are ``rows[indptr[i]:indptr[i + 1]]``.

    Two boxes overlap when ``right.lo <= left.hi + inflate`` and
    ``left.lo - inflate <= right.hi`` on every axis: closed intervals,
    so boxes touching on a face, edge or corner meet.  Each left box
    searches the right rows in axis-0 ``lo`` order (:meth:`_MbrTable.
    sweep`): rows from the first whose ``lo`` passes the grown ``hi``
    start beyond it, and rows before the first whose running-maximum
    ``hi`` reaches the grown ``lo`` end before it.  Both searches
    compare the very floats the closed test compares, so the window
    between them holds every match; the closed test on every axis then
    decides each pair in the window.  Both tables must share ``dim``.
    """
    order, lo0, reach = right.sweep()
    grown_lo = left.lo - inflate
    grown_hi = left.hi + inflate
    first = np.searchsorted(reach, grown_lo[0], side="left")
    stop = np.searchsorted(lo0, grown_hi[0], side="right")
    counts = np.maximum(stop - first, 0)
    ends = np.cumsum(counts)
    n = counts.size
    cuts = np.searchsorted(
        ends, np.arange(_JOIN_BLOCK, int(ends[-1]) if n else 0, _JOIN_BLOCK)
    )
    bounds = [0, *dict.fromkeys(cuts.tolist()), n]
    lefts = [np.zeros(0, dtype=np.intp)]
    rights = [np.zeros(0, dtype=np.intp)]
    for lo_row, hi_row in zip(bounds, bounds[1:]):
        count = counts[lo_row:hi_row]
        pairs = np.repeat(np.arange(lo_row, hi_row), count)
        skip = first[lo_row:hi_row] - (np.cumsum(count) - count)
        rows = order[np.repeat(skip, count) + np.arange(pairs.size)]
        keep = np.ones(pairs.size, dtype=bool)
        for axis in range(left.dim):
            keep &= right.lo[axis, rows] <= grown_hi[axis, pairs]
            keep &= grown_lo[axis, pairs] <= right.hi[axis, rows]
        lefts.append(pairs[keep])
        rights.append(rows[keep])
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(np.concatenate(lefts), minlength=n), out=indptr[1:])
    return indptr, np.concatenate(rights)


class ClassMbrTable:
    """One object class's trajectory-MBR table over one window.

    ``boxes`` holds the leg boxes of every member whose motion is
    piecewise linear over the window (``None`` when no member is), and
    ``rows`` maps each such member to ``(boxes, first row, one past its
    last row)``.  The other members are *unprunable*: nonlinear motion,
    or — the ``raising`` subset — a motion whose exhaustive solve would
    raise (nonspatial class, a recorded trajectory that jumps).
    ``scale`` is the largest ``|coordinate|`` of any box.  Frozen once
    built: a cached table is shared by every context evaluating the same
    content version and window.
    """

    __slots__ = ("boxes", "rows", "unprunable", "raising", "scale")

    def __init__(
        self,
        boxes: _MbrTable | None,
        rows: "dict[object, tuple[_MbrTable, int, int]]",
        unprunable: frozenset,
        raising: frozenset,
    ) -> None:
        self.boxes = boxes
        self.rows = rows
        self.unprunable = unprunable
        self.raising = raising
        self.scale = (
            0.0
            if boxes is None
            else max(
                float(np.abs(boxes.lo).max()), float(np.abs(boxes.hi).max())
            )
        )


def _linear_leg_boxes(
    rows: MotionRows, start: int, end: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one-leg boxes of every linear mover of a position block
    (:func:`~repro.core.columns.linear_legs`): each box spans the leg's
    position at ``start`` and at ``end``, computed with the scalar
    path's operations in the scalar path's order, so every corner is
    bit-identical to it.  Returns ``(qualifies[n], lo[m, dim], hi[m,
    dim])`` for the ``m`` qualifying objects, in order.
    """
    linear, origin, slope = linear_legs(rows, start)
    origin = origin[linear]
    with np.errstate(all="ignore"):
        # A zero-length window's leg is static; ``far`` then equals
        # ``origin`` up to the sign of zero (or is NaN), and the tie rule
        # below keeps ``origin`` either way.
        far = origin + slope[linear] * float(end - start)
    # ``min(a, b)`` / ``max(a, b)`` keep ``a`` unless ``b`` is strictly
    # beyond it, as here.
    lo = np.where(far < origin, far, origin)
    hi = np.where(far > origin, far, origin)
    return linear, lo, hi


def build_class_table(
    history: "History",
    class_name: str,
    start: int,
    end: int,
    moving_point: "Callable[[object], MovingPoint]",
    ids: "Sequence[object] | None" = None,
) -> ClassMbrTable:
    """The trajectory-MBR table of one class of ``history`` over
    ``[start, end]``: of the members ``ids``, in that order, or of the
    whole class when ``ids`` is ``None``.  Every box of a member is the
    same whichever members share its table.

    A future history's linear movers — the common case — are boxed in
    one vectorised pass over the class's motion columns, gathered by
    object number (:func:`_linear_leg_boxes`).  Every other member takes
    the scalar path: ``moving_point(oid).linear_pieces(start, end)``, one box per
    leg, for piecewise motion, per-axis update times, an update inside
    the window and every recorded-history member; nonlinear motion is
    unprunable and a lookup that raises marks the member raising.
    """
    from repro.core.history import FutureHistory

    whole = ids is None
    if whole:
        ids = history.object_ids(class_name)
    elif not ids:
        return ClassMbrTable(None, {}, frozenset(), frozenset())
    dim = history.db.object_class(class_name).spatial_dimensions
    blocks_lo: list[np.ndarray] = []
    blocks_hi: list[np.ndarray] = []
    owners: list[object] = []
    scalar = ids
    if dim and isinstance(history, FutureHistory):
        columns = history.motion_columns(class_name)
        rows = columns.positions(
            None if whole else [columns.index[oid] for oid in ids]
        )
        linear, lo, hi = _linear_leg_boxes(rows, start, end)
        flags = linear.tolist()
        owners = [oid for oid, ok in zip(ids, flags) if ok]
        scalar = [oid for oid, ok in zip(ids, flags) if not ok]
        blocks_lo.append(lo)
        blocks_hi.append(hi)
    n_linear = len(owners)
    spans: list[tuple[object, int, int]] = []
    legs_lo: list[list[float]] = []
    legs_hi: list[list[float]] = []
    unprunable: set[object] = set()
    raising: set[object] = set()
    for oid in scalar:
        try:
            pieces = moving_point(oid).linear_pieces(start, end)
        except (QueryError, SchemaError):
            unprunable.add(oid)
            raising.add(oid)
            continue
        if pieces is None:  # nonlinear motion: solve exactly, always
            unprunable.add(oid)
            continue
        first = len(owners)
        for piece in pieces:
            span = piece.end - piece.start
            a = piece.origin.coords
            b = [x + v * span for x, v in zip(a, piece.velocity.coords)]
            legs_lo.append([min(x, y) for x, y in zip(a, b)])
            legs_hi.append([max(x, y) for x, y in zip(a, b)])
            owners.append(oid)
        spans.append((oid, first, len(owners)))
    boxes = None
    rows: dict[object, tuple[_MbrTable, int, int]] = {}
    if owners:
        blocks_lo.append(np.array(legs_lo, dtype=float).reshape(-1, dim))
        blocks_hi.append(np.array(legs_hi, dtype=float).reshape(-1, dim))
        boxes = _MbrTable(
            np.concatenate(blocks_lo), np.concatenate(blocks_hi), owners
        )
        rows = {oid: (boxes, i, i + 1) for i, oid in enumerate(owners[:n_linear])}
        rows.update((oid, (boxes, first, stop)) for oid, first, stop in spans)
    return ClassMbrTable(boxes, rows, frozenset(unprunable), frozenset(raising))


class MbrTableCache:
    """The trajectory-MBR tables of one database, shared by every query,
    context and evaluator reading it (``db.mbr_tables``).

    A table is keyed by the history's content token
    (:func:`repro.core.history.epoch_token`: database, content version,
    population, class and region names, window start), the window end and
    the class.  The cache holds the tables of one token at a time — the
    first request under another token evicts them all — so a long-running
    server retains O(classes x live windows) tables.  A history reads
    only under the token it was pinned to, so a table is only ever built
    from, and served to, histories of its own content version.
    """

    def __init__(self) -> None:
        self._token: tuple[object, ...] | None = None
        self._tables: dict[tuple[int, str], ClassMbrTable] = {}
        #: Tables built through this cache (one per class and window of a
        #: content version).
        self.builds = 0

    def __len__(self) -> int:
        return len(self._tables)

    def clear(self) -> None:
        """Drop every table; the next request builds afresh."""
        self._token = None
        self._tables.clear()

    def get(
        self,
        token: tuple[object, ...],
        end: int,
        class_name: str,
        build: "Callable[[], ClassMbrTable]",
    ) -> ClassMbrTable:
        """The cached table, or ``build()``'s, stored under the key (a
        build that raises — a history whose database moved on — evicts
        nothing)."""
        key = (end, class_name)
        table = self._tables.get(key) if token == self._token else None
        if table is None:
            table = build()
            if token != self._token:
                self._tables.clear()
                self._token = token
            self._tables[key] = table
            self.builds += 1
        return table


class AtomIndexPruner:
    """One context's view of its bound classes' trajectory-MBR tables,
    answering atom candidate queries.

    On first use the view fetches one :class:`ClassMbrTable` per bound
    class for ``[ctx.start, ctx.end]`` — from the database's
    :class:`MbrTableCache`, so every query and context reading the same
    content version and window shares one build, or built uncached for a
    history without a content token (time is not a table axis, so
    candidate sets are window-wide, a strictly conservative
    coarsening).  The tables cover whole classes whatever the context's
    domain restrictions, so a shard worker sees the serial tables and
    pad.  A *restricted* view (``members``) holds only the named members
    of each class, built uncached — an incremental refresh's frontier
    view, sized by its dirty rows; any other object is not indexed
    there, so its rows take the solve path.  Candidates come from
    :func:`overlap_join`, exact: a pair atom joins the left object's
    class table, grown by the radius, against the right object's class
    table once per radius, and tests each row's pair against the join's
    CSR arrays.  Objects that cannot be plotted —
    nonlinear motion, no spatial attributes — are *unprunable*: members
    of every candidate set, so the exact solve path handles them (and
    raises on them) exactly as the exhaustive evaluator would.
    """

    def __init__(
        self,
        ctx: "EvalContext",
        members: "Mapping[str, Sequence[object]] | None" = None,
    ) -> None:
        self.ctx = ctx
        #: Per bound class, the members this view's tables hold, or
        #: ``None``: every member, from ``db.mbr_tables``.  A class
        #: missing from the mapping has an empty table.
        self._members = members
        self._built = False
        #: The leg boxes of every bound class that has indexed members.
        self._boxes: tuple[_MbrTable, ...] = ()
        #: Indexed object -> ``(its class's boxes, first row, one past
        #: its last row)``.
        self._rows: dict[object, tuple[_MbrTable, int, int]] = {}
        self._unprunable: frozenset = frozenset()
        #: Unprunables whose exhaustive solve would *raise* (nonspatial,
        #: unknown id).  Pruning an instantiation containing one would
        #: swallow the error the exhaustive path reports, so partitions
        #: leave such rows to the solve path.
        self._raising: frozenset = frozenset()
        self._region_cands: dict[object, frozenset] = {}
        #: ``(left boxes, right boxes, inflate)`` -> their overlap join.
        self._joins: dict[
            tuple[_MbrTable, _MbrTable, float], tuple[np.ndarray, np.ndarray]
        ] = {}
        #: The same key -> the join's pairs as sorted unique codes
        #: ``left head * len(right.owners) + right head``.
        self._pair_codes: dict[tuple[_MbrTable, _MbrTable, float], np.ndarray] = {}
        #: Indexed object -> its slot (:meth:`_slots`), and each table's
        #: first slot, in :attr:`_boxes` order; filled on first use.
        self._slot_of: dict[object, int] | None = None
        self._starts = np.zeros(0, dtype=np.int64)
        #: Largest |coordinate| of the bound classes' boxes; inflation
        #: pads scale with it so the solvers' relative boundary tolerance
        #: can never out-reach the pruning boxes.
        self._scale = 1.0

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def _build(self) -> None:
        if self._built:
            return
        self._built = True
        from repro.core.history import epoch_token

        ctx = self.ctx
        history = ctx.history
        members = self._members
        token = epoch_token(history) if members is None else None
        classes: list[ClassMbrTable] = []
        for class_name in dict.fromkeys(ctx.bindings.values()):
            build = partial(
                build_class_table,
                history,
                class_name,
                ctx.start,
                ctx.end,
                ctx.moving_point,
                None if members is None else members.get(class_name, ()),
            )
            classes.append(
                build()
                if token is None
                else history.db.mbr_tables.get(token, ctx.end, class_name, build)
            )
        self._boxes = tuple(t.boxes for t in classes if t.boxes is not None)
        if len(classes) == 1:
            self._rows = classes[0].rows
        else:
            for table in classes:
                self._rows.update(table.rows)
        self._unprunable = frozenset().union(*(t.unprunable for t in classes))
        self._raising = frozenset().union(*(t.raising for t in classes))
        self._scale = max([self._scale, *(t.scale for t in classes)])

    @property
    def _pad(self) -> float:
        """Extra inflation absorbing the solvers' boundary slack (which
        is relative to coordinate magnitude, see e.g. Ball.contains)."""
        return 1e-6 * (1.0 + self._scale)

    def _probe_pad(self, probe: _MbrTable) -> float:
        """The pad of a region probe: the solvers' slack on a row grows
        with the region's coordinates as well as the object's, and a
        view may hold only a few boxes near the origin while the region
        lies far out, so the pad scales to the larger of the two."""
        reach = max(
            float(np.abs(probe.lo).max()), float(np.abs(probe.hi).max())
        )
        return 1e-6 * (1.0 + max(self._scale, reach))

    def is_indexed(self, oid: object) -> bool:
        """Whether ``oid`` has rows in the table — the only objects a
        partition may decide.  An id the table has never seen (assigned-
        variable value, unknown object) and every unprunable object must
        take the solve path, which decides — or raises — exactly as the
        exhaustive evaluator would."""
        self._build()
        return oid in self._rows

    # ------------------------------------------------------------------
    # Candidate queries
    # ------------------------------------------------------------------
    def _join(
        self, left: _MbrTable, right: _MbrTable, inflate: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """The memoised :func:`overlap_join` of two tables."""
        key = (left, right, inflate)
        join = self._joins.get(key)
        if join is None:
            join = self._joins[key] = overlap_join(left, right, inflate)
        return join

    def _meets(
        self,
        left: _MbrTable,
        first: int,
        stop: int,
        right: _MbrTable,
        inflate: float,
    ) -> set[object]:
        """Owners of the ``right`` boxes that rows ``first:stop`` of
        ``left``, grown by ``inflate``, touch — read off the memoised
        join of the two tables."""
        indptr, rows = self._join(left, right, inflate)
        owners = right.owners
        return {owners[i] for i in rows[indptr[first] : indptr[stop]].tolist()}

    def _codes(
        self, left: _MbrTable, right: _MbrTable, inflate: float
    ) -> np.ndarray:
        """Every object pair the join of ``left`` grown by ``inflate``
        against ``right`` meets, as sorted unique codes ``left head *
        len(right.owners) + right head`` (:meth:`_MbrTable.heads`)."""
        key = (left, right, inflate)
        codes = self._pair_codes.get(key)
        if codes is None:
            indptr, rows = self._join(left, right, inflate)
            lefts = np.repeat(left.heads(), np.diff(indptr))
            codes = self._pair_codes[key] = np.unique(
                lefts * len(right.owners) + right.heads()[rows]
            )
        return codes

    def region_candidates(self, region: object) -> frozenset | None:
        """Objects that may intersect the region during the window, or
        ``None`` when the region's geometry cannot be boxed: every
        unprunable object, every object of another dimensionality (the
        exact path raises or decides on those), and the objects whose
        boxes the region's bounding box, grown by the pad, touches."""
        token = region_token(region)
        if token is None:
            return None
        hit = self._region_cands.get(token)
        if hit is not None:
            return hit
        self._build()
        if isinstance(region, Polygon):
            min_x, min_y, max_x, max_y = region.bounding_box()
            probe = _MbrTable([[min_x, min_y]], [[max_x, max_y]], [token])
        else:  # Ball (region_token already filtered the rest)
            probe = _MbrTable(
                [[c - region.radius for c in region.center]],
                [[c + region.radius for c in region.center]],
                [token],
            )
        cands = set(self._unprunable)
        pad = self._probe_pad(probe)
        for table in self._boxes:
            if table.dim == probe.dim:
                cands |= self._meets(probe, 0, 1, table, pad)
            else:
                cands |= table.members
        out = self._region_cands[token] = frozenset(cands)
        return out

    def pair_candidates(self, oid: object, radius: float) -> frozenset | None:
        """Objects that may come within ``radius`` of ``oid`` at some
        time of the window (``oid`` itself included), or ``None`` when
        ``oid`` is unprunable (every object is then a candidate): every
        unprunable object, every object of another dimensionality, and
        the owners of the boxes ``oid``'s own leg boxes, grown by
        ``radius`` plus the pad, touch in each class table of its
        dimensionality."""
        self._build()
        rows = self._rows.get(oid)
        if rows is None:
            return None
        boxes, first, stop = rows
        cands = set(self._unprunable)
        cands.add(oid)
        for table in self._boxes:
            if table.dim == boxes.dim:
                cands |= self._meets(
                    boxes, first, stop, table, float(radius) + self._pad
                )
            else:
                cands |= table.members
        return frozenset(cands)

    def _slots(self, column: list[object]) -> np.ndarray:
        """Each object's slot — its first row in its table, offset by
        the rows of the tables before it in :attr:`_boxes` — or ``-1``
        for an object with no rows."""
        if self._slot_of is None:
            offsets: dict[_MbrTable, int] = {}
            base = 0
            for table in self._boxes:
                offsets[table] = base
                base += len(table.owners)
            self._starts = np.array(list(offsets.values()), dtype=np.int64)
            self._slot_of = {
                oid: offsets[table] + first
                for oid, (table, first, _stop) in self._rows.items()
            }
        return np.fromiter(
            map(self._slot_of.get, column, repeat(-1)),
            dtype=np.int64,
            count=len(column),
        )

    def _far(
        self, a: np.ndarray, b: np.ndarray, radii: np.ndarray
    ) -> np.ndarray:
        """Per row, whether the objects in slots ``a`` and ``b``
        (:meth:`_slots`) are distinct, both indexed, of one
        dimensionality, and no box of ``a`` grown by the row's radius
        plus the pad meets a box of ``b``: the pair then stays strictly
        farther apart than the radius for the whole window.  A NaN
        radius is never far.  One vectorised code lookup per distinct
        (table, table, radius) answers every row."""
        far = np.zeros(a.size, dtype=bool)
        live = np.flatnonzero((a >= 0) & (b >= 0) & (a != b) & ~np.isnan(radii))
        if not live.size:
            return far
        starts = self._starts
        tables = self._boxes
        left = np.searchsorted(starts, a[live], side="right") - 1
        right = np.searchsorted(starts, b[live], side="right") - 1
        combos = left * len(tables) + right
        for combo in np.unique(combos).tolist():
            i, j = divmod(combo, len(tables))
            if tables[i].dim != tables[j].dim:
                continue
            rows = live[combos == combo]
            for radius in np.unique(radii[rows]).tolist():
                pick = rows[radii[rows] == radius]
                codes = (a[pick] - starts[i]) * len(tables[j].owners) + (
                    b[pick] - starts[j]
                )
                met = self._codes(tables[i], tables[j], radius + self._pad)
                far[pick] = ~np.isin(codes, met)
        return far

    # ------------------------------------------------------------------
    # The atom partition
    # ------------------------------------------------------------------
    def partition(
        self, f: Formula, free: Sequence[str], rows: list[Instantiation]
    ) -> AtomPartition | None:
        """Split one atom's ``rows`` (instantiations of the variables
        ``free``, in order) into the rows the index decides and the rows
        to solve, or ``None`` when the atom kind is not decidable here
        (every row is then solved).

        The result holds the positions of the rows to solve, the count
        of decided rows and their known answer.  A decided row of
        ``INSIDE``, ``WITHIN_SPHERE`` and ``DIST <=`` / ``<`` is empty;
        one of ``OUTSIDE`` and ``DIST >=`` / ``>`` holds over the full
        discrete window.  Both answers are structurally identical to
        what the solve path would produce: ``EMPTY_SET`` and the full
        span are exactly the shapes the discretize-and-clip pipeline
        emits.  The verdicts are computed a column at a time, so a
        decided row costs no Python work beyond reading its objects;
        the tables are built only for an atom kind the index can decide.
        """
        if isinstance(f, (Inside, Outside)):
            return self._region_partition(f, free, rows)
        if isinstance(f, WithinSphere):
            return self._sphere_partition(f, free, rows)
        if isinstance(f, Compare):
            return self._dist_partition(f, free, rows)
        return None

    def _region_partition(
        self, f: Inside | Outside, free: Sequence[str], rows: list[Instantiation]
    ) -> AtomPartition | None:
        try:
            region = self.ctx.history.region(f.region)
        except SchemaError:
            return None  # let the solve path raise identically
        cands = self.region_candidates(region)
        if cands is None:
            return None
        # Decided: indexed and not a candidate.
        decidable = self._rows.keys() - cands
        column = list(map(self._reader(f.obj, free), rows))
        decided = np.fromiter(
            map(decidable.__contains__, column), dtype=bool, count=len(rows)
        )
        known = EMPTY_SET if isinstance(f, Inside) else self._full()
        return self._split(decided, known)

    def _sphere_partition(
        self, f: WithinSphere, free: Sequence[str], rows: list[Instantiation]
    ) -> AtomPartition | None:
        # All k points fit in a radius-r sphere only if every pair is
        # within 2r of each other at that moment — a necessary
        # condition, so one far pair kills the instantiation.
        diameter = 2.0 * float(f.radius)
        if not diameter >= 0:  # negative or NaN
            return None  # let the solve path decide (or raise)
        self._build()
        n = len(rows)
        # A row is safe when every participant's exhaustive solve cannot
        # raise: it is indexed, or unprunable for nonlinearity only.  Any
        # other participant (raising, or never seen by the index) forces
        # the solve path.
        quiet = self._unprunable - self._raising
        safe = np.ones(n, dtype=bool)
        slots: list[np.ndarray] = []
        for term in f.objs:
            column = list(map(self._reader(term, free), rows))
            slots.append(self._slots(column))
            safe &= (slots[-1] >= 0) | np.fromiter(
                map(quiet.__contains__, column), dtype=bool, count=n
            )
        radii = np.full(n, diameter)
        far = np.zeros(n, dtype=bool)
        for i, a in enumerate(slots):
            for b in slots[i + 1 :]:
                far |= self._far(a, b, radii)
        return self._split(safe & far, EMPTY_SET)

    def _dist_partition(
        self, f: Compare, free: Sequence[str], rows: list[Instantiation]
    ) -> AtomPartition | None:
        spec = self._dist_spec(f)
        if spec is None:
            return None
        dist_term, bound_term, op = spec
        self._build()
        if isinstance(bound_term, Const):
            radii = np.full(len(rows), _radius(bound_term.value))
        else:
            radii = np.fromiter(
                map(_radius, map(self._reader(bound_term, free), rows)),
                dtype=float,
                count=len(rows),
            )
        far = self._far(
            self._slots(list(map(self._reader(dist_term.left, free), rows))),
            self._slots(list(map(self._reader(dist_term.right, free), rows))),
            radii,
        )
        # Both indexed, disjoint after inflation: the pair stays strictly
        # farther than the bound for the whole window.
        known = self._full() if _DIST_OPS[op] else EMPTY_SET
        return self._split(far, known)

    def _reader(
        self, term: object, free: Sequence[str]
    ) -> Callable[[Instantiation], object]:
        """A term's value at the window start, read off one row."""
        if isinstance(term, Var):
            return itemgetter(list(free).index(term.name))
        ctx = self.ctx
        return lambda inst: ctx.eval_term(term, dict(zip(free, inst)), ctx.start)

    def _full(self) -> IntervalSet:
        return IntervalSet.span(self.ctx.start, self.ctx.end, DISCRETE)

    @staticmethod
    def _split(decided: np.ndarray, known: IntervalSet) -> AtomPartition:
        """The partition given each row's verdict."""
        solve = np.flatnonzero(~decided)
        return solve, decided.size - solve.size, known

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

    Rows whose motion is one linear leg over the window become rows of
    the vectorized backend (:mod:`repro.motion.batch`): ``DIST``
    comparisons, ``INSIDE``/``OUTSIDE`` of a ball, and two-object
    ``WITHIN_SPHERE`` reduce to the quadratic kernel; polygon
    containment to the edge-crossing sweep.

    One door.  The evaluator's column path hands over whole arrays of
    single-leg rows — each leg's position at the window start and its
    velocity, gathered from the motion columns — through
    :meth:`submit_region_rows` and :meth:`submit_pair_rows`; the caller
    has already resolved the atom and checked the dimensionality and
    the radius.  Every other row (nonlinear or multi-leg motion, a
    recorded history, a mismatch that must raise) never reaches the
    batch: the evaluator runs its scalar closure inline.

    :meth:`solve` runs every kernel and turns their ``(row, begin,
    end)`` output into interval sets at one boundary
    (:func:`~repro.motion.batch.interval_sets`).
    """

    def __init__(self, ctx: "EvalContext") -> None:
        self.ctx = ctx
        self._table = batch.LinearTable(ctx.start, ctx.end)
        self._center_slots: dict[Ball, int] = {}
        self._dist: batch.DistanceBatch | None = None
        self._polys: dict[object, batch.PolygonBatch] = {}
        self._solved: dict[int, list[IntervalSet]] = {}

    def _center_slot(self, region: Ball) -> int:
        """The ball center's slot in the coefficient table: the single
        leg of the static ``MovingPoint(ball.center)`` the scalar solver
        pairs against."""
        slot = self._center_slots.get(region)
        if slot is None:
            leg = MovingPoint(region.center).single_leg(
                self.ctx.start, self.ctx.end
            )
            assert leg is not None  # static motion is always one leg
            (slot,) = self._table.add_rows(
                np.array([leg.origin.coords], dtype=float),
                np.array([leg.velocity.coords], dtype=float),
            ).tolist()
            self._center_slots[region] = slot
        return slot

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
    # Submission: arrays of single-leg rows
    # ------------------------------------------------------------------
    def submit_region_rows(
        self, region: "Ball | Polygon", origin: np.ndarray, velocity: np.ndarray
    ) -> tuple[object, np.ndarray]:
        """Queue single-leg movers (``(k, dim)`` start positions and
        velocities) against one region; the caller has checked the
        dimensionality and a ball's radius.  Returns a handle for
        :meth:`results`."""
        slots = self._table.add_rows(origin, velocity)
        if isinstance(region, Ball):
            dist = self._dist_batch()
            centers = np.full(len(slots), self._center_slot(region))
            return dist, dist.add_pairs(slots, centers, region.radius, False)
        pb = self._poly_batch(region)
        return pb, pb.add_slots(slots)

    def submit_pair_rows(
        self,
        origin_a: np.ndarray,
        velocity_a: np.ndarray,
        origin_b: np.ndarray,
        velocity_b: np.ndarray,
        bound: float,
        at_least: bool,
    ) -> tuple[object, np.ndarray]:
        """Queue ``DIST(a, b) <= bound`` (``>=`` with ``at_least``) for
        pairs of single-leg movers of one dimensionality, row ``i``
        pairing ``a``'s ``i``-th leg with ``b``'s.  Returns a handle for
        :meth:`results`."""
        dist = self._dist_batch()
        rows = dist.add_pairs(
            self._table.add_rows(origin_a, velocity_a),
            self._table.add_rows(origin_b, velocity_b),
            bound,
            at_least,
        )
        return dist, rows

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def solve(self) -> None:
        """Run every queued batch through the vectorized kernels and turn
        their output into interval sets."""
        if self._dist is not None:
            self._solved[id(self._dist)] = batch.interval_sets(
                len(self._dist), self._dist.solve()
            )
        for pb in self._polys.values():
            self._solved[id(pb)] = batch.interval_sets(len(pb), pb.solve())

    def results(self, handle: tuple[object, np.ndarray]) -> list[IntervalSet]:
        """The solved answers for a submission's handle, in row order."""
        queue, rows = handle
        solved = self._solved[id(queue)]
        return [solved[row] for row in rows.tolist()]
