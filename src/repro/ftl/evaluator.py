"""The appendix algorithm: bottom-up interval-relation evaluation.

"The algorithm computes R_g, inductively, for each subformula g in
increasing lengths of the subformula" — conjunction joins relations and
intersects intervals, ``Until`` merges compatible interval chains, and the
assignment quantifier joins against the relation ``Q`` of the atomic
query's values over time.

Extensions beyond the paper's appendix, all documented in DESIGN.md:

* the bounded operators of section 3.4 evaluate directly as interval-set
  transforms;
* disjunction and negation are supported when every free variable is
  enumerable (FROM-bound objects or assignment-bound values), which
  restores the safety the paper obtains by restricting to conjunctive
  formulas;
* base-case atoms use the kinetic solvers (exact for piecewise-linear
  motion) with a per-tick sampling fallback for arbitrary terms.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import product
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.columns import KIND_LINEAR
from repro.errors import FtlSemanticsError, QueryError, ReproError, SchemaError
from repro.ftl.ast import (
    Always,
    AlwaysFor,
    AndF,
    Assign,
    Attr,
    Compare,
    Dist,
    Eventually,
    EventuallyAfter,
    EventuallyWithin,
    Formula,
    Inside,
    Nexttime,
    NotF,
    OrF,
    Outside,
    Term,
    Until,
    UntilWithin,
    Var,
    WithinSphere,
)
from repro.ftl.atoms import (
    AtomIndexPruner,
    AtomPartition,
    KineticBatch,
    dist_solve_key,
    linear_motion_tokens,
    region_solve_key,
    region_token,
    sphere_solve_key,
)
from repro.ftl.context import DEFAULT, Env, EvalContext, EvalOptions
from repro.ftl.relations import (
    EMPTY_SET,
    FtlRelation,
    Instantiation,
    merge_instantiations,
)
from repro.spatial.kinetic import (
    when_dist_at_least,
    when_dist_at_most,
    when_inside_ball,
    when_inside_polygon,
    when_value_in_range,
    when_within_sphere,
)
from repro.motion.batch import interval_sets, value_band
from repro.spatial.polygon import Polygon
from repro.spatial.regions import Ball
from repro.temporal import (
    DISCRETE,
    Interval,
    IntervalSet,
    always,
    always_for,
    eventually,
    eventually_after,
    eventually_within,
    nexttime,
    until,
    until_within,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.columns import MotionColumns
    from repro.ftl.analysis.plan import EvalPlan

    #: A transform of a solved value into the atom's answer (OUTSIDE
    #: complements the cached *inside* set), or none.
    _Post = Callable[[IntervalSet], IntervalSet] | None
    #: A row's scalar solve.
    _Solve = Callable[[], IntervalSet]
    #: One mover term's picked rows: leg origins, velocities, tokens.
    _Mover = tuple[np.ndarray, np.ndarray, list]

_CMP = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class _SolveRequest:
    """One instantiation's pending kinetic solve on the scalar path (the
    rows :meth:`IntervalEvaluator._column_rows` does not take).

    ``solve`` is the scalar closure; ``key`` builds its solve key (called
    only under a validity stamp); ``post`` an optional transform of the
    solved value (OUTSIDE complements the *inside* set).
    """

    __slots__ = ("key", "solve", "post")

    def __init__(
        self,
        key: "Callable[[], object]",
        solve: "Callable[[], IntervalSet]",
        post: "Callable[[IntervalSet], IntervalSet] | None" = None,
    ) -> None:
        self.key = key
        self.solve = solve
        self.post = post


class _ColumnRows:
    """The rows of one atom the column path solves
    (:meth:`IntervalEvaluator._column_rows`).

    ``slot`` maps each row to solve to its column row, or ``-1`` for a
    row the scalar path takes; ``keys`` are the column rows' solve keys
    (``None`` unless the atom is stamped), ``post`` the atom's transform
    of a solved value.  An attribute comparison comes solved
    (``values``); the other kinds queue the column rows ``picks`` on a
    batch (``enqueue``).
    """

    __slots__ = ("slot", "keys", "post", "values", "enqueue")

    def __init__(
        self,
        slot: list[int],
        keys: list[object] | None,
        post: "_Post" = None,
        values: list[IntervalSet] | None = None,
        enqueue: "Callable[[KineticBatch, list[int]], tuple] | None" = None,
    ) -> None:
        self.slot = slot
        self.keys = keys
        self.post = post
        self.values = values
        self.enqueue = enqueue


def _numbers(columns: "MotionColumns", ids: list[object]) -> list[int]:
    """Each id's object number in ``columns``, or ``-1``."""
    index = columns.index
    return [index.get(oid, -1) for oid in ids]


def _slots(n: int, picks: list[int]) -> list[int]:
    """Row -> its position in ``picks``, or ``-1``."""
    slot = [-1] * n
    for c, j in enumerate(picks):
        slot[j] = c
    return slot


def _taken(take: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
    """The rows ``take`` (ascending positions) of each array: the arrays
    themselves when ``take`` is every row."""
    if take.size == len(arrays[0]):
        return list(arrays)
    return [array[take] for array in arrays]



class _Scope:
    """The rows a semi-joined conjunction's right child may enumerate:
    the left relation's rows projected onto ``variables`` (the right
    child's free variables, sorted), in domain product order."""

    __slots__ = ("variables", "rows", "_projections")

    def __init__(
        self, variables: tuple[str, ...], rows: list[Instantiation]
    ) -> None:
        self.variables = variables
        self.rows = rows
        self._projections: dict[tuple[str, ...], frozenset] = {}

    def covered_by(self, variables: tuple[str, ...]) -> bool:
        """Whether an enumeration of ``variables`` is scoped."""
        return set(self.variables) <= set(variables)

    def project(self, variables: tuple[str, ...]) -> frozenset:
        """The scope rows' projections onto a subset of its variables."""
        hit = self._projections.get(variables)
        if hit is None:
            idx = [self.variables.index(v) for v in variables]
            hit = self._projections[variables] = frozenset(
                tuple(row[i] for i in idx) for row in self.rows
            )
        return hit

    def admits(self, variables: tuple[str, ...], inst: Instantiation) -> bool:
        """Whether ``inst`` agrees with some scope row on the shared
        variables."""
        common = tuple(v for v in variables if v in self.variables)
        pick = tuple(inst[variables.index(v)] for v in common)
        return pick in self.project(common)


class IntervalEvaluator:
    """Bottom-up computation of ``R_g`` per subformula."""

    def __init__(
        self,
        ctx: EvalContext,
        trace: dict[int, FtlRelation] | None = None,
        plan: "EvalPlan | None" = None,
        options: EvalOptions = DEFAULT,
        validity: "Mapping[int, float] | None" = None,
    ) -> None:
        self.ctx = ctx
        #: The acceleration layers in force.  ``ordered`` and
        #: ``validity_horizons`` are consumed by whoever builds ``plan``
        #: and ``validity``; the evaluator reads the other three.
        self.options = options
        #: When given, every computed ``R_g`` is recorded here keyed by
        #: ``id(subformula)`` — the per-subformula cache that incremental
        #: continuous-query maintenance patches on later updates.
        self.trace = trace
        #: Cost-ordered evaluation plan; :meth:`evaluate` swaps the
        #: syntactic formula for the plan's reordered tree, and
        #: subformulas the plan marked shared are evaluated once.
        self.plan = plan
        #: Pass-8 concrete validity stamps, keyed by ``id(subformula)``
        #: over the evaluated (plan-ordered) tree: the absolute time at
        #: which each node's cached answer stops being provably
        #: reusable.  An atom with a stamp beyond ``ctx.start`` is
        #: provably piecewise-linear/analytic, so its solves are read
        #: from and written to the database's stamped solve table
        #: (:class:`~repro.ftl.atoms.KineticSolveCache`); an atom
        #: without one never touches it.
        self.validity = validity
        #: That table, or ``None`` when no atom can be stamped.
        self._cache = None if validity is None else ctx.kinetic_cache()
        self._shared_memo: dict[int, FtlRelation] = {}
        #: The semi-join scope in force (:meth:`_semijoin`), or ``None``.
        self._scope: _Scope | None = None
        #: FROM-bound variable -> its domain value -> position, for
        #: sorting scope rows into product order.
        self._positions: dict[str, dict[object, int]] = {}
        self._naive: "object | None" = None
        #: Count of per-tick atom evaluations (benchmark instrumentation).
        self.sampled_atom_evals = 0
        #: Count of kinetic (closed-form) atom solves.
        self.kinetic_solves = 0
        #: Instantiations answered by the index gate without a solve.
        self.pruned_instantiations = 0
        #: Stamped-table lookups served / missed by this evaluator.
        self.cache_hits = 0
        self.cache_misses = 0
        #: Per-atom accounting keyed by ``id(formula)`` — feeds the
        #: estimate-vs-observed drift report of analysis/cost.py.
        self.atom_stats: dict[int, dict[str, object]] = {}

    def counters(self) -> dict[str, int]:
        """The atom-acceleration counters, in EXPLAIN ``--json`` shape."""
        return {
            "kinetic_solves": self.kinetic_solves,
            "sampled_atom_evals": self.sampled_atom_evals,
            "pruned_instantiations": self.pruned_instantiations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    # ------------------------------------------------------------------
    def evaluate(self, formula: Formula) -> FtlRelation:
        """Compute ``R_formula``."""
        if self.plan is not None:
            formula = self.plan.resolve(formula)
        return self._eval(formula)

    # ------------------------------------------------------------------
    def _eval(self, f: Formula) -> FtlRelation:
        # A scoped relation holds only the scope's rows, so it must never
        # serve another parent of a shared subformula.
        shared = (
            self.plan is not None
            and self._scope is None
            and id(f) in self.plan.shared_ids
        )
        if shared:
            hit = self._shared_memo.get(id(f))
            if hit is not None:
                return hit
        relation = self._eval_node(f)
        if shared:
            self._shared_memo[id(f)] = relation
        if self.trace is not None:
            self.trace[id(f)] = relation
        return relation

    def _eval_node(self, f: Formula) -> FtlRelation:
        if isinstance(f, (Compare, Inside, Outside, WithinSphere)):
            return self._atom(f)
        if isinstance(f, AndF):
            r1 = self._eval(f.left)
            if self.trace is not None:
                # Every subformula's relation is recorded for incremental
                # maintenance, so the right side is evaluated whole.
                return self._conjunction(r1, self._eval(f.right))
            if not r1:
                # Empty guard: the conjunction is empty whatever the right
                # side holds, so skip evaluating it entirely.
                return FtlRelation(tuple(sorted(f.free_vars())))
            return self._conjunction(r1, self._semijoin(f.right, r1))
        if isinstance(f, OrF):
            return self._disjunction(f)
        if isinstance(f, NotF):
            return self._negation(f)
        if isinstance(f, Until):
            return self._until_join(
                self._eval(f.left), self._eval(f.right), until
            )
        if isinstance(f, UntilWithin):
            bound = f.bound
            return self._until_join(
                self._eval(f.left),
                self._eval(f.right),
                lambda a, b: until_within(bound, a, b),
            )
        if isinstance(f, Nexttime):
            return self._eval(f.operand).map_sets(
                lambda s: nexttime(s, self.ctx.start)
            )
        if isinstance(f, Eventually):
            return self._eval(f.operand).map_sets(
                lambda s: eventually(s, self.ctx.start)
            )
        if isinstance(f, EventuallyWithin):
            return self._eval(f.operand).map_sets(
                lambda s: eventually_within(f.bound, s, self.ctx.start)
            )
        if isinstance(f, EventuallyAfter):
            return self._eval(f.operand).map_sets(
                lambda s: eventually_after(f.bound, s, self.ctx.start)
            )
        if isinstance(f, Always):
            return self._eval(f.operand).map_sets(
                lambda s: always(s, self.ctx.start, self.ctx.end)
            )
        if isinstance(f, AlwaysFor):
            return self._eval(f.operand).map_sets(
                lambda s: always_for(f.bound, s)
            )
        if isinstance(f, Assign):
            return self._assignment(f)
        at = f" at {f.span}" if f.span is not None else ""
        raise FtlSemanticsError(f"unsupported formula {type(f).__name__}{at}")

    def _semijoin(self, right: Formula, left: FtlRelation) -> FtlRelation:
        """A conjunction's right child, evaluated over the left rows only.

        When every free variable of ``right`` is a FROM-bound variable
        of ``left``, the right child enumerates only the left rows'
        projections onto its variables (a :class:`_Scope` read by
        :meth:`_rows`): a row the left side excludes can never reach the
        join, so it is never evaluated.  A scope opened inside another
        keeps only the rows that agree with the outer one.  Otherwise
        the right child is evaluated whole.
        """
        variables = tuple(sorted(right.free_vars()))
        if not variables or not all(
            v in left.variables and self.ctx.is_object_var(v)
            for v in variables
        ):
            return self._eval(right)
        idx = [left.index_of(v) for v in variables]
        rows = dict.fromkeys(
            tuple(inst[i] for i in idx) for inst, _iset in left.rows()
        )
        outer = self._scope
        kept = [
            inst
            for inst in rows
            if outer is None or outer.admits(variables, inst)
        ]
        positions = [self._positions_of(v) for v in variables]
        kept.sort(key=lambda inst: [p[x] for p, x in zip(positions, inst)])
        self._scope = _Scope(variables, kept)
        try:
            return self._eval(right)
        finally:
            self._scope = outer

    def _positions_of(self, var: str) -> dict[object, int]:
        hit = self._positions.get(var)
        if hit is None:
            hit = self._positions[var] = {
                value: i for i, value in enumerate(self.ctx.domain(var))
            }
        return hit

    # ------------------------------------------------------------------
    # Scope: what an enumerating node (atom, disjunction, negation) walks
    # and reads.  Incremental maintenance overrides these two, not the
    # algorithms that use them.
    # ------------------------------------------------------------------
    def _rows(self, variables: Iterable[str]) -> Iterable[Instantiation]:
        """The instantiations a node enumerates: the domain product, or
        under a semi-join scope that the enumeration covers, the product
        rows that agree with the scope.  An enumeration whose variables
        do not cover the scope's runs unscoped."""
        variables = tuple(variables)
        scope = self._scope
        if scope is not None and variables == scope.variables:
            return scope.rows
        everything = product(*[self.ctx.domain(v) for v in variables])
        if scope is None or not scope.covered_by(variables):
            return everything
        return [
            inst for inst in everything if scope.admits(variables, inst)
        ]

    def _operand(self, f: Formula) -> FtlRelation:
        """A child's complete relation, as an enumerating node reads it."""
        return self._eval(f)

    # ------------------------------------------------------------------
    # Base case: atomic predicates
    # ------------------------------------------------------------------
    def _atom(self, f: Formula) -> FtlRelation:
        """The appendix base case: per relevant instantiation, the
        intervals during which the relation is satisfied — from the tick
        each of its objects enters the history on."""
        free = sorted(f.free_vars())
        relation = self._batched_rows(f, free, self._rows(free))
        arrivals = self.ctx.history.arrivals
        if arrivals:
            ctx = self.ctx
            objects = [i for i, v in enumerate(free) if ctx.is_object_var(v)]
            for inst, iset in list(relation.rows()):
                entry = max(
                    (arrivals.get(inst[i], ctx.start) for i in objects),
                    default=ctx.start,
                )
                if entry > ctx.start:
                    relation.set(inst, iset.clamp_start(entry))
        return relation

    def _use_batch(self) -> bool:
        """Whether an atom's rows may take the column path into the batch
        kinetic backend.

        Zero-length windows stay scalar: their degenerate zero-velocity
        leg is synthesized inside the scalar pairing fallback, which the
        column kernels intentionally do not reproduce.  With
        ``analytic_atoms`` off every atom samples."""
        return self.options.analytic_atoms and self.ctx.start < self.ctx.end

    def _batched_rows(
        self, f: Formula, free: list[str], insts: Iterable[Instantiation]
    ) -> FtlRelation:
        """The row loop of the atom base case (DESIGN.md §7, §8).

        The index first partitions the rows (:meth:`_atom_gate`): the
        rows it decides are counted, not visited, and enter the relation
        with their known answer when it is not empty.  The rows left are
        solved by :meth:`_solve_rows`, and every row enters the relation
        in product order.
        """
        relation = FtlRelation(tuple(free))
        rows = insts if isinstance(insts, list) else list(insts)
        stats = self._stats_for(f)
        stats["instantiations"] += len(rows)
        split = self._atom_gate(f, free, rows)
        if split is None:
            for inst, iset in zip(rows, self._solve_rows(f, free, rows, stats)):
                relation.set(inst, iset)
            return relation
        positions, decided, known = split
        self.pruned_instantiations += decided
        stats["pruned"] += decided
        picks = positions.tolist()
        todo = [rows[i] for i in picks]
        answers = self._solve_rows(f, free, todo, stats)
        if known.is_empty:
            for inst, iset in zip(todo, answers):
                relation.set(inst, iset)
            return relation
        out = [known] * len(rows)
        for i, iset in zip(picks, answers):
            out[i] = iset
        for inst, iset in zip(rows, out):
            relation.set(inst, iset)
        return relation

    def _solve_rows(
        self,
        f: Formula,
        free: list[str],
        todo: list[Instantiation],
        stats: dict[str, object],
    ) -> list[IntervalSet]:
        """The answers of an atom's rows to solve, in order.

        Rows whose motion is one plain linear leg — for an attribute
        comparison, one linear attribute row — take the column path
        (:meth:`_column_rows`), the one way into the batch backend: their
        keys, legs and attribute answers come a column at a time, and
        their misses enter one :class:`~repro.ftl.atoms.KineticBatch` as
        arrays.  Every other row runs its scalar closure inline
        (:meth:`_atom_request`): fallback laws, multi-leg movers, rows of
        a recorded history, unindexed, unknown or raising ids, dimension
        mismatches, an atom whose bound names a row variable, and every
        row of a zero-length window or of a run with ``analytic_atoms``
        off.  One loop walks both in product order.  Under a validity
        stamp (:meth:`_stamp_for`) it builds each kinetic row's key and
        probes the stamped table once per row — a key a queued row
        already produces is read back after the batch, as an inline
        solve would have hit it — then the batch is solved and its
        answers fill the table and the rows; without a stamp no key is
        built and every row solves.  Only the scalar closures raise, so
        the same row raises the same error first, and the relation, the
        counters and the table contents do not depend on which path a
        row took.
        """
        cache = self._cache
        stamp = self._stamp_for(f)
        column = (
            self._column_rows(f, free, todo, stamp is not None)
            if todo and self._use_batch()
            else None
        )
        results: list[IntervalSet] = [EMPTY_SET] * len(todo)
        queued: list[tuple[int, object]] = []  # (row, key) of column misses
        # (row, key, post, scalar re-solve or None for a column row)
        deferred: list[tuple[int, object, _Post, _Solve | None]] = []
        pending: set = set()  # keys whose producing row is still queued
        misses: list[int] = []  # column rows queued, in order
        for j, inst in enumerate(todo):
            c = -1 if column is None else column.slot[j]
            if c >= 0:
                if column.values is not None:  # an attribute row: solved
                    self.kinetic_solves += 1
                    stats["solves"] += 1
                    results[j] = column.values[c]
                    continue
                key = None if column.keys is None else column.keys[c]
                post = column.post
                solve = None
            else:
                env = dict(zip(free, inst))
                solves0 = self.kinetic_solves
                req = self._atom_request(f, env)
                stats["solves"] += self.kinetic_solves - solves0
                if isinstance(req, IntervalSet):
                    results[j] = req
                    continue
                key = None if stamp is None else req.key()
                post, solve = req.post, req.solve
            if key is not None:
                if key in pending:
                    deferred.append((j, key, post, solve))
                    continue
                hit = cache.get(key, stamp[0])
                if hit is not None:
                    self.cache_hits += 1
                    stats["cache_hits"] += 1
                    results[j] = hit if post is None else post(hit)
                    continue
                self.cache_misses += 1
            self.kinetic_solves += 1
            stats["solves"] += 1
            if solve is None:
                misses.append(c)
                queued.append((j, key))
                if key is not None:
                    pending.add(key)
                continue
            value = solve()
            if key is not None:
                cache.put(key, *stamp, value)
            results[j] = value if post is None else post(value)
        produced: dict[object, IntervalSet] = {}
        if misses:
            kbatch = KineticBatch(self.ctx)
            handle = column.enqueue(kbatch, misses)
            kbatch.solve()
            post = column.post
            for (j, key), value in zip(queued, kbatch.results(handle)):
                if key is not None:
                    cache.put(key, *stamp, value)
                    produced[key] = value
                results[j] = value if post is None else post(value)
        for j, key, post, solve in deferred:
            hit = cache.get(key, stamp[0])  # records the hit, as scalar would
            if hit is None:  # evicted mid-batch: re-solve
                self.cache_misses += 1
                self.kinetic_solves += 1
                stats["solves"] += 1
                hit = produced[key] if solve is None else solve()
                cache.put(key, *stamp, hit)
            else:
                self.cache_hits += 1
                stats["cache_hits"] += 1
            results[j] = hit if post is None else post(hit)
        return results

    # ------------------------------------------------------------------
    # The column path: per-atom constants once, rows as column gathers
    # ------------------------------------------------------------------
    def _column_rows(
        self,
        f: Formula,
        free: list[str],
        todo: list[Instantiation],
        keyed: bool,
    ) -> _ColumnRows | None:
        """The rows of ``todo`` the column path solves, or ``None`` when
        it takes none of them.

        Everything constant for the atom is resolved once: its kind,
        region, bound, op and OUTSIDE's complement (and, when ``keyed``
        — the atom is stamped — the region token).  An
        atom whose constants cannot be resolved — an unknown region, a
        bound that names a row variable or does not evaluate — is left
        whole to the scalar path, which raises at the row where it
        always raised.  A row is taken when its objects are in the
        columns of their variables' classes and their motion is one
        plain linear leg over the window (for an attribute, the row is
        linear and the band kernel takes it); the rows become object
        numbers through ``MotionColumns.index`` and their legs one
        :meth:`~repro.ftl.context.EvalContext.column_legs` gather.
        """
        from repro.core.history import FutureHistory

        if not isinstance(self.ctx.history, FutureHistory):
            return None
        if isinstance(f, (Inside, Outside)):
            return self._region_columns(f, free, todo, keyed)
        if isinstance(f, WithinSphere):
            return self._sphere_columns(f, free, todo, keyed)
        if isinstance(f, Compare):
            dist = self._dist_terms(f)
            if dist is not None:
                return self._dist_columns(dist, free, todo, keyed)
            attr = self._attr_terms(f)
            if attr is not None:
                return self._attr_columns(attr, free, todo)
        return None

    def _column_var(
        self, term: Term, free: list[str]
    ) -> "tuple[int, MotionColumns] | None":
        """A FROM-bound variable term's row position and its class's
        motion columns, or ``None``."""
        if not isinstance(term, Var) or term.name not in self.ctx.bindings:
            return None
        cls = self.ctx.bindings[term.name]
        try:
            columns = self.ctx.history.motion_columns(cls)
        except QueryError:
            return None  # the database moved on: every request raises
        return free.index(term.name), columns

    def _constant(self, term: Term) -> object:
        """A term without variables evaluated once, or ``None`` when it
        names a variable or does not evaluate (the scalar path then
        raises at the row where it always did)."""
        if term.free_vars():
            return None
        try:
            return self.ctx.eval_term(term, {}, self.ctx.start)
        except ReproError:
            return None

    def _movers(
        self,
        terms: Sequence[Term],
        free: list[str],
        todo: list[Instantiation],
        keyed: bool,
    ) -> "tuple[list[int], int, list[_Mover]] | None":
        """The rows of ``todo`` whose every term names an object of its
        variable's class moving on one plain linear leg, as ``(picks,
        dim, movers)``: their positions in ``todo``, the classes' one
        dimensionality, and per term the picked rows' leg origins,
        velocities and — with ``keyed`` — motion tokens.  ``None`` when
        no row qualifies."""
        ctx = self.ctx
        found = [self._column_var(term, free) for term in terms]
        if None in found:
            return None
        dims = {columns.dim for _pos, columns in found}
        if len(dims) != 1 or not min(dims):
            return None
        ids = [[inst[pos] for inst in todo] for pos, _columns in found]
        numbers = [
            _numbers(columns, column)
            for (_pos, columns), column in zip(found, ids)
        ]
        known = [j for j, row in enumerate(zip(*numbers)) if min(row) >= 0]
        blocks = [
            columns.positions([column[j] for j in known])
            for (_pos, columns), column in zip(found, numbers)
        ]
        legs = [ctx.column_legs(block) for block in blocks]
        linear = legs[0][0]
        for qualifies, _origin, _velocity in legs[1:]:
            linear = linear & qualifies
        take = np.flatnonzero(linear)
        if not take.size:
            return None
        picks = [known[i] for i in take.tolist()]
        movers = []
        for column, block, (_linear, origin, velocity) in zip(ids, blocks, legs):
            origin, velocity = _taken(take, origin, velocity)
            tokens = []
            if keyed:
                named = [column[j] for j in picks]
                coefficients = _taken(
                    take, block.value, block.updatetime, block.slope
                )
                tokens = linear_motion_tokens(ctx, named, *coefficients)
            movers.append((origin, velocity, tokens))
        return picks, dims.pop(), movers

    def _region_columns(
        self,
        f: Inside | Outside,
        free: list[str],
        todo: list[Instantiation],
        keyed: bool,
    ) -> _ColumnRows | None:
        ctx = self.ctx
        try:
            region = ctx.history.region(f.region)
        except SchemaError:
            return None
        if isinstance(region, Ball):
            if region.radius < 0:
                return None
            dim = region.center.dim
        elif isinstance(region, Polygon):
            dim = 2
        else:
            return None
        found = self._movers((f.obj,), free, todo, keyed)
        if found is None or found[1] != dim:
            return None
        picks, _dim, [(origin, velocity, tokens)] = found
        keys = None
        if keyed:
            prefix = ("region", region_token(region))
            keys = [(*prefix, token) for token in tokens]
        post = None
        if isinstance(f, Outside):
            within = Interval(ctx.start, ctx.end)

            def post(inside: IntervalSet) -> IntervalSet:
                return inside.complement(within)

        def enqueue(kbatch: KineticBatch, misses: list[int]) -> tuple:
            return kbatch.submit_region_rows(
                region, origin[misses], velocity[misses]
            )

        return _ColumnRows(_slots(len(todo), picks), keys, post, enqueue=enqueue)

    def _sphere_columns(
        self,
        f: WithinSphere,
        free: list[str],
        todo: list[Instantiation],
        keyed: bool,
    ) -> _ColumnRows | None:
        if len(f.objs) != 2 or f.radius < 0:
            return None
        try:
            radius = float(f.radius)
        except OverflowError:
            return None
        prefix = ("sphere", radius)
        return self._pair_columns(
            f.objs, prefix, 2 * f.radius, False, free, todo, keyed
        )

    def _dist_columns(
        self,
        dist: tuple[Dist, Term, str],
        free: list[str],
        todo: list[Instantiation],
        keyed: bool,
    ) -> _ColumnRows | None:
        dist_term, bound_term, op = dist
        bound = self._constant(bound_term)
        if not isinstance(bound, (int, float)) or bound < 0:
            return None
        try:
            fb = float(bound)
        except OverflowError:
            return None
        prefix = ("dist", op, fb)
        return self._pair_columns(
            (dist_term.left, dist_term.right),
            prefix,
            fb,
            op == ">=",
            free,
            todo,
            keyed,
        )

    def _pair_columns(
        self,
        terms: Sequence[Term],
        prefix: tuple,
        bound: float,
        at_least: bool,
        free: list[str],
        todo: list[Instantiation],
        keyed: bool,
    ) -> _ColumnRows | None:
        """Rows of ``DIST(a, b) <= bound`` (``>=`` with ``at_least``)
        whose two movers each run one plain linear leg.  A sphere's key
        holds the pair of motion tokens as one part, a ``DIST`` key as
        two."""
        found = self._movers(terms, free, todo, keyed)
        if found is None:
            return None
        picks, _dim, [a, b] = found
        (origin_a, velocity_a, tokens_a), (origin_b, velocity_b, tokens_b) = a, b
        keys = None
        if keyed:
            if prefix[0] == "sphere":
                keys = [(*prefix, pair) for pair in zip(tokens_a, tokens_b)]
            else:
                keys = [(*prefix, ta, tb) for ta, tb in zip(tokens_a, tokens_b)]

        def enqueue(kbatch: KineticBatch, misses: list[int]) -> tuple:
            return kbatch.submit_pair_rows(
                origin_a[misses],
                velocity_a[misses],
                origin_b[misses],
                velocity_b[misses],
                bound,
                at_least,
            )

        return _ColumnRows(_slots(len(todo), picks), keys, enqueue=enqueue)

    def _attr_terms(self, f: Compare) -> tuple[Attr, Term, str] | None:
        """``o.attr op bound`` normalised with the attribute on the left,
        for a dynamic attribute of a FROM-bound variable against an
        invariant term — the rows :meth:`_attr_fast_path` may take."""
        if f.op not in ("<=", ">="):
            return None
        ctx = self.ctx
        if self._dynamic_attr(f.left) and ctx.term_invariant(f.right):
            return f.left, f.right, f.op
        if self._dynamic_attr(f.right) and ctx.term_invariant(f.left):
            return f.right, f.left, {"<=": ">=", ">=": "<="}[f.op]
        return None

    def _dynamic_attr(self, term: Term) -> bool:
        """Whether ``term`` is a dynamic attribute of a FROM-bound
        variable."""
        if not isinstance(term, Attr) or not isinstance(term.obj, Var):
            return False
        cls = self.ctx.bindings.get(term.obj.name)
        if cls is None:
            return False
        return self.ctx.history.db.object_class(cls).is_dynamic(term.attr)

    def _attr_columns(
        self,
        attr: tuple[Attr, Term, str],
        free: list[str],
        todo: list[Instantiation],
    ) -> _ColumnRows | None:
        """Linear rows of ``o.attr op bound`` solved in one closed-form
        pass (:func:`~repro.motion.batch.value_band`), at most one
        interval per row.  No attribute atom is stamped, so the rows
        carry no keys."""
        attr_term, bound_term, op = attr
        bound = self._constant(bound_term)
        if not isinstance(bound, (int, float)):
            return None
        try:
            fb = float(bound)
        except OverflowError:
            return None
        var = self._column_var(attr_term.obj, free)
        if var is None:
            return None
        pos, columns = var
        numbers = _numbers(columns, [inst[pos] for inst in todo])
        known = [j for j, number in enumerate(numbers) if number >= 0]
        rows = columns.attribute(attr_term.attr, [numbers[j] for j in known])
        linear = np.flatnonzero(rows.kind == KIND_LINEAR)
        value, updatetime, slope, intflags = _taken(
            linear, rows.value, rows.updatetime, rows.slope, rows.intflags
        )
        ctx = self.ctx
        taken, pieces = value_band(
            value,
            updatetime,
            slope,
            intflags,
            fb,
            op == ">=",
            ctx.start,
            ctx.end,
        )
        take = np.flatnonzero(taken)
        if not take.size:
            return None
        solved = interval_sets(len(taken), pieces)
        values = [solved[i] for i in take.tolist()]
        picks = [known[i] for i in linear[take].tolist()]
        return _ColumnRows(_slots(len(todo), picks), None, values=values)

    def _atom_gate(
        self, f: Formula, free: list[str], rows: list[Instantiation]
    ) -> AtomPartition | None:
        """The index's partition of one atom's rows
        (:meth:`~repro.ftl.atoms.AtomIndexPruner.partition`, over the
        view :meth:`_atom_index` picks), or ``None``: solve every row.

        Pruning is a refinement of the kinetic path, so it obeys the
        ``analytic_atoms`` ablation: with sampling forced, atoms must
        actually sample.  Cold and delta evaluation gate alike; only
        the view differs."""
        if not (self.options.analytic_atoms and self.options.index_pruning):
            return None
        return self._atom_index(free, rows).partition(f, free, rows)

    def _atom_index(
        self, free: list[str], rows: list[Instantiation]
    ) -> AtomIndexPruner:
        """The index view that partitions an atom's rows: the
        context's view of the whole bound classes' tables (shared per
        content version through ``db.mbr_tables``).  The delta
        evaluator overrides it with a view of its dirty rows' objects."""
        return self.ctx.atom_pruner()

    def _stats_for(self, f: Formula) -> dict[str, object]:
        stats = self.atom_stats.get(id(f))
        if stats is None:
            stats = self.atom_stats[id(f)] = {
                "formula": f,
                "instantiations": 0,
                "pruned": 0,
                "solves": 0,
                "cache_hits": 0,
            }
        return stats

    def _stamp_for(self, f: Formula) -> tuple[tuple[int, int], float] | None:
        """The pass-8 stamp ``(window, expiry)`` for one atom, or
        ``None`` — the one condition under which its solves are keyed
        and reused.

        A stamp exists only when the atom's concrete validity expiry
        lies strictly beyond the window start — which (by construction
        of :func:`~repro.ftl.analysis.validity.class_motion_events`)
        proves every trajectory the atom reads is piecewise-linear, so
        its solves are analytic and window-shift reuse is exact.
        """
        if self.validity is None or self._cache is None:
            return None
        expire = self.validity.get(id(f))
        if expire is None or expire <= self.ctx.start:
            return None
        return ((self.ctx.start, self.ctx.end), expire)

    def _atom_request(
        self, f: Formula, env: Env
    ) -> "IntervalSet | _SolveRequest":
        """One instantiation's answer, or its pending kinetic solve.

        Immediate answers (sampled atoms, invariant comparisons, the
        attribute fast path, per-tick fallbacks) come back as interval
        sets; the kinetic atom kinds come back as requests the row loop
        answers from the stamped table or solves inline.
        """
        ctx = self.ctx
        window = ctx.window

        if not self.options.analytic_atoms and not isinstance(f, Compare):
            return self._sampled_atom(f, env)

        if isinstance(f, Inside) or isinstance(f, Outside):
            obj_id = ctx.eval_term(f.obj, env, ctx.start)
            region = ctx.history.region(f.region)

            def solve_region() -> IntervalSet:
                mover = ctx.moving_point(obj_id)
                if isinstance(region, Polygon):
                    dense = when_inside_polygon(mover, region, window)
                elif isinstance(region, Ball):
                    dense = when_inside_ball(mover, region, window)
                else:  # pragma: no cover - region types are closed
                    raise FtlSemanticsError(f"unsupported region {region!r}")
                return dense.discretized().clip(ctx.start, ctx.end)

            # Cache the *inside* set; OUTSIDE complements on retrieval so
            # both atom polarities share one solve.
            post: "Callable[[IntervalSet], IntervalSet] | None" = None
            if isinstance(f, Outside):
                start, end = ctx.start, ctx.end

                def complement_inside(inside_set: IntervalSet) -> IntervalSet:
                    return inside_set.complement(Interval(start, end))

                post = complement_inside
            return _SolveRequest(
                partial(region_solve_key, ctx, region, obj_id),
                solve_region,
                post,
            )

        if isinstance(f, WithinSphere):
            obj_ids = [ctx.eval_term(o, env, ctx.start) for o in f.objs]

            def solve_sphere() -> IntervalSet:
                movers = [ctx.moving_point(oid) for oid in obj_ids]
                dense = when_within_sphere(f.radius, movers, window)
                return dense.discretized().clip(ctx.start, ctx.end)

            return _SolveRequest(
                partial(sphere_solve_key, ctx, f.radius, obj_ids), solve_sphere
            )

        if isinstance(f, Compare):
            return self._compare_request(f, env)

        raise FtlSemanticsError(f"not an atom: {f!r}")

    def _sampled_atom(self, f: Formula, env: Env) -> IntervalSet:
        """Per-tick evaluation of a spatial atom (ablation path)."""
        from repro.ftl.naive import NaiveEvaluator

        ctx = self.ctx
        naive = self._naive
        if naive is None:  # hoisted: one oracle per evaluation, not per atom
            naive = self._naive = NaiveEvaluator(ctx)
        flags = []
        for t in ctx.ticks():
            self.sampled_atom_evals += 1
            flags.append(naive.satisfied(f, env, t))
        return IntervalSet.from_boolean_samples(flags, DISCRETE, ctx.start)

    def _compare_request(
        self, f: Compare, env: Env
    ) -> "IntervalSet | _SolveRequest":
        ctx = self.ctx
        left_inv = ctx.term_invariant(f.left)
        right_inv = ctx.term_invariant(f.right)

        # Both sides constant along the history: evaluate once.
        if left_inv and right_inv:
            lhs = ctx.eval_term(f.left, env, ctx.start)
            rhs = ctx.eval_term(f.right, env, ctx.start)
            if lhs is not None and rhs is not None and _CMP[f.op](lhs, rhs):
                return IntervalSet.span(ctx.start, ctx.end, DISCRETE)
            return EMPTY_SET

        if self.options.analytic_atoms:
            # Fast path: DIST(o1, o2) <= / >= constant (the airport query).
            req = self._dist_request(f, env)
            if req is not None:
                return req

            # Fast path: linear dynamic attribute vs constant.
            fast = self._attr_fast_path(f, env, left_inv, right_inv)
            if fast is not None:
                return fast

        # General fallback: evaluate per tick (exact under the discrete
        # per-tick semantics of section 2.2).
        flags = []
        for t in ctx.ticks():
            self.sampled_atom_evals += 1
            lhs = ctx.eval_term(f.left, env, t)
            rhs = ctx.eval_term(f.right, env, t)
            flags.append(
                lhs is not None and rhs is not None and _CMP[f.op](lhs, rhs)
            )
        return IntervalSet.from_boolean_samples(flags, DISCRETE, ctx.start)

    def _dist_terms(self, f: Compare) -> tuple[Dist, Term, str] | None:
        """``DIST(a, b) op bound`` normalised with the distance on the
        left, for ``<=`` / ``>=`` against an invariant term."""
        if f.op not in ("<=", ">="):
            return None
        if isinstance(f.left, Dist) and self.ctx.term_invariant(f.right):
            return f.left, f.right, f.op
        if isinstance(f.right, Dist) and self.ctx.term_invariant(f.left):
            return f.right, f.left, {"<=": ">=", ">=": "<="}[f.op]
        return None

    def _dist_request(self, f: Compare, env: Env) -> "_SolveRequest | None":
        ctx = self.ctx
        spec = self._dist_terms(f)
        if spec is None:
            return None
        dist_term, bound_term, op = spec
        bound = ctx.eval_term(bound_term, env, ctx.start)
        if not isinstance(bound, (int, float)) or bound < 0:
            return None
        a = ctx.eval_term(dist_term.left, env, ctx.start)
        b = ctx.eval_term(dist_term.right, env, ctx.start)

        def solve_dist() -> IntervalSet:
            m1 = ctx.moving_point(a)
            m2 = ctx.moving_point(b)
            if op == "<=":
                dense = when_dist_at_most(m1, m2, float(bound), ctx.window)
            else:
                dense = when_dist_at_least(m1, m2, float(bound), ctx.window)
            return dense.discretized().clip(ctx.start, ctx.end)

        return _SolveRequest(
            partial(dist_solve_key, ctx, op, float(bound), a, b), solve_dist
        )

    def _attr_fast_path(
        self, f: Compare, env: Env, left_inv: bool, right_inv: bool
    ) -> IntervalSet | None:
        ctx = self.ctx
        if self._is_linear_dynamic_attr(f.left, env) and right_inv and f.op in ("<=", ">="):
            attr_term, bound_term, op = f.left, f.right, f.op
        elif self._is_linear_dynamic_attr(f.right, env) and left_inv and f.op in ("<=", ">="):
            attr_term, bound_term = f.right, f.left
            op = {"<=": ">=", ">=": "<="}[f.op]
        else:
            return None
        bound = ctx.eval_term(bound_term, env, ctx.start)
        if not isinstance(bound, (int, float)):
            return None
        obj_id = ctx.eval_term(attr_term.obj, env, ctx.start)
        triple = ctx.history.dynamic_triple(obj_id, attr_term.attr)
        self.kinetic_solves += 1
        if op == "<=":
            lo, hi = -math.inf, float(bound)
        else:
            lo, hi = float(bound), math.inf
        # when_value_in_range needs finite bounds on the active side
        # only; replace the infinite side by a huge sentinel beyond any
        # value the window can reach.
        span = abs(triple.value) + (abs(triple.speed) + 1) * (
            ctx.end - triple.updatetime + 1
        )
        sentinel = max(1e12, span * 10)
        lo, hi = max(lo, -sentinel), min(hi, sentinel)
        if hi < lo:  # a bound beyond the sentinel: never reached
            return EMPTY_SET
        dense = when_value_in_range(
            triple.value,
            triple.function,
            lo,
            hi,
            ctx.window,
            anchor_time=triple.updatetime,
        )
        return dense.discretized().clip(ctx.start, ctx.end)

    def _is_linear_dynamic_attr(self, term: Term, env: Env) -> bool:
        from repro.core.history import FutureHistory

        if not isinstance(self.ctx.history, FutureHistory):
            return False
        if not self._dynamic_attr(term):
            return False
        obj_id = env.get(term.obj.name)
        if obj_id is None:
            return False
        triple = self.ctx.history.dynamic_triple(obj_id, term.attr)
        return triple.function.is_linear

    # ------------------------------------------------------------------
    # Connectives
    # ------------------------------------------------------------------
    @staticmethod
    def _matches(
        relation: FtlRelation, shared: list[str], probe: bool
    ) -> Callable[[tuple], Sequence[tuple[Instantiation, IntervalSet]]]:
        """A join's candidate source: ``key -> the rows of relation whose
        shared variables hold key``.

        By default the relation is scanned once into buckets keyed by
        the shared values.  With ``probe`` (and at least one shared
        variable) nothing is scanned: each key is looked up in the
        relation's inverted index (:meth:`FtlRelation.matching`), so a
        handful of delta rows meet a large cached relation at the cost
        of their matches.  Without a shared variable the join is a cross
        product, and the relation is scanned either way.
        """
        positions = [relation.index_of(v) for v in shared]
        if probe and positions:
            return lambda key: relation.matching(positions, key)
        buckets: dict[tuple, list[tuple[Instantiation, IntervalSet]]] = {}
        for inst, iset in relation.rows():
            key = tuple(inst[p] for p in positions)
            buckets.setdefault(key, []).append((inst, iset))
        return lambda key: buckets.get(key, ())

    def _conjunction(
        self,
        r1: FtlRelation,
        r2: FtlRelation,
        probe: FtlRelation | None = None,
    ) -> FtlRelation:
        """The appendix's conjunction join: match on common variables,
        intersect the intervals.

        One side's rows are walked and each meets its matches on the
        other (:meth:`_matches`): by default ``r1`` is walked against
        buckets of ``r2``; ``probe`` names the side (``r1`` or ``r2``)
        whose matches come from its inverted index while the other side
        is walked — the delta joins of incremental maintenance.  The
        output is the same map whichever side is walked.
        """
        shared = [v for v in r1.variables if v in r2.variables]
        out_vars = tuple(
            sorted(set(r1.variables) | set(r2.variables))
        )
        out = FtlRelation(out_vars)
        walk_left = probe is not r1
        walked, other = (r1, r2) if walk_left else (r2, r1)
        matches = self._matches(other, shared, probe is not None)
        idx = [walked.index_of(v) for v in shared]
        for inst_w, set_w in walked.rows():
            for inst_o, set_o in matches(tuple(inst_w[i] for i in idx)):
                if walk_left:
                    inst1, set1, inst2, set2 = inst_w, set_w, inst_o, set_o
                else:
                    inst1, set1, inst2, set2 = inst_o, set_o, inst_w, set_w
                overlap = set1.intersection(set2)
                if not overlap.is_empty:
                    merged = merge_instantiations(
                        out_vars, r1.variables, inst1, r2.variables, inst2
                    )
                    out.add(merged, overlap)
        return out

    def _until_join(
        self,
        r1: FtlRelation,
        r2: FtlRelation,
        combine: Callable[[IntervalSet, IntervalSet], IntervalSet],
        probe: bool = False,
    ) -> FtlRelation:
        """The appendix's Until join.

        ``g1 Until g2`` holds wherever ``g2`` holds even if ``g1`` never
        does, so the join is outer on the ``g1`` side: variables of ``g1``
        missing from ``g2`` are enumerated over their domains with an
        empty ``g1`` interval set as the default.  The ``r2`` rows are
        walked; each key's ``r1`` group is read once from
        :meth:`_matches` (``probe``: from ``r1``'s inverted index).
        """
        shared = [v for v in r1.variables if v in r2.variables]
        extra1 = [v for v in r1.variables if v not in r2.variables]
        out_vars = tuple(sorted(set(r1.variables) | set(r2.variables)))
        out = FtlRelation(out_vars)
        extra_domains = [self.ctx.domain(v) for v in extra1]
        idx1_extra = [r1.index_of(v) for v in extra1]
        idx2_shared = [r2.index_of(v) for v in shared]
        matches = self._matches(r1, shared, probe)

        # r1 rows grouped by shared values, then by their extra values.
        groups: dict[tuple, dict[tuple, IntervalSet]] = {}
        for inst2, set2 in r2.rows():
            key = tuple(inst2[i] for i in idx2_shared)
            group = groups.get(key)
            if group is None:
                group = groups[key] = {
                    tuple(inst1[i] for i in idx1_extra): set1
                    for inst1, set1 in matches(key)
                }
            for extra in product(*extra_domains):
                set1 = group.get(tuple(extra), EMPTY_SET)
                result = combine(set1, set2)
                if result.is_empty:
                    continue
                inst1_like = self._compose(
                    r1.variables, shared, key, extra1, extra
                )
                merged = merge_instantiations(
                    out_vars, r1.variables, inst1_like, r2.variables, inst2
                )
                out.add(merged, result)
        return out

    @staticmethod
    def _compose(
        variables: tuple[str, ...],
        shared: list[str],
        shared_vals: tuple,
        extra: list[str],
        extra_vals: tuple,
    ) -> Instantiation:
        lookup = dict(zip(shared, shared_vals))
        lookup.update(zip(extra, extra_vals))
        return tuple(lookup[v] for v in variables)

    def _disjunction(self, f: OrF) -> FtlRelation:
        """Safe disjunction: enumerate the union variable set."""
        r1, r2 = self._operand(f.left), self._operand(f.right)
        out_vars = tuple(sorted(set(r1.variables) | set(r2.variables)))
        out = FtlRelation(out_vars)
        idx1 = [out_vars.index(v) for v in r1.variables]
        idx2 = [out_vars.index(v) for v in r2.variables]
        for inst in self._rows(out_vars):
            s1 = r1.get(tuple(inst[i] for i in idx1))
            s2 = r2.get(tuple(inst[i] for i in idx2))
            combined = s1.union(s2)
            if not combined.is_empty:
                out.set(tuple(inst), combined)
        return out

    def _negation(self, f: NotF) -> FtlRelation:
        """Safe negation: complement within the window over the enumerable
        domain product (the paper excludes negation for safety; enumerable
        domains restore it)."""
        inner = self._operand(f.operand)
        bound = Interval(self.ctx.start, self.ctx.end)
        out = FtlRelation(inner.variables)
        for inst in self._rows(inner.variables):
            out.set(tuple(inst), inner.get(tuple(inst)).complement(bound))
        return out

    # ------------------------------------------------------------------
    # Assignment quantifier
    # ------------------------------------------------------------------
    def _assignment(self, f: Assign) -> FtlRelation:
        """The appendix's ``[y := q] g`` case: compute the relation ``Q``
        of the atomic query's values over time, evaluate the body with the
        assigned variable ranging over the observed values, then join on
        ``body.y == Q.value`` with interval intersection."""
        ctx = self.ctx
        term_vars = sorted(f.term.free_vars())
        q_rows = self._term_timeline_relation(f.term, term_vars)

        values = sorted(
            {value for _inst, value, _iset in q_rows},
            key=lambda v: (str(type(v)), str(v)),
        )
        ctx.push_domain(f.var, list(values))
        try:
            body = self._eval(f.body)
        finally:
            ctx.pop_domain(f.var)

        # Join: shared object variables must agree, the body's var column
        # must equal the Q value, intervals intersect; project the var out.
        body_has_var = f.var in body.variables
        body_vars_wo = tuple(v for v in body.variables if v != f.var)
        out_vars = tuple(sorted(set(body_vars_wo) | set(term_vars)))
        out = FtlRelation(out_vars)
        shared = [v for v in body_vars_wo if v in term_vars]
        idx_body_shared = [body.variables.index(v) for v in shared]
        idx_q_shared = [term_vars.index(v) for v in shared]
        var_idx = body.variables.index(f.var) if body_has_var else None

        buckets: dict[tuple, list[tuple[Instantiation, IntervalSet]]] = {}
        for inst_b, set_b in body.rows():
            key = tuple(inst_b[i] for i in idx_body_shared)
            buckets.setdefault(key, []).append((inst_b, set_b))

        for inst_q, value, q_set in q_rows:
            key = tuple(inst_q[i] for i in idx_q_shared)
            for inst_b, set_b in buckets.get(key, ()):
                if var_idx is not None and inst_b[var_idx] != value:
                    continue
                overlap = set_b.intersection(q_set)
                if overlap.is_empty:
                    continue
                body_wo = tuple(
                    v
                    for i, v in enumerate(inst_b)
                    if body.variables[i] != f.var
                )
                merged = merge_instantiations(
                    out_vars,
                    body_vars_wo,
                    body_wo,
                    tuple(term_vars),
                    tuple(inst_q),
                )
                out.add(merged, overlap)
        return out

    def _term_timeline_relation(
        self, term: Term, term_vars: list[str]
    ) -> list[tuple[Instantiation, object, IntervalSet]]:
        """The appendix's ``Q`` relation: per instantiation of the term's
        free variables, ``(value, interval)`` runs over the window."""
        ctx = self.ctx
        domains = [ctx.domain(v) for v in term_vars]
        rows: list[tuple[Instantiation, object, IntervalSet]] = []
        full = IntervalSet.span(ctx.start, ctx.end, DISCRETE)
        for inst in product(*domains):
            env = dict(zip(term_vars, inst))
            if ctx.term_invariant(term):
                value = ctx.eval_term(term, env, ctx.start)
                rows.append((tuple(inst), value, full))
                continue
            # Per-tick runs of equal values.
            run_value: object = None
            run_start: int | None = None
            for t in ctx.ticks():
                self.sampled_atom_evals += 1
                value = ctx.eval_term(term, env, t)
                if run_start is None:
                    run_value, run_start = value, t
                elif value != run_value:
                    rows.append(
                        (
                            tuple(inst),
                            run_value,
                            IntervalSet.span(run_start, t - 1, DISCRETE),
                        )
                    )
                    run_value, run_start = value, t
            if run_start is not None:
                rows.append(
                    (
                        tuple(inst),
                        run_value,
                        IntervalSet.span(run_start, ctx.end, DISCRETE),
                    )
                )
        return rows
