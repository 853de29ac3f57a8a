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
    RoundAtoms,
    region_token,
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
    #: complements the *inside* set), or none.
    _Post = Callable[[IntervalSet], IntervalSet] | None
    #: One mover term's picked rows: leg origins and velocities.
    _Mover = tuple[np.ndarray, np.ndarray]

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

    ``solve`` is the scalar closure; ``post`` an optional transform of
    the solved value (OUTSIDE complements the *inside* set).
    """

    __slots__ = ("solve", "post")

    def __init__(
        self,
        solve: "Callable[[], IntervalSet]",
        post: "Callable[[IntervalSet], IntervalSet] | None" = None,
    ) -> None:
        self.solve = solve
        self.post = post


class _ColumnRows:
    """The rows of one atom the column path solves
    (:meth:`IntervalEvaluator._column_rows`).

    ``slot`` maps each row to solve to its column row, or ``-1`` for a
    row the scalar path takes; ``post`` is the atom's transform of a
    solved value.  An attribute comparison comes solved (``values``);
    the other kinds queue the column rows ``picks`` on a batch
    (``enqueue``).
    """

    __slots__ = ("slot", "post", "values", "enqueue")

    def __init__(
        self,
        slot: list[int],
        post: "_Post" = None,
        values: list[IntervalSet] | None = None,
        enqueue: "Callable[[KineticBatch, list[int]], tuple] | None" = None,
    ) -> None:
        self.slot = slot
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
        atoms: RoundAtoms | None = None,
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
        #: reusable.  The incremental subclass's horizon skip reads them.
        self.validity = validity
        #: The store of solved atom rows a continuous query hands in
        #: (:class:`~repro.ftl.atoms.RoundAtoms`, DESIGN.md §7): the
        #: column-path rows of its atoms are read from it, clipped to
        #: this window, and the rows it lacks are partitioned over the
        #: round window, solved over this one and stored.  ``None`` for
        #: every other evaluation.
        self.atoms = atoms
        #: The keys of the atoms this evaluation read through
        #: :attr:`atoms` (its query's live atoms).
        self.round_keys: set[tuple] = set()
        #: The round window's context (:meth:`_round_context`).
        self._wide: EvalContext | None = None
        #: Index views outside the round table (:meth:`_view`).
        self._views: dict[tuple, AtomIndexPruner] = {}
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
        #: Atom rows answered from the store (:attr:`atoms`) without a
        #: partition or a solve of this evaluator's own.
        self.shared_rows = 0
        #: Per-atom accounting keyed by ``id(formula)`` — feeds the
        #: estimate-vs-observed drift report of analysis/cost.py.
        self.atom_stats: dict[int, dict[str, object]] = {}

    def counters(self) -> dict[str, int]:
        """The atom-acceleration counters, in EXPLAIN ``--json`` shape."""
        return {
            "kinetic_solves": self.kinetic_solves,
            "sampled_atom_evals": self.sampled_atom_evals,
            "pruned_instantiations": self.pruned_instantiations,
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

        The index first partitions the rows (:meth:`_gated`): the rows
        it decides are counted, not visited, and enter the relation with
        their known answer when it is not empty.  The rows left are
        solved by :meth:`_solve_rows`, and every row enters the relation
        in product order.  An atom the round table holds
        (:meth:`_round_key`) is answered through it instead
        (:meth:`_shared_rows`).
        """
        relation = FtlRelation(tuple(free))
        rows = insts if isinstance(insts, list) else list(insts)
        stats = self._stats_for(f)
        stats["instantiations"] += len(rows)
        key = self._round_key(f, free)
        if key is not None:
            for inst, iset in zip(rows, self._shared_rows(f, free, rows, stats, key)):
                relation.set(inst, iset)
            return relation
        todo, answers, known = self._gated(f, free, rows, stats)
        if todo is rows or known.is_empty:
            for inst, iset in zip(todo, answers):
                relation.set(inst, iset)
            return relation
        solved = dict(zip(todo, answers))
        for inst in rows:
            relation.set(inst, solved.get(inst, known))
        return relation

    def _gated(
        self,
        f: Formula,
        free: list[str],
        rows: list[Instantiation],
        stats: dict[str, object],
        scalar: bool = True,
    ) -> tuple[list[Instantiation], list[IntervalSet | None], IntervalSet]:
        """The index partition of an atom's rows (:meth:`_atom_gate`)
        and the solves of the rows it leaves (:meth:`_solve_rows`, which
        ``scalar`` is handed to): ``(rows solved, their answers, known
        answer)``.  Every row not solved has the known answer; ``rows``
        itself comes back when nothing was partitioned."""
        split = self._atom_gate(f, free, rows)
        if split is None:
            return rows, self._solve_rows(f, free, rows, stats, scalar), EMPTY_SET
        positions, decided, known = split
        self.pruned_instantiations += decided
        stats["pruned"] += decided
        todo = [rows[i] for i in positions.tolist()]
        return todo, self._solve_rows(f, free, todo, stats, scalar), known

    # ------------------------------------------------------------------
    # The round table: one solve per distinct atom per refresh round
    # ------------------------------------------------------------------
    def _round_key(self, f: Formula, free: list[str]) -> tuple | None:
        """The atom's key in the round table (:attr:`atoms`), or
        ``None`` when its rows do not go through the table.

        The key is the atom's kind, its resolved constants (region,
        bound, op) and its variables' classes in ``free`` order, with
        the positions its terms read — everything a column-path answer
        depends on besides the rows and the window.  ``INSIDE`` and
        ``OUTSIDE`` of one region share one key: the entry holds the
        inside answer.  Only an atom the column path may take has one:
        every term a FROM-bound variable, every constant resolved, a
        window longer than a tick."""
        if self.atoms is None or not self._use_batch():
            return None
        bindings = self.ctx.bindings
        if not all(v in bindings for v in free):
            return None
        if isinstance(f, (Inside, Outside)):
            try:
                token = region_token(self.ctx.history.region(f.region))
            except SchemaError:
                return None
            if token is None:
                return None
            terms: Sequence[Term] = (f.obj,)
            head: tuple = ("region", token)
        elif isinstance(f, WithinSphere):
            terms, head = f.objs, ("sphere", f.radius)
        elif isinstance(f, Compare):
            dist = self._dist_terms(f)
            if dist is not None:
                dist_term, bound_term, op = dist
                terms, head = (dist_term.left, dist_term.right), ("dist", op)
            else:
                attr = self._attr_terms(f)
                if attr is None:
                    return None
                attr_term, bound_term, op = attr
                terms, head = (attr_term.obj,), ("attr", attr_term.attr, op)
            bound = self._constant(bound_term)
            if not isinstance(bound, (int, float)):
                return None
            head = (*head, bound)
        else:
            return None
        if not all(isinstance(term, Var) for term in terms):
            return None
        positions = tuple(free.index(term.name) for term in terms)
        return (*head, positions, tuple(bindings[v] for v in free))

    def _round_context(self) -> EvalContext:
        """The context over the round window ``[start, atoms.end]``:
        this evaluation's own when its window is the round's."""
        ctx = self.ctx
        end = self.atoms.end
        if end == ctx.end:
            return ctx
        if self._wide is None:
            self._wide = EvalContext(ctx.history, end - ctx.start, ctx.bindings)
        return self._wide

    def _shared_rows(
        self,
        f: Formula,
        free: list[str],
        rows: list[Instantiation],
        stats: dict[str, object],
        key: tuple,
    ) -> list[IntervalSet]:
        """The answers of an atom's rows read through the store.

        A held row that answers a read over this window
        (:meth:`~repro.ftl.atoms.RoundAtoms.readable`: a partition
        verdict held over a window containing it, a kernel solve held
        over exactly it) costs a lookup and a clip and counts in
        :attr:`shared_rows`.  Every other row is partitioned over the
        round window through :meth:`_atom_gate`, with this evaluator's
        counters and the round's view, and its verdict stored — except a
        row solved in this round, which that partition left to solve —
        and the rows left are solved over this window
        (:meth:`_solve_rows`) and stored, unless that would replace this
        round's solve over the round window.  ``OUTSIDE``
        reads the inside rows of its region's entry and complements them
        within this window.  The rows the column path does not take are
        stored as ``None`` and, like every such row, solved here over
        this window."""
        table = self.atoms
        self.round_keys.add(key)
        entry = table.entry(key)
        start, end = self.ctx.start, self.ctx.end
        lacking: list[Instantiation] = []
        # Rows solved in this round: its partition left them to solve.
        undecided: list[Instantiation] = []
        for inst in rows:
            held = entry.get(inst)
            if held is None:
                lacking.append(inst)
            elif table.readable(held, start, end):
                if held[2] is not None:
                    self.shared_rows += 1
            elif held[3] == table.round:
                undecided.append(inst)
            else:
                lacking.append(inst)
        outside = isinstance(f, Outside)
        fresh: dict[Instantiation, IntervalSet | None] = {}
        if lacking or undecided:
            gate = Inside(f.obj, f.region, f.span) if outside else f
            todo = lacking
            if lacking:
                own = self.ctx
                self.ctx = self._round_context()
                try:
                    split = self._atom_gate(gate, free, lacking)
                finally:
                    self.ctx = own
                if split is not None:
                    positions, decided, known = split
                    self.pruned_instantiations += decided
                    stats["pruned"] += decided
                    todo = [lacking[i] for i in positions.tolist()]
                    fresh = dict.fromkeys(lacking, known)
            todo = todo + undecided
            answers = self._solve_rows(gate, free, todo, stats, scalar=False)
            solves = {i: a for i, a in zip(todo, answers) if a is not None}
            fresh.update(zip(todo, answers))
            table.store(
                entry,
                [(i, a) for i, a in fresh.items() if i not in solves],
                start,
                table.end,
            )
            if end != table.end:  # a solve over the round window stays
                wide = (start, table.end)
                for inst in list(solves):
                    held = entry.get(inst)
                    if held is not None and held[3] == table.round and held[:2] == wide:
                        del solves[inst]
            table.store(entry, solves.items(), start, end, solved=True)
        values = [fresh[inst] if inst in fresh else entry[inst][2] for inst in rows]
        scalar = [inst for inst, value in zip(rows, values) if value is None]
        solved = iter(self._solve_rows(f, free, scalar, stats) if scalar else ())
        within = Interval(start, end) if outside else None
        out: list[IntervalSet] = []
        for value in values:
            if value is None:
                out.append(next(solved))
                continue
            value = value.clip(start, end)
            out.append(value if within is None else value.complement(within))
        return out

    def _solve_rows(
        self,
        f: Formula,
        free: list[str],
        todo: list[Instantiation],
        stats: dict[str, object],
        scalar: bool = True,
    ) -> list[IntervalSet | None]:
        """The answers of an atom's rows to solve, in order.

        Rows whose motion is one plain linear leg — for an attribute
        comparison, one linear attribute row — take the column path
        (:meth:`_column_rows`), the one way into the batch backend: their
        legs and attribute answers come a column at a time, and they
        enter one :class:`~repro.ftl.atoms.KineticBatch` as arrays.
        Every other row runs its scalar closure inline
        (:meth:`_atom_request`): fallback laws, multi-leg movers, rows of
        a recorded history, unindexed, unknown or raising ids, dimension
        mismatches, an atom whose bound names a row variable, and every
        row of a zero-length window or of a run with ``analytic_atoms``
        off.  One loop walks both in product order and counts every
        solve.  Only the scalar closures raise, so the same row raises
        the same error first, and the relation and the counters do not
        depend on which path a row took.  Without ``scalar`` a row the
        column path does not take is not solved: its answer is
        ``None``.
        """
        column = (
            self._column_rows(f, free, todo) if todo and self._use_batch() else None
        )
        results: list[IntervalSet | None] = [EMPTY_SET] * len(todo)
        queued: list[int] = []  # the rows the batch solves, in order
        picks: list[int] = []  # their column rows
        for j, inst in enumerate(todo):
            c = -1 if column is None else column.slot[j]
            if c >= 0:
                self.kinetic_solves += 1
                stats["solves"] += 1
                if column.values is not None:  # an attribute row: solved
                    results[j] = column.values[c]
                else:
                    picks.append(c)
                    queued.append(j)
                continue
            if not scalar:
                results[j] = None
                continue
            solves0 = self.kinetic_solves
            req = self._atom_request(f, dict(zip(free, inst)))
            stats["solves"] += self.kinetic_solves - solves0
            if isinstance(req, IntervalSet):
                results[j] = req
                continue
            self.kinetic_solves += 1
            stats["solves"] += 1
            value = req.solve()
            results[j] = value if req.post is None else req.post(value)
        if picks:
            kbatch = KineticBatch(self.ctx)
            handle = column.enqueue(kbatch, picks)
            kbatch.solve()
            post = column.post
            for j, value in zip(queued, kbatch.results(handle)):
                results[j] = value if post is None else post(value)
        return results

    # ------------------------------------------------------------------
    # The column path: per-atom constants once, rows as column gathers
    # ------------------------------------------------------------------
    def _column_rows(
        self, f: Formula, free: list[str], todo: list[Instantiation]
    ) -> _ColumnRows | None:
        """The rows of ``todo`` the column path solves, or ``None`` when
        it takes none of them.

        Everything constant for the atom is resolved once: its kind,
        region, bound, op and OUTSIDE's complement.  An atom whose
        constants cannot be resolved — an unknown region, a bound that
        names a row variable or does not evaluate — is left whole to the
        scalar path, which raises at the row where it always raised.  A
        row is taken when its objects are in the columns of their
        variables' classes and their motion is one plain linear leg over
        the window (for an attribute, the row is linear and the band
        kernel takes it); the rows become object numbers through
        ``MotionColumns.index`` and their legs one
        :meth:`~repro.ftl.context.EvalContext.column_legs` gather.
        """
        from repro.core.history import FutureHistory

        if not isinstance(self.ctx.history, FutureHistory):
            return None
        if isinstance(f, (Inside, Outside)):
            return self._region_columns(f, free, todo)
        if isinstance(f, WithinSphere):
            return self._sphere_columns(f, free, todo)
        if isinstance(f, Compare):
            dist = self._dist_terms(f)
            if dist is not None:
                return self._dist_columns(dist, free, todo)
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
        self, terms: Sequence[Term], free: list[str], todo: list[Instantiation]
    ) -> "tuple[list[int], int, list[_Mover]] | None":
        """The rows of ``todo`` whose every term names an object of its
        variable's class moving on one plain linear leg, as ``(picks,
        dim, movers)``: their positions in ``todo``, the classes' one
        dimensionality, and per term the picked rows' leg origins and
        velocities.  ``None`` when no row qualifies."""
        ctx = self.ctx
        found = [self._column_var(term, free) for term in terms]
        if None in found:
            return None
        dims = {columns.dim for _pos, columns in found}
        if len(dims) != 1 or not min(dims):
            return None
        numbers = [
            _numbers(columns, [inst[pos] for inst in todo])
            for pos, columns in found
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
        movers = [
            tuple(_taken(take, origin, velocity))
            for _linear, origin, velocity in legs
        ]
        return picks, dims.pop(), movers

    def _region_columns(
        self,
        f: Inside | Outside,
        free: list[str],
        todo: list[Instantiation],
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
        found = self._movers((f.obj,), free, todo)
        if found is None or found[1] != dim:
            return None
        picks, _dim, [(origin, velocity)] = found
        post = None
        if isinstance(f, Outside):
            within = Interval(ctx.start, ctx.end)

            def post(inside: IntervalSet) -> IntervalSet:
                return inside.complement(within)

        def enqueue(kbatch: KineticBatch, picks: list[int]) -> tuple:
            return kbatch.submit_region_rows(
                region, origin[picks], velocity[picks]
            )

        return _ColumnRows(_slots(len(todo), picks), post, enqueue=enqueue)

    def _sphere_columns(
        self, f: WithinSphere, free: list[str], todo: list[Instantiation]
    ) -> _ColumnRows | None:
        if len(f.objs) != 2 or f.radius < 0:
            return None
        try:
            float(f.radius)
        except OverflowError:
            return None
        return self._pair_columns(f.objs, 2 * f.radius, False, free, todo)

    def _dist_columns(
        self,
        dist: tuple[Dist, Term, str],
        free: list[str],
        todo: list[Instantiation],
    ) -> _ColumnRows | None:
        dist_term, bound_term, op = dist
        bound = self._constant(bound_term)
        if not isinstance(bound, (int, float)) or bound < 0:
            return None
        try:
            fb = float(bound)
        except OverflowError:
            return None
        return self._pair_columns(
            (dist_term.left, dist_term.right), fb, op == ">=", free, todo
        )

    def _pair_columns(
        self,
        terms: Sequence[Term],
        bound: float,
        at_least: bool,
        free: list[str],
        todo: list[Instantiation],
    ) -> _ColumnRows | None:
        """Rows of ``DIST(a, b) <= bound`` (``>=`` with ``at_least``)
        whose two movers each run one plain linear leg."""
        found = self._movers(terms, free, todo)
        if found is None:
            return None
        picks, _dim, [(origin_a, velocity_a), (origin_b, velocity_b)] = found

        def enqueue(kbatch: KineticBatch, picks: list[int]) -> tuple:
            return kbatch.submit_pair_rows(
                origin_a[picks],
                velocity_a[picks],
                origin_b[picks],
                velocity_b[picks],
                bound,
                at_least,
            )

        return _ColumnRows(_slots(len(todo), picks), enqueue=enqueue)

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
        interval per row."""
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
        return _ColumnRows(_slots(len(todo), picks), values=values)

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
        return self._view(None)

    def _view(
        self, members: "Mapping[str, list[object]] | None"
    ) -> AtomIndexPruner:
        """The index view over this context's window of the whole bound
        classes (``members`` ``None``: the context's own,
        :meth:`~repro.ftl.context.EvalContext.atom_pruner`) or of only
        the members named.  Views are memoised by window end, bindings
        and member sets: per evaluator, and over the round window in
        the round table (:attr:`atoms`), so the queries of one refresh
        round that name the same objects share one build."""
        ctx = self.ctx
        key = (
            ctx.end,
            frozenset(ctx.bindings.items()),
            None
            if members is None
            else frozenset((cls, frozenset(named)) for cls, named in members.items()),
        )
        views = self._views
        if self.atoms is not None and ctx.end == self.atoms.end:
            views = self.atoms.views
        view = views.get(key)
        if view is None:
            view = views[key] = (
                ctx.atom_pruner()
                if members is None
                else AtomIndexPruner(ctx, members)
            )
        return view

    def _stats_for(self, f: Formula) -> dict[str, object]:
        stats = self.atom_stats.get(id(f))
        if stats is None:
            stats = self.atom_stats[id(f)] = {
                "formula": f,
                "instantiations": 0,
                "pruned": 0,
                "solves": 0,
            }
        return stats

    def _atom_request(
        self, f: Formula, env: Env
    ) -> "IntervalSet | _SolveRequest":
        """One instantiation's answer, or its pending kinetic solve.

        Immediate answers (sampled atoms, invariant comparisons, the
        attribute fast path, per-tick fallbacks) come back as interval
        sets; the kinetic atom kinds come back as requests the row loop
        solves inline.
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

            # Solve the *inside* set; OUTSIDE complements it.
            post: "Callable[[IntervalSet], IntervalSet] | None" = None
            if isinstance(f, Outside):
                start, end = ctx.start, ctx.end

                def complement_inside(inside_set: IntervalSet) -> IntervalSet:
                    return inside_set.complement(Interval(start, end))

                post = complement_inside
            return _SolveRequest(solve_region, post)

        if isinstance(f, WithinSphere):
            obj_ids = [ctx.eval_term(o, env, ctx.start) for o in f.objs]

            def solve_sphere() -> IntervalSet:
                movers = [ctx.moving_point(oid) for oid in obj_ids]
                dense = when_within_sphere(f.radius, movers, window)
                return dense.discretized().clip(ctx.start, ctx.end)

            return _SolveRequest(solve_sphere)

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

        return _SolveRequest(solve_dist)

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
