"""Incremental maintenance of continuous-query answers.

The paper's processing scheme evaluates a continuous query once and then
keeps the materialised ``Answer(CQ)`` valid; section 2.3 only says the
answer "has to be reevaluated when an update occurs that may change" it.
Recomputing the whole ``R_f`` on every update reintroduces exactly the
per-update cost the single-evaluation scheme was designed to avoid, so
this module recomputes *per instantiation* instead:

* the initial evaluation records every per-subformula relation ``R_g`` in
  a :class:`QueryCache` (the ``trace`` hook of
  :class:`~repro.ftl.evaluator.IntervalEvaluator`);
* when objects ``D`` are explicitly updated,
  :class:`PartialIntervalEvaluator` recomputes, bottom-up, only the rows
  of each ``R_g`` whose instantiation mentions an object of ``D`` — the
  *recompute frontier* — and splices them into the cached relation with
  :meth:`~repro.ftl.relations.FtlRelation.patch`;
* a dirty atom's rows first pass the cold path's §4 index partition,
  over a *frontier view* whose tables hold only the objects those rows
  name (:meth:`PartialIntervalEvaluator._atom_index`), so a refresh
  solves only the rows the index cannot decide;
* a join's delta meets the other side's *full* relation through that
  relation's inverted index (the ``probe`` of
  :meth:`~repro.ftl.evaluator.IntervalEvaluator._conjunction` and
  ``_until_join``), so it costs the delta rows' matches, not a pass
  over the cached relation.

Soundness rests on two structural facts:

1. **FTL is future-looking.**  Satisfaction of any formula at tick ``t``
   depends only on states at ``t' >= t`` (and the fixed window end), so a
   cached row computed at an earlier refresh remains correct on
   ``[now, end]`` as long as none of its objects changed.  Stale prefixes
   before the latest refresh are never read (``Answer.at`` is only asked
   about the present and the continuous query clips on materialisation).
2. **Every connective is per-instantiation decomposable.**  For each
   output row of an appendix join, the contributing child rows are
   projections of that row, so a row containing no dirty object is
   derived exclusively from clean child rows and need not be recomputed.
   This is why the frontier is derived per subformula: an update to
   object ``o`` dirties, at each node, exactly the instantiations pairing
   ``o`` with other objects — no more, no less.

The assignment quantifier is the one construct whose value domains couple
instantiations (the candidate values of ``[y := q] g`` are pooled across
all objects), so formulas containing ``Assign`` fall back to full
reevaluation — see :func:`supports_incremental` and DESIGN.md.

With a static update-impact analysis
(:mod:`repro.ftl.analysis.deps`), whole subtrees of the recompute are
skipped: a node whose *read-set* — the (class, kind) state it can
observe — is disjoint from the footprints of every dirty update has a
cached relation that recomputation would reproduce bit-for-bit, even
for rows mentioning dirty objects (nothing those rows read was
touched).  Its delta is the cached dirty frontier verbatim, so parent
joins still re-derive their own stale rows (DESIGN.md §10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import FtlSemanticsError
from repro.ftl.atoms import AtomIndexPruner, RoundAtoms
from repro.ftl.ast import (
    Always,
    AlwaysFor,
    AndF,
    Compare,
    Eventually,
    EventuallyAfter,
    EventuallyWithin,
    Formula,
    Inside,
    Nexttime,
    NotF,
    OrF,
    Outside,
    Until,
    UntilWithin,
    WithinSphere,
)
from repro.ftl.context import DEFAULT, EvalContext, EvalOptions
from repro.ftl.evaluator import IntervalEvaluator
from repro.ftl.relations import FtlRelation, Instantiation, merge_instantiations
from repro.temporal import (
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
    from repro.ftl.analysis.plan import EvalPlan

#: Nodes whose algorithm walks an instantiation product.
_ENUMERATING = (Compare, Inside, Outside, WithinSphere, OrF, NotF)


def supports_incremental(f: Formula) -> bool:
    """Whether a formula is in the incrementally maintainable fragment.

    Everything except the assignment quantifier: ``[y := q] g`` pools the
    observed values of ``q`` over *all* instantiations into the body's
    variable domain, so a single dirty object can change the rows of every
    clean instantiation — the per-object decomposition breaks down.

    Thin compatibility wrapper over
    :func:`repro.ftl.analysis.fragment.incremental_blockers`, which
    additionally *names* each disqualifying subformula with a source
    span (rule FTL401) — prefer it when the caller can surface a
    diagnostic.
    """
    from repro.ftl.analysis.fragment import incremental_blockers

    return not incremental_blockers(f)


@dataclass
class QueryCache:
    """Per-subformula relations of the last evaluation, keyed by AST node.

    The cached :class:`FtlRelation` objects are mutated in place by
    :class:`PartialIntervalEvaluator` — the cache always reflects the most
    recent refresh.  Keys are ``id(subformula)``; the owning query must
    keep the formula tree alive (continuous queries hold their
    :class:`~repro.ftl.query.FtlQuery`).
    """

    relations: dict[int, FtlRelation] = field(default_factory=dict)

    def __len__(self) -> int:
        """Number of cached subformula relations (metrics/diagnostics)."""
        return len(self.relations)


class PartialIntervalEvaluator(IntervalEvaluator):
    """Bottom-up recomputation of the dirty rows of each ``R_g``.

    For every subformula the evaluator computes the *delta relation* —
    fresh interval sets for exactly the instantiations that mention a
    dirty object — and patches it into the cached relation, which thereby
    becomes the relation a full reevaluation would have produced (up to
    stale, never-read interval content before the current window start).
    """

    def __init__(
        self,
        ctx: EvalContext,
        cache: QueryCache,
        dirty_objects: Iterable[object],
        plan: "EvalPlan | None" = None,
        options: EvalOptions = DEFAULT,
        deps: "object | None" = None,
        dirty_deps: "frozenset | None" = None,
        validity: "dict[int, float] | None" = None,
        dirty_divergence: "dict | None" = None,
        atoms: "RoundAtoms | None" = None,
    ) -> None:
        super().__init__(
            ctx, plan=plan, options=options, validity=validity, atoms=atoms
        )
        self.cache = cache
        # Membership reads the set; frontier lookups walk the objects in
        # the order given, so the rows they find come in an order no
        # hash seed decides.
        self._dirty_order = tuple(dict.fromkeys(dirty_objects))
        self.dirty_values = frozenset(self._dirty_order)
        #: Per-node read-sets from the static update-impact analysis
        #: (:class:`~repro.ftl.analysis.deps.DepAnalysis`), keyed over the
        #: same tree the cache is keyed over.  ``None`` disables subtree
        #: skipping.
        self.deps = deps
        #: The (class, kind) footprints of the updates being refreshed
        #: over; ``None`` means some update could not be attributed and
        #: subtree skipping stands down for this refresh.
        self.dirty_deps = dirty_deps
        #: Per dirty footprint, the earliest time any update carrying it
        #: observably diverges from the pre-update state
        #: (:func:`~repro.ftl.analysis.validity.update_divergence`,
        #: min-folded per footprint by the continuous query).  ``None``
        #: disables horizon-based subtree skipping.
        self.dirty_divergence = dirty_divergence
        self._clean_domain: dict[str, list[object]] = {}
        self._dirty_domain: dict[str, list[object]] = {}
        self._done: dict[int, FtlRelation] = {}
        #: Per patched node, the cached rows the patch dropped.
        self._stale: dict[int, list[Instantiation]] = {}
        #: The root instantiations the last :meth:`refresh` changed: every
        #: row its patch dropped or adopted (empty when the root's cached
        #: relation was reused as it stood).
        self.changed_rows: list[Instantiation] = []
        #: Dirty instantiations enumerated across all subformulas — the
        #: size of the recompute frontier actually walked, counted whether
        #: or not the recomputed satisfaction set turned out non-empty
        #: (bench instrumentation; a full reevaluation walks every
        #: instantiation of every node instead).
        self.rows_recomputed = 0
        #: Subtrees whose read-set was disjoint from every dirty footprint
        #: and whose cached rows were therefore reused without
        #: recomputation (DESIGN.md §10).
        self.subtrees_skipped = 0
        #: Subtrees whose read-set *was* touched by a dirty footprint but
        #: whose validity stamp and the updates' divergence times both
        #: reach the window end, proving recomputation would reproduce
        #: the cache (pass 8, DESIGN.md §11).
        self.horizon_subtrees_skipped = 0

    # ------------------------------------------------------------------
    def refresh(self, formula: Formula) -> FtlRelation:
        """Patch every cached ``R_g`` and return the refreshed ``R_f``."""
        if self.plan is not None:
            formula = self.plan.resolve(formula)
        delta = self._delta(formula)
        stale = self._stale.get(id(formula))
        self.changed_rows = (
            []
            if stale is None
            else list(dict.fromkeys([*stale, *(i for i, _ in delta.rows())]))
        )
        return self.cache.relations[id(formula)]

    # ------------------------------------------------------------------
    def _delta(self, f: Formula) -> FtlRelation:
        key = id(f)
        done = self._done.get(key)
        if done is not None:
            return done
        cached = self.cache.relations.get(key)
        if cached is None:
            raise FtlSemanticsError(
                "no cached relation for subformula; a full evaluation must "
                "precede incremental refresh"
            )
        skipped = self._skip_delta(f, cached)
        if skipped is not None:
            self._done[key] = skipped
            return skipped
        delta = self._delta_node(f)
        stale = self._stale[key] = cached.rows_touching(self._dirty_order)
        cached.patch(stale, delta)
        self._done[key] = delta
        return delta

    def _skip_delta(
        self, f: Formula, cached: FtlRelation
    ) -> FtlRelation | None:
        """The no-recompute delta for a dependency-clean subtree, or None.

        When the subtree's statically inferred read-set is disjoint from
        every dirty update's (class, kind) footprint, a recomputation
        would reproduce the cached interval sets exactly — even for rows
        that mention dirty objects, because nothing those rows *read* was
        touched.  The delta is then the cached rows of the dirty frontier
        verbatim (so parent joins still re-derive their own stale rows),
        and the cached relation needs no patch.

        A second, pass-8 skip applies when the read-set *is* touched:
        if the node's validity stamp reaches the window end and every
        covered dirty update's divergence time does too (the new motion
        provably equals the old everywhere the remaining window can
        look), recomputation would still reproduce the cache bit-for-bit
        (DESIGN.md §11).
        """
        if self.deps is None or self.dirty_deps is None:
            return None
        reads = self.deps.reads_for(f)
        if reads is None or reads.conservative:
            return None
        if reads.disjoint_from(self.dirty_deps):
            self.subtrees_skipped += 1
        elif self._beyond_horizon(f, reads):
            self.horizon_subtrees_skipped += 1
        else:
            return None
        delta = FtlRelation(cached.variables)
        for inst in cached.rows_touching(self._dirty_order):
            delta.set(inst, cached.get(inst))
        return delta

    def _beyond_horizon(self, f: Formula, reads) -> bool:
        """Whether the node's stamp and every covered dirty update's
        divergence time all reach the window end."""
        if self.validity is None or self.dirty_divergence is None:
            return False
        stamp = self.validity.get(id(f))
        if stamp is None or stamp < self.ctx.end:
            return False
        for dep in self.dirty_deps:
            if not reads.covers(dep):
                continue
            divergence = self.dirty_divergence.get(dep)
            if divergence is None or divergence < self.ctx.end:
                return False
        return True

    def _full(self, f: Formula) -> FtlRelation:
        """The child's patched (fully refreshed) relation."""
        return self.cache.relations[id(f)]

    def _delta_node(self, f: Formula) -> FtlRelation:
        if isinstance(f, _ENUMERATING):
            # The base algorithms, scoped to the dirty frontier by
            # :meth:`_rows` and :meth:`_operand`.
            return self._eval_node(f)
        if isinstance(f, AndF):
            d1, d2 = self._delta(f.left), self._delta(f.right)
            r1, r2 = self._full(f.left), self._full(f.right)
            # Each delta walks its own rows and probes the other side's
            # full relation.  Each output row is determined by its unique
            # pair of child rows, so overlapping (both-dirty) rows re-add
            # identical sets.
            out = self._conjunction(d1, r2, probe=r2)
            for inst, iset in self._conjunction(r1, d2, probe=r1).rows():
                out.add(inst, iset)
            return out
        if isinstance(f, Until):
            return self._delta_until(f, until)
        if isinstance(f, UntilWithin):
            bound = f.bound
            return self._delta_until(
                f, lambda a, b: until_within(bound, a, b)
            )
        if isinstance(f, Nexttime):
            return self._delta(f.operand).map_sets(
                lambda s: nexttime(s, self.ctx.start)
            )
        if isinstance(f, Eventually):
            return self._delta(f.operand).map_sets(
                lambda s: eventually(s, self.ctx.start)
            )
        if isinstance(f, EventuallyWithin):
            return self._delta(f.operand).map_sets(
                lambda s: eventually_within(f.bound, s, self.ctx.start)
            )
        if isinstance(f, EventuallyAfter):
            return self._delta(f.operand).map_sets(
                lambda s: eventually_after(f.bound, s, self.ctx.start)
            )
        if isinstance(f, Always):
            return self._delta(f.operand).map_sets(
                lambda s: always(s, self.ctx.start, self.ctx.end)
            )
        if isinstance(f, AlwaysFor):
            return self._delta(f.operand).map_sets(
                lambda s: always_for(f.bound, s)
            )
        raise FtlSemanticsError(
            f"incremental evaluation does not support {type(f).__name__}"
        )

    # ------------------------------------------------------------------
    # Dirty-instantiation enumeration
    # ------------------------------------------------------------------
    def _dirty(self, var: str) -> list[object]:
        """The variable's dirty values, in domain order (memoised)."""
        dirty = self._dirty_domain.get(var)
        if dirty is None:
            dirty = self._dirty_domain[var] = self.ctx.dirty_domain(
                var, self.dirty_values
            )
        return dirty

    def _clean(self, var: str) -> list[object]:
        """The variable's clean values, in domain order (memoised; a
        walk of the domain, so built only for a variable that precedes
        a dirty pivot)."""
        clean = self._clean_domain.get(var)
        if clean is None:
            clean = self._clean_domain[var] = self.ctx.clean_domain(
                var, self.dirty_values
            )
        return clean

    def _dirty_product(
        self, variables: Iterable[str]
    ) -> Iterator[Instantiation]:
        """All instantiations with at least one dirty value, each once.

        Position ``i`` is the *first* dirty position: earlier variables
        range over clean values only, later ones over their full domains —
        a disjoint cover of the frontier costing
        ``O(k * |dirty| * n^(k-1))`` instead of the full ``O(n^k)``.
        """
        variables = list(variables)
        for i, pivot in enumerate(variables):
            dirty_p = self._dirty(pivot)
            if not dirty_p:
                continue
            axes: list[list[object]] = []
            for j, var in enumerate(variables):
                if j < i:
                    axes.append(self._clean(var))
                elif j == i:
                    axes.append(dirty_p)
                else:
                    axes.append(self.ctx.domain(var))
            for inst in product(*axes):
                self.rows_recomputed += 1
                yield inst

    def _touches(self, inst: Instantiation) -> bool:
        return any(value in self.dirty_values for value in inst)

    def _rows(self, variables: Iterable[str]) -> list[Instantiation]:
        """The dirty frontier — materialised, because
        :meth:`_dirty_product` counts ``rows_recomputed`` as it yields."""
        return list(self._dirty_product(variables))

    def _operand(self, f: Formula) -> FtlRelation:
        """Refresh the child, then read its patched relation."""
        self._delta(f)
        return self._full(f)

    # ------------------------------------------------------------------
    # Per-connective deltas
    # ------------------------------------------------------------------
    def _atom_index(
        self, free: list[str], rows: list[Instantiation]
    ) -> AtomIndexPruner:
        """The frontier view that partitions a dirty atom's rows: per
        bound class, a table of only the members the rows name, built
        with the cold path's box code but never entering
        ``db.mbr_tables`` — a refresh's rows name a handful of dirty
        objects (and their partners), and a whole class table per
        epoch would cost more than every solve it saves.  Views are
        memoised by their window and member sets (:meth:`_view`), so
        the atoms of one refresh — and over the round window, the
        queries of one round — that name the same objects share one
        build.  The partition itself is the cold path's, so raising
        and unprunable objects take the solve path exactly as they do
        there."""
        bindings = self.ctx.bindings
        members: dict[str, dict[object, None]] = {}
        for pos, var in enumerate(free):
            cls = bindings.get(var)
            if cls is not None:
                named = members.setdefault(cls, {})
                named.update(dict.fromkeys(inst[pos] for inst in rows))
        return self._view({cls: list(named) for cls, named in members.items()})

    def _delta_until(self, f: Formula, combine) -> FtlRelation:
        self._delta(f.left)
        d2 = self._delta(f.right)
        r1, r2 = self._full(f.left), self._full(f.right)
        # Branch A — dirty right-side rows, extras over their full
        # domains, each probing r1 for its group.
        out = self._until_join(r1, d2, combine, probe=True)
        # Branch B — clean right-side rows joined with dirty extras (the
        # r1-only variables; dirty *shared* values always appear in the
        # right side's instantiation and are covered by branch A).
        shared = [v for v in r1.variables if v in r2.variables]
        extra1 = [v for v in r1.variables if v not in r2.variables]
        if extra1:
            dirty_extras = list(self._dirty_product(extra1))
            if dirty_extras:
                idx2_shared = [r2.index_of(v) for v in shared]
                for inst2, set2 in r2.rows():
                    if self._touches(inst2):
                        continue
                    key = tuple(inst2[i] for i in idx2_shared)
                    for extra_vals in dirty_extras:
                        inst1_like = self._compose(
                            r1.variables, shared, key, extra1, tuple(extra_vals)
                        )
                        result = combine(r1.get(inst1_like), set2)
                        if result.is_empty:
                            continue
                        merged = merge_instantiations(
                            out.variables,
                            r1.variables,
                            inst1_like,
                            r2.variables,
                            inst2,
                        )
                        out.add(merged, result)
        return out
