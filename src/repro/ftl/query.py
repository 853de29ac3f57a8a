"""FTL queries: ``RETRIEVE <targets> FROM <bindings> WHERE <formula>``.

An :class:`FtlQuery` is the parsed form; evaluation produces the
``Answer`` relation of the appendix — per target instantiation, the time
intervals during which it satisfies the formula — from which the three
query types of section 2.3 are all answered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.errors import FtlSemanticsError
from repro.ftl.ast import Formula
from repro.ftl.context import DEFAULT, EvalContext, EvalOptions
from repro.ftl.lexer import Span
from repro.ftl.relations import FtlRelation

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.history import History
    from repro.ftl.analysis import AnalysisResult
    from repro.ftl.analysis.cost import CostEstimate, CostModel
    from repro.ftl.analysis.plan import EvalPlan


@dataclass(frozen=True)
class QuerySpans:
    """Source spans of the clause elements of a parsed query.

    Lets diagnostics about the RETRIEVE / FROM clauses (unbound target,
    unknown class) point at the exact identifier rather than the whole
    query.  ``None`` on programmatically built queries.
    """

    targets: tuple[Span, ...]
    #: FROM-clause variable name → span of the variable identifier.
    binding_vars: dict[str, Span]
    #: FROM-clause variable name → span of its class identifier.
    binding_classes: dict[str, Span]
    where: Span | None


@dataclass(frozen=True)
class FtlQuery:
    """A parsed FTL query.

    Attributes:
        targets: the RETRIEVE list (variables whose instantiations are
            returned).
        bindings: FROM clause — variable name → object class name.
        where: the FTL condition.
        spans: clause source spans (parser-built queries only).
    """

    targets: tuple[str, ...]
    bindings: dict[str, str]
    where: Formula
    spans: QuerySpans | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        free = self.where.free_vars()
        unbound = free - set(self.bindings)
        if unbound:
            raise FtlSemanticsError(
                f"free variables {sorted(unbound)} not bound by FROM"
            )
        bad_targets = [t for t in self.targets if t not in self.bindings]
        if bad_targets:
            raise FtlSemanticsError(
                f"RETRIEVE variables {bad_targets} not bound by FROM"
            )

    @property
    def is_conjunctive(self) -> bool:
        """Whether the condition is in the fragment of section 3.5."""
        return self.where.is_conjunctive()

    # ------------------------------------------------------------------
    def evaluate(
        self,
        history: "History",
        horizon: int,
        method: str = "interval",
        plan: "EvalPlan | None" = None,
        options: EvalOptions = DEFAULT,
        parallel: object = None,
    ) -> FtlRelation:
        """Compute the full ``R_f`` relation, projected onto the targets.

        Args:
            history: the database history to evaluate on.
            horizon: the expiration horizon (section 2.3) in ticks.
            method: ``"interval"`` for the appendix algorithm,
                ``"naive"`` for the per-state reference semantics.
            plan: a pre-built :class:`~repro.ftl.analysis.plan.EvalPlan`
                to reuse (overrides ``options.ordered``).
            options: the acceleration layers to run with
                (:class:`~repro.ftl.context.EvalOptions`; answers are
                identical whatever is switched off).
            parallel: shard the evaluation across worker processes
                (DESIGN.md §12; answers are identical either way).
                ``None`` / ``0`` / ``1`` evaluate serially; an integer
                ``N >= 2`` uses N workers, each holding a replica built
                from a motion snapshot pickled into its task queue.
                Sharding is frozen and never on unless asked for here.
                Requires ``method="interval"`` and a future history.
        """
        return self.evaluate_full(
            history,
            horizon,
            method=method,
            plan=plan,
            options=options,
            parallel=parallel,
        ).project(self.targets)

    def evaluate_full(
        self,
        history: "History",
        horizon: int,
        method: str = "interval",
        plan: "EvalPlan | None" = None,
        options: EvalOptions = DEFAULT,
        validity: "Mapping[int, float] | None" = None,
        parallel: object = None,
        trace: dict[int, FtlRelation] | None = None,
    ) -> FtlRelation:
        """The *unprojected* (but target-completed) ``R_f`` relation.

        Each row binds every variable the condition mentions (plus
        condition-free targets), so a row's instantiation is exactly the
        set of objects whose dynamic attributes the row's satisfaction
        intervals were computed from — the dependency information
        staleness-aware degradation needs.

        With a ``trace`` dict (interval method only), every
        per-subformula ``R_g`` is recorded in it keyed by
        ``id(subformula)`` over the evaluated tree — ``plan``'s ordered
        tree when a plan is handed in, which the caller must then keep
        alive; this is how a continuous query seeds its incremental
        cache.  ``trace`` and ``validity`` are keyed by object identity,
        which does not cross a process boundary, so both are serial-only
        (DESIGN.md §12).
        """
        workers = 1
        if parallel is not None:
            from repro.parallel import resolve_workers

            workers = resolve_workers(parallel)
        if workers > 1:
            from repro.errors import QueryError

            if method != "interval":
                raise QueryError(
                    "parallel evaluation requires the interval method "
                    f"(got method={method!r})"
                )
            if trace is not None or validity is not None:
                raise QueryError(
                    "trace= and validity= are keyed by id() and cannot "
                    "follow an evaluation into worker processes; "
                    "evaluate serially to use them"
                )
            from repro.parallel.evaluator import ShardedIntervalEvaluator

            sharded = ShardedIntervalEvaluator(
                self, history, horizon, workers, plan=plan, options=options
            )
            return self._complete(sharded.evaluate(), sharded.ctx)
        if plan is None and options.ordered:
            try:
                plan = self.plan_for(history=history, horizon=horizon)
            except FtlSemanticsError:
                plan = None
        ctx = EvalContext(history, horizon, self.bindings)
        if method == "interval":
            from repro.ftl.evaluator import IntervalEvaluator

            relation = IntervalEvaluator(
                ctx, trace=trace, plan=plan, options=options, validity=validity
            ).evaluate(self.where)
        elif method == "naive":
            from repro.ftl.naive import NaiveEvaluator

            relation = NaiveEvaluator(ctx, plan=plan).evaluate(self.where)
        else:
            raise FtlSemanticsError(f"unknown method {method!r}")
        return self._complete(relation, ctx)

    def plan_for(
        self,
        history: "History | None" = None,
        horizon: int | None = None,
        order: bool = True,
        model: "CostModel | None" = None,
    ) -> "EvalPlan":
        """Lower the WHERE clause to a cost-annotated evaluation plan.

        With a ``history``, the cost model's class populations are the
        real ones; otherwise the schema-less defaults apply (good enough
        for ordering, per the calibration tests).
        """
        from repro.ftl.analysis.cost import CostModel
        from repro.ftl.analysis.plan import plan_query

        if model is None:
            kwargs: dict = {}
            if history is not None:
                from repro.errors import SchemaError

                sizes: dict[str, int] = {}
                for cls in set(self.bindings.values()):
                    try:
                        sizes[cls] = len(history.object_ids(cls))
                    except SchemaError:
                        continue
                kwargs["class_sizes"] = sizes
            if horizon is not None:
                kwargs["horizon"] = max(0, int(horizon))
            model = CostModel(**kwargs)
        return plan_query(self, model=model, order=order)

    def analyze(self, schema=None) -> "AnalysisResult":
        """Run the static analyzer over this query.

        ``schema`` is a :class:`~repro.ftl.analysis.SchemaInfo`, a
        :class:`~repro.core.database.MostDatabase` (its schema is
        extracted), or ``None`` (schema-dependent checks are skipped).
        """
        from repro.ftl.analysis import analyze_query

        return analyze_query(self, schema=schema)

    def _complete(self, relation: FtlRelation, ctx: EvalContext) -> FtlRelation:
        """Extend the relation with target variables the condition never
        mentions (they range freely over their class)."""
        missing = [v for v in self.targets if v not in relation.variables]
        if not missing:
            return relation
        from itertools import product

        out_vars = tuple(sorted(set(relation.variables) | set(missing)))
        out = FtlRelation(out_vars)
        domains = [ctx.domain(v) for v in missing]
        for inst, iset in relation.rows():
            base = dict(zip(relation.variables, inst))
            for extra in product(*domains):
                base.update(zip(missing, extra))
                out.add(tuple(base[v] for v in out_vars), iset)
        return out


@dataclass
class CompiledQuery:
    """A parsed query together with its static-analysis result and plan.

    ``plan`` is the cost-ordered evaluation plan built against the
    compiler's schema (``None`` when analysis failed or the formula
    cannot be lowered); ``drift`` is filled by
    :meth:`evaluate` with ``record_relations=True`` — per plan node, the
    observed ``|R_g|`` vs the static estimate (the calibration signal).
    """

    query: FtlQuery
    analysis: "AnalysisResult"
    plan: "EvalPlan | None" = None
    drift: list[dict] | None = None
    #: Atom-acceleration counters of the last :meth:`evaluate` call with
    #: ``record_relations=True`` (``kinetic_solves``,
    #: ``pruned_instantiations``, ...).
    counters: dict[str, int] | None = None

    @property
    def diagnostics(self):
        """The analyzer's diagnostics (errors, warnings and infos)."""
        return self.analysis.diagnostics

    @property
    def estimates(self) -> "dict[str, CostEstimate]":
        """Per-plan-node cost estimates keyed by plan path."""
        if self.plan is None:
            return {}
        return self.plan.estimates

    def evaluate(
        self,
        history: "History",
        horizon: int,
        method: str = "interval",
        record_relations: bool = False,
    ) -> FtlRelation:
        """Evaluate the compiled query (projected onto its targets).

        With ``record_relations``, the interval evaluator traces every
        per-subformula relation ``R_g`` and :attr:`drift` is populated
        with observed-vs-estimated sizes per plan node (``method`` must
        be ``"interval"`` — only the appendix algorithm materialises
        per-subformula relations).
        """
        if not record_relations:
            return self.query.evaluate(history, horizon, method=method)
        if method != "interval":
            raise FtlSemanticsError(
                "record_relations requires the interval method"
            )
        from repro.ftl.analysis.cost import drift_report
        from repro.ftl.evaluator import IntervalEvaluator

        plan = self.query.plan_for(history=history, horizon=horizon)
        ctx = EvalContext(history, horizon, self.query.bindings)
        trace: dict[int, FtlRelation] = {}
        evaluator = IntervalEvaluator(ctx, trace=trace, plan=plan)
        relation = evaluator.evaluate(self.query.where)
        self.drift = drift_report(
            plan, trace, atom_stats=evaluator.atom_stats
        )
        self.counters = evaluator.counters()
        relation = self.query._complete(relation, ctx)
        return relation.project(self.query.targets)


class QueryCompiler:
    """Parse + analyze pipeline gating queries before evaluation.

    The compiler is the front door the paper's processing scheme assumes:
    a query reaches an evaluator only after the static analyzer has
    established it is well-formed (bindings, sorts, safety) and has
    classified its temporal fragment.  Errors raise
    :class:`~repro.errors.FtlAnalysisError` listing every diagnostic;
    warnings and lints are returned on the :class:`CompiledQuery` for the
    caller to surface.

    Args:
        schema: a ``MostDatabase``, a
            :class:`~repro.ftl.analysis.SchemaInfo`, or ``None`` to skip
            schema-dependent checks.
        strict: when True (default), error diagnostics raise; when False
            the result is returned with the errors attached.
    """

    def __init__(self, schema=None, strict: bool = True) -> None:
        self.schema = schema
        self.strict = strict

    def compile(self, source: "str | FtlQuery") -> CompiledQuery:
        """Compile FTL source text (or an already-parsed query)."""
        if isinstance(source, FtlQuery):
            query = source
        else:
            from repro.ftl.parser import parse_query

            query = parse_query(source)
        analysis = query.analyze(schema=self.schema)
        if self.strict:
            analysis.raise_on_error()
        analysis.warn_on_lints()
        plan = None
        if analysis.ok:
            try:
                plan = query.plan_for()
            except FtlSemanticsError:
                plan = None
        return CompiledQuery(query=query, analysis=analysis, plan=plan)


def compile_query(
    source: "str | FtlQuery", schema=None, strict: bool = True
) -> CompiledQuery:
    """One-shot :class:`QueryCompiler` convenience wrapper."""
    return QueryCompiler(schema=schema, strict=strict).compile(source)
