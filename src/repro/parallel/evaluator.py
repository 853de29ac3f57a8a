"""Sharded interval evaluation: the parent orchestrator plus the merge.

Soundness (DESIGN.md §12, proven by ``tests/parallel/``): every row of an
``R_g`` relation keys a variable instantiation whose interval content
depends only on the instantiated objects and the frozen history — never
on which *other* values populate a domain.  Restricting the split
variable's domain to a shard therefore yields exactly the serial
relation's rows whose split value lies in the shard; the keyed union of
the per-shard relations *is* the serial relation, bit for bit.  The
union is associative, commutative and idempotent (``IntervalSet.union``
on normalised sets), so merge order is irrelevant —
``tests/parallel/test_merge_laws.py`` property-checks the laws.

A worker runs the plain :class:`~repro.ftl.evaluator.IntervalEvaluator`
over a domain-restricted context (:mod:`repro.parallel.worker`); two
pieces live here:

* :func:`enumerate_formula_nodes` — the deterministic node ordering that
  lets ``id()``-keyed atom stats cross process boundaries as tree
  *paths*;
* :class:`ShardedIntervalEvaluator` — the parent orchestrator: splits,
  dispatches to the persistent pool, merges relations / counters / atom
  stats, and degrades to in-process serial evaluation whenever sharding
  cannot help (no splittable variable, tiny domain).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import FtlSemanticsError, QueryError
from repro.ftl.ast import AndF, Assign, Formula, OrF, Until, UntilWithin
from repro.ftl.context import DEFAULT, EvalContext, EvalOptions
from repro.ftl.evaluator import IntervalEvaluator
from repro.ftl.relations import FtlRelation
from repro.parallel.partition import ShardPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.history import History
    from repro.ftl.analysis.plan import EvalPlan
    from repro.ftl.query import FtlQuery
    from repro.parallel.pool import ShardWorkerPool

__all__ = [
    "ShardedIntervalEvaluator",
    "enumerate_formula_nodes",
    "merge_relations",
]

#: Temporal counter names summed across shards.
_COUNTER_KEYS = (
    "kinetic_solves",
    "sampled_atom_evals",
    "pruned_instantiations",
)

_ATOM_STAT_KEYS = ("instantiations", "pruned", "solves")


def enumerate_formula_nodes(root: Formula) -> list[Formula]:
    """Every formula node of a tree, in deterministic preorder.

    Shared (hash-consed) nodes appear once, at their first occurrence —
    matching how the ``id()``-keyed atom stats store them.  Because
    evaluation plans are deterministic functions of (query, cost model),
    the parent and every worker enumerate *structurally identical*
    trees: a node's position in this list (its *path*) is the
    cross-process name of its atom-stats entry.
    """
    nodes: list[Formula] = []
    seen: set[int] = set()
    stack: list[Formula] = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        if isinstance(node, (AndF, OrF, Until, UntilWithin)):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, Assign):
            stack.append(node.body)
        else:
            operand = getattr(node, "operand", None)
            if isinstance(operand, Formula):
                stack.append(operand)
    return nodes


def merge_relations(parts: Iterable[FtlRelation]) -> FtlRelation:
    """The keyed union of per-shard relations over identical variables.

    Rows keyed by instantiations appearing in exactly one shard (the
    common case: the instantiation mentions the split variable) are
    adopted as-is; rows appearing in several shards (the instantiation
    only mentions unsplit variables, so every shard computed the full —
    identical — answer) union their interval sets, which is idempotent
    on normalised sets.  The operation is associative and commutative.
    """
    parts = list(parts)
    if not parts:
        raise FtlSemanticsError("cannot merge zero shard relations")
    variables = parts[0].variables
    out = FtlRelation(variables)
    for part in parts:
        if part.variables != variables:
            raise FtlSemanticsError(
                f"shard relations disagree on variables: "
                f"{part.variables} != {variables}"
            )
        for inst, iset in part.rows():
            out.add(inst, iset)
    return out


class ShardedIntervalEvaluator:
    """Parent-side orchestration of one sharded evaluation.

    Build one per :meth:`~repro.ftl.query.FtlQuery.evaluate_full` call
    with ``parallel=N``; :meth:`evaluate` returns the (uncompleted,
    unprojected) ``R_where`` relation exactly as a serial
    :class:`IntervalEvaluator` would.  After it returns, merged
    :attr:`counters`, :attr:`atom_stats` and per-shard
    :attr:`shard_times` are available; when sharding could not apply,
    :attr:`sharded` is False and the numbers are the in-process serial
    evaluator's.
    """

    def __init__(
        self,
        query: "FtlQuery",
        history: "History",
        horizon: int,
        workers: int,
        *,
        plan: "EvalPlan | None" = None,
        options: EvalOptions = DEFAULT,
        start_method: str | None = None,
        pool: "ShardWorkerPool | None" = None,
    ) -> None:
        from repro.core.history import FutureHistory

        if not isinstance(history, FutureHistory):
            raise QueryError(
                "parallel evaluation requires a future (MOST) history; "
                "recorded histories replay an update log that has no "
                "motion snapshot form"
            )
        if workers < 1:
            raise QueryError(f"worker count must be >= 1, got {workers}")
        self.query = query
        self.history = history
        self.horizon = int(horizon)
        self.workers = int(workers)
        if plan is None and options.ordered:
            try:
                plan = query.plan_for(history=history, horizon=horizon)
            except FtlSemanticsError:
                plan = None
        self.plan = plan
        self.options = options
        self.start_method = start_method
        self._pool = pool
        #: Full-domain context — the merge target and ``_complete`` input.
        self.ctx = EvalContext(history, self.horizon, query.bindings)
        self.split_var = self._choose_split_var()
        #: Filled by :meth:`evaluate`.
        self.sharded = False
        self.shard_plan: ShardPlan | None = None
        self.counters: dict[str, int] = {k: 0 for k in _COUNTER_KEYS}
        self.atom_stats: dict[int, dict[str, object]] = {}
        #: Per-shard in-worker evaluation seconds (critical-path metric).
        self.shard_times: list[float] = []
        #: Per-shard in-worker CPU seconds — contention-immune work
        #: measure for critical-path estimates on time-sliced hosts.
        self.shard_cpu_times: list[float] = []

    # ------------------------------------------------------------------
    def _choose_split_var(self) -> str | None:
        """The FROM-bound variable to shard on: largest domain, name as
        tie-break — deterministic for a given query and history."""
        free = self.query.where.free_vars()
        best: tuple[int, str] | None = None
        for var in sorted(self.query.bindings):
            if var not in free:
                continue
            size = len(self.ctx.domain(var))
            if best is None or size > best[0]:
                best = (size, var)
        return None if best is None else best[1]

    @property
    def viable(self) -> bool:
        """Whether sharding can apply (enough workers, a splittable
        variable with at least two values)."""
        return (
            self.workers >= 2
            and self.split_var is not None
            and len(self.ctx.domain(self.split_var)) >= 2
        )

    # ------------------------------------------------------------------
    def evaluate(self) -> FtlRelation:
        """The merged ``R_where`` (falls back to in-process serial
        evaluation — same answers — when not viable)."""
        if not self.viable:
            return self._evaluate_serial()
        return self._evaluate_sharded()

    def _evaluate_serial(self) -> FtlRelation:
        evaluator = IntervalEvaluator(
            self.ctx, plan=self.plan, options=self.options
        )
        relation = evaluator.evaluate(self.query.where)
        self.sharded = False
        self.counters = evaluator.counters()
        self.atom_stats = evaluator.atom_stats
        return relation

    def _parent_nodes(self) -> list[Formula]:
        root = (
            self.plan.resolve(self.query.where)
            if self.plan is not None
            else self.query.where
        )
        return enumerate_formula_nodes(root)

    def _evaluate_sharded(self) -> FtlRelation:
        from repro.parallel.pool import get_pool

        assert self.split_var is not None
        shard_plan = ShardPlan.build(
            self.split_var,
            self.query.bindings[self.split_var],
            self.ctx.domain(self.split_var),
            self.workers,
        )
        self.shard_plan = shard_plan
        nodes = self._parent_nodes()
        spec_base: dict[str, Any] = {
            "query": self.query,
            "horizon": self.horizon,
            "split_var": self.split_var,
            "model": None if self.plan is None else self.plan.model,
            "order": True if self.plan is None else self.plan.ordered,
            "options": self.options,
        }
        specs = [
            dict(spec_base, shard_ids=shard)
            for shard in shard_plan.shards
        ]
        pool = self._pool or get_pool(
            self.workers, start_method=self.start_method
        )
        pool.ensure_snapshot(self.history)
        payloads = pool.run(specs)

        relation = merge_relations(
            FtlRelation(variables, rows)
            for variables, rows in (p["relation"] for p in payloads)
        )
        self.sharded = True
        self.shard_times = [float(p["eval_time"]) for p in payloads]
        self.shard_cpu_times = [
            float(p.get("eval_cpu", p["eval_time"])) for p in payloads
        ]
        counters = {key: 0 for key in _COUNTER_KEYS}
        for payload in payloads:
            for key in _COUNTER_KEYS:
                counters[key] += int(payload["counters"].get(key, 0))
        self.counters = counters
        for payload in payloads:
            for path, stats in payload["atom_stats"].items():
                node = nodes[path]
                merged = self.atom_stats.get(id(node))
                if merged is None:
                    merged = self.atom_stats[id(node)] = {
                        "formula": node,
                        **{key: 0 for key in _ATOM_STAT_KEYS},
                    }
                for key in _ATOM_STAT_KEYS:
                    merged[key] += int(stats[key])
        return relation
