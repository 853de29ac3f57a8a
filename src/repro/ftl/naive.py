"""The naive reference evaluator: per-state semantics of section 3.3.

This evaluator follows the paper's satisfaction definition *literally*:
a formula is checked at every state of the (finite-horizon) history, with
temporal operators quantifying over future states by explicit iteration.
It is exponentially slower than the interval algorithm but obviously
correct — which is exactly what makes it the oracle the property tests
(and experiment E9) compare the appendix algorithm against.

It also handles the full language including negation and recorded
histories, so persistent queries (whose algorithm the paper explicitly
postpones) are evaluated through it.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING

from repro.errors import FtlSemanticsError
from repro.ftl.ast import (
    Always,
    AlwaysFor,
    AndF,
    Assign,
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
from repro.ftl.context import Env, EvalContext
from repro.ftl.relations import FtlRelation
from repro.spatial.predicates import within_a_sphere
from repro.temporal import DISCRETE, IntervalSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.ftl.analysis.plan import EvalPlan

_CMP = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class NaiveEvaluator:
    """Per-state evaluation with memoisation on (formula, env, tick)."""

    def __init__(
        self,
        ctx: EvalContext,
        plan: "EvalPlan | None" = None,
    ) -> None:
        self.ctx = ctx
        #: Cost-ordered plan: the ordered conjunction tree short-circuits
        #: selective conjuncts first under ``and``.
        self.plan = plan
        self._memo: dict[tuple, bool] = {}

    # ------------------------------------------------------------------
    def evaluate(self, formula: Formula) -> FtlRelation:
        """The relation of all instantiations of the formula's free object
        variables, each with its set of satisfying ticks."""
        if self.plan is not None:
            formula = self.plan.resolve(formula)
        free = sorted(formula.free_vars())
        for var in free:
            if not self.ctx.is_object_var(var):
                raise FtlSemanticsError(
                    f"free variable {var!r} is not bound by FROM"
                )
        domains = [self.ctx.domain(v) for v in free]
        relation = FtlRelation(tuple(free))
        for inst in product(*domains):
            env = dict(zip(free, inst))
            flags = [
                self.satisfied(formula, env, t) for t in self.ctx.ticks()
            ]
            iset = IntervalSet.from_boolean_samples(
                flags, DISCRETE, start=self.ctx.start
            )
            relation.set(inst, iset)
        return relation

    # ------------------------------------------------------------------
    def satisfied(self, f: Formula, env: Env, t: int) -> bool:
        """Satisfaction of ``f`` at the state with time stamp ``t`` with
        respect to the evaluation ``env`` (section 3.3)."""
        key = (
            id(f),
            tuple(sorted((k, v) for k, v in env.items() if k in f.free_vars())),
            t,
        )
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        result = self._satisfied(f, env, t)
        self._memo[key] = result
        return result

    def _satisfied(self, f: Formula, env: Env, t: int) -> bool:
        ctx = self.ctx
        end = ctx.end

        arrivals = ctx.history.arrivals
        if (
            arrivals
            and isinstance(f, (Compare, Inside, Outside, WithinSphere))
            and any(
                arrivals.get(env[v], t) > t
                for v in f.free_vars()
                if ctx.is_object_var(v)
            )
        ):
            return False  # an object not yet in the state at ``t``

        if isinstance(f, Compare):
            lhs = ctx.eval_term(f.left, env, t)
            rhs = ctx.eval_term(f.right, env, t)
            if lhs is None or rhs is None:
                return False
            return _CMP[f.op](lhs, rhs)

        if isinstance(f, (Inside, Outside)):
            obj_id = ctx.eval_term(f.obj, env, t)
            region = ctx.history.region(f.region)
            inside = region.contains(ctx.history.position(obj_id, t))
            return inside if isinstance(f, Inside) else not inside

        if isinstance(f, WithinSphere):
            obj_ids = [ctx.eval_term(o, env, t) for o in f.objs]
            points = [ctx.history.position(oid, t) for oid in obj_ids]
            return within_a_sphere(f.radius, points)

        if isinstance(f, AndF):
            return self.satisfied(f.left, env, t) and self.satisfied(
                f.right, env, t
            )
        if isinstance(f, OrF):
            return self.satisfied(f.left, env, t) or self.satisfied(
                f.right, env, t
            )
        if isinstance(f, NotF):
            return not self.satisfied(f.operand, env, t)

        if isinstance(f, Until):
            for tp in range(t, end + 1):
                if self.satisfied(f.right, env, tp):
                    return True
                if not self.satisfied(f.left, env, tp):
                    return False
            return False

        if isinstance(f, UntilWithin):
            limit = min(end, t + int(f.bound))
            for tp in range(t, limit + 1):
                if self.satisfied(f.right, env, tp):
                    return True
                if not self.satisfied(f.left, env, tp):
                    return False
            return False

        if isinstance(f, Nexttime):
            if t + 1 > end:
                return False
            return self.satisfied(f.operand, env, t + 1)

        if isinstance(f, Eventually):
            return any(
                self.satisfied(f.operand, env, tp) for tp in range(t, end + 1)
            )

        if isinstance(f, EventuallyWithin):
            limit = min(end, t + int(f.bound))
            return any(
                self.satisfied(f.operand, env, tp)
                for tp in range(t, limit + 1)
            )

        if isinstance(f, EventuallyAfter):
            return any(
                self.satisfied(f.operand, env, tp)
                for tp in range(t + int(f.bound), end + 1)
            )

        if isinstance(f, Always):
            return all(
                self.satisfied(f.operand, env, tp) for tp in range(t, end + 1)
            )

        if isinstance(f, AlwaysFor):
            limit = t + int(f.bound)
            if limit > end:
                # The window reaches past the modelled horizon: bounded
                # semantics call this unsatisfied (matching the interval
                # algorithm's erosion).
                return False
            return all(
                self.satisfied(f.operand, env, tp)
                for tp in range(t, limit + 1)
            )

        if isinstance(f, Assign):
            value = self.ctx.eval_term(f.term, env, t)
            inner = dict(env)
            inner[f.var] = value
            return self.satisfied(f.body, inner, t)

        at = f" at {f.span}" if f.span is not None else ""
        raise FtlSemanticsError(f"unsupported formula {type(f).__name__}{at}")
