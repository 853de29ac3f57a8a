"""Evaluation context and options shared by the FTL evaluators.

:class:`EvalContext` carries the history being queried, the evaluation
window (the start tick and the expiration horizon of section 2.3), the
FROM-clause variable bindings, and — during evaluation of an assignment
quantifier's body — the candidate value domains of assigned variables.
:class:`EvalOptions` names the answer-preserving acceleration layers an
evaluation runs with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet as Set

import numpy as np

from repro.errors import FtlSemanticsError
from repro.ftl.ast import (
    Arith,
    Attr,
    Const,
    Dist,
    SubAttr,
    Term,
    TimeTerm,
    Var,
)
from repro.temporal import Interval

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.columns import MotionRows
    from repro.core.history import History
    from repro.ftl.atoms import AtomIndexPruner
    from repro.motion.moving import MovingPoint

Env = dict[str, object]


@dataclass(frozen=True)
class EvalOptions:
    """Which answer-preserving acceleration layers an evaluation uses.

    Every field defaults to on and every off-twin is proven identical by
    a differential wall (DESIGN.md §8.1), so production callers pass
    nothing; tests and benches select a baseline with
    ``dataclasses.replace(DEFAULT, index_pruning=False)`` or
    :data:`ORACLE`.  The batch kinetic backend is not a layer: every
    atom row whose motion is one plain linear leg takes it, whatever the
    options (DESIGN.md §8).  Nor is solve reuse a switch of its own: a
    kinetic solve is reused only under a validity stamp, or across the
    queries of one refresh round, and only ``validity_horizons`` on a
    continuous query does either (DESIGN.md §7), so every other
    evaluation solves.  Frozen and picklable: one
    instance is shared by every refresh of a continuous query and
    crosses the shard-worker boundary.
    """

    #: Evaluate through a cost-ordered plan (built from the history's
    #: class populations) instead of syntactic operand order.
    ordered: bool = True
    #: Answer atom instantiations outside the trajectory-MBR candidate
    #: sets without kinetic solves (DESIGN.md §7).
    index_pruning: bool = True
    #: Continuous queries only: the temporal-validity gate, the reuse
    #: of kinetic solves — under a validity stamp, and across the
    #: queries of one refresh round (DESIGN.md §7) — and horizon
    #: subtree skipping (DESIGN.md §11).
    validity_horizons: bool = True
    #: Closed-form kinetic solvers for spatial atoms; off, every atom is
    #: sampled per tick (the ablation of bench_ablation_kinetic.py).
    analytic_atoms: bool = True


#: Every layer on — what all production callers run.
DEFAULT = EvalOptions()
#: Every acceleration layer off; atoms still solve in closed form.
ORACLE = EvalOptions(
    ordered=False,
    index_pruning=False,
    validity_horizons=False,
)


class EvalContext:
    """Window + bindings + variable domains for one evaluation."""

    def __init__(
        self,
        history: "History",
        horizon: int,
        bindings: dict[str, str],
        domain_restrictions: dict[str, list[object]] | None = None,
    ) -> None:
        if horizon < 0:
            raise FtlSemanticsError("horizon must be non-negative")
        self.history = history
        self.start = int(history.start)
        self.horizon = int(horizon)
        self.bindings = dict(bindings)
        self._domains: dict[str, list[object]] = {
            var: history.object_ids(cls) for var, cls in bindings.items()
        }
        #: Variables whose domain a restriction replaced.
        self._restricted = frozenset(domain_restrictions or ())
        if domain_restrictions:
            for var, values in domain_restrictions.items():
                full = set(self.domain(var))
                bad = [v for v in values if v not in full]
                if bad:
                    raise FtlSemanticsError(
                        f"domain restriction for {var!r} names values "
                        f"outside the class population: {bad[:3]!r}"
                    )
                self._domains[var] = list(values)
        self._movers: dict[object, "MovingPoint"] = {}
        self._pruner: "AtomIndexPruner | None" = None

    # ------------------------------------------------------------------
    def reset_memos(self) -> None:
        """Drop the per-context mover memo and the lazy atom-index
        pruner.

        The memos hold references into the parent process's object graph;
        a context shipped to (or inherited by, under ``fork``) a worker
        process must rebuild them against its own database replica rather
        than trust another address space's snapshots.
        """
        self._movers.clear()
        self._pruner = None

    # ------------------------------------------------------------------
    def moving_point(self, object_id: object) -> "MovingPoint":
        """Memoized :meth:`History.moving_point` — the underlying lookup
        rebuilds a snapshot object per call, and atom evaluation asks for
        the same movers once per instantiation."""
        mover = self._movers.get(object_id)
        if mover is None:
            mover = self.history.moving_point(object_id)
            self._movers[object_id] = mover
        return mover

    def column_legs(
        self, rows: "MotionRows"
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The single legs over the window of a gathered position block
        (:meth:`~repro.core.columns.MotionColumns.positions`):
        ``(qualifies[n], origin[n, dim], velocity[n, dim])``
        (:func:`~repro.core.columns.linear_legs`).  Computed with the
        operations of the scalar path, so every leg is bit-identical to
        it; a zero-length window's leg is static, as there."""
        from repro.core.columns import linear_legs

        linear, origin, slope = linear_legs(rows, self.start)
        velocity = slope if self.end > self.start else np.zeros_like(slope)
        return linear, origin, velocity

    def atom_pruner(self) -> "AtomIndexPruner":
        """This context's view of the trajectory-MBR tables (shared per
        content version through ``db.mbr_tables``), created lazily and
        shared by every evaluator running on this context."""
        if self._pruner is None:
            from repro.ftl.atoms import AtomIndexPruner

            self._pruner = AtomIndexPruner(self)
        return self._pruner

    # ------------------------------------------------------------------
    @property
    def end(self) -> int:
        """Last tick of the evaluation window."""
        return self.start + self.horizon

    @property
    def window(self) -> Interval:
        """The dense window handed to the kinetic solvers."""
        return Interval(self.start, self.end)

    def ticks(self) -> range:
        """All ticks of the window."""
        return range(self.start, self.end + 1)

    # ------------------------------------------------------------------
    # Variable domains
    # ------------------------------------------------------------------
    def domain(self, var: str) -> list[object]:
        """Candidate values for a variable (object ids for FROM-bound
        variables, observed term values for assigned ones)."""
        try:
            return self._domains[var]
        except KeyError:
            raise FtlSemanticsError(
                f"variable {var!r} has no domain (not bound by FROM or an "
                "enclosing assignment quantifier)"
            ) from None

    def is_object_var(self, var: str) -> bool:
        """Whether the variable is FROM-bound (ranges over objects)."""
        return var in self.bindings

    def dirty_domain(self, var: str, dirty_values: "Set[object]") -> list[object]:
        """The values of a variable's domain that are in
        ``dirty_values``, in domain order.

        An unrestricted FROM-bound variable of a future history ranges
        over its class in insertion order — the object numbers of the
        class's motion columns — so its dirty values are sorted by
        number, in O(|dirty| log |dirty|) whatever the class size.  Any
        other domain (restricted, assigned, or over a recorded history)
        is walked.  Incremental continuous-query maintenance enumerates
        only the instantiations naming these values.
        """
        from repro.core.history import FutureHistory

        if (
            var in self.bindings
            and var not in self._restricted
            and isinstance(self.history, FutureHistory)
        ):
            index = self.history.motion_columns(self.bindings[var]).index
            return sorted(
                (v for v in dirty_values if v in index), key=index.__getitem__
            )
        return [v for v in self.domain(var) if v in dirty_values]

    def clean_domain(self, var: str, dirty_values: "Set[object]") -> list[object]:
        """The values of a variable's domain that are not in
        ``dirty_values``, in domain order (a walk of the domain)."""
        return [v for v in self.domain(var) if v not in dirty_values]

    def push_domain(self, var: str, values: list[object]) -> None:
        """Introduce an assigned variable's candidate values."""
        if var in self._domains:
            raise FtlSemanticsError(f"variable {var!r} shadowed")
        self._domains[var] = values

    def pop_domain(self, var: str) -> None:
        """Remove an assigned variable's domain."""
        self._domains.pop(var, None)

    # ------------------------------------------------------------------
    # Term evaluation (per state — shared by both evaluators)
    # ------------------------------------------------------------------
    def eval_term(self, term: Term, env: Env, t: float) -> object:
        """Value of a term in the state with time stamp ``t`` under the
        variable evaluation ``env``."""
        if isinstance(term, Const):
            return term.value
        if isinstance(term, TimeTerm):
            return t
        if isinstance(term, Var):
            try:
                return env[term.name]
            except KeyError:
                raise FtlSemanticsError(
                    f"unbound variable {term.name!r}"
                ) from None
        if isinstance(term, Attr):
            obj_id = self.eval_term(term.obj, env, t)
            return self.history.value(obj_id, term.attr, t)
        if isinstance(term, SubAttr):
            obj_id = self.eval_term(term.obj, env, t)
            triple = self._triple_at(obj_id, term.attr, t)
            if term.sub == "function":
                return triple.speed
            return triple.sub_attribute(term.sub)
        if isinstance(term, Dist):
            a = self.eval_term(term.left, env, t)
            b = self.eval_term(term.right, env, t)
            pa = self.history.position(a, t)
            pb = self.history.position(b, t)
            return pa.distance_to(pb)
        if isinstance(term, Arith):
            lhs = self.eval_term(term.left, env, t)
            rhs = self.eval_term(term.right, env, t)
            return self._arith(term.op, lhs, rhs)
        raise FtlSemanticsError(f"cannot evaluate term {term!r}")

    def _triple_at(self, obj_id: object, attr: str, t: float):
        from repro.core.history import FutureHistory, RecordedHistory

        history = self.history
        if isinstance(history, FutureHistory):
            return history.dynamic_triple(obj_id, attr)
        if isinstance(history, RecordedHistory):
            timeline = history.db.attribute_timeline(
                obj_id, attr, since=history.start
            )
            triple = timeline[0][1]
            for from_time, version in timeline:
                if from_time <= t:
                    triple = version
                else:
                    break
            return triple
        raise FtlSemanticsError(
            "sub-attribute access requires a MOST history"
        )

    @staticmethod
    def _arith(op: str, lhs: object, rhs: object) -> object:
        if lhs is None or rhs is None:
            return None
        try:
            if op == "+":
                return lhs + rhs
            if op == "-":
                return lhs - rhs
            if op == "*":
                return lhs * rhs
            if op == "/":
                return lhs / rhs
        except (TypeError, ZeroDivisionError) as exc:
            raise FtlSemanticsError(f"arithmetic failed: {exc}") from exc
        raise FtlSemanticsError(f"unknown arithmetic operator {op!r}")

    # ------------------------------------------------------------------
    # Time invariance (per object class)
    # ------------------------------------------------------------------
    def term_invariant(self, term: Term) -> bool:
        """Whether the term has the same value in every state of a future
        history (refines ``Term.is_time_invariant`` using the bindings).

        Over a *recorded* history (persistent queries) even static
        attributes and sub-attributes change across the replayed past, so
        only constants stay invariant.
        """
        from repro.core.history import RecordedHistory

        if isinstance(self.history, RecordedHistory) and isinstance(
            term, (Attr, SubAttr)
        ):
            return False
        if isinstance(term, Attr):
            if not self.term_invariant(term.obj):
                return False
            var = term.obj
            if isinstance(var, Var) and var.name in self.bindings:
                cls = self.history.db.object_class(self.bindings[var.name])
                return not cls.is_dynamic(term.attr)
            return False
        if isinstance(term, Arith):
            return self.term_invariant(term.left) and self.term_invariant(
                term.right
            )
        if isinstance(term, Dist):
            return False
        return term.is_time_invariant()
