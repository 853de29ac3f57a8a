"""Static cost & cardinality estimation for FTL evaluation plans.

The appendix algorithm is *fully precomputable*: every operator's input
and output shapes are fixed before the first tick is processed, so a
System R-style abstract interpretation over the plan IR (see ``plan.py``)
can bound, per node:

* ``tuples``    — an estimate of ``|R_g|``, the stored instantiations;
* ``intervals`` — intervals per stored tuple (interval-set fragmentation);
* ``cost``      — abstract work units to *build* the relation, counting
  child costs, probe/build sides of joins, domain enumerations and
  per-tick sampling;
* ``selectivity`` — ``tuples`` as a fraction of the full domain product
  of the node's free variables.

The lattice is deliberately simple — independence between conjuncts,
fixed per-predicate selectivities (``=`` 0.1, ordered comparisons 1/3,
``INSIDE`` 0.25, ...), multiplicative domain products — because its job
is *ordering* commutative operands and flagging blowups (FTL6xx), not
predicting wall-clock time.  ``drift_report`` closes the loop: with
``record_relations`` on, observed ``|R_g|`` sizes are compared against
these estimates so calibration tests can bound the error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.ftl.ast import (
    Attr,
    Compare,
    Dist,
    Formula,
    Inside,
    Outside,
    Term,
    WithinSphere,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.ftl.analysis.plan import EvalPlan
    from repro.ftl.relations import FtlRelation

#: Width assumed for an object class the model has no population for.
DEFAULT_CLASS_SIZE = 8

#: Horizon (in ticks) assumed when the caller supplies none.
DEFAULT_HORIZON = 32

#: Fixed selectivity per comparison operator (System R heuristics).
_CMP_SELECTIVITY = {
    "=": 0.1,
    "!=": 0.9,
    "<": 1 / 3,
    "<=": 1 / 3,
    ">": 1 / 3,
    ">=": 1 / 3,
}

#: Fixed selectivity per spatial predicate.
_SPATIAL_SELECTIVITY = {Inside: 0.25, Outside: 0.75, WithinSphere: 0.2}

#: Fraction of an atom's instantiations expected to *survive* the
#: trajectory-MBR index gate (repro/ftl/atoms.py) and actually require a
#: kinetic solve.  Region probes keep candidates of one box; the pairwise
#: self-join of sphere/dist atoms prunes harder.  Deliberately coarse —
#: drift_report closes the loop with observed pruning counts.
_INDEX_SURVIVAL = {Inside: 0.5, Outside: 0.5, WithinSphere: 0.4}


@dataclass(frozen=True)
class CostModel:
    """Static parameters of the abstract interpretation.

    ``class_sizes`` maps object-class name → population; classes absent
    from it (or the whole mapping, when ``None``) fall back to
    ``default_class_size`` — the analyzer runs schema-less, while
    :meth:`~repro.ftl.query.FtlQuery.plan_for` fills real populations in
    from a history.
    """

    class_sizes: Mapping[str, int] | None = None
    default_class_size: int = DEFAULT_CLASS_SIZE
    horizon: int = DEFAULT_HORIZON

    @property
    def ticks(self) -> int:
        """States in the evaluation window (``horizon + 1``)."""
        return max(1, int(self.horizon) + 1)

    def class_size(self, cls_name: str) -> float:
        """Estimated population of an object class."""
        if self.class_sizes is not None and cls_name in self.class_sizes:
            return max(1.0, float(self.class_sizes[cls_name]))
        return float(self.default_class_size)


@dataclass(frozen=True)
class CostEstimate:
    """Per-node bounds propagated by the abstract interpreter."""

    tuples: float
    intervals: float
    cost: float
    selectivity: float
    #: Expected kinetic solves to build the node (0 for sampled atoms and
    #: for instantiations the index gate answers; connectives sum their
    #: children).  Kept out of ``cost`` so conjunct ordering and its
    #: calibration are unchanged by the pruning estimate.
    solves: float = 0.0
    #: Expected *solver invocations* amortising those solves: with the
    #: batch backend each kinetic atom submits its surviving rows as a
    #: single batch (one invocation per atom node); scalar solving pays
    #: one per solve.  Like ``solves``, kept out of ``cost``.
    solve_batches: float = 0.0

    def to_json(self) -> dict[str, object]:
        """JSON-shaped estimate (rounded for stable golden files)."""
        return {
            "tuples": round(self.tuples, 3),
            "intervals": round(self.intervals, 3),
            "cost": round(self.cost, 3),
            "selectivity": round(self.selectivity, 6),
            "solves": round(self.solves, 3),
            "solve_batches": round(self.solve_batches, 3),
        }


def domain_product(
    variables: Iterable[str], widths: Mapping[str, float]
) -> float:
    """Product of the variables' domain widths (1.0 for the empty set)."""
    out = 1.0
    for v in variables:
        out *= max(1.0, float(widths.get(v, 1.0)))
    return out


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


def kinetic_eligible(f: Formula) -> bool:
    """Whether an atom can hit a closed-form kinetic solve (cost ~ one
    solve per instantiation) instead of per-tick sampling.

    Mirrors ``IntervalEvaluator``'s fast paths statically: spatial atoms
    always qualify; comparisons qualify when both sides are invariant, or
    when one side is ``DIST``/a (possibly dynamic) attribute and the
    other is invariant under an ordered ``<=``/``>=``.
    """
    if isinstance(f, (Inside, Outside, WithinSphere)):
        return True
    if isinstance(f, Compare):
        left_inv = f.left.is_time_invariant()
        right_inv = f.right.is_time_invariant()
        if left_inv and right_inv:
            return True
        if f.op not in ("<=", ">="):
            return False
        if isinstance(f.left, (Dist, Attr)) and right_inv:
            return True
        if isinstance(f.right, (Dist, Attr)) and left_inv:
            return True
    return False


def atom_selectivity(f: Formula) -> float:
    """Fixed selectivity of an atomic predicate."""
    sel = _SPATIAL_SELECTIVITY.get(type(f))
    if sel is not None:
        return sel
    if isinstance(f, Compare):
        if not (f.left.free_vars() | f.right.free_vars()):
            # Variable-free comparison: a constant filter — either the
            # full window or nothing; split the difference.
            return 0.5
        return _CMP_SELECTIVITY[f.op]
    return 0.5


def index_survival(f: Formula) -> float:
    """Fraction of an atom's instantiations expected to survive the
    trajectory-MBR gate and reach a kinetic solve."""
    sel = _INDEX_SURVIVAL.get(type(f))
    if sel is not None:
        return sel
    if isinstance(f, Compare) and (
        isinstance(f.left, Dist) or isinstance(f.right, Dist)
    ):
        # DIST-vs-bound comparisons prune via the pairwise self-join.
        return 0.4
    return 1.0


def atom_estimate(
    f: Formula, widths: Mapping[str, float], model: CostModel
) -> CostEstimate:
    """Base case: the atom scans the full domain product of its free
    variables, one kinetic solve (or ``ticks`` samples) per instantiation."""
    product = domain_product(sorted(f.free_vars()), widths)
    sel = atom_selectivity(f)
    invariant = isinstance(f, Compare) and (
        f.left.is_time_invariant() and f.right.is_time_invariant()
    )
    eligible = kinetic_eligible(f)
    per_inst = 1.0 if eligible else float(model.ticks)
    # The estimates model the default evaluation: atoms run behind the
    # trajectory-MBR index gate, and both-invariant comparisons evaluate
    # once without a solver call, so only genuinely kinetic atoms
    # contribute solves.
    solves = product * index_survival(f) if eligible and not invariant else 0.0
    return CostEstimate(
        tuples=sel * product,
        intervals=1.0 if invariant else 2.0,
        cost=product * per_inst,
        selectivity=sel,
        solves=solves,
        # The batch backend amortises all of an atom's solves into one
        # solver invocation.
        solve_batches=1.0 if solves > 0.0 else 0.0,
    )


# ---------------------------------------------------------------------------
# Connectives
# ---------------------------------------------------------------------------


def join_estimate(
    e1: CostEstimate,
    e2: CostEstimate,
    vars1: frozenset[str],
    vars2: frozenset[str],
    widths: Mapping[str, float],
) -> CostEstimate:
    """Conjunction: hash join on shared variables, intervals intersect.

    Independence assumption: output selectivity is the product of the
    operands'.  Build + probe + output tuples are all charged.
    """
    out_vars = vars1 | vars2
    product = domain_product(out_vars, widths)
    sel = e1.selectivity * e2.selectivity
    tuples = sel * product
    return CostEstimate(
        tuples=tuples,
        intervals=min(e1.intervals, e2.intervals),
        cost=e1.cost + e2.cost + e1.tuples + e2.tuples + tuples,
        selectivity=sel,
        solves=e1.solves + e2.solves,
        solve_batches=e1.solve_batches + e2.solve_batches,
    )


def union_estimate(
    e1: CostEstimate,
    e2: CostEstimate,
    vars1: frozenset[str],
    vars2: frozenset[str],
    widths: Mapping[str, float],
) -> CostEstimate:
    """Disjunction enumerates the full domain product of the union
    variable set (the safety-restoring evaluation strategy)."""
    out_vars = vars1 | vars2
    product = domain_product(out_vars, widths)
    sel = 1.0 - (1.0 - e1.selectivity) * (1.0 - e2.selectivity)
    return CostEstimate(
        tuples=sel * product,
        intervals=e1.intervals + e2.intervals,
        cost=e1.cost + e2.cost + product,
        selectivity=sel,
        solves=e1.solves + e2.solves,
        solve_batches=e1.solve_batches + e2.solve_batches,
    )


def complement_estimate(
    e: CostEstimate, variables: frozenset[str], widths: Mapping[str, float]
) -> CostEstimate:
    """Negation complements within the window over the full enumerable
    domain product — the FTL602 blowup this module exists to flag."""
    product = domain_product(variables, widths)
    sel = max(0.05, 1.0 - e.selectivity)
    return CostEstimate(
        tuples=sel * product,
        intervals=e.intervals + 1.0,
        cost=e.cost + product,
        selectivity=sel,
        solves=e.solves,
        solve_batches=e.solve_batches,
    )


def until_estimate(
    e1: CostEstimate,
    e2: CostEstimate,
    vars1: frozenset[str],
    vars2: frozenset[str],
    widths: Mapping[str, float],
) -> CostEstimate:
    """Until chain-merge: outer on the left side, so left-only variables
    are enumerated over their full domains per right-side row."""
    extras = vars1 - vars2
    extra_product = domain_product(extras, widths)
    out_vars = vars1 | vars2
    product = domain_product(out_vars, widths)
    sel = min(1.0, e2.selectivity * 1.5)
    tuples = sel * product
    return CostEstimate(
        tuples=tuples,
        intervals=e2.intervals,
        cost=e1.cost + e2.cost + e1.tuples
        + e2.tuples * max(1.0, extra_product) + tuples,
        selectivity=sel,
        solves=e1.solves + e2.solves,
        solve_batches=e1.solve_batches + e2.solve_batches,
    )


#: Interval-map kinds that collapse each tuple's set to at most one run.
_COLLAPSING_KINDS = frozenset({"eventually", "always"})
#: Kinds that extend truth backwards (selectivity grows).
_WIDENING_KINDS = frozenset(
    {"eventually", "eventually-within", "eventually-after", "nexttime"}
)


def map_estimate(e: CostEstimate, kind: str) -> CostEstimate:
    """Per-tuple interval-set transform (the bounded operators of §3.4
    plus the derived unbounded forms): cardinality is preserved, the
    interval structure and selectivity shift."""
    if kind in _WIDENING_KINDS:
        sel = min(1.0, e.selectivity * 1.5)
    else:  # always / always-for erode truth.
        sel = e.selectivity * 0.5
    intervals = 1.0 if kind in _COLLAPSING_KINDS else e.intervals
    return CostEstimate(
        tuples=e.tuples,
        intervals=intervals,
        cost=e.cost + e.tuples,
        selectivity=sel,
        solves=e.solves,
        solve_batches=e.solve_batches,
    )


# ---------------------------------------------------------------------------
# Assignment quantifier
# ---------------------------------------------------------------------------


def assign_values_estimate(
    term: Term, widths: Mapping[str, float], model: CostModel
) -> float:
    """Estimated width of the assigned variable's candidate-value domain:
    the ``Q`` relation pools one value per (instantiation, value-run)."""
    base = domain_product(sorted(term.free_vars()), widths)
    if term.is_time_invariant():
        return base
    return base * float(model.ticks)


def assign_q_cost(
    term: Term, widths: Mapping[str, float], model: CostModel
) -> float:
    """Work to build ``Q``: invariant terms evaluate once per
    instantiation, time-varying ones once per tick."""
    base = domain_product(sorted(term.free_vars()), widths)
    if term.is_time_invariant():
        return base
    return base * float(model.ticks)


def assign_estimate(
    body: CostEstimate,
    q_cost: float,
    body_vars: frozenset[str],
    var: str,
    term_vars: frozenset[str],
    widths: Mapping[str, float],
) -> CostEstimate:
    """``[x := q] g``: join body rows against ``Q`` on the assigned
    column, project the assigned variable out."""
    out_vars = (body_vars - {var}) | term_vars
    product = domain_product(out_vars, widths)
    tuples = body.selectivity * product
    return CostEstimate(
        tuples=tuples,
        intervals=body.intervals,
        cost=q_cost + body.cost + body.tuples + tuples,
        selectivity=body.selectivity,
        solves=body.solves,
        solve_batches=body.solve_batches,
    )


# ---------------------------------------------------------------------------
# Estimate-vs-actual drift
# ---------------------------------------------------------------------------


def drift_report(
    plan: "EvalPlan",
    trace: Mapping[int, "FtlRelation"],
    atom_stats: Mapping[int, Mapping[str, object]] | None = None,
) -> list[dict]:
    """Compare observed ``|R_g|`` sizes against the plan's static
    estimates.

    ``trace`` is an evaluator trace keyed by ``id(subformula)`` of the
    plan's *ordered* formula tree (``record_relations`` wiring in
    :class:`~repro.ftl.query.CompiledQuery`).  Each row reports the
    estimated and observed tuple counts and their ratio
    (``observed / estimated``) — the calibration signal.

    ``atom_stats`` is the evaluator's per-atom acceleration accounting
    (also keyed by ``id(subformula)``); when given, atom rows additionally
    report estimated vs. observed kinetic solves and the pruned
    instantiation count, closing the loop on the index-selectivity
    estimates of :func:`index_survival`.
    """
    rows: list[dict] = []
    for path, node in plan.nodes_with_paths():
        relation = trace.get(id(node.formula))
        if relation is None:
            continue
        observed = float(len(relation))
        estimated = node.estimate.tuples
        if estimated > 0:
            ratio = observed / estimated
        else:
            ratio = 0.0 if observed == 0 else float("inf")
        row = {
            "path": path,
            "op": node.op,
            "formula": str(node.formula),
            "estimated_tuples": round(estimated, 3),
            "observed_tuples": observed,
            "ratio": round(ratio, 4),
        }
        stats = (
            atom_stats.get(id(node.formula))
            if atom_stats is not None
            else None
        )
        if stats is not None:
            row["estimated_solves"] = round(node.estimate.solves, 3)
            row["observed_solves"] = int(stats.get("solves", 0))
            row["pruned_instantiations"] = int(stats.get("pruned", 0))
        rows.append(row)
    return rows
