"""The evaluation-plan IR: an explicit operator tree over subformulas.

Lowering turns an analyzer-accepted FTL formula into one
:class:`PlanNode` per subformula — atom scan, compare, intersect-join for
``∧``, until-chain-merge, interval map for the §3.4 bounded operators,
complement/union for negation/disjunction, project for ``[x := q]`` —
annotated with its free variables, the evaluator routine it maps to, and
the :class:`~repro.ftl.analysis.cost.CostEstimate` bounds of ``cost.py``.

Lowering also *transforms*:

* commutative conjuncts and independent assignment chains are reordered
  by the cost-based orderer (``order.py``); the reordered conjunction is
  rebuilt as a **left-deep binary** ``AndF`` spine so the three
  evaluators — including the binary delta rule of incremental
  maintenance — consume it unchanged;
* structurally identical subformulas whose free variables are all
  FROM-bound (so their relation is the same in every assignment scope)
  are hash-consed to a single shared node, marked for caching
  (``EvalPlan.shared_ids``) and flagged FTL604;
* plan-level blowups are reported as FTL6xx diagnostics: inherent
  cross-product conjunctions (FTL601), multi-variable negation
  complements (FTL602), unbounded ``Until`` outer enumeration (FTL603).

The resulting :class:`EvalPlan` owns the ordered formula tree; evaluators
call :meth:`EvalPlan.resolve` to swap the syntactic root for the ordered
one, and continuous queries keep the plan alive so ``id``-keyed caches
stay valid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.errors import FtlSemanticsError
from repro.ftl.analysis.cost import (
    CostEstimate,
    CostModel,
    assign_estimate,
    assign_q_cost,
    assign_values_estimate,
    atom_estimate,
    complement_estimate,
    domain_product,
    join_estimate,
    map_estimate,
    union_estimate,
    until_estimate,
)
from repro.ftl.analysis.diagnostics import Diagnostic, make
from repro.ftl.analysis.order import (
    connected_components,
    order_assignments,
    order_conjuncts,
)
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
from repro.ftl.context import DEFAULT

if TYPE_CHECKING:  # pragma: no cover
    from repro.ftl.analysis.deps import DepAnalysis
    from repro.ftl.analysis.validity import ValidityAnalysis
    from repro.ftl.query import FtlQuery

# Operator kinds (one per appendix evaluation rule).
ATOM_SCAN = "atom-scan"
COMPARE = "compare"
INTERSECT_JOIN = "intersect-join"
UNION = "union"
COMPLEMENT = "complement"
UNTIL_MERGE = "until-chain-merge"
INTERVAL_MAP = "interval-map"
PROJECT = "project"

#: Plan op → the evaluator routine that implements it.
ROUTINES = {
    ATOM_SCAN: "IntervalEvaluator._atom",
    COMPARE: "IntervalEvaluator._compare_intervals",
    INTERSECT_JOIN: "IntervalEvaluator._conjunction",
    UNION: "IntervalEvaluator._disjunction",
    COMPLEMENT: "IntervalEvaluator._negation",
    UNTIL_MERGE: "IntervalEvaluator._until_join",
    INTERVAL_MAP: "FtlRelation.map_sets",
    PROJECT: "IntervalEvaluator._assignment",
}

_MAP_KINDS = {
    Nexttime: "nexttime",
    Eventually: "eventually",
    EventuallyWithin: "eventually-within",
    EventuallyAfter: "eventually-after",
    Always: "always",
    AlwaysFor: "always-for",
}

_ATOMS = (Compare, Inside, Outside, WithinSphere)


@dataclass
class PlanNode:
    """One operator of the evaluation plan.

    ``formula`` is the (possibly reordered) subformula this node
    computes ``R_g`` for — the exact object the evaluators will recurse
    into, so ``id(formula)`` keys traces, caches and drift lookups.
    """

    op: str
    formula: Formula
    routine: str
    free_vars: tuple[str, ...]
    estimate: CostEstimate
    children: tuple["PlanNode", ...] = ()
    detail: str = ""
    #: Structurally identical subformula occurring elsewhere; evaluated
    #: once and cached (FTL604).
    shared: bool = False
    #: The orderer changed this node's operand order vs the source.
    reordered: bool = False

    def to_json(
        self,
        reads: Mapping[int, Any] | None = None,
        horizons: Mapping[int, Any] | None = None,
    ) -> dict[str, object]:
        """JSON-shaped node (one entry of the ``explain --json`` tree).

        ``reads`` maps ``id(subformula)`` to the node's
        :class:`~repro.ftl.analysis.deps.ReadSet`; ``horizons`` maps it
        to the node's :class:`~repro.ftl.analysis.validity.Horizon`.
        When given, each node gains a ``reads`` / ``validity`` entry
        (new keys — every pre-existing key is unchanged, old consumers
        keep parsing).
        """
        out: dict[str, object] = {
            "op": self.op,
            "formula": str(self.formula),
            "routine": self.routine,
            "free_vars": list(self.free_vars),
            "estimate": self.estimate.to_json(),
        }
        if self.detail:
            out["detail"] = self.detail
        if self.shared:
            out["shared"] = True
        if self.reordered:
            out["reordered"] = True
        if reads is not None:
            read_set = reads.get(id(self.formula))
            if read_set is not None:
                out["reads"] = read_set.to_json()
        if horizons is not None:
            horizon = horizons.get(id(self.formula))
            if horizon is not None:
                out["validity"] = horizon.to_json()
        if self.children:
            out["children"] = [
                c.to_json(reads, horizons) for c in self.children
            ]
        return out


def _fmt(x: float) -> str:
    return f"{x:.3g}"


@dataclass
class EvalPlan:
    """A lowered, cost-annotated, (optionally) reordered evaluation plan."""

    source: Formula
    ordered_where: Formula
    root: PlanNode
    shared_ids: frozenset[int]
    diagnostics: tuple[Diagnostic, ...]
    model: CostModel
    ordered: bool
    #: FROM-clause bindings the plan was lowered under (drives the
    #: update-impact analysis of :meth:`dependency_analysis`).
    bindings: dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def resolve(self, formula: Formula) -> Formula:
        """The formula an evaluator should actually recurse into."""
        if formula is self.source or formula is self.ordered_where:
            return self.ordered_where
        return formula

    @property
    def reordered(self) -> bool:
        """Whether any operand order differs from the syntactic order."""
        return any(n.reordered for _p, n in self.nodes_with_paths())

    @property
    def total(self) -> CostEstimate:
        """The root estimate (whole-plan bounds)."""
        return self.root.estimate

    def nodes_with_paths(self) -> Iterator[tuple[str, PlanNode]]:
        """Depth-first ``(path, node)`` pairs; shared nodes appear once,
        at their first (leftmost) occurrence."""
        seen: set[int] = set()

        def walk(node: PlanNode, path: str) -> Iterator[tuple[str, PlanNode]]:
            if id(node) in seen:
                return
            seen.add(id(node))
            yield path, node
            for i, child in enumerate(node.children):
                yield from walk(child, f"{path}.{i}")

        yield from walk(self.root, "root")

    @property
    def estimates(self) -> dict[str, CostEstimate]:
        """Per-node estimates keyed by plan path (``root``, ``root.0``, ...)."""
        return {path: node.estimate for path, node in self.nodes_with_paths()}

    def dependency_analysis(self, schema: object = None) -> "DepAnalysis":
        """The update-impact analysis of the plan's *ordered* tree.

        Keyed by the ordered formula nodes, so incremental evaluators
        can look read-sets up by the same ``id`` that keys their caches.
        Memoized per schema identity (the common callers — EXPLAIN,
        continuous queries — ask with one schema for the plan's life).
        """
        from repro.ftl.analysis.deps import analyze_formula_deps

        if not hasattr(self, "_deps_memo"):
            self._deps_memo: dict[int, DepAnalysis] = {}
        cached = self._deps_memo.get(id(schema))
        if cached is None:
            cached = analyze_formula_deps(
                self.ordered_where, bindings=self.bindings, schema=schema
            )
            self._deps_memo[id(schema)] = cached
        return cached

    def validity_analysis(self, schema: object = None) -> "ValidityAnalysis":
        """The temporal-validity analysis of the plan's *ordered* tree.

        Keyed by the ordered formula nodes like
        :meth:`dependency_analysis` (whose read-sets it reuses), so
        runtime consumers can look horizons up by the same ``id`` that
        keys their caches.  Memoized per schema identity.
        """
        from repro.ftl.analysis.validity import analyze_formula_validity

        if not hasattr(self, "_validity_memo"):
            self._validity_memo: dict[int, ValidityAnalysis] = {}
        cached = self._validity_memo.get(id(schema))
        if cached is None:
            cached = analyze_formula_validity(
                self.ordered_where,
                bindings=self.bindings,
                schema=schema,
                deps=self.dependency_analysis(schema),
            )
            self._validity_memo[id(schema)] = cached
        return cached

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable plan tree (the ``explain`` CLI's default view)."""
        lines: list[str] = []
        rendered: set[int] = set()

        def describe(node: PlanNode) -> str:
            e = node.estimate
            bits = [node.op]
            if node.detail:
                bits.append(node.detail)
            head = " ".join(bits)
            flags = ""
            if node.reordered:
                flags += " [reordered]"
            if node.shared:
                flags += " [shared]"
            fv = ", ".join(node.free_vars)
            return (
                f"{head}  vars=({fv})  ~{_fmt(e.tuples)} rows "
                f"x{_fmt(e.intervals)} iv  cost {_fmt(e.cost)}{flags}"
            )

        def walk(node: PlanNode, prefix: str, branch: str) -> None:
            if id(node) in rendered:
                lines.append(
                    f"{prefix}{branch}(shared) {node.op}  {node.formula}"
                )
                return
            rendered.add(id(node))
            lines.append(f"{prefix}{branch}{describe(node)}")
            if branch == "`- ":
                child_prefix = prefix + "   "
            elif branch == "|- ":
                child_prefix = prefix + "|  "
            else:
                child_prefix = prefix
            for i, child in enumerate(node.children):
                last = i == len(node.children) - 1
                walk(child, child_prefix, "`- " if last else "|- ")

        walk(self.root, "", "")
        return "\n".join(lines)

    def to_json(self) -> dict[str, object]:
        """JSON-shaped plan report (the ``explain --json`` payload)."""
        deps = self.dependency_analysis()
        validity = self.validity_analysis()
        return {
            "ordered": self.ordered,
            "reordered": self.reordered,
            "formula": str(self.ordered_where),
            "total": self.total.to_json(),
            "atom_acceleration": {
                # The estimates model the default evaluation.
                "index_pruning": DEFAULT.index_pruning,
                "estimated_solves": round(self.total.solves, 3),
                "estimated_solve_batches": round(
                    self.total.solve_batches, 3
                ),
            },
            "shared_subformulas": len(self.shared_ids),
            "diagnostics": [d.to_json() for d in self.diagnostics],
            # New in the dependency-analysis revision: the query-level
            # read-set roll-up plus per-node ``reads`` entries below.
            # Strictly additive — every pre-existing key keeps its shape.
            "dependencies": deps.to_json(),
            # New in the temporal-validity revision (pass 8): the
            # symbolic horizon roll-up plus per-node ``validity``
            # entries below.  Strictly additive as well.
            "validity": validity.to_json(),
            "root": self.root.to_json(deps.reads, validity.horizons),
        }


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def _flatten_and(f: Formula) -> list[Formula]:
    if isinstance(f, AndF):
        return _flatten_and(f.left) + _flatten_and(f.right)
    return [f]


class _Lowerer:
    """One lowering run: AST → plan nodes + ordered formula tree."""

    def __init__(
        self,
        bindings: Mapping[str, str],
        model: CostModel,
        order: bool,
    ) -> None:
        self.bindings = dict(bindings)
        self.model = model
        self.order = order
        self.diagnostics: list[Diagnostic] = []
        #: Hash-cons table: source-subformula value → (node, rebuilt
        #: formula).  Only scope-independent formulas (no assignment-bound
        #: free variable) are eligible.
        self._cons: dict[Formula, tuple[PlanNode, Formula]] = {}
        self._uses: dict[int, int] = {}
        self._canon: list[tuple[PlanNode, Formula]] = []

    # ------------------------------------------------------------------
    def lower(self, formula: Formula) -> EvalPlan:
        widths = {
            var: self.model.class_size(cls)
            for var, cls in self.bindings.items()
        }
        root, ordered = self._build(formula, frozenset(), widths)
        shared_ids = set()
        for node, form in self._canon:
            uses = self._uses.get(id(form), 1)
            if uses <= 1:
                continue
            node.shared = True
            shared_ids.add(id(form))
            if form.free_vars():
                self._diag(
                    "FTL604",
                    f"subformula occurs {uses} times; the plan evaluates "
                    "it once and caches the relation",
                    form,
                )
        self.diagnostics.sort(key=lambda d: (d.code, d.message))
        return EvalPlan(
            source=formula,
            ordered_where=ordered,
            root=root,
            shared_ids=frozenset(shared_ids),
            diagnostics=tuple(self.diagnostics),
            model=self.model,
            ordered=self.order,
            bindings=dict(self.bindings),
        )

    def _diag(self, code: str, message: str, f: Formula) -> None:
        self.diagnostics.append(
            make(code, message, span=f.span, subformula=f)
        )

    def _quarantine_check(self, f: Formula) -> None:
        """FTL605 when a derived operator's rewrite rule is quarantined:
        ``expand()`` will keep this operator rather than encode it."""
        from repro.ftl.rewrite import RULE_NAMES, quarantined_rules

        rule = RULE_NAMES.get(type(f))
        if rule is not None and rule in quarantined_rules():
            self._diag(
                "FTL605",
                f"rewrite rule {rule!r} is quarantined as unsound; the "
                "built-in interval routine evaluates this operator and "
                "expand() leaves it in place",
                f,
            )

    # ------------------------------------------------------------------
    def _build(
        self,
        f: Formula,
        scope: frozenset[str],
        widths: Mapping[str, float],
    ) -> tuple[PlanNode, Formula]:
        # Hash-consing: a formula with no assignment-bound free variable
        # computes the same relation in every scope, so structurally
        # equal occurrences share one node (and one evaluation).
        sharable = not (f.free_vars() & scope)
        if sharable:
            hit = self._cons.get(f)
            if hit is not None:
                self._uses[id(hit[1])] += 1
                return hit
        node, formula = self._build_fresh(f, scope, widths)
        if sharable:
            self._cons[f] = (node, formula)
            self._uses[id(formula)] = 1
            self._canon.append((node, formula))
        return node, formula

    def _build_fresh(
        self,
        f: Formula,
        scope: frozenset[str],
        widths: Mapping[str, float],
    ) -> tuple[PlanNode, Formula]:
        if isinstance(f, _ATOMS):
            return self._atom(f, widths)
        if isinstance(f, AndF):
            return self._conjunction(f, scope, widths)
        if isinstance(f, OrF):
            return self._union(f, scope, widths)
        if isinstance(f, NotF):
            return self._complement(f, scope, widths)
        if isinstance(f, (Until, UntilWithin)):
            return self._until(f, scope, widths)
        if type(f) in _MAP_KINDS:
            return self._interval_map(f, scope, widths)
        if isinstance(f, Assign):
            return self._assign_chain(f, scope, widths)
        at = f" at {f.span}" if f.span is not None else ""
        raise FtlSemanticsError(
            f"cannot lower {type(f).__name__} to an evaluation plan{at}"
        )

    # ------------------------------------------------------------------
    def _atom(
        self, f: Formula, widths: Mapping[str, float]
    ) -> tuple[PlanNode, Formula]:
        op = COMPARE if isinstance(f, Compare) else ATOM_SCAN
        node = PlanNode(
            op=op,
            formula=f,
            routine=ROUTINES[op],
            free_vars=tuple(sorted(f.free_vars())),
            estimate=atom_estimate(f, widths, self.model),
            detail=str(f),
        )
        return node, f

    def _conjunction(
        self,
        f: AndF,
        scope: frozenset[str],
        widths: Mapping[str, float],
    ) -> tuple[PlanNode, Formula]:
        conjuncts = _flatten_and(f)
        built = [self._build(c, scope, widths) for c in conjuncts]
        entries = [
            (frozenset(node.free_vars), node.estimate) for node, _ in built
        ]
        components = connected_components(vs for vs, _ in entries)
        if len(components) > 1:
            sets = " x ".join(
                "{" + ", ".join(sorted(c)) + "}" for c in components
            )
            self._diag(
                "FTL601",
                f"conjunction joins disjoint variable sets {sets}; no "
                "order avoids the cross product",
                f,
            )
        if self.order:
            perm = order_conjuncts(entries, widths)
        else:
            perm = list(range(len(built)))
        reordered = perm != list(range(len(built)))
        seq = [built[i] for i in perm]

        head_node, formula = seq[0]
        est = head_node.estimate
        vars_acc = frozenset(head_node.free_vars)
        for node_i, form_i in seq[1:]:
            est = join_estimate(
                est, node_i.estimate, vars_acc,
                frozenset(node_i.free_vars), widths,
            )
            vars_acc |= frozenset(node_i.free_vars)
            formula = AndF(formula, form_i, span=f.span)
        if formula == f:
            formula = f
        node = PlanNode(
            op=INTERSECT_JOIN,
            formula=formula,
            routine=ROUTINES[INTERSECT_JOIN],
            free_vars=tuple(sorted(vars_acc)),
            estimate=est,
            children=tuple(node for node, _ in seq),
            detail=f"{len(seq)} conjuncts",
            reordered=reordered,
        )
        return node, formula

    def _union(
        self,
        f: OrF,
        scope: frozenset[str],
        widths: Mapping[str, float],
    ) -> tuple[PlanNode, Formula]:
        ln, lf = self._build(f.left, scope, widths)
        rn, rf = self._build(f.right, scope, widths)
        est = union_estimate(
            ln.estimate, rn.estimate,
            frozenset(ln.free_vars), frozenset(rn.free_vars), widths,
        )
        formula: Formula = f
        if lf is not f.left or rf is not f.right:
            formula = OrF(lf, rf, span=f.span)
        node = PlanNode(
            op=UNION,
            formula=formula,
            routine=ROUTINES[UNION],
            free_vars=tuple(sorted(f.free_vars())),
            estimate=est,
            children=(ln, rn),
        )
        return node, formula

    def _complement(
        self,
        f: NotF,
        scope: frozenset[str],
        widths: Mapping[str, float],
    ) -> tuple[PlanNode, Formula]:
        on, of = self._build(f.operand, scope, widths)
        free = frozenset(f.free_vars())
        est = complement_estimate(on.estimate, free, widths)
        if len(free) >= 2:
            product = domain_product(free, widths)
            self._diag(
                "FTL602",
                f"NOT complements over the full domain product of "
                f"{len(free)} variables (~{int(product)} instantiations "
                "enumerated)",
                f,
            )
        formula: Formula = f if of is f.operand else NotF(of, span=f.span)
        node = PlanNode(
            op=COMPLEMENT,
            formula=formula,
            routine=ROUTINES[COMPLEMENT],
            free_vars=tuple(sorted(free)),
            estimate=est,
            children=(on,),
        )
        return node, formula

    def _until(
        self,
        f: "Until | UntilWithin",
        scope: frozenset[str],
        widths: Mapping[str, float],
    ) -> tuple[PlanNode, Formula]:
        ln, lf = self._build(f.left, scope, widths)
        rn, rf = self._build(f.right, scope, widths)
        vars1 = frozenset(ln.free_vars)
        vars2 = frozenset(rn.free_vars)
        est = until_estimate(ln.estimate, rn.estimate, vars1, vars2, widths)
        if isinstance(f, UntilWithin):
            self._quarantine_check(f)
        extras = vars1 - vars2
        if isinstance(f, Until) and extras:
            self._diag(
                "FTL603",
                f"unbounded UNTIL outer-enumerates {sorted(extras)} over "
                "their full domains for every right-side row",
                f,
            )
        detail = ""
        formula: Formula = f
        if isinstance(f, UntilWithin):
            detail = f"within {f.bound:g}"
            if lf is not f.left or rf is not f.right:
                formula = UntilWithin(f.bound, lf, rf, span=f.span)
        elif lf is not f.left or rf is not f.right:
            formula = Until(lf, rf, span=f.span)
        node = PlanNode(
            op=UNTIL_MERGE,
            formula=formula,
            routine=ROUTINES[UNTIL_MERGE],
            free_vars=tuple(sorted(vars1 | vars2)),
            estimate=est,
            children=(ln, rn),
            detail=detail,
        )
        return node, formula

    def _interval_map(
        self,
        f: Formula,
        scope: frozenset[str],
        widths: Mapping[str, float],
    ) -> tuple[PlanNode, Formula]:
        on, of = self._build(f.operand, scope, widths)  # type: ignore[attr-defined]
        kind = _MAP_KINDS[type(f)]
        self._quarantine_check(f)
        est = map_estimate(on.estimate, kind)
        bound = getattr(f, "bound", None)
        detail = kind if bound is None else f"{kind} {bound:g}"
        formula: Formula = f
        if of is not f.operand:  # type: ignore[attr-defined]
            if bound is None:
                formula = type(f)(of, span=f.span)  # type: ignore[call-arg]
            else:
                formula = type(f)(bound, of, span=f.span)  # type: ignore[call-arg]
        node = PlanNode(
            op=INTERVAL_MAP,
            formula=formula,
            routine=ROUTINES[INTERVAL_MAP],
            free_vars=tuple(sorted(f.free_vars())),
            estimate=est,
            children=(on,),
            detail=detail,
        )
        return node, formula

    def _assign_chain(
        self,
        f: Assign,
        scope: frozenset[str],
        widths: Mapping[str, float],
    ) -> tuple[PlanNode, Formula]:
        chain: list[Assign] = []
        g: Formula = f
        while isinstance(g, Assign):
            chain.append(g)
            g = g.body
        chain_vars = {a.var for a in chain}
        # Links are independent (hence commutative) when no link's term
        # mentions any chain-bound variable.
        independent = all(
            not (a.term.free_vars() & chain_vars) for a in chain
        )
        inner_widths = dict(widths)
        values = []
        for a in chain:
            v = assign_values_estimate(a.term, inner_widths, self.model)
            values.append(v)
            inner_widths[a.var] = v
        inner_scope = scope | chain_vars

        if self.order and independent and len(chain) > 1:
            perm = order_assignments(values)
        else:
            perm = list(range(len(chain)))
        reordered = perm != list(range(len(chain)))
        nest = [chain[i] for i in perm]  # outermost → innermost

        body_node, formula = self._build(g, inner_scope, inner_widths)
        node = body_node
        vars_b = frozenset(node.free_vars)
        for a in reversed(nest):
            term_vars = frozenset(a.term.free_vars())
            est = assign_estimate(
                node.estimate,
                assign_q_cost(a.term, widths, self.model),
                vars_b,
                a.var,
                term_vars,
                inner_widths,
            )
            vars_b = (vars_b - {a.var}) | term_vars
            rebuilt = Assign(a.var, a.term, formula, span=a.span)
            formula = a if rebuilt == a else rebuilt
            node = PlanNode(
                op=PROJECT,
                formula=formula,
                routine=ROUTINES[PROJECT],
                free_vars=tuple(sorted(vars_b)),
                estimate=est,
                children=(node,),
                detail=f"[{a.var} := {a.term}]",
                reordered=reordered and a is nest[0],
            )
        return node, formula


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def plan_formula(
    formula: Formula,
    bindings: Mapping[str, str] | None = None,
    model: CostModel | None = None,
    order: bool = True,
) -> EvalPlan:
    """Lower a formula to a cost-annotated (and, by default, cost-ordered)
    evaluation plan.

    Raises :class:`~repro.errors.FtlSemanticsError` on constructs no
    evaluator supports (the analyzer reports those as FTL304 first).
    """
    return _Lowerer(
        bindings=bindings or {},
        model=model or CostModel(),
        order=order,
    ).lower(formula)


def plan_query(
    query: "FtlQuery",
    model: CostModel | None = None,
    order: bool = True,
) -> EvalPlan:
    """Lower a query's WHERE clause under its FROM bindings."""
    return plan_formula(
        query.where, bindings=query.bindings, model=model, order=order
    )
