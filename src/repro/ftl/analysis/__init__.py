"""Static semantic analysis of FTL queries (pre-evaluation gating).

A multi-pass analyzer over the FTL AST that runs *before* any evaluator
touches the database:

1. **binding/scope** (FTL1xx) — unbound variables, ``[x := q]``
   shadowing, unused assignments;
2. **sort checking** (FTL2xx) — attribute existence against the schema,
   dynamic-vs-static use, numeric/spatial/region operand compatibility;
3. **safety / range restriction** (FTL3xx) — the paper's atomic-query
   safety assumption made checkable, plus guaranteed evaluation
   failures;
4. **fragment classification** (FTL4xx) — temporal depth, bounded vs
   unbounded operators, incremental eligibility with a diagnostic naming
   the disqualifying subformula;
5. **lints** (FTL5xx) — vacuous bounds, constant-foldable comparisons,
   vacuous ``Until``;
6. **plan & cost analysis** (FTL6xx) — the formula is lowered to an
   evaluation-plan IR (``plan.py``), an abstract interpreter propagates
   cardinality/interval/cost bounds over it (``cost.py``), a cost-based
   orderer reorders commutative conjuncts and assignment chains
   (``order.py``), and blowups are flagged: cross-product conjunctions,
   multi-variable negation complements, unbounded ``Until`` enumeration,
   re-evaluated common subformulas;
7. **update-impact / read-set analysis** (FTL7xx, ``deps.py``) — every
   plan node gets a ``ReadSet`` of ``(kind, class, detail)`` dependencies
   propagated bottom-up; ``update_footprint`` maps a database update to
   the dep it writes, and the runtime prunes provably irrelevant work at
   the database's update router (``repro.core.queries.UpdateRouter``,
   once per commit for every query), inside incremental
   refreshes (subtree skipping) and in the server's refresh round.
   Report-only diagnostics: FTL701 (maximal read-set nodes), FTL702
   (per-class insensitivity); surfaced via the plan JSON ``dependencies``
   block and ``python -m repro.ftl.lint --deps`` — never in the default
   analyzer passes, never gating evaluation.
8. **temporal-validity analysis** (FTL8xx, ``validity.py``) — every
   plan node gets a symbolic validity :class:`~repro.ftl.analysis.
   validity.Horizon` describing the interval of evaluation times
   ``[t_eval, t_expire)`` over which its cached relation stays provably
   reusable, derived from the motion functions reachable through its
   pass-7 read-set with window arithmetic for temporal operators;
   :func:`~repro.ftl.analysis.validity.class_motion_events` and
   :func:`~repro.ftl.analysis.validity.update_divergence` (decided
   once per record for every live query end by
   :func:`~repro.ftl.analysis.validity.linear_divergence` for plain
   linear motion and by
   :meth:`~repro.ftl.analysis.validity.DivergenceProbe.table` for every
   other law) concretize
   the horizons at refresh time so continuous queries, the incremental
   evaluator and stamped solve reuse can skip provably redundant
   work.  Report-only diagnostics: FTL801 (finite horizon), FTL802
   (constant answer), FTL803 (bottom nodes); surfaced via the plan JSON
   ``validity`` block and ``python -m repro.ftl.lint --validity``.

Entry points: :func:`analyze_query` / :func:`analyze_formula`,
:func:`plan_query` / :func:`plan_formula`, the
:class:`~repro.ftl.query.QueryCompiler` wrapper, and the CLIs
``python -m repro.ftl.lint`` / ``python -m repro.ftl.explain``.
"""

from repro.ftl.analysis.analyzer import analyze_formula, analyze_query
from repro.ftl.analysis.cost import CostEstimate, CostModel, drift_report
from repro.ftl.analysis.deps import (
    Dep,
    DepAnalysis,
    ReadSet,
    analyze_formula_deps,
    analyze_query_deps,
    update_footprint,
)
from repro.ftl.analysis.diagnostics import (
    ERROR,
    INFO,
    RULES,
    WARNING,
    AnalysisResult,
    Diagnostic,
    FtlLintWarning,
)
from repro.ftl.analysis.fragment import FragmentInfo, incremental_blockers
from repro.ftl.analysis.plan import EvalPlan, PlanNode, plan_formula, plan_query
from repro.ftl.analysis.schema import SchemaInfo
from repro.ftl.analysis.validity import (
    Constraint,
    DivergenceProbe,
    Horizon,
    ValidityAnalysis,
    analyze_formula_validity,
    analyze_query_validity,
    class_motion_events,
    update_divergence,
)

__all__ = [
    "analyze_query",
    "analyze_formula",
    "analyze_formula_deps",
    "analyze_query_deps",
    "analyze_formula_validity",
    "analyze_query_validity",
    "class_motion_events",
    "update_divergence",
    "update_footprint",
    "AnalysisResult",
    "Dep",
    "DepAnalysis",
    "ReadSet",
    "Constraint",
    "CostEstimate",
    "DivergenceProbe",
    "CostModel",
    "Diagnostic",
    "Horizon",
    "ValidityAnalysis",
    "EvalPlan",
    "FtlLintWarning",
    "FragmentInfo",
    "PlanNode",
    "drift_report",
    "incremental_blockers",
    "plan_formula",
    "plan_query",
    "SchemaInfo",
    "RULES",
    "ERROR",
    "WARNING",
    "INFO",
]
