"""FTL — Future Temporal Logic (section 3 of the paper).

The query language of the MOST model: temporal formulas over database
histories, with ``Until`` / ``Nexttime`` as the basic operators, derived
``Eventually`` / ``Always``, the bounded real-time operators of section
3.4, and the assignment quantifier.

Two evaluators are provided:

* :class:`~repro.ftl.evaluator.IntervalEvaluator` — the appendix
  algorithm: bottom-up interval relations, chain-merging ``Until`` join.
* :class:`~repro.ftl.naive.NaiveEvaluator` — the literal per-state
  semantics of section 3.3, used as the correctness oracle and for
  persistent queries over recorded histories.

Before either evaluator runs, the static analyzer
(:mod:`repro.ftl.analysis`) checks scope, sorts, safety, the temporal
fragment and lints, producing span-carrying diagnostics;
:class:`~repro.ftl.query.QueryCompiler` bundles parse + analyze +
plan, and ``python -m repro.ftl.lint`` exposes the analyzer on the
command line.  Evaluation goes through a cost-annotated plan
(:mod:`repro.ftl.analysis.plan`) whose orderer runs cheap, selective
conjuncts first; ``python -m repro.ftl.explain`` prints the plan tree.
"""

from repro.ftl.ast import (
    Always,
    AlwaysFor,
    AndF,
    Arith,
    Assign,
    Attr,
    Compare,
    Const,
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
    SubAttr,
    Term,
    TimeTerm,
    Until,
    UntilWithin,
    Var,
    WithinSphere,
)
from repro.ftl.analysis import (
    AnalysisResult,
    CostEstimate,
    CostModel,
    Diagnostic,
    EvalPlan,
    FragmentInfo,
    PlanNode,
    analyze_formula,
    analyze_query,
    drift_report,
    incremental_blockers,
    plan_formula,
    plan_query,
)
from repro.ftl.context import EvalContext, EvalOptions
from repro.ftl.evaluator import IntervalEvaluator
from repro.ftl.incremental import (
    PartialIntervalEvaluator,
    QueryCache,
    supports_incremental,
)
from repro.ftl.naive import NaiveEvaluator
from repro.ftl.lexer import Span
from repro.ftl.parser import parse_formula, parse_query
from repro.ftl.query import (
    CompiledQuery,
    FtlQuery,
    QueryCompiler,
    compile_query,
)
from repro.ftl.relations import AnswerTuple, FtlRelation
from repro.ftl.rewrite import (
    expand,
    quarantined_rules,
    uses_only_basic_operators,
)

__all__ = [
    "parse_query",
    "parse_formula",
    "expand",
    "quarantined_rules",
    "uses_only_basic_operators",
    "FtlQuery",
    "QueryCompiler",
    "CompiledQuery",
    "compile_query",
    "analyze_query",
    "analyze_formula",
    "AnalysisResult",
    "Diagnostic",
    "FragmentInfo",
    "incremental_blockers",
    # Plans & cost
    "EvalPlan",
    "PlanNode",
    "CostEstimate",
    "CostModel",
    "plan_formula",
    "plan_query",
    "drift_report",
    "Span",
    "FtlRelation",
    "AnswerTuple",
    "EvalContext",
    "EvalOptions",
    "IntervalEvaluator",
    "NaiveEvaluator",
    "PartialIntervalEvaluator",
    "QueryCache",
    "supports_incremental",
    # AST
    "Formula",
    "Term",
    "Var",
    "Const",
    "TimeTerm",
    "Attr",
    "SubAttr",
    "Arith",
    "Dist",
    "Compare",
    "Inside",
    "Outside",
    "WithinSphere",
    "AndF",
    "OrF",
    "NotF",
    "Until",
    "UntilWithin",
    "Nexttime",
    "Eventually",
    "EventuallyWithin",
    "EventuallyAfter",
    "Always",
    "AlwaysFor",
    "Assign",
]
