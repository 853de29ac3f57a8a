"""EXPLAIN for FTL queries: print the cost-annotated evaluation plan.

Usage::

    python -m repro.ftl.explain [--json] [--no-order] [--expand]
        [--class-size N] [--horizon N] query-file [query-file ...]

For each file (one ``RETRIEVE ... FROM ... WHERE ...`` query; ``--``
comment lines ignored) the query is parsed, statically analyzed, lowered
to the evaluation-plan IR of :mod:`repro.ftl.analysis.plan`, and the
annotated operator tree is printed — per node: the operator kind, the
evaluator routine that implements it, free variables, and the static
cardinality/cost bounds.  ``[reordered]`` marks nodes whose operand
order the cost-based orderer changed; ``[shared]`` marks hash-consed
subformulas evaluated once and cached.

``--no-order`` shows the plan in syntactic order (for before/after
comparison), ``--expand`` first rewrites derived temporal operators into
Until/Nexttime form (section 3.3), and ``--class-size``/``--horizon``
set the schema-less cost model's population and horizon assumptions.

Exit status is 1 when any file fails to parse or has error-severity
diagnostics (no plan can be built), else 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.errors import FtlSemanticsError, FtlSyntaxError
from repro.ftl.analysis.cost import CostModel
from repro.ftl.ast import Attr, Formula, Inside, Outside, Term
from repro.ftl.lint import strip_comments
from repro.ftl.parser import parse_query
from repro.ftl.query import FtlQuery


def _referenced(where: Formula) -> tuple[set[str], set[str]]:
    """Region names and attribute names the condition mentions (drives
    the synthetic schema of ``--execute``)."""
    regions: set[str] = set()
    attrs: set[str] = set()
    stack: list[object] = [where]
    while stack:
        node = stack.pop()
        if isinstance(node, (Inside, Outside)):
            regions.add(node.region)
        if isinstance(node, Attr):
            attrs.add(node.attr)
        if dataclasses.is_dataclass(node):
            for f in dataclasses.fields(node):
                value = getattr(node, f.name)
                values = value if isinstance(value, tuple) else (value,)
                stack.extend(
                    v for v in values if isinstance(v, (Formula, Term))
                )
    return regions, attrs


def execute_query(
    query: FtlQuery, objects_per_class: int, horizon: int
) -> dict:
    """Evaluate the query on a synthetic seeded fleet and report the
    live atom-acceleration counters (the runtime counterpart of the
    plan's static ``atom_acceleration`` estimate)."""
    import random

    from repro.core.database import MostDatabase
    from repro.core.dynamic import DynamicAttribute
    from repro.core.history import FutureHistory
    from repro.core.objects import ObjectClass
    from repro.ftl.context import EvalContext
    from repro.ftl.evaluator import IntervalEvaluator
    from repro.geometry import Point
    from repro.spatial.polygon import Polygon

    regions, attrs = _referenced(query.where)
    # Spatial classes already carry their position attributes.
    attrs -= {"x_position", "y_position", "z_position"}
    rng = random.Random(0)
    db = MostDatabase()
    for cls_name in sorted(set(query.bindings.values())):
        db.create_class(
            ObjectClass(
                cls_name,
                dynamic_attributes=tuple(sorted(attrs)),
                spatial_dimensions=2,
            )
        )
        for i in range(objects_per_class):
            extra = {
                a: DynamicAttribute.linear(
                    rng.uniform(0.0, 100.0), rng.uniform(-2.0, 2.0)
                )
                for a in sorted(attrs)
            }
            db.add_moving_object(
                cls_name,
                f"{cls_name}-{i}",
                Point(rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0)),
                Point(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
                dynamic_extra=extra,
            )
    for name in sorted(regions):
        db.define_region(name, Polygon.rectangle(-25.0, -25.0, 25.0, 25.0))
    history = FutureHistory(db)
    plan = query.plan_for(history=history, horizon=horizon)
    ctx = EvalContext(history, horizon, query.bindings)
    evaluator = IntervalEvaluator(ctx, plan=plan)
    evaluator.evaluate(query.where)
    return {
        "objects_per_class": objects_per_class,
        "horizon": horizon,
        "counters": evaluator.counters(),
    }


def explain_query(
    query: FtlQuery,
    order: bool = True,
    expand: bool = False,
    model: CostModel | None = None,
) -> dict:
    """Build the JSON explain report for one parsed query."""
    if expand:
        from repro.ftl.rewrite import expand as expand_formula

        query = FtlQuery(
            targets=query.targets,
            bindings=query.bindings,
            where=expand_formula(query.where),
        )
    analysis = query.analyze()
    report: dict = {
        "ok": analysis.ok,
        "targets": list(query.targets),
        "bindings": dict(query.bindings),
        "diagnostics": [d.to_json() for d in analysis.diagnostics],
    }
    if not analysis.ok:
        return report
    try:
        plan = query.plan_for(order=order, model=model)
    except FtlSemanticsError as exc:
        report["ok"] = False
        report["diagnostics"].append(
            {"code": "plan", "severity": "error", "message": str(exc)}
        )
        return report
    report["plan"] = plan.to_json()
    report["_render"] = plan.render()
    return report


def explain_file(
    path: str,
    order: bool = True,
    expand: bool = False,
    model: CostModel | None = None,
) -> dict:
    """Explain one query file; returns its JSON report."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return {
            "file": path,
            "ok": False,
            "diagnostics": [
                {"code": "syntax", "severity": "error", "message": str(exc)}
            ],
        }
    try:
        query = parse_query(strip_comments(text))
    except (FtlSyntaxError, FtlSemanticsError) as exc:
        return {
            "file": path,
            "ok": False,
            "diagnostics": [
                {"code": "syntax", "severity": "error", "message": str(exc)}
            ],
        }
    report = explain_query(query, order=order, expand=expand, model=model)
    report["file"] = path
    return report


def _print_human(report: dict) -> None:
    print(f"== {report['file']} ==")
    if not report["ok"]:
        for diag in report["diagnostics"]:
            print(f"  error[{diag['code']}]: {diag['message']}")
        return
    bindings = ", ".join(
        f"{cls} {var}" for var, cls in report["bindings"].items()
    )
    print(f"RETRIEVE {', '.join(report['targets'])} FROM {bindings}")
    plan = report["plan"]
    total = plan["total"]
    print(
        f"plan: ~{total['tuples']:g} rows, cost {total['cost']:g}"
        + (", reordered" if plan["reordered"] else "")
        + (
            f", {plan['shared_subformulas']} shared subformula(s)"
            if plan["shared_subformulas"]
            else ""
        )
    )
    accel = plan.get("atom_acceleration")
    if accel is not None:
        print(
            f"atoms: ~{accel['estimated_solves']:g} kinetic solve(s), "
            f"index pruning {'on' if accel['index_pruning'] else 'off'}"
        )
    deps = plan.get("dependencies")
    if deps is not None:
        parts = []
        for cls, info in deps["by_class"].items():
            reads = ", ".join(info["reads"]) or "nothing"
            part = f"{cls} reads {reads}"
            if info["insensitive_to"]:
                part += (
                    f" (insensitive to {', '.join(info['insensitive_to'])})"
                )
            parts.append(part)
        if parts:
            print("deps: " + "; ".join(parts))
    validity = plan.get("validity")
    if validity is not None:
        from repro.ftl.lint import horizon_phrase

        print("validity: " + horizon_phrase(validity["root"]))
    print(report["_render"])
    execution = report.get("execution")
    if execution is not None:
        if "error" in execution:
            print(f"executed: failed ({execution['error']})")
        else:
            c = execution["counters"]
            print(
                f"executed on {execution['objects_per_class']} objects/"
                f"class: {c['kinetic_solves']} solve(s), "
                f"{c['pruned_instantiations']} pruned"
            )
    for diag in plan["diagnostics"]:
        print(f"  {diag['severity']}[{diag['code']}]: {diag['message']}")
    deps_diags = (plan.get("dependencies") or {}).get("diagnostics", [])
    for diag in deps_diags:
        print(f"  {diag['severity']}[{diag['code']}]: {diag['message']}")
    validity_diags = (plan.get("validity") or {}).get("diagnostics", [])
    for diag in validity_diags:
        print(f"  {diag['severity']}[{diag['code']}]: {diag['message']}")


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.ftl.explain",
        description="Print the cost-annotated evaluation plan of FTL "
        "query files.",
    )
    parser.add_argument("files", nargs="+", help="FTL query files")
    parser.add_argument(
        "--json", action="store_true", help="emit one JSON report per file"
    )
    parser.add_argument(
        "--no-order",
        action="store_true",
        help="keep the syntactic operand order (skip the cost-based "
        "orderer)",
    )
    parser.add_argument(
        "--expand",
        action="store_true",
        help="rewrite derived temporal operators into Until/Nexttime "
        "form before planning",
    )
    parser.add_argument(
        "--class-size",
        type=int,
        default=None,
        metavar="N",
        help="assumed population per object class (default 8)",
    )
    parser.add_argument(
        "--horizon",
        type=int,
        default=None,
        metavar="N",
        help="assumed evaluation horizon in ticks (default 32)",
    )
    parser.add_argument(
        "--execute",
        type=int,
        default=None,
        metavar="N",
        help="additionally evaluate each query on a synthetic seeded "
        "fleet of N objects per class and report the live "
        "kinetic_solves / pruned_instantiations counters",
    )
    opts = parser.parse_args(argv)

    model = None
    if opts.class_size is not None or opts.horizon is not None:
        kwargs: dict = {}
        if opts.class_size is not None:
            kwargs["default_class_size"] = max(1, opts.class_size)
        if opts.horizon is not None:
            kwargs["horizon"] = max(0, opts.horizon)
        model = CostModel(**kwargs)

    status = 0
    reports = []
    for path in opts.files:
        report = explain_file(
            path, order=not opts.no_order, expand=opts.expand, model=model
        )
        if opts.execute is not None and report["ok"]:
            horizon = opts.horizon if opts.horizon is not None else 32
            try:
                with open(path, encoding="utf-8") as fh:
                    query = parse_query(strip_comments(fh.read()))
                report["execution"] = execute_query(
                    query, max(1, opts.execute), max(0, horizon)
                )
            except Exception as exc:  # synthetic world may not fit the query
                report["execution"] = {"error": str(exc)}
        reports.append(report)
        if not report["ok"]:
            status = 1

    if opts.json:
        for report in reports:
            report.pop("_render", None)
        print(json.dumps(reports, indent=2))
        return status

    for i, report in enumerate(reports):
        if i:
            print()
        _print_human(report)
    return status


if __name__ == "__main__":
    sys.exit(main())
