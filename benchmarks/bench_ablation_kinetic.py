"""Ablation B — analytic kinetic solvers vs per-tick atom sampling.

The appendix base case assumes "a routine which ... gives us the intervals
during which the relation is satisfied."  Our implementation solves those
intervals in closed form for piecewise-linear motion; this ablation turns
the closed forms off (every atom falls back to per-tick evaluation) to
quantify their contribution to the interval algorithm's horizon-
independence.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.core import FutureHistory, MostDatabase
from repro.ftl import parse_query
from repro.ftl.context import DEFAULT, EvalContext
from repro.ftl.evaluator import IntervalEvaluator
from repro.spatial import Polygon
from repro.workloads import random_fleet

QUERY = (
    "RETRIEVE o, n FROM objects o, objects n "
    "WHERE DIST(o, n) <= 30 UNTIL (INSIDE(o, P) AND INSIDE(n, P))"
)
N_OBJECTS = 8


def build_db() -> MostDatabase:
    db = MostDatabase()
    random_fleet(db, N_OBJECTS, area=(0, 300), speed_range=(-4, 4), seed=5)
    db.define_region("P", Polygon.rectangle(50, 50, 250, 250))
    return db


def run(horizon: int, analytic: bool):
    db = build_db()
    query = parse_query(QUERY)
    ctx = EvalContext(FutureHistory(db), horizon, query.bindings)
    evaluator = IntervalEvaluator(
        ctx, options=replace(DEFAULT, analytic_atoms=analytic)
    )
    start = time.perf_counter()
    relation = evaluator.evaluate(query.where)
    elapsed = time.perf_counter() - start
    return relation, elapsed, evaluator.kinetic_solves, evaluator.sampled_atom_evals


def test_analytic_vs_sampled_atoms(benchmark, record_table):
    rows = []
    for horizon in (50, 100, 200):
        rel_a, t_a, solves, sampled_a = run(horizon, analytic=True)
        rel_s, t_s, _solves_s, sampled_s = run(horizon, analytic=False)
        # Both paths must produce the identical relation.
        assert dict(rel_a.rows()) == dict(rel_s.rows())
        rows.append(
            [
                horizon,
                solves,
                sampled_a,
                round(t_a * 1e3, 1),
                sampled_s,
                round(t_s * 1e3, 1),
                round(t_s / max(t_a, 1e-9), 1),
            ]
        )
    record_table(
        "Ablation B: interval algorithm with analytic kinetic atoms vs "
        f"per-tick sampled atoms ({N_OBJECTS} objects, pair query)",
        [
            "horizon",
            "kinetic solves",
            "sampled (analytic)",
            "analytic ms",
            "sampled evals",
            "sampled ms",
            "slowdown x",
        ],
        rows,
    )
    # Sampled-atom work grows linearly with the horizon; analytic doesn't.
    assert rows[-1][4] > rows[0][4] * 3
    assert rows[0][2] == 0  # fully analytic: nothing sampled

    benchmark(lambda: run(100, True))
