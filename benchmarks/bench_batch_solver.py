"""E13 — vectorized batch kinetic solving (DESIGN.md §8).

On dense workloads nearly every instantiation needs a real solve, so the
scalar path pays the full python toll — motion decomposition, quadratic
or crossing solving, interval assembly — once per row.  The batch
backend submits all surviving rows of an atom as one numpy solve.  Two
scenarios scale a ``cars`` fleet to ``n = 100k``:

* ``proximity`` — ``DIST(c, v) <= 40`` against a two-van reference set
  (rows grow linearly in ``n``; one quadratic solve per row).
* ``region`` — ``INSIDE(c, P)`` against a 32-edge polygon, the
  edge-heavy shape where per-row scalar costs multiply (32 segment
  crossings per row) while the vectorized sweep grows only its array
  width.

The ``scalar`` mode is the per-row reference: a bench-local patch of
the column path's one hook (``IntervalEvaluator._column_rows``) takes no
row, so every row runs its scalar closure inline.  Both modes run with
``index_pruning`` off: E13 isolates the solver layer, and on these dense fleets the R-tree gate prunes almost nothing
while dominating wall time in *both* modes, which would only mask the
solver difference being measured.

Answers are asserted identical across modes, tuple for tuple, and solve
counts must match exactly — batching changes *how* the solves run, never
how many there are.  The acceptance bar (>=10x at identical solve counts
on a dense ``n >= 1k`` world) is asserted on the region scenario at
``n = 1000``; larger sizes are reported as scale curves.  Results are
registered as a table and written to ``BENCH_batch_solver.json`` at the
repo root.  Setting ``BATCH_SOLVER_SMOKE=1`` shrinks the sweep to a
seconds-long CI smoke run and skips the speedup assertions (tiny batches
don't amortise the numpy dispatch).
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path

from repro.core import FutureHistory, MostDatabase, ObjectClass
from repro.ftl import parse_query
from repro.ftl.context import DEFAULT, EvalContext
from repro.ftl.evaluator import IntervalEvaluator
from repro.geometry import Point
from repro.spatial import Polygon

SMOKE = os.environ.get("BATCH_SOLVER_SMOKE") == "1"

HORIZON = 24
SIZES = [64] if SMOKE else [64, 1_000, 10_000, 100_000]

SCENARIOS = {
    "proximity": "RETRIEVE c FROM cars c, vans v WHERE DIST(c, v) <= 40",
    "region": "RETRIEVE c FROM cars c WHERE INSIDE(c, P)",
}

RESULT_PATH = Path(__file__).parents[1] / "BENCH_batch_solver.json"

OPTIONS = replace(DEFAULT, index_pruning=False)
MODES = ("scalar", "batch")


@contextmanager
def scalar_rows():
    """While open, the column path takes no row: every row of every atom
    runs its scalar closure inline."""
    column_rows = IntervalEvaluator._column_rows
    IntervalEvaluator._column_rows = lambda self, f, free, todo, keyed: None
    try:
        yield
    finally:
        IntervalEvaluator._column_rows = column_rows


def build_world(n: int) -> MostDatabase:
    """A dense fleet: ``n`` cars in a ±50 box (inside the DIST bound of
    almost every van and straddling the region boundary), so the solver
    — scalar or batched — does the real work on every row."""
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.create_class(ObjectClass("vans", spatial_dimensions=2))
    db.define_region(
        "P",
        Polygon(
            [
                Point(
                    35 * math.cos(2 * math.pi * k / 32),
                    35 * math.sin(2 * math.pi * k / 32),
                )
                for k in range(32)
            ]
        ),
    )
    rng = random.Random(2026)
    for i in range(n):
        db.add_moving_object(
            "cars",
            f"c{i}",
            Point(rng.uniform(-50, 50), rng.uniform(-50, 50)),
            Point(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        )
    for i in range(2):
        db.add_moving_object(
            "vans",
            f"v{i}",
            Point(rng.uniform(-20, 20), rng.uniform(-20, 20)),
            Point(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        )
    return db


def run_mode(db, query, repeats: int, mode: str) -> dict:
    """Best-of-``repeats`` evaluation.  Without a validity stamp no
    solve is reused, so every repeat solves: this bench measures
    solving, not replay."""
    best = float("inf")
    counters = None
    relation = None
    for _ in range(repeats):
        ctx = EvalContext(FutureHistory(db), HORIZON, query.bindings)
        evaluator = IntervalEvaluator(ctx, options=OPTIONS)
        with scalar_rows() if mode == "scalar" else nullcontext():
            start = time.perf_counter()
            relation = evaluator.evaluate(query.where)
            best = min(best, time.perf_counter() - start)
        counters = evaluator.counters()
    out = {"wall_ms": best * 1e3, "relation": relation, **counters}
    out["solves_per_sec"] = counters["kinetic_solves"] / max(best, 1e-9)
    return out


def run_scenario(name: str, db, n: int) -> dict:
    query = parse_query(SCENARIOS[name])
    repeats = 2 if n <= 1_000 else 1
    key = lambda r: sorted(  # noqa: E731
        (inst, tuple((i.start, i.end) for i in iset.intervals))
        for inst, iset in r.rows()
    )
    results = {}
    baseline = None
    for mode in MODES:
        out = run_mode(db, query, repeats, mode)
        rows = key(out.pop("relation"))
        if baseline is None:
            baseline = rows
        else:
            assert rows == baseline, (
                f"{mode} changed the {name} answer at n={n}"
            )
        results[mode] = out
    scalar, batch = results["scalar"], results["batch"]
    assert batch["kinetic_solves"] == scalar["kinetic_solves"], (
        f"batching changed the {name} solve count at n={n}"
    )
    return {"scenario": name, "n": n, "rows": len(baseline), "modes": results}


def test_batch_solving_beats_scalar_on_dense_fleets(record_table):
    scenarios = []
    for n in SIZES:
        db = build_world(n)
        for name in SCENARIOS:
            scenarios.append(run_scenario(name, db, n))
    report: dict = {
        "benchmark": "batch_solver",
        "horizon": HORIZON,
        "smoke": SMOKE,
        "queries": SCENARIOS,
        "scenarios": scenarios,
    }
    rows = []
    for s in scenarios:
        sc = s["modes"]["scalar"]
        ba = s["modes"]["batch"]
        rows.append(
            [
                s["scenario"],
                s["n"],
                sc["kinetic_solves"],
                round(sc["wall_ms"], 1),
                round(ba["wall_ms"], 1),
                round(sc["solves_per_sec"]),
                round(ba["solves_per_sec"]),
                round(sc["wall_ms"] / max(ba["wall_ms"], 1e-9), 1),
            ]
        )
    record_table(
        "E13: batch kinetic solving "
        f"(dense fleet, horizon {HORIZON}, index gate off, no solve reuse; "
        "identical answers and solve counts both modes)",
        [
            "scenario",
            "n",
            "solves",
            "scalar ms",
            "batch ms",
            "scalar solves/s",
            "batch solves/s",
            "speedup x",
        ],
        rows,
    )
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    if SMOKE:
        return
    for s in scenarios:
        if s["n"] < 1_000:
            continue
        sc = s["modes"]["scalar"]
        ba = s["modes"]["batch"]
        # Batching never loses on a dense world of n >= 1k...
        assert ba["wall_ms"] <= sc["wall_ms"], s
        # ...and the acceptance bar — >=10x at identical solve counts —
        # is held on the edge-heavy region scenario at n = 1k.
        if s["scenario"] == "region" and s["n"] == 1_000:
            assert ba["wall_ms"] * 10 <= sc["wall_ms"], s
