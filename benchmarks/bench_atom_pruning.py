"""E12 — index-pruned atoms and stamped solve reuse.

The atom base case is where the interval evaluator spends its time on
proximity workloads: ``O(n^2)`` closed-form solves for ``DIST``/
``WITHIN_SPHERE`` atoms, one per instantiation.  This benchmark measures
the two acceleration layers of DESIGN.md §7 on two fleet shapes:

* **sparse** — objects spread over ±2000 with a small region and small
  proximity radius, so almost every instantiation is prunable (the
  regime the trajectory-MBR table exists for);
* **clustered** — the same population packed into ±100, where pruning
  can discard little and the overhead of building the trajectory index
  must stay negligible.

and three query shapes: ``cars × vans`` of n each (scenarios ``sparse``
and ``clustered``), a large×small pair ``cars × depots`` of n cars
against 4 depots (``depots …``, the shape of the e2e ``cold_eval``
proximity queries), and a self-join ``cars × cars`` gated by both
``DIST`` and ``WITHIN_SPHERE`` (``self …``), where each atom's pair join
runs a table against itself.

Three modes per scenario: ``exhaustive`` (index pruning off),
``pruned`` (the default options: a cold evaluation, which reuses no
solve) and ``pruned+cached`` (the default options under a validity
stamp on every atom, re-evaluated over a warm solve table — what a
continuous query's refresh does).  Kinetic-solve counts come from the
evaluator's own counters; answers are asserted identical across modes,
tuple for tuple.
The trajectory-MBR tables belong to the database version; every repeat
drops them (``db.mbr_tables.clear()``), so every pruning wall includes
one table build — as a refresh after an update, which is a new version,
does.

Results are registered as a table and written to
``BENCH_atom_pruning.json`` at the repo root (archived by CI next to
``BENCH_plan_order.json``) with the fingerprint of the host that ran
it.  Setting ``ATOM_PRUNING_SMOKE=1`` shrinks the sweep to a
seconds-long CI smoke run and skips the speedup assertions (tiny sizes
don't amortise the index build).
"""

from __future__ import annotations

import json
import os
import platform
import random
import time
from dataclasses import replace
from pathlib import Path

from repro.core import FutureHistory, MostDatabase, ObjectClass
from repro.ftl import parse_query
from repro.ftl.context import DEFAULT, EvalContext
from repro.ftl.evaluator import IntervalEvaluator
from repro.geometry import Point
from repro.spatial import Polygon
from tests.ftl.test_atom_pruning import STAMP_ALL

SMOKE = os.environ.get("ATOM_PRUNING_SMOKE") == "1"

HORIZON = 24 if SMOKE else 60
REPEATS = 1 if SMOKE else 3

QUERY = (
    "RETRIEVE c FROM cars c, vans v "
    "WHERE DIST(c, v) <= 5 AND EVENTUALLY INSIDE(c, P)"
)

#: Scenario prefix -> (query, partner class (``None``: a self-join),
#: partner count (``None``: n), cars per sweep point).
SHAPES = {
    "": (QUERY, "vans", None, [8] if SMOKE else [16, 32, 64]),
    "depots ": (
        "RETRIEVE c FROM cars c, depots d WHERE DIST(c, d) <= 5",
        "depots",
        4,
        [16] if SMOKE else [64, 256, 1024],
    ),
    "self ": (
        "RETRIEVE a FROM cars a, cars b "
        "WHERE DIST(a, b) <= 5 AND EVENTUALLY WITHIN_SPHERE(5, a, b)",
        None,
        0,
        [8] if SMOKE else [32, 96, 256],
    ),
}

RESULT_PATH = Path(__file__).parents[1] / "BENCH_atom_pruning.json"


#: Mode -> (options, validity stamps or None).
MODES = {
    "exhaustive": (replace(DEFAULT, index_pruning=False), None),
    "pruned": (DEFAULT, None),
    "pruned+cached": (DEFAULT, STAMP_ALL),
}


def host_fingerprint() -> dict:
    """What the numbers below were measured on."""
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
    }


def build_world(
    n: int, spread: float, partner: str | None = "vans", partners: int | None = None
) -> MostDatabase:
    """n cars and ``partners`` (default n) members of ``partner`` (none
    for a self-join) spread over ±``spread``."""
    db = MostDatabase()
    counts = {"cars": n}
    if partner is not None:
        counts[partner] = n if partners is None else partners
    for cls in counts:
        db.create_class(ObjectClass(cls, spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(-10, -10, 10, 10))
    rng = random.Random(2025)
    for cls, count in counts.items():
        for i in range(count):
            db.add_moving_object(
                cls,
                f"{cls[0]}{i}",
                Point(rng.uniform(-spread, spread), rng.uniform(-spread, spread)),
                Point(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            )
    # Guaranteed survivors so every mode does some real solving.
    db.add_moving_object("cars", "c_near", Point(-3, 0), Point(1, 0))
    if partner is None:
        db.add_moving_object("cars", "c_near2", Point(-2, 1), Point(1, 0))
    else:
        db.add_moving_object(partner, f"{partner[0]}_near", Point(-2, 1), Point(1, 0))
    return db


def run_mode(db, query, plan, options, validity) -> dict:
    """Best-of-REPEATS evaluation through a bare IntervalEvaluator (the
    evaluator owns the counters the table reports).

    Every repeat rebuilds the trajectory-MBR tables.  Unstamped modes
    never touch the solve table, so every repeat solves.  The stamped
    mode empties it and fills it with one untimed evaluation first, so
    every timed repeat is a stamped re-evaluation over a warm table —
    the regime a continuous query's refreshes live in."""
    db.kinetic_cache.clear()
    if validity is not None:
        ctx = EvalContext(FutureHistory(db), HORIZON, query.bindings)
        IntervalEvaluator(
            ctx, plan=plan, options=options, validity=validity
        ).evaluate(query.where)
    best = float("inf")
    counters = None
    relation = None
    for _ in range(REPEATS):
        db.mbr_tables.clear()
        ctx = EvalContext(FutureHistory(db), HORIZON, query.bindings)
        evaluator = IntervalEvaluator(
            ctx, plan=plan, options=options, validity=validity
        )
        start = time.perf_counter()
        relation = evaluator.evaluate(query.where)
        best = min(best, time.perf_counter() - start)
        counters = evaluator.counters()
    return {"wall_ms": best * 1e3, "relation": relation, **counters}


def run_scenario(
    n: int,
    spread: float,
    query_text: str = QUERY,
    partner: str | None = "vans",
    partners: int | None = None,
) -> dict:
    db = build_world(n, spread, partner, partners)
    query = parse_query(query_text)
    plan = query.plan_for(history=FutureHistory(db), horizon=HORIZON)
    key = lambda r: sorted(  # noqa: E731
        (inst, tuple((i.start, i.end) for i in iset.intervals))
        for inst, iset in r.rows()
    )
    results = {}
    baseline = None
    for mode, (options, validity) in MODES.items():
        out = run_mode(db, query, plan, options, validity)
        rows = key(out.pop("relation"))
        if baseline is None:
            baseline = rows
        else:
            assert rows == baseline, f"{mode} changed the answer at n={n}"
        results[mode] = out
    return {"n": n, "rows": len(baseline), "modes": results}


def test_index_pruning_cuts_solves_and_wall_time(record_table):
    scenarios = {"sparse": 2000.0, "clustered": 100.0}
    report: dict = {
        "benchmark": "atom_pruning",
        "host": host_fingerprint(),
        "horizon": HORIZON,
        "smoke": SMOKE,
        "query": QUERY,
        "queries": {},
        "scenarios": {},
    }
    rows = []
    for shape, (text, partner, partners, sizes) in SHAPES.items():
        report["queries"][shape.strip() or "vans"] = text
        for fleet, spread in scenarios.items():
            name = shape + fleet
            report["scenarios"][name] = [
                run_scenario(n, spread, text, partner, partners) for n in sizes
            ]
    for name, sweeps in report["scenarios"].items():
        for s in sweeps:
            ex = s["modes"]["exhaustive"]
            pr = s["modes"]["pruned"]
            pc = s["modes"]["pruned+cached"]
            rows.append(
                [
                    name,
                    s["n"],
                    ex["kinetic_solves"],
                    pr["kinetic_solves"],
                    pc["kinetic_solves"],
                    pc["pruned_instantiations"],
                    round(ex["wall_ms"], 2),
                    round(pc["wall_ms"], 2),
                    round(ex["wall_ms"] / max(pc["wall_ms"], 1e-9), 1),
                ]
            )
    record_table(
        "E12: index-pruned atom evaluation "
        f"(horizon {HORIZON}; best of {REPEATS}; solves = "
        "closed-form kinetic solver calls)",
        [
            "fleet",
            "cars",
            "solves exh.",
            "solves pruned",
            "solves stamped",
            "pruned insts",
            "exh. ms",
            "accel ms",
            "speedup x",
        ],
        rows,
    )
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    # Pruning must never *increase* solve counts, anywhere.
    for name, sweeps in report["scenarios"].items():
        for s in sweeps:
            ex = s["modes"]["exhaustive"]
            pr = s["modes"]["pruned"]
            pc = s["modes"]["pruned+cached"]
            assert pr["kinetic_solves"] <= ex["kinetic_solves"], (name, s)
            assert pc["kinetic_solves"] <= pr["kinetic_solves"], (name, s)
            assert pr["pruned_instantiations"] > 0, (name, s)
            # The stamped re-evaluation answers its surviving rows from
            # the table.
            assert pc["cache_hits"] > 0 or not pr["kinetic_solves"], (name, s)
    if SMOKE:
        return
    # The acceptance bar: on the sparse fleet at the largest size, >=5x
    # fewer kinetic solves and >=2x faster wall time than exhaustive.
    top = report["scenarios"]["sparse"][-1]
    ex = top["modes"]["exhaustive"]
    pc = top["modes"]["pruned+cached"]
    assert ex["kinetic_solves"] >= 5 * max(pc["kinetic_solves"], 1), top
    assert pc["wall_ms"] * 2 <= ex["wall_ms"], top
