"""E11 — cost-based conjunct ordering: ordered vs syntactic plans.

The skewed workload is the classic join-ordering setup: a three-class
chain ``DIST(c, v) <= r AND DIST(v, w) <= r AND c.price <= cheap`` whose
syntactic order materialises the full ``|c| x |v| x |w|`` distance-join
intermediate before the highly selective price filter touches it.  The
cost-based orderer runs the price filter first, so every later join
probes a relation of a few rows instead of a few hundred.

A second scenario drives the filter's selectivity to zero (no car is
cheap enough): the ordered plan's empty-relation guard then skips the
distance atoms entirely.

Results are registered as a table and also written to
``BENCH_plan_order.json`` at the repo root (the perf-trajectory
artifact CI archives).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import replace
from pathlib import Path

from repro.core import FutureHistory, MostDatabase, ObjectClass
from repro.ftl import parse_query
from repro.ftl.context import DEFAULT
from repro.geometry import Point

HORIZON = 60
PER_CLASS = 24
CHEAP_CUTOFF = 10  # ~2 of PER_CLASS cars qualify
REPEATS = 3

QUERY = (
    "RETRIEVE c FROM cars c, vans v, wagons w "
    "WHERE DIST(c, v) <= 900 AND DIST(v, w) <= 900 AND c.price <= {cutoff}"
)

RESULT_PATH = Path(__file__).parents[1] / "BENCH_plan_order.json"


def build_world() -> MostDatabase:
    db = MostDatabase()
    db.create_class(
        ObjectClass("cars", static_attributes=("price",), spatial_dimensions=2)
    )
    db.create_class(ObjectClass("vans", spatial_dimensions=2))
    db.create_class(ObjectClass("wagons", spatial_dimensions=2))
    rng = random.Random(42)
    for cls in ("cars", "vans", "wagons"):
        for i in range(PER_CLASS):
            kwargs = {}
            if cls == "cars":
                # Skewed static attribute: price 1..PER_CLASS, so a
                # cutoff of CHEAP_CUTOFF% keeps only the cheapest few.
                kwargs["static"] = {"price": float(i * 100 / PER_CLASS)}
            db.add_moving_object(
                cls,
                f"{cls[0]}{i}",
                Point(rng.uniform(-100, 100), rng.uniform(-100, 100)),
                Point(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                **kwargs,
            )
    return db


def timed_eval(query, history, ordered: bool) -> tuple[float, object]:
    """Best-of-REPEATS wall time of a full evaluation."""
    best = float("inf")
    relation = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        relation = query.evaluate_full(
            history,
            HORIZON,
            method="interval",
            options=replace(DEFAULT, ordered=ordered),
        )
        best = min(best, time.perf_counter() - start)
    return best, relation


def run_scenario(cutoff: float) -> dict:
    db = build_world()
    query = parse_query(QUERY.format(cutoff=cutoff))
    history = FutureHistory(db)
    t_syntactic, r_syntactic = timed_eval(query, history, ordered=False)
    t_ordered, r_ordered = timed_eval(query, history, ordered=True)
    key = lambda r: sorted(  # noqa: E731
        (inst, tuple((i.start, i.end) for i in iset.intervals))
        for inst, iset in r.rows()
    )
    assert key(r_ordered) == key(r_syntactic), "orderer changed the answer"
    plan = query.plan_for(history=history, horizon=HORIZON)
    return {
        "cutoff": cutoff,
        "rows": len(key(r_ordered)),
        "reordered": plan.reordered,
        "syntactic_ms": t_syntactic * 1e3,
        "ordered_ms": t_ordered * 1e3,
        "speedup": t_syntactic / max(t_ordered, 1e-9),
    }


def test_ordered_plans_beat_syntactic_order(record_table):
    skewed = run_scenario(CHEAP_CUTOFF)
    empty = run_scenario(-1.0)  # no car qualifies: empty-guard short-circuit
    rows = [
        [
            name,
            s["rows"],
            round(s["syntactic_ms"], 2),
            round(s["ordered_ms"], 2),
            round(s["speedup"], 1),
        ]
        for name, s in (("skewed filter", skewed), ("empty filter", empty))
    ]
    record_table(
        "E11: cost-based conjunct ordering on a 3-class distance chain "
        f"({PER_CLASS} objects/class, horizon {HORIZON}; best of "
        f"{REPEATS})",
        ["scenario", "answer rows", "syntactic ms", "ordered ms", "speedup x"],
        rows,
    )
    RESULT_PATH.write_text(
        json.dumps(
            {
                "benchmark": "plan_order",
                "per_class": PER_CLASS,
                "horizon": HORIZON,
                "scenarios": {"skewed": skewed, "empty": empty},
            },
            indent=2,
        )
        + "\n"
    )

    for scenario in (skewed, empty):
        assert scenario["reordered"], "orderer left the skewed plan alone"
    # The measurable win the plan layer exists for: running the selective
    # price filter first must beat the syntactic join-first order...
    assert skewed["ordered_ms"] < skewed["syntactic_ms"] * 0.8, skewed
    # ...and an empty filter must short-circuit the distance joins.
    assert empty["rows"] == 0
    assert empty["ordered_ms"] < empty["syntactic_ms"] * 0.5, empty
