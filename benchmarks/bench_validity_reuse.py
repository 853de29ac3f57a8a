"""E15 — temporal-validity horizons on a slow-changing fleet.

The validity analyzer (DESIGN.md §11) stamps every continuous query with
a per-node horizon: as long as no motion event lands inside the query's
remaining window, covered updates that re-announce the *same* trajectory
(heartbeats — the overwhelming majority of traffic from well-behaved
reporters) are provably answer-preserving and are dropped by the
database's update router without dirtying the query.  ``skipped``
counts commits: one per heartbeat, whatever the number of axes.

This benchmark drives an identical update stream — per-epoch exact
re-anchor heartbeats for every vehicle, plus a rare genuinely new motion
vector — through two continuous queries on twin databases: one with the
horizon gate (the default) and one built with
``validity_horizons`` off.  All values are dyadic so heartbeat
re-anchoring is float-exact.  Answers are asserted identical epoch for
epoch; the table reports evaluations, skips, rows read from the store
of solved atom rows (``shared_rows``) and refresh wall time.

The second table is the "Settled" window-shift scenario: four
``interval`` continuous queries over a slow 300-car fleet, 40 epochs
with three real motion changes each, seeds 1–3.  Every epoch re-
evaluates every query: a row the index decided for a car that did not
change is read from the store instead of being partitioned again, and
every other row is solved, since a kernel solve answers only the
window it was solved over and the four windows end apart.  It reports
the rows read and the solves per run and the median wall time of an
epoch (tick, changes and the four refreshes), with answers held to the
validity-off twin epoch for epoch.

Results land in ``BENCH_validity_reuse.json`` at the repo root (archived
by CI), with the fingerprint of the host that ran them.
``VALIDITY_SMOKE=1`` shrinks the sweep to a seconds-long CI run and
relaxes the >=5x refresh-cost assertion (tiny epoch counts don't
amortise the initial evaluation).
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from dataclasses import replace
from pathlib import Path

from repro.core import ContinuousQuery, MostDatabase, ObjectClass
from repro.ftl import parse_query
from repro.ftl.context import DEFAULT
from repro.geometry import Point
from repro.spatial import Polygon

from bench_atom_pruning import host_fingerprint

SMOKE = os.environ.get("VALIDITY_SMOKE") == "1"

EPOCHS = 10 if SMOKE else 40
SIZES = [8] if SMOKE else [16, 48]
CHANGE_EVERY = 5 if SMOKE else 10  # one real motion change per this many epochs
HORIZON_SLACK = 8  # query window outlives the drive loop

QUERY = "RETRIEVE o FROM cars o WHERE EVENTUALLY WITHIN 8 INSIDE(o, P)"

RESULT_PATH = Path(__file__).parents[1] / "BENCH_validity_reuse.json"

# Dyadic velocities: value_at re-anchoring stays float-exact, so a
# heartbeat is bit-identical to the trajectory it re-announces.
VELOCITIES = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


def build_world(n: int) -> MostDatabase:
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(-10, -10, 10, 10))
    rng = random.Random(99)
    for i in range(n):
        db.add_moving_object(
            "cars",
            f"c{i}",
            Point(rng.randrange(-32, 32) / 2.0, rng.randrange(-32, 32) / 2.0),
            Point(rng.choice(VELOCITIES), rng.choice(VELOCITIES)),
        )
    return db


def heartbeat(db: MostDatabase, oid: str) -> None:
    """Re-announce the object's exact current motion law."""
    obj = db.get(oid)
    now = db.clock.now
    x = obj.dynamic_attribute("x_position")
    y = obj.dynamic_attribute("y_position")
    db.update_motion(
        oid,
        Point(x.function.value(1.0), y.function.value(1.0)),
        position=Point(x.value_at(now), y.value_at(now)),
    )


def drive(n: int, validity: bool) -> dict:
    """One full run: returns per-epoch answers plus the cost counters."""
    db = build_world(n)
    cq = ContinuousQuery(
        db,
        parse_query(QUERY),
        horizon=EPOCHS + HORIZON_SLACK,
        options=replace(DEFAULT, validity_horizons=validity),
    )
    rng = random.Random(7)  # same stream for both runs
    answers = [cq.current()]
    refresh_s = 0.0
    for epoch in range(EPOCHS):
        db.clock.tick()
        for i in range(n):
            heartbeat(db, f"c{i}")
        if epoch % CHANGE_EVERY == CHANGE_EVERY - 1:
            db.update_motion(
                f"c{rng.randrange(n)}",
                Point(rng.choice(VELOCITIES), rng.choice(VELOCITIES)),
            )
        start = time.perf_counter()
        cq.refresh()
        answers.append(cq.current())
        refresh_s += time.perf_counter() - start
    out = {
        "answers": answers,
        "evaluations": cq.evaluations,
        "horizon_skipped": cq.horizon_skipped,
        "shared_rows": cq.shared_rows,
        "refresh_ms": refresh_s * 1e3,
    }
    cq.cancel()
    return out


#: The Settled scenario: four ``interval`` queries (text, horizon) over a
#: slow fleet, a few real motion changes per epoch.
SETTLED_CARS = 60 if SMOKE else 300
SETTLED_EPOCHS = 6 if SMOKE else 40
SETTLED_CHANGES = 3
SETTLED_SEEDS = (1,) if SMOKE else (1, 2, 3)
SETTLED_QUERIES = (
    ("RETRIEVE o FROM cars o WHERE INSIDE(o, P)", 60),
    ("RETRIEVE o FROM cars o WHERE EVENTUALLY WITHIN 10 INSIDE(o, P)", 55),
    ("RETRIEVE o FROM cars o WHERE OUTSIDE(o, Q)", 50),
    ("RETRIEVE o FROM cars o WHERE INSIDE(o, P) AND OUTSIDE(o, Q)", 45),
)
#: Slow dyadic speeds: most cars stay on one side of a region's edge.
SLOW = (-0.5, -0.25, 0.25, 0.5)


def settled_world(seed: int) -> MostDatabase:
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(-20, -20, 20, 20))
    db.define_region("Q", Polygon.rectangle(0, -40, 40, 0))
    rng = random.Random(seed)
    for i in range(SETTLED_CARS):
        db.add_moving_object(
            "cars",
            f"c{i}",
            Point(rng.randrange(-120, 120) / 2.0, rng.randrange(-120, 120) / 2.0),
            Point(rng.choice(SLOW), rng.choice(SLOW)),
        )
    return db


def settled(seed: int, validity: bool) -> dict:
    """One Settled run: per-epoch answers, the rows read from the store,
    the solves and the median epoch wall time."""
    db = settled_world(seed)
    options = replace(DEFAULT, validity_horizons=validity)
    queries = [
        ContinuousQuery(db, parse_query(text), horizon=h, options=options)
        for text, h in SETTLED_QUERIES
    ]
    rng = random.Random(100 + seed)
    answers = []
    walls = []
    for _epoch in range(SETTLED_EPOCHS):
        start = time.perf_counter()
        db.clock.tick()
        for _ in range(SETTLED_CHANGES):
            db.update_motion(
                f"c{rng.randrange(SETTLED_CARS)}",
                Point(rng.choice(SLOW), rng.choice(SLOW)),
            )
        for cq in queries:
            cq.refresh()
        walls.append(time.perf_counter() - start)
        answers.append([cq.current() for cq in queries])
    out = {
        "answers": answers,
        "shared_rows": sum(cq.shared_rows for cq in queries),
        "kinetic_solves": sum(cq.kinetic_solves for cq in queries),
        "epoch_ms_median": statistics.median(walls) * 1e3,
    }
    for cq in queries:
        cq.cancel()
    return out


def test_validity_reuse_cuts_refresh_cost(record_table):
    report: dict = {
        "benchmark": "validity_reuse",
        "host": host_fingerprint(),
        "epochs": EPOCHS,
        "change_every": CHANGE_EVERY,
        "smoke": SMOKE,
        "query": QUERY,
        "fleets": [],
    }
    rows = []
    for n in SIZES:
        stamped = drive(n, validity=True)
        plain = drive(n, validity=False)
        assert stamped.pop("answers") == plain.pop("answers"), (
            f"horizon gating changed an answer at n={n}"
        )
        report["fleets"].append({"n": n, "stamped": stamped, "plain": plain})
        rows.append(
            [
                n,
                plain["evaluations"],
                stamped["evaluations"],
                stamped["horizon_skipped"],
                stamped["shared_rows"],
                round(plain["refresh_ms"], 2),
                round(stamped["refresh_ms"], 2),
                round(
                    plain["refresh_ms"] / max(stamped["refresh_ms"], 1e-9), 1
                ),
            ]
        )
    record_table(
        "E15: temporal-validity reuse on a slow-changing fleet "
        f"({EPOCHS} epochs, heartbeats every epoch, one real motion "
        f"change per {CHANGE_EVERY})",
        [
            "n",
            "evals plain",
            "evals stamped",
            "skipped",
            "rows read",
            "plain ms",
            "stamped ms",
            "speedup x",
        ],
        rows,
    )
    report["settled"] = {
        "cars": SETTLED_CARS,
        "epochs": SETTLED_EPOCHS,
        "changes_per_epoch": SETTLED_CHANGES,
        "queries": [list(q) for q in SETTLED_QUERIES],
        "runs": [],
    }
    settled_rows = []
    for seed in SETTLED_SEEDS:
        shared = settled(seed, validity=True)
        plain = settled(seed, validity=False)
        assert shared.pop("answers") == plain.pop("answers"), (
            f"the store changed an answer at seed {seed}"
        )
        report["settled"]["runs"].append(
            {"seed": seed, "shared": shared, "plain": plain}
        )
        settled_rows.append(
            [
                seed,
                shared["shared_rows"],
                shared["kinetic_solves"],
                plain["kinetic_solves"],
                round(shared["epoch_ms_median"], 2),
                round(plain["epoch_ms_median"], 2),
            ]
        )
    record_table(
        "E15b: the Settled window-shift scenario "
        f"({len(SETTLED_QUERIES)} interval queries, {SETTLED_CARS} cars, "
        f"{SETTLED_EPOCHS} epochs, {SETTLED_CHANGES} real changes each)",
        [
            "seed",
            "rows read",
            "solves",
            "solves off",
            "ms/epoch",
            "ms/epoch off",
        ],
        settled_rows,
    )
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    for run in report["settled"]["runs"]:
        # The store is read on every epoch (the index's verdicts: each
        # query's window ends elsewhere, so no query reads another's
        # kernel solve, and a solve answers no later tick).
        assert run["shared"]["shared_rows"] > 0, run
        assert run["plain"]["shared_rows"] == 0, run

    for fleet in report["fleets"]:
        stamped, plain = fleet["stamped"], fleet["plain"]
        # The gate must actually fire, and can only ever reduce work.
        assert stamped["horizon_skipped"] > 0, fleet
        assert stamped["evaluations"] <= plain["evaluations"], fleet
        assert plain["horizon_skipped"] == 0, fleet
    if SMOKE:
        return
    # The acceptance bar: on the largest fleet the stamped query
    # re-evaluates >=5x less often, and refresh wall time drops >=5x.
    top = report["fleets"][-1]
    assert top["plain"]["evaluations"] >= 5 * top["stamped"]["evaluations"], top
    assert (
        top["plain"]["refresh_ms"] >= 5 * top["stamped"]["refresh_ms"]
    ), top
