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
epoch; the table reports evaluations, skips, stamped solve reuses
(``db.kinetic_cache.hits``, every one a window-shift or equal-window
reuse under a validity stamp) and refresh wall time.

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
        "cache_hits": db.kinetic_cache.hits,
        "refresh_ms": refresh_s * 1e3,
    }
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
                stamped["cache_hits"],
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
            "solve reuses",
            "plain ms",
            "stamped ms",
            "speedup x",
        ],
        rows,
    )
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")

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
