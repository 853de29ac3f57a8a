"""E10 — incremental continuous-query maintenance: per-update cost.

Section 2.3 requires ``Answer(CQ)`` be "reevaluated when an update occurs
that may change" it.  Full reevaluation makes each single-object update
cost O(population): every instantiation's satisfaction intervals are
recomputed even though only one object moved.  The incremental path
(``method="incremental"``) patches exactly the dirty instantiations, so
the per-update cost tracks the number of affected rows, not the fleet
size.

Measured here, per fleet size n:

* mean wall time per update refresh, full vs incremental;
* rows recomputed per refresh (the deterministic sublinearity witness:
  1 for the single-variable query regardless of n, vs n for full).
"""

from __future__ import annotations

import random
import time

from repro.core import ContinuousQuery, MostDatabase
from repro.ftl import parse_query
from repro.geometry import Point
from repro.spatial import Polygon
from repro.workloads import random_fleet

QUERY = "RETRIEVE o FROM objects o WHERE EVENTUALLY WITHIN 10 INSIDE(o, Z)"
HORIZON = 200
UPDATES = 12
SIZES = (100, 400, 1600)


def build_world(n: int) -> tuple[MostDatabase, list[object]]:
    db = MostDatabase()
    ids = random_fleet(db, n, area=(0.0, 1000.0), speed_range=(-5.0, 5.0), seed=7)
    db.define_region("Z", Polygon.rectangle(400.0, 400.0, 600.0, 600.0))
    return db, ids


def run(n: int, method: str) -> dict[str, float]:
    """Register the query, then time UPDATES single-object refreshes."""
    db, ids = build_world(n)
    rng = random.Random(n)
    cq = ContinuousQuery(db, parse_query(QUERY), horizon=HORIZON, method=method)
    elapsed = 0.0
    for _ in range(UPDATES):
        db.clock.tick()
        oid = rng.choice(ids)
        db.update_motion(
            oid, Point(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        )
        start = time.perf_counter()
        cq.refresh()  # maintenance cost only — no O(n) display scan
        elapsed += time.perf_counter() - start
    return {
        "ms_per_update": elapsed / UPDATES * 1e3,
        "evaluations": cq.evaluations,
        "full": cq.full_evaluations,
        "incremental": cq.incremental_refreshes,
        "rows_per_update": cq.rows_recomputed / UPDATES,
    }


def test_incremental_update_cost(record_table):
    results = {
        (n, method): run(n, method)
        for n in SIZES
        for method in ("interval", "incremental")
    }
    rows = []
    for n in SIZES:
        full = results[(n, "interval")]
        inc = results[(n, "incremental")]
        rows.append(
            [
                n,
                round(full["ms_per_update"], 2),
                round(inc["ms_per_update"], 2),
                round(full["ms_per_update"] / max(inc["ms_per_update"], 1e-9), 1),
                n,  # rows a full reevaluation recomputes
                inc["rows_per_update"],
            ]
        )
    record_table(
        "E10: per-update continuous-query maintenance, full reevaluation vs "
        f"incremental patching (horizon {HORIZON}, {UPDATES} single-object "
        "updates)",
        [
            "fleet n",
            "full ms/upd",
            "incr ms/upd",
            "speedup x",
            "full rows/upd",
            "incr rows/upd",
        ],
        rows,
    )

    for n in SIZES:
        inc = results[(n, "incremental")]
        # Every refresh went through the incremental path...
        assert inc["incremental"] == UPDATES
        assert inc["full"] == 1
        # ...and recomputed exactly the dirty instantiation (1 object per
        # update, single-variable query) — the sublinearity witness: work
        # per update is O(1) in the fleet size, not O(n).
        assert inc["rows_per_update"] == 1.0

    # Wall-clock corroboration, with generous margins against timer noise:
    # a 16x larger fleet must not cost anywhere near 16x per update...
    small = results[(SIZES[0], "incremental")]["ms_per_update"]
    large = results[(SIZES[-1], "incremental")]["ms_per_update"]
    assert large < small * 8 + 1.0
    # ...and at the largest size incremental must beat full reevaluation.
    assert (
        results[(SIZES[-1], "incremental")]["ms_per_update"]
        < results[(SIZES[-1], "interval")]["ms_per_update"]
    )


def test_incremental_join_update_cost(record_table):
    """Two-class join: dirty rows grow with the *other* class, not the
    whole cross product."""
    query = (
        "RETRIEVE c, m FROM cars c, motels m "
        "WHERE EVENTUALLY WITHIN 20 DIST(c, m) <= 25"
    )
    rows = []
    for n_cars in (20, 80, 320):
        db = MostDatabase()
        car_ids = random_fleet(
            db, n_cars, class_name="cars", area=(0.0, 500.0), seed=11
        )
        random_fleet(db, 10, class_name="motels", area=(0.0, 500.0),
                     speed_range=(0.0, 0.0), seed=12)
        rng = random.Random(n_cars)
        cq = ContinuousQuery(
            db, parse_query(query), horizon=100, method="incremental"
        )
        elapsed = 0.0
        for _ in range(UPDATES):
            db.clock.tick()
            db.update_motion(
                rng.choice(car_ids),
                Point(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)),
            )
            start = time.perf_counter()
            cq.refresh()
            elapsed += time.perf_counter() - start
        rows.append(
            [
                n_cars,
                n_cars * 10,
                cq.rows_recomputed / UPDATES,
                round(elapsed / UPDATES * 1e3, 2),
            ]
        )
        # One dirty car touches |motels| join rows, independent of n_cars.
        assert cq.rows_recomputed / UPDATES == 10.0
        assert cq.incremental_refreshes == UPDATES
    record_table(
        "E10b: incremental maintenance of a cars x motels join "
        "(10 motels; dirty rows per update = |motels|, not |product|)",
        ["cars n", "product rows", "incr rows/upd", "incr ms/upd"],
        rows,
    )


#: E10c: continuous queries of one round reading the same atom, their
#: horizons a few ticks apart (so the later ends differ).
SHARED_HORIZONS = (HORIZON, HORIZON - 3, HORIZON - 6)


def shared_round(k: int) -> dict[str, object]:
    """``k`` incremental queries over ``INSIDE(o, Z)``, one round per
    update: the kinetic solves of the rounds, the rows the queries read
    from the round table, and every answer of the widest query."""
    db, ids = build_world(400)
    rng = random.Random(400)
    cqs = [
        ContinuousQuery(db, parse_query(QUERY), horizon=h, method="incremental")
        for h in SHARED_HORIZONS[:k]
    ]
    solves = sum(cq.kinetic_solves for cq in cqs)
    shared = sum(cq.shared_rows for cq in cqs)
    answers = []
    for _ in range(UPDATES):
        db.clock.tick()
        db.update_motion(
            rng.choice(ids), Point(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        )
        for cq in cqs:
            cq.refresh()
        answers.append(sorted(map(repr, cqs[0].answer.tuples)))
    return {
        "solves_per_round": (sum(cq.kinetic_solves for cq in cqs) - solves)
        / UPDATES,
        "shared_per_round": (sum(cq.shared_rows for cq in cqs) - shared)
        / UPDATES,
        "answers": answers,
    }


def test_one_solve_per_atom_per_round(record_table):
    """The deterministic witness of the round table (DESIGN.md §7): three
    queries reading ``INSIDE(o, Z)`` solve what one does per round, and
    the widest one's answers are the same either way."""
    one, three = shared_round(1), shared_round(3)
    record_table(
        "E10c: one solve per atom per round (n=400, INSIDE(o, Z), "
        f"horizons {SHARED_HORIZONS}, {UPDATES} rounds)",
        ["queries k", "kinetic solves/round", "rows read from table/round"],
        [
            [1, one["solves_per_round"], one["shared_per_round"]],
            [3, three["solves_per_round"], three["shared_per_round"]],
        ],
    )
    assert three["solves_per_round"] == one["solves_per_round"]
    assert three["answers"] == one["answers"]
    assert one["shared_per_round"] == 0
    assert three["shared_per_round"] > 0
