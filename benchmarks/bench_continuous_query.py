"""E4 — continuous queries: one evaluation instead of one per tick.

Section 1: "Our query processing algorithm facilitates a single evaluation
of the query; reevaluation has to occur only if the motion vector of the
car changes."  We compare, over a horizon of ticks,

* the MOST scheme: evaluate once, answer displays per tick by interval
  lookup, reevaluate only on updates;
* the naive scheme existing DBMSs force: re-run the instantaneous query
  at every clock tick.

Expected shape: naive evaluation count equals the horizon; MOST's equals
1 + (number of motion-vector changes), independent of the horizon — and
an update that re-announces the vector the car already follows changes
nothing, so it costs no evaluation at all.
"""

from __future__ import annotations

import time

from repro.core import ContinuousQuery, InstantaneousQuery
from repro.ftl import parse_query
from repro.geometry import Point
from repro.workloads import motel_scenario, motion_update_process

QUERY = "RETRIEVE m FROM motels m, cars c WHERE DIST(c, m) <= 5"


def run_most(
    horizon: int, updates_every: int | None, change: bool = True
) -> tuple[ContinuousQuery, float]:
    """Display every tick; once in every ``updates_every`` ticks (mid-way,
    so never on the expiration tick, where no change can show) the car
    reports its motion vector — a new one when ``change`` (it alternates
    between two speeds), else the one it already follows."""
    world = motel_scenario(n_motels=20, road_length=200, seed=3)
    db = world.db
    start = time.perf_counter()
    cq = ContinuousQuery(db, parse_query(QUERY), horizon=horizon)
    updates = 0
    for _ in range(horizon):
        now = db.clock.tick()
        if updates_every and now % updates_every == updates_every // 2:
            updates += 1
            speed = 2.0 if change and updates % 2 else 1.0
            db.update_motion(world.car_id, Point(speed, 0.0))
        cq.current()  # per-tick display
    return cq, time.perf_counter() - start


def run_naive(horizon: int) -> tuple[int, float]:
    world = motel_scenario(n_motels=20, road_length=200, seed=3)
    db = world.db
    iq = InstantaneousQuery(parse_query(QUERY), horizon=horizon)
    start = time.perf_counter()
    evaluations = 0
    for _ in range(horizon):
        db.clock.tick()
        iq.evaluate(db)
        evaluations += 1
    return evaluations, time.perf_counter() - start


def test_continuous_single_evaluation(benchmark, record_table):
    rows = []
    for horizon in (25, 50, 100):
        most, most_time = run_most(horizon, updates_every=None)
        most_evals = most.evaluations
        naive_evals, naive_time = run_naive(horizon)
        rows.append(
            [
                horizon,
                most_evals,
                naive_evals,
                round(most_time * 1e3, 1),
                round(naive_time * 1e3, 1),
                round(naive_time / max(most_time, 1e-9), 1),
            ]
        )
    record_table(
        "E4a: continuous query, MOST single-evaluation vs per-tick "
        "reevaluation",
        ["horizon", "MOST evals", "naive evals", "MOST ms", "naive ms", "speedup x"],
        rows,
    )
    assert all(row[1] == 1 for row in rows)
    assert [row[2] for row in rows] == [25, 50, 100]

    update_rows = []
    for updates_every in (50, 20, 10, 5):
        changed, _t = run_most(100, updates_every=updates_every)
        same, _t = run_most(100, updates_every=updates_every, change=False)
        update_rows.append(
            [
                updates_every,
                100 // updates_every,
                changed.evaluations,
                same.evaluations,
                same.horizon_skipped,
            ]
        )
    record_table(
        "E4b: reevaluations track motion-vector changes, not ticks "
        "(horizon 100)",
        [
            "update interval",
            "updates",
            "MOST evals",
            "evals, vector unchanged",
            "skipped, vector unchanged",
        ],
        update_rows,
    )
    for interval, updates, evals, same_evals, skipped in update_rows:
        assert evals == 1 + updates
        # Re-announcing the vector the car follows changes nothing.
        assert same_evals == 1 and skipped == updates

    benchmark(lambda: run_most(50, None))
