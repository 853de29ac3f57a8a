"""E14 — continuous-query server throughput and backpressure (DESIGN.md §9).

Three measurements of the PR 7 epoch-loop server:

* ``fanout`` — sustained ingest throughput (updates applied per second
  of wall time) and the p99 per-query refresh latency as the subscriber
  count grows.  Each subscriber registers a *distinct* range query, so
  the refresh load scales with the count; deltas fan out through the
  §5.2 immediate policy over a synchronous in-process network.
* ``shared`` — the same world with every subscriber on **one** query:
  one refresh per epoch whatever the count, so what grows is fan-out
  alone.  ``diffs_computed`` must not grow with the subscriber count
  (one answer-state diff per rebuilt state, shared by all sessions) and
  ``tuples_sent`` per subscriber must not either (a refresh re-sends
  only what changed, not every live tuple).
* ``backpressure`` — a reporter floods batches at twice the server's
  sustainable drain rate (``batch_limit`` updates per epoch) into a
  bounded inbox.  The acceptance bar: the inbox high-water mark never
  exceeds its capacity and the server refuses overflow with explicit
  busy signals (bounded queues, no silent drops) while remaining live.

Results are registered as a terminal table and written to
``BENCH_cq_server.json`` at the repo root.  ``CQ_SERVER_SMOKE=1``
shrinks the sweep to a seconds-long CI run.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import random
import time
from pathlib import Path

from repro.core import MostDatabase, ObjectClass
from repro.distributed.network import SimNetwork
from repro.distributed.node import MobileNode
from repro.distributed.updates import MotionUpdate
from repro.geometry import Point
from repro.motion import linear_moving_point
from repro.server import BatchingReporter, CQServer, IngestBatch, SubscriberClient
from repro.server.metrics import BACKPRESSURE, NORMAL, SHEDDING
from repro.server.protocol import INGEST_BATCH
from repro.server.transport import ProtocolNode
from repro.temporal import SimulationClock

SMOKE = os.environ.get("CQ_SERVER_SMOKE") == "1"

SUB_COUNTS = [1, 2] if SMOKE else [1, 4, 16]
SHARED_COUNTS = [1, 4] if SMOKE else [1, 4, 16, 64]
EPOCHS = 30 if SMOKE else 120
N_TRACKERS = 3 if SMOKE else 8
REPORT_P = 0.5
SEED = 2026
#: Runs per sweep cell; the one with the median wall time is reported
#: (a 120-epoch run lasts 0.1–1 s, and the builder host is shared).
REPEATS = 1 if SMOKE else 5

RESULT_PATH = Path(__file__).parents[1] / "BENCH_cq_server.json"


def host_fingerprint() -> dict:
    """What the numbers below were measured on."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
    }


def build_world(n_subscribers: int, shared: bool = False):
    """Server + trackers + ``n`` subscribers — each with a distinct
    query, or all on the same one when ``shared``."""
    clock = SimulationClock()
    db = MostDatabase(clock)
    network = SimNetwork(clock)  # synchronous, fault-free: measures the loop
    db.create_class(ObjectClass("trackers", spatial_dimensions=2))
    db.create_class(ObjectClass("beacons", spatial_dimensions=2))
    db.add_moving_object("beacons", "beacon", Point(0.0, 0.0))
    server = CQServer(db, network, inbox_capacity=4096, batch_limit=4096)
    reporters = []
    for i in range(N_TRACKERS):
        oid = f"tracker-{i}"
        start = Point(10.0 * i - 30.0, 0.0)
        db.add_moving_object("trackers", oid, start, Point(1.0, 0.0))
        db.track(oid)
        node = MobileNode(oid, network, linear_moving_point(start, Point(1.0, 0.0)))
        reporters.append(BatchingReporter(node, object_id=oid))
    clients = [
        SubscriberClient(
            network,
            f"sub-{i}",
            "RETRIEVE v FROM trackers v, beacons b "
            f"WHERE DIST(v, b) <= {40 if shared else 40 + 2 * i}",
            horizon=EPOCHS * 4,
        )
        for i in range(n_subscribers)
    ]
    return db, network, server, reporters, clients


async def drive_fanout(server, reporters, epochs: int, seed: int) -> float:
    """Run the epoch loop under a seeded update workload; returns the
    wall-clock seconds spent inside ``run_epoch``."""
    rng = random.Random(seed)
    start = time.perf_counter()
    for _ in range(epochs):
        for rep in reporters:
            if rng.random() < REPORT_P:
                rep.report(
                    Point(float(rng.randint(-2, 2)), float(rng.randint(-2, 2)))
                )
        await server.run_epoch()
    return time.perf_counter() - start


def median_fanout(n_subscribers: int, shared: bool = False) -> dict:
    """The median-wall-time run of ``REPEATS`` identical ones (the counts
    are the same in all of them: the workload is seeded)."""
    runs = sorted(
        (run_fanout(n_subscribers, shared) for _ in range(REPEATS)),
        key=lambda r: r["elapsed_s"],
    )
    return runs[len(runs) // 2]


def run_fanout(n_subscribers: int, shared: bool = False) -> dict:
    db, network, server, reporters, clients = build_world(n_subscribers, shared)
    elapsed = asyncio.run(drive_fanout(server, reporters, EPOCHS, SEED))
    m = server.metrics
    assert all(c.subscribed for c in clients)
    assert m.updates_applied > 0
    return {
        "subscribers": n_subscribers,
        "queries": len(server.registry.queries),
        "epochs": EPOCHS,
        "elapsed_s": elapsed,
        "updates_applied": m.updates_applied,
        "updates_per_sec": m.updates_applied / max(elapsed, 1e-9),
        "refresh_p50_ms": m.refresh_latency.percentile(50) * 1e3,
        "refresh_p99_ms": m.refresh_latency.percentile(99) * 1e3,
        "epoch_p99_ms": m.epoch_latency.percentile(99) * 1e3,
        "deltas_sent": m.deltas_sent,
        "tuples_sent": m.tuples_sent,
        "retract_tuples_sent": m.retract_tuples_sent,
        "diffs_computed": m.diffs_computed,
        "tuples_carried": m.tuples_carried,
    }


async def drive_overload(
    server, sender, epochs: int, rate: int, batch_size: int
) -> None:
    """Flood ``rate`` updates per epoch at the server in batches of
    ``batch_size``, ignoring busy signals (the worst-behaved reporter
    possible)."""
    seq = 0
    batch_seq = 0
    for _ in range(epochs):
        for _ in range(rate // batch_size):
            updates = tuple(
                MotionUpdate(
                    "flood-0", seq + i, server.db.clock.now,
                    Point(0.0, 0.0), Point(1.0, 0.0),
                )
                for i in range(batch_size)
            )
            seq += batch_size
            sender.send(
                server.server_id, INGEST_BATCH,
                IngestBatch("flood", batch_seq, updates),
            )
            batch_seq += 1
        await server.run_epoch()


def run_backpressure() -> dict:
    """2x-sustainable ingest: the drain rate is ``batch_limit`` updates
    per epoch, so the flood sends twice that."""
    capacity, batch_limit = 128, 32
    clock = SimulationClock()
    db = MostDatabase(clock)
    network = SimNetwork(clock)
    db.create_class(ObjectClass("trackers", spatial_dimensions=2))
    db.add_moving_object("trackers", "flood-0", Point(0.0, 0.0), Point(1.0, 0.0))
    db.track("flood-0")
    server = CQServer(
        db, network, inbox_capacity=capacity, batch_limit=batch_limit
    )
    sender = ProtocolNode("flood", network)
    epochs = 20 if SMOKE else 60
    asyncio.run(
        drive_overload(
            server, sender, epochs, rate=2 * batch_limit,
            batch_size=batch_limit // 2,
        )
    )
    m = server.metrics
    out = {
        "inbox_capacity": capacity,
        "batch_limit": batch_limit,
        "offered_rate": 2 * batch_limit,
        "epochs": epochs,
        "updates_enqueued": m.updates_enqueued,
        "updates_applied": m.updates_applied,
        "busy_signals": m.busy_signals,
        "inbox_high_water": m.inbox_high_water,
        "epochs_at_level": dict(m.epochs_at_level),
    }
    # The acceptance bar: bounded queues + explicit refusals, never
    # silent drops or unbounded growth.
    assert m.inbox_high_water <= capacity, out
    assert m.busy_signals > 0, out
    assert m.updates_applied > 0, out
    assert (
        m.epochs_at_level[BACKPRESSURE] + m.epochs_at_level[SHEDDING] > 0
    ), out
    assert m.epochs_at_level[NORMAL] >= 0
    return out


def test_cq_server_throughput_and_backpressure(record_table):
    fanout = [median_fanout(n) for n in SUB_COUNTS]
    shared = [median_fanout(n, shared=True) for n in SHARED_COUNTS]
    overload = run_backpressure()
    # Sharing as exact counts: one query, one diff per rebuilt answer
    # state and the same tuples to every subscriber, however many read.
    assert {r["queries"] for r in shared} == {1}, shared
    assert len({r["diffs_computed"] for r in shared}) == 1, shared
    assert len({r["tuples_sent"] // r["subscribers"] for r in shared}) == 1, shared
    report = {
        "benchmark": "cq_server",
        "smoke": SMOKE,
        "seed": SEED,
        "trackers": N_TRACKERS,
        "repeats": REPEATS,
        "host": host_fingerprint(),
        "fanout": fanout,
        "shared": shared,
        "backpressure": overload,
    }
    record_table(
        "E14: continuous-query server "
        f"({N_TRACKERS} trackers, {EPOCHS} epochs, distinct query per "
        "subscriber, synchronous network)",
        [
            "subs",
            "updates/s",
            "refresh p50 ms",
            "refresh p99 ms",
            "epoch p99 ms",
            "deltas",
            "tuples",
        ],
        [
            [
                f["subscribers"],
                round(f["updates_per_sec"]),
                round(f["refresh_p50_ms"], 2),
                round(f["refresh_p99_ms"], 2),
                round(f["epoch_p99_ms"], 2),
                f["deltas_sent"],
                f["tuples_sent"],
            ]
            for f in fanout
        ],
    )
    record_table(
        "E14: one shared query, subscribers sweep "
        f"({N_TRACKERS} trackers, {EPOCHS} epochs): fan-out alone",
        [
            "subs",
            "updates/s",
            "epoch p99 ms",
            "deltas",
            "tuples",
            "tuples/sub",
            "diffs",
            "carried",
        ],
        [
            [
                r["subscribers"],
                round(r["updates_per_sec"]),
                round(r["epoch_p99_ms"], 2),
                r["deltas_sent"],
                r["tuples_sent"],
                r["tuples_sent"] // r["subscribers"],
                r["diffs_computed"],
                r["tuples_carried"],
            ]
            for r in shared
        ],
    )
    record_table(
        "E14: backpressure at 2x the sustainable ingest rate "
        f"(capacity {overload['inbox_capacity']}, drain "
        f"{overload['batch_limit']}/epoch, offered "
        f"{overload['offered_rate']}/epoch)",
        ["high water", "capacity", "busy signals", "applied", "levels"],
        [
            [
                overload["inbox_high_water"],
                overload["inbox_capacity"],
                overload["busy_signals"],
                overload["updates_applied"],
                overload["epochs_at_level"],
            ]
        ],
    )
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
