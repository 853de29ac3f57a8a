"""E16 — sharded parallel evaluation (DESIGN.md §12).

Dense single-class worlds; a conjunctive query whose atoms all mention
the split variable, so every atom scan shards.  For each (n, workers)
cell the bench reports:

* ``wall_speedup`` — serial wall time over sharded wall time.  On a
  single-core host the workers time-slice one CPU, so this is honestly
  ~1x or below; ``host_cpu_count`` is recorded so readers can tell.
* ``critical_path_speedup`` — serial CPU time over the sharded
  *critical path*: orchestration overhead (wall minus the widest shard
  span) plus the largest per-shard CPU time.  CPU time is what a
  dedicated core would take, so this is the machine-independent signal
  the 1-core CI host can still measure.

Results go to ``BENCH_sharded_eval.json`` at the repo root.
``SHARDED_EVAL_SMOKE=1`` shrinks the sweep to a seconds-long CI run.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

from repro.core import MostDatabase, ObjectClass
from repro.core.history import FutureHistory
from repro.ftl import AndF, Attr, Compare, Const, FtlQuery, Inside, Var
from repro.geometry import Point
from repro.parallel import shutdown_pools
from repro.parallel.evaluator import ShardedIntervalEvaluator
from repro.spatial import Polygon

SMOKE = os.environ.get("SHARDED_EVAL_SMOKE") == "1"

SIZES = [200] if SMOKE else [1_000, 10_000]
WORKER_COUNTS = [2] if SMOKE else [2, 4]
HORIZON = 16
SEED = 2026

RESULT_PATH = Path(__file__).parents[1] / "BENCH_sharded_eval.json"


def build_world(n: int) -> MostDatabase:
    rng = random.Random(SEED)
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(-40, -40, 40, 40))
    for i in range(n):
        db.add_moving_object(
            "cars",
            f"c{i}",
            Point(rng.randint(-60, 60), rng.randint(-60, 60)),
            Point(rng.randint(-3, 3), rng.randint(-3, 3)),
        )
    return db


def dense_query() -> FtlQuery:
    """Both atoms mention the split variable — fully shardable."""
    return FtlQuery(
        targets=("c",),
        bindings={"c": "cars"},
        where=AndF(
            Inside(Var("c"), "P"),
            Compare("<=", Attr(Var("c"), "x_position"), Const(10)),
        ),
    )


def rows_of(relation):
    return sorted((inst, iset.intervals) for inst, iset in relation.rows())


def run_cell(db: MostDatabase, n: int, workers: int, serial_s: float,
             serial_cpu: float, serial_rows) -> dict:
    history = FutureHistory(db)
    ev = ShardedIntervalEvaluator(dense_query(), history, HORIZON, workers)
    t0 = time.perf_counter()
    merged = ev.evaluate()
    wall = time.perf_counter() - t0
    assert ev.sharded, "dense worlds must shard"
    assert rows_of(merged) == serial_rows, "sharded must equal serial"
    # Overhead the parent pays serially (snapshot ship, dispatch, merge)
    # plus the widest shard's CPU time = the wall a machine with enough
    # real cores would see.
    overhead = max(wall - max(ev.shard_times), 0.0)
    critical_path = max(overhead + max(ev.shard_cpu_times), 1e-9)
    return {
        "n": n,
        "workers": workers,
        "shards": len(ev.shard_times),
        "wall_s": wall,
        "shard_times_s": list(ev.shard_times),
        "shard_cpu_s": list(ev.shard_cpu_times),
        "critical_path_s": critical_path,
        "wall_speedup": serial_s / max(wall, 1e-9),
        "critical_path_speedup": serial_cpu / critical_path,
    }


def run_size(n: int) -> list[dict]:
    db = build_world(n)
    history = FutureHistory(db)
    query = dense_query()
    t0 = time.perf_counter()
    c0 = time.process_time()
    serial_ev = ShardedIntervalEvaluator(query, history, HORIZON, 1)
    serial_rel = serial_ev.evaluate()
    serial_cpu = time.process_time() - c0
    serial_s = time.perf_counter() - t0
    serial_rows = rows_of(serial_rel)
    out = [
        {
            "n": n,
            "workers": 1,
            "shards": 1,
            "wall_s": serial_s,
            "shard_times_s": [serial_s],
            "shard_cpu_s": [serial_cpu],
            "critical_path_s": serial_cpu,
            "wall_speedup": 1.0,
            "critical_path_speedup": 1.0,
        }
    ]
    for workers in WORKER_COUNTS:
        out.append(run_cell(db, n, workers, serial_s, serial_cpu, serial_rows))
    return out


def test_sharded_eval_speedup(record_table):
    cells = []
    for n in SIZES:
        cells.extend(run_size(n))
    shutdown_pools()
    report = {
        "benchmark": "sharded_eval",
        "smoke": SMOKE,
        "seed": SEED,
        "horizon": HORIZON,
        "host_cpu_count": os.cpu_count(),
        "query": "Inside(c, P) AND c.x_position <= 10",
        "eval": cells,
    }
    record_table(
        "E16 sharded evaluation (host_cpu_count="
        f"{os.cpu_count()}; wall speedups are honest 1-core numbers, "
        "critical_path is the machine-independent signal)",
        ["n", "workers", "wall_s", "wall_x", "critical_path_x"],
        [
            [c["n"], c["workers"], c["wall_s"], c["wall_speedup"],
             c["critical_path_speedup"]]
            for c in cells
        ],
    )
    RESULT_PATH.write_text(json.dumps(report, indent=1))
    written = json.loads(RESULT_PATH.read_text())
    assert written["eval"] and "server" not in written
    # Exactness already asserted per cell; the perf acceptance bar is
    # conditional on real parallel hardware.
    if (os.cpu_count() or 1) >= 4 and not SMOKE:
        best = max(
            c["wall_speedup"] for c in cells
            if c["workers"] == 4 and c["n"] >= 10_000
        )
        assert best >= 2.5, f"expected >= 2.5x at 4 workers, got {best:.2f}x"
