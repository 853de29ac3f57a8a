"""Differential harness: sharded evaluation ≡ serial evaluation.

The merge-soundness argument (DESIGN.md §12) says restricting the split
variable's domain per shard and taking the keyed union of the shard
relations reproduces the serial ``R_f`` bit for bit.  These tests check
that claim on the same randomized worlds, formulas and update sequences
the method-differential suite uses — including a maintained continuous
query as the reference across update streams, and the error paths.
"""

import multiprocessing
import random
from dataclasses import replace

import pytest

from repro.core.history import FutureHistory, epoch_token
from repro.core.queries import ContinuousQuery
from repro.errors import QueryError
from repro.ftl import Compare, Const, Dist, FtlQuery, Inside, Var
from repro.ftl.context import DEFAULT
from repro.geometry import Point
from repro.parallel import get_pool, resolve_workers
from repro.parallel.evaluator import ShardedIntervalEvaluator

from tests.ftl.test_differential import (
    HORIZON,
    STEPS,
    apply_random_updates,
    build_world,
    random_query,
)


def rows_of(relation):
    """Canonical, comparison-stable view of an FtlRelation."""
    return sorted(
        (inst, iset.intervals) for inst, iset in relation.rows()
    )


# ---------------------------------------------------------------------------
# One-shot evaluation: parallel ≡ serial, bit for bit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("workers", [2, 4])
def test_sharded_matches_serial(seed, workers):
    rng = random.Random(seed)
    db = build_world(rng)
    query = random_query(rng)
    serial = query.evaluate_full(FutureHistory(db), HORIZON)
    parallel = query.evaluate_full(
        FutureHistory(db), HORIZON, parallel=workers
    )
    assert parallel.variables == serial.variables
    assert rows_of(parallel) == rows_of(serial)


@pytest.mark.parametrize("seed", range(8))
def test_sharded_matches_serial_after_updates(seed):
    rng = random.Random(10_000 + seed)
    world_bits = rng.getstate()
    dbs = []
    for _ in range(2):
        rng.setstate(world_bits)
        dbs.append(build_world(rng))
    query = random_query(rng)
    for _ in range(STEPS):
        for db in dbs:
            db.clock.tick()
        apply_random_updates(rng, dbs)
        serial = query.evaluate_full(FutureHistory(dbs[0]), HORIZON)
        parallel = query.evaluate_full(
            FutureHistory(dbs[1]), HORIZON, parallel=2
        )
        assert rows_of(parallel) == rows_of(serial)


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_options_cross_the_worker_boundary(start_method):
    """The options object is pickled into every shard spec: a non-default
    one must arrive intact and be honoured under both start methods.
    Seed 16 is a world where the default prunes 4 rows."""
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} start method unavailable")
    rng = random.Random(16)
    world_bits = rng.getstate()
    dbs = []
    for _ in range(3):
        rng.setstate(world_bits)
        dbs.append(build_world(rng))
    query = FtlQuery(
        targets=("c",),
        bindings={"c": "cars", "v": "vans"},
        where=Compare("<=", Dist(Var("c"), Var("v")), Const(6)),
    )
    unpruned = replace(DEFAULT, index_pruning=False)
    runs = [
        ShardedIntervalEvaluator(
            query, FutureHistory(db), HORIZON, 2,
            options=options, start_method=start_method,
        )
        for db, options in zip(dbs, (DEFAULT, unpruned))
    ]
    serial = ShardedIntervalEvaluator(
        query, FutureHistory(dbs[2]), HORIZON, 1, options=unpruned
    )
    rows = [rows_of(run.evaluate()) for run in (*runs, serial)]
    assert runs[0].sharded and runs[1].sharded
    assert rows[0] == rows[1] == rows[2]
    assert runs[0].counters["pruned_instantiations"] == 4
    assert runs[1].counters["pruned_instantiations"] == 0
    assert runs[1].counters == serial.counters


# ---------------------------------------------------------------------------
# Counter semantics under sharding
# ---------------------------------------------------------------------------


def test_counters_coherent_and_exact_for_single_atom():
    """A single region atom gives per-object solve keys that never
    collide across shards, so the summed counters equal serial exactly."""
    rng = random.Random(11)
    db = build_world(rng)
    query = FtlQuery(
        targets=("c",),
        bindings={"c": "cars"},
        where=Inside(Var("c"), "P"),
    )
    history = FutureHistory(db)
    sharded = ShardedIntervalEvaluator(query, history, HORIZON, 2)
    merged = sharded.evaluate()
    assert sharded.sharded, "2 cars minimum: sharding must engage"
    serial = ShardedIntervalEvaluator(query, history, HORIZON, 1)
    assert rows_of(merged) == rows_of(serial.evaluate())
    assert not serial.sharded
    assert sharded.counters == serial.counters


@pytest.mark.parametrize("seed", range(6))
def test_counter_coherence_random(seed):
    """Rows over unsplit variables only are solved in every shard, so
    sharded solves can only exceed the serial count; no side reuses a
    solve, and pruning and sampling totals stay non-negative."""
    rng = random.Random(20_000 + seed)
    db = build_world(rng)
    query = random_query(rng)
    history = FutureHistory(db)
    serial = ShardedIntervalEvaluator(query, history, HORIZON, 1)
    sharded = ShardedIntervalEvaluator(query, history, HORIZON, 2)
    assert rows_of(sharded.evaluate()) == rows_of(serial.evaluate())
    if not sharded.sharded:
        return
    assert sharded.counters["kinetic_solves"] >= serial.counters[
        "kinetic_solves"
    ]
    assert sharded.counters["cache_hits"] == serial.counters["cache_hits"] == 0
    assert all(v >= 0 for v in sharded.counters.values())


# ---------------------------------------------------------------------------
# Continuous queries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "method,workers", [("interval", 2), ("incremental", 2), ("incremental", 4)]
)
def test_continuous_query_parallel_differential(seed, method, workers):
    """Sharded ≡ maintained: a continuous query kept up to date across an
    update stream (always in-process) and a cold sharded evaluation of
    the same query on the same database agree at every step."""
    rng = random.Random(30_000 + seed)
    db = build_world(rng)
    query = random_query(rng)
    cq = ContinuousQuery(db, query, horizon=HORIZON, method=method)
    for step in range(STEPS):
        db.clock.tick()
        apply_random_updates(rng, [db])
        remaining = cq.expires_at - db.clock.now
        cold = query.evaluate(FutureHistory(db), remaining, parallel=workers)
        assert cq.current() == cold.satisfied_at(db.clock.now), (
            f"seed {seed} step {step}: {query.where}"
        )
    # The maintained answer may date from an earlier refresh; what both
    # say about [now, expiry] must be the same tuples.
    window = (db.clock.now, cq.expires_at)
    assert rows_of(cq.answer.relation.clipped(*window)) == rows_of(
        cold.clipped(*window)
    )


# ---------------------------------------------------------------------------
# Error parity and knob validation
# ---------------------------------------------------------------------------


def test_naive_method_rejects_parallel():
    rng = random.Random(3)
    db = build_world(rng)
    query = random_query(rng)
    with pytest.raises(QueryError, match="interval method"):
        query.evaluate(FutureHistory(db), HORIZON, method="naive", parallel=2)
    with pytest.raises(TypeError):
        ContinuousQuery(
            db, query, horizon=HORIZON, method="naive", parallel=2
        )


def test_trace_and_validity_are_serial_only():
    """Both are keyed by ``id()``: they cannot follow an evaluation into
    worker processes, so asking for them there is an error, not a
    silently empty dict.  Serially they work as before."""
    rng = random.Random(3)
    db = build_world(rng)
    query = random_query(rng)
    history = FutureHistory(db)
    with pytest.raises(QueryError, match="trace"):
        query.evaluate_full(history, HORIZON, parallel=2, trace={})
    with pytest.raises(QueryError, match="validity"):
        query.evaluate_full(
            history, HORIZON, parallel=2, validity={id(query.where): 5.0}
        )
    trace = {}
    serial = query.evaluate_full(
        history,
        HORIZON,
        options=replace(DEFAULT, ordered=False),
        validity={id(query.where): float(HORIZON)},
        trace=trace,
    )
    assert rows_of(trace[id(query.where)]) == rows_of(serial)
    assert not hasattr(ShardedIntervalEvaluator(query, history, HORIZON, 2), "trace")
    for removed in ("validity", "want_trace"):
        with pytest.raises(TypeError):
            ShardedIntervalEvaluator(
                query, history, HORIZON, 2, **{removed: None}
            )


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_read_through_history_shards_like_a_snapshot(start_method):
    """A history is pinned to the content version it was opened on: its
    epoch token is that version's, the pool ships that version's replica,
    and once any kind of update moves the database on the old history
    refuses to evaluate while a fresh one gets a new token, a new replica
    and the new answer."""
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} start method unavailable")
    rng = random.Random(12)
    db = build_world(rng)
    query = random_query(rng)
    pool = get_pool(2, start_method=start_method)

    def sharded(history):
        ev = ShardedIntervalEvaluator(query, history, HORIZON, 2, pool=pool)
        return rows_of(ev.evaluate()), ev.sharded

    def serial(history):
        return rows_of(query.evaluate_full(history, HORIZON))

    first = FutureHistory(db)
    assert sharded(first) == (serial(first), True)
    assert pool.ensure_snapshot(first) == epoch_token(first)
    tokens = [epoch_token(first)]
    car = first.object_ids("cars")[0]
    db.update_static(car, "price", 999)
    tokens.append(epoch_token(FutureHistory(db)))
    db.update_motion(car, Point(3, -2))
    latest = FutureHistory(db)
    tokens.append(epoch_token(latest))
    assert len(set(tokens)) == 3
    assert db.version == tokens[-1][1] > tokens[0][1]
    assert epoch_token(first) == tokens[0]
    with pytest.raises(QueryError, match="version"):
        sharded(first)
    # The same pool, after the updates: a fresh replica, the new answer.
    assert sharded(latest) == (serial(latest), True)
    assert pool.ensure_snapshot(latest) == tokens[-1]


def test_non_future_history_rejected():
    rng = random.Random(3)
    db = build_world(rng)
    query = random_query(rng)
    with pytest.raises(QueryError, match="future"):
        ShardedIntervalEvaluator(query, object(), HORIZON, 2)


def test_worker_errors_match_serial_errors():
    """A query that fails in a worker surfaces the same exception the
    serial evaluator raises — type and message."""
    rng = random.Random(5)
    db = build_world(rng)
    # Unknown region: serial evaluation raises on first atom touch.
    query = FtlQuery(
        targets=("c",),
        bindings={"c": "cars"},
        where=Inside(Var("c"), "NO_SUCH_REGION"),
    )
    history = FutureHistory(db)
    try:
        query.evaluate_full(history, HORIZON)
        pytest.fail("serial evaluation should have raised")
    except Exception as serial_exc:  # noqa: BLE001 - capturing for parity
        serial_type, serial_msg = type(serial_exc), str(serial_exc)
    with pytest.raises(serial_type, match=serial_msg):
        query.evaluate_full(history, HORIZON, parallel=2)


def test_resolve_workers():
    assert resolve_workers(None) == 1
    assert resolve_workers(False) == 1
    assert resolve_workers(0) == 1
    assert resolve_workers(1) == 1
    assert resolve_workers(3) == 3
    with pytest.raises(QueryError):
        resolve_workers("auto")
    with pytest.raises(QueryError):
        resolve_workers(True)
    with pytest.raises(QueryError):
        resolve_workers(-2)
    with pytest.raises(QueryError):
        resolve_workers("three")


def test_unviable_falls_back_to_serial_in_process():
    """A single-object class cannot shard; evaluation must silently run
    serially in-process and still answer correctly."""
    rng = random.Random(9)
    db = build_world(rng)
    query = FtlQuery(
        targets=("b",),
        bindings={"b": "birds"},
        where=Inside(Var("b"), "P"),
    )
    history = FutureHistory(db)
    ev = ShardedIntervalEvaluator(query, history, HORIZON, 4)
    assert not ev.viable  # birds has exactly one object
    merged = ev.evaluate()
    assert not ev.sharded
    serial = query.evaluate_full(history, HORIZON)
    assert rows_of(merged) == rows_of(serial)
