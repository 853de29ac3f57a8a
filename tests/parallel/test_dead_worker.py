"""A dead shard worker costs the call in flight, never the process.

``get_pool`` caches one pool per worker count.  A worker killed from
outside (OOM killer, operator) must not leave that cache holding a
broken pool: the call that finds the worker dead raises
:class:`QueryError`, and the next ``parallel=N`` call gets a fresh pool
and the serial answer.  The kills are deterministic: ``SIGKILL`` and a
``join`` on the worker process, no sleeps.
"""

import os
import random
import signal

import pytest

from repro.core.history import FutureHistory
from repro.errors import QueryError
from repro.ftl import FtlQuery, Inside, Var
from repro.parallel import get_pool
from repro.parallel.evaluator import ShardedIntervalEvaluator
from repro.parallel.pool import ShardWorkerPool

from tests.ftl.test_differential import HORIZON, build_world
from tests.parallel.test_sharded_differential import rows_of


def world(seed):
    db = build_world(random.Random(seed))
    query = FtlQuery(
        targets=("c",), bindings={"c": "cars"}, where=Inside(Var("c"), "P")
    )
    return db, query


def serial_rows(db, query):
    return rows_of(query.evaluate_full(FutureHistory(db), HORIZON))


def sharded_rows(db, query):
    evaluator = ShardedIntervalEvaluator(query, FutureHistory(db), HORIZON, 2)
    rows = rows_of(evaluator.evaluate())
    assert evaluator.sharded
    return rows


def kill_worker(pool, index):
    proc = pool._processes[index]
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=30)
    assert not proc.is_alive()


def test_worker_killed_between_calls_is_replaced():
    db, query = world(1)
    assert sharded_rows(db, query) == serial_rows(db, query)
    broken = get_pool(2)
    kill_worker(broken, 0)

    assert sharded_rows(db, query) == serial_rows(db, query)
    fresh = get_pool(2)
    assert fresh is not broken
    assert not fresh.dead_workers()
    assert broken._closed


def test_worker_killed_between_ship_and_run_fails_that_call_only(
    monkeypatch,
):
    db, query = world(2)
    ship = ShardWorkerPool.ensure_snapshot

    def ship_then_kill(self, history):
        token = ship(self, history)
        kill_worker(self, 1)
        return token

    monkeypatch.setattr(ShardWorkerPool, "ensure_snapshot", ship_then_kill)
    with pytest.raises(QueryError, match="died: repro-shard-1"):
        query.evaluate_full(FutureHistory(db), HORIZON, parallel=2)
    monkeypatch.undo()

    assert sharded_rows(db, query) == serial_rows(db, query)
