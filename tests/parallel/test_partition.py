"""Partitioner contract: exact cover, ±1 balance, determinism.

Correctness never depends on *which* shard an object lands in
(DESIGN.md §12) — but the evaluator does rely on the partition being a
partition, and reproducible runs rely on it being deterministic.
"""

import random

import pytest

from repro.core import MostDatabase, ObjectClass
from repro.core.history import FutureHistory
from repro.errors import QueryError
from repro.geometry import Point
from repro.parallel import ShardPlan, partition_ids


def build_db(n, seed=0):
    rng = random.Random(seed)
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    for i in range(n):
        db.add_moving_object(
            "cars",
            f"c{i}",
            Point(rng.randint(-30, 30), rng.randint(-30, 30)),
            Point(rng.randint(-3, 3), rng.randint(-3, 3)),
        )
    return db


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 25])
@pytest.mark.parametrize("shard_count", [1, 2, 3, 4, 8])
def test_partition_is_exact_and_balanced(n, shard_count):
    db = build_db(n)
    history = FutureHistory(db)
    ids = history.object_ids("cars")
    shards = partition_ids(ids, shard_count)
    flat = [oid for shard in shards for oid in shard]
    assert sorted(flat, key=str) == sorted(ids, key=str)
    assert len(flat) == len(set(flat)) == n
    assert all(shard for shard in shards), "no empty shards"
    if shards:
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1
        assert len(shards) == min(shard_count, n)


def test_partition_is_deterministic():
    db = build_db(25, seed=3)
    history = FutureHistory(db)
    ids = history.object_ids("cars")
    first = partition_ids(ids, 4)
    for _ in range(5):
        assert partition_ids(ids, 4) == first
    # And across a rebuilt but identical world.
    other = FutureHistory(build_db(25, seed=3))
    assert partition_ids(other.object_ids("cars"), 4) == first


def test_partition_rejects_bad_shard_count():
    history = FutureHistory(build_db(4))
    with pytest.raises(QueryError):
        partition_ids(history.object_ids("cars"), 0)


def test_shard_plan_lookup():
    db = build_db(9, seed=1)
    history = FutureHistory(db)
    plan = ShardPlan.build("c", "cars", history.object_ids("cars"), 3)
    assert plan.shard_count == 3
    for oid in history.object_ids("cars"):
        idx = plan.shard_of(oid)
        assert idx is not None
        assert oid in plan.shards[idx]
    assert plan.shard_of("ghost") is None


def test_partition_never_touches_a_history():
    """Contiguous chunks of the domain list, in domain order — computed
    from ids no database knows, so no history can have been consulted."""
    ids = [("ghost", i) for i in range(11)]
    shards = partition_ids(ids, 3)
    assert shards == [ids[0:4], ids[4:8], ids[8:11]]
    assert partition_ids("abcde", 2) == [["a", "b", "c"], ["d", "e"]]
