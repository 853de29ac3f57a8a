"""Property: the answer does not depend on how the split domain is cut.

Every row of ``R_g`` is computed from the instantiated objects alone
(DESIGN.md §12), so restricting one variable's domain to each part of
*any* partition and taking the keyed union reproduces the serial
relation — and, for an atom that mentions the variable, every
instantiation is walked and gated in exactly one part, so the per-atom
counters sum to the serial ones.  This is the test that says the
partitioner is free: contiguous chunks, a grid, or the arbitrary cuts
drawn here all merge to the same thing.

In-process on purpose — no pool, no snapshot: a worker is this
evaluator on this context.  The one exception, the far-outlier world at
the end, also runs the real pool: it pins a counter drift that only a
worker's own table could cause.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MostDatabase, ObjectClass
from repro.core.history import FutureHistory
from repro.ftl import Compare, Const, Dist, FtlQuery, Inside, Var
from repro.ftl.context import EvalContext
from repro.ftl.evaluator import IntervalEvaluator
from repro.geometry import Point
from repro.parallel import merge_relations
from repro.parallel.evaluator import ShardedIntervalEvaluator
from repro.parallel.partition import partition_ids
from repro.spatial import Polygon

from tests.ftl.test_differential import HORIZON, build_world, random_query
from tests.parallel.test_sharded_differential import rows_of

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def crowded_world(rng):
    """The differential suite's world with enough extra cars and vans,
    some of them far out, for a five-way cut and for the index gate to
    have pairs to prune."""
    db = build_world(rng)
    for cls, first, count in (("cars", 3, 6), ("vans", 2, 3)):
        for i in range(first, first + count):
            db.add_moving_object(
                cls,
                f"{cls[0]}{i}",
                Point(rng.randint(-40, 40), rng.randint(-40, 40)),
                Point(rng.randint(-2, 2), rng.randint(-2, 2)),
                static={"price": rng.randint(0, 150)} if cls == "cars" else None,
            )
    return db


def random_cut(data, domain):
    """An arbitrary partition of ``domain`` into 1–5 non-empty parts."""
    k = data.draw(st.integers(1, 5), label="parts")
    labels = data.draw(
        st.lists(st.integers(0, k - 1), min_size=len(domain), max_size=len(domain)),
        label="part of each id",
    )
    parts = [
        [oid for oid, label in zip(domain, labels) if label == part]
        for part in range(k)
    ]
    return [part for part in parts if part]


def evaluate_parts(query, db, var, parts):
    """One plain ``IntervalEvaluator`` run per part, as a worker does."""
    evaluators, relations = [], []
    for part in parts:
        ctx = EvalContext(
            FutureHistory(db), HORIZON, query.bindings,
            domain_restrictions={var: part},
        )
        evaluator = IntervalEvaluator(ctx)
        relations.append(evaluator.evaluate(query.where))
        evaluators.append(evaluator)
    return evaluators, relations


@SETTINGS
@given(seed=st.integers(0, 100_000), data=st.data())
def test_any_cut_of_the_split_domain_merges_to_the_serial_relation(seed, data):
    rng = random.Random(seed)
    db = crowded_world(rng)
    query = random_query(rng)
    var = data.draw(st.sampled_from(sorted(query.bindings)), label="split")
    serial_ctx = EvalContext(FutureHistory(db), HORIZON, query.bindings)
    serial = IntervalEvaluator(serial_ctx).evaluate(query.where)
    parts = random_cut(data, serial_ctx.domain(var))
    _evaluators, relations = evaluate_parts(query, db, var, parts)
    merged = merge_relations(relations)
    assert merged.variables == serial.variables
    assert rows_of(merged) == rows_of(serial)


@SETTINGS
@given(
    seed=st.integers(0, 100_000),
    bound=st.integers(0, 30),
    op=st.sampled_from(("<=", ">=")),
    data=st.data(),
)
def test_dist_atom_counters_sum_to_serial_for_any_cut(seed, bound, op, data):
    rng = random.Random(seed)
    db = crowded_world(rng)
    query = FtlQuery(
        targets=("c",),
        bindings={"c": "cars", "v": "vans"},
        where=Compare(op, Dist(Var("c"), Var("v")), Const(bound)),
    )
    serial_ctx = EvalContext(FutureHistory(db), HORIZON, query.bindings)
    serial = IntervalEvaluator(serial_ctx)
    serial_rows = rows_of(serial.evaluate(query.where))
    parts = random_cut(data, serial_ctx.domain("c"))
    evaluators, relations = evaluate_parts(query, db, "c", parts)
    assert rows_of(merge_relations(relations)) == serial_rows
    (serial_atom,) = serial.atom_stats.values()
    for key in ("instantiations", "pruned"):
        summed = sum(
            stats[key] for ev in evaluators for stats in ev.atom_stats.values()
        )
        assert summed == serial_atom[key], key
    assert (
        sum(ev.pruned_instantiations for ev in evaluators)
        == serial.pruned_instantiations
        == serial_atom["pruned"]
    )


def far_outlier_world():
    """Seven parked cars around ``P = [0, 10]^2`` — one 0.01 outside its
    right edge, six well clear — then one a million units out.  The
    outlier sets the pruning pad (``1e-6 * (1 + scale)`` ~ 1.0), which
    keeps the 10.01 car a candidate; a table built over a chunk without
    the outlier has a pad of ~2e-5 and would prune that car instead."""
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(0, 0, 10, 10))
    spots = [(10.01, 5), (15, 5), (-6, 5), (5, 16), (5, -7), (18, 18), (-9, -9)]
    for i, (x, y) in enumerate(spots):
        db.add_moving_object("cars", f"c{i}", Point(x, y), Point(0, 0))
    db.add_moving_object("cars", "far", Point(1e6, 5), Point(0, 0))
    return db


@pytest.mark.parametrize("workers", [2, 4])
def test_far_outlier_keeps_shard_counters_serial(workers):
    """Every chunk prunes with the class-wide table and pad, so the
    counters of the chunks — in-process and in real workers — sum to
    the serial ones: pruned 7, one solve (the 10.01 car)."""
    db = far_outlier_world()
    query = FtlQuery(
        targets=("o",), bindings={"o": "cars"}, where=Inside(Var("o"), "P")
    )
    serial_ctx = EvalContext(FutureHistory(db), HORIZON, query.bindings)
    serial = IntervalEvaluator(serial_ctx)
    serial_rows = rows_of(serial.evaluate(query.where))
    assert (serial.pruned_instantiations, serial.kinetic_solves) == (7, 1)

    parts = partition_ids(serial_ctx.domain("o"), workers)
    evaluators, relations = evaluate_parts(query, db, "o", parts)
    assert rows_of(merge_relations(relations)) == serial_rows
    assert sum(ev.pruned_instantiations for ev in evaluators) == 7
    assert sum(ev.kinetic_solves for ev in evaluators) == 1
    assert sum(ev.cache_hits + ev.cache_misses for ev in evaluators) == 0

    sharded = ShardedIntervalEvaluator(query, FutureHistory(db), HORIZON, workers)
    assert rows_of(sharded.evaluate()) == serial_rows
    assert sharded.sharded
    assert sharded.counters["pruned_instantiations"] == 7
    assert sharded.counters["kinetic_solves"] == 1
