"""Differential wall for the vectorized batch kinetic backend (DESIGN.md §8).

The batch backend must be answer-invisible *and* counter-invisible: for
every seeded world, query and evaluation method, ``batch_solver`` on
must produce the same relation — tuple for tuple, interval for interval —
and the same acceleration counters as the scalar per-row solver, while
filling the shared kinetic-solve cache with the exact same keys.  The
sweeps reuse the random worlds and formula generator of
``test_differential`` plus the sparse worlds of ``test_atom_pruning``,
and add worlds the vectorized paths cannot take whole (nonlinear movers,
k≠2 spheres, mixed dimensions) so the chunked scalar fallback is
exercised alongside the numpy paths.
"""

import random
from dataclasses import replace

import pytest

from repro.core import MostDatabase, ObjectClass
from repro.core.dynamic import DynamicAttribute
from repro.core.history import FutureHistory
from repro.core.queries import ContinuousQuery
from repro.errors import QueryError, SchemaError
from repro.ftl import (
    AndF,
    Attr,
    Compare,
    Const,
    Dist,
    Eventually,
    FtlQuery,
    Inside,
    Outside,
    Var,
    WithinSphere,
)
from repro.ftl.context import DEFAULT, EvalContext
from repro.ftl.evaluator import IntervalEvaluator
from repro.geometry import Point
from repro.motion import SinusoidFunction
from repro.spatial import Ball
from repro.temporal import DISCRETE, IntervalSet

from tests.ftl.test_atom_pruning import build_sparse_world, rows_of
from tests.ftl.test_differential import (
    HORIZON,
    STEPS,
    apply_random_updates,
    build_world,
    random_query,
)

#: Random queries trip the FTL lint rules (FTL302, FTL501, FTL602, ...)
#: by design: the warnings are expected here and errors elsewhere.
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.ftl.analysis.diagnostics.FtlLintWarning"
)


#: The scalar twin: every solve inline, nothing queued for the backend.
SCALAR = replace(DEFAULT, batch_solver=False)


def both_solvers(query, db, horizon=HORIZON, **kwargs):
    """(scalar rows, batched rows) on snapshots of one db.

    The db-wide solve cache is cleared between the runs so the batched
    run really solves instead of replaying the scalar run's answers."""
    scalar = query.evaluate_full(
        FutureHistory(db), horizon, options=SCALAR, **kwargs
    )
    db.kinetic_cache.clear()
    batched = query.evaluate_full(
        FutureHistory(db), horizon, **kwargs
    )
    db.kinetic_cache.clear()
    return rows_of(scalar), rows_of(batched)


def run_with_counters(db, bindings, where, batch, horizon=HORIZON):
    """(rows, counters) of one interval evaluation on a cold cache."""
    db.kinetic_cache.clear()
    ctx = EvalContext(FutureHistory(db), horizon, bindings)
    ev = IntervalEvaluator(ctx, options=DEFAULT if batch else SCALAR)
    rel = ev.evaluate(where)
    return rows_of(rel), ev.counters()


# ---------------------------------------------------------------------------
# The main differential sweep: 300+ seeded scenarios
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(150))
def test_batch_equals_scalar_random_worlds(seed):
    """Random dense-ish worlds and random formulas (all atom kinds, all
    temporal operators): identical relations with the batch backend on
    and off."""
    rng = random.Random(seed)
    db = build_world(rng)
    query = random_query(rng)
    scalar, batched = both_solvers(query, db)
    assert scalar == batched, f"seed {seed}: {query.where}"


@pytest.mark.parametrize("seed", range(150, 260))
def test_batch_equals_scalar_sparse_worlds(seed):
    """Sparse worlds where the index gate prunes most instantiations, so
    the batch sees small, ragged surviving sets."""
    rng = random.Random(seed)
    db = build_sparse_world(rng)
    query = random_query(rng)
    scalar, batched = both_solvers(query, db)
    assert scalar == batched, f"seed {seed}: {query.where}"


@pytest.mark.parametrize("seed", range(260, 300))
def test_batch_counters_equal_scalar_counters(seed):
    """Beyond equal answers, the batch path must report the exact same
    kinetic_solves / pruned / cache hit+miss accounting as scalar."""
    rng = random.Random(seed)
    db = build_world(rng)
    query = random_query(rng)
    free = sorted(query.where.free_vars())
    bindings = {v: query.bindings[v] for v in free}
    rows_s, counters_s = run_with_counters(
        db, bindings, query.where, batch=False
    )
    rows_b, counters_b = run_with_counters(
        db, bindings, query.where, batch=True
    )
    assert rows_s == rows_b, f"seed {seed}: {query.where}"
    assert counters_s == counters_b, f"seed {seed}: {query.where}"


# ---------------------------------------------------------------------------
# Every atom kind, including the shapes that must chunk through the
# scalar fallback
# ---------------------------------------------------------------------------


def build_atom_world(rng: random.Random) -> MostDatabase:
    """A sparse world with a ball region and a third bound class, so the
    atom sweep covers polygon + ball regions and k∈{1,2,3} spheres."""
    db = build_sparse_world(rng)
    db.define_region("B", Ball(Point(5, -5), 9))
    db.create_class(ObjectClass("trucks", spatial_dimensions=2))
    for i in range(2):
        db.add_moving_object(
            "trucks",
            f"t{i}",
            Point(rng.randint(-40, 40), rng.randint(-40, 40)),
            Point(rng.randint(-2, 2), rng.randint(-2, 2)),
        )
    return db


ATOMS = [
    Inside(Var("c"), "P"),
    Outside(Var("c"), "Q"),
    Inside(Var("c"), "B"),
    Outside(Var("v"), "B"),
    WithinSphere(3, (Var("c"),)),
    WithinSphere(3, (Var("c"), Var("v"))),
    WithinSphere(6, (Var("c"), Var("v"), Var("t"))),
    Compare("<=", Dist(Var("c"), Var("v")), Const(5)),
    Compare(">=", Dist(Var("c"), Var("v")), Const(5)),
    Compare("<", Dist(Var("c"), Var("v")), Const(5)),
    Compare(">", Const(5), Dist(Var("c"), Var("v"))),
    Compare("<=", Attr(Var("c"), "x_position"), Const(3)),
    Compare(">=", Attr(Var("c"), "price"), Const(75)),
]

_CLASS_OF = {"c": "cars", "v": "vans", "t": "trucks"}


@pytest.mark.parametrize("atom", ATOMS, ids=lambda a: str(a))
def test_every_atom_kind(atom):
    """Each atom kind, alone and under a temporal operator: equal rows
    and equal counters, batch on and off."""
    for seed in range(6):
        rng = random.Random(2000 + seed)
        db = build_atom_world(rng)
        free = sorted(atom.free_vars())
        bindings = {v: _CLASS_OF[v] for v in free}
        for where in (atom, Eventually(atom)):
            rows_s, counters_s = run_with_counters(
                db, bindings, where, batch=False
            )
            rows_b, counters_b = run_with_counters(
                db, bindings, where, batch=True
            )
            assert rows_s == rows_b, f"seed {seed}: {where}"
            assert counters_s == counters_b, f"seed {seed}: {where}"


def test_nonlinear_movers_chunk_through_the_scalar_fallback():
    """Sinusoid movers have no linear breakpoints, so the batch rejects
    their rows and solves them scalar mid-batch — answers and counters
    must still match the all-scalar run exactly."""
    for seed in range(10):
        rng = random.Random(3000 + seed)
        db = build_world(rng)
        db.add_object(
            "cars",
            "osc",
            static={"price": 10.0},
            dynamic={
                "x_position": DynamicAttribute(
                    2.0, function=SinusoidFunction(8, 0.7)
                ),
                "y_position": DynamicAttribute.static(3.0),
            },
        )
        bindings = {"c": "cars", "v": "vans"}
        for where in (
            Inside(Var("c"), "P"),
            Compare("<=", Dist(Var("c"), Var("v")), Const(6)),
            WithinSphere(4, (Var("c"), Var("v"))),
        ):
            rows_s, counters_s = run_with_counters(
                db, bindings, where, batch=False
            )
            rows_b, counters_b = run_with_counters(
                db, bindings, where, batch=True
            )
            assert rows_s == rows_b, f"seed {seed}: {where}"
            assert counters_s == counters_b, f"seed {seed}: {where}"


# ---------------------------------------------------------------------------
# All three evaluators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_naive_oracle_agrees_with_batched_interval(seed):
    """The per-state oracle (which has no kinetic solves to batch) vs
    the batched interval evaluator on one world."""
    rng = random.Random(seed)
    db = build_world(rng)
    query = random_query(rng)
    oracle = rows_of(
        query.evaluate_full(FutureHistory(db), HORIZON, method="naive")
    )
    db.kinetic_cache.clear()
    batched = rows_of(query.evaluate_full(FutureHistory(db), HORIZON))
    assert oracle == batched, f"seed {seed}: {query.where}"


@pytest.mark.parametrize("seed", range(40))
def test_incremental_continuous_queries_under_updates(seed):
    """Scalar vs batched incremental continuous queries over identical
    update streams: every display and the final Answer(CQ) must agree.
    This drives the batch path through PartialIntervalEvaluator's dirty
    frontiers, where the surviving row sets shift every step."""
    rng = random.Random(seed)
    world_bits = rng.getstate()
    dbs = []
    for _ in range(2):
        rng.setstate(world_bits)
        dbs.append(build_world(rng))
    query = random_query(rng)
    scalar = ContinuousQuery(
        dbs[0],
        query,
        horizon=HORIZON,
        method="incremental",
        options=SCALAR,
    )
    batched = ContinuousQuery(
        dbs[1], query, horizon=HORIZON, method="incremental"
    )
    for step in range(STEPS):
        for db in dbs:
            db.clock.tick()
        apply_random_updates(rng, dbs)
        a, b = scalar.current(), batched.current()
        assert a == b, (
            f"seed {seed} step {step}: displays diverge for {query.where}\n"
            f"scalar:  {sorted(a, key=str)}\n"
            f"batched: {sorted(b, key=str)}"
        )
    tuples = [
        sorted((t.values, t.begin, t.end) for t in cq.answer_tuples())
        for cq in (scalar, batched)
    ]
    assert tuples[0] == tuples[1], f"seed {seed}: {query.where}"


# ---------------------------------------------------------------------------
# The batch path really runs (keeping the suite honest)
# ---------------------------------------------------------------------------


def test_batch_path_actually_used(monkeypatch):
    """Guard: the default-on batch path routes atom evaluation through
    KineticBatch.solve — not a silent fallback to the scalar loop."""
    import repro.ftl.evaluator as evaluator_mod

    solves = []
    orig = evaluator_mod.KineticBatch

    class Counting(orig):
        def solve(self):
            solves.append(1)
            return super().solve()

    monkeypatch.setattr(evaluator_mod, "KineticBatch", Counting)
    rng = random.Random(4)
    db = build_world(rng)
    bindings = {"c": "cars", "v": "vans"}
    where = AndF(
        Inside(Var("c"), "P"),
        Compare("<=", Dist(Var("c"), Var("v")), Const(6)),
    )
    db.kinetic_cache.clear()
    ctx = EvalContext(FutureHistory(db), HORIZON, bindings)
    IntervalEvaluator(ctx).evaluate(where)
    assert solves, "batch_solver on never reached KineticBatch.solve"


def test_zero_length_window_stays_scalar():
    """A horizon-0 window has no kinetics to batch; the batch flag must
    be inert there (the scalar pairing synthesizes a zero-velocity leg
    the coefficient extraction deliberately does not reproduce)."""
    rng = random.Random(9)
    db = build_world(rng)
    bindings = {"c": "cars", "v": "vans"}
    ctx = EvalContext(FutureHistory(db), 0, bindings)
    assert not IntervalEvaluator(ctx)._use_batch()
    query = random_query(rng)
    scalar, batched = both_solvers(query, db, horizon=0)
    assert scalar == batched


# ---------------------------------------------------------------------------
# Cache-key compatibility and the configurable bound
# ---------------------------------------------------------------------------


def test_batch_and_scalar_fill_the_same_cache_keys():
    """A batched run must leave the shared cache exactly as a scalar run
    would: a scalar rerun over a batch-warmed cache is all hits with zero
    fresh solves, and vice versa."""
    rng = random.Random(5)
    db = build_world(rng)
    bindings = {"c": "cars", "v": "vans"}
    where = AndF(
        Inside(Var("c"), "P"),
        Compare("<=", Dist(Var("c"), Var("v")), Const(6)),
    )

    def run(batch):
        ctx = EvalContext(FutureHistory(db), HORIZON, bindings)
        ev = IntervalEvaluator(ctx, options=DEFAULT if batch else SCALAR)
        ev.evaluate(where)
        return ev

    db.kinetic_cache.clear()
    warm = run(batch=True)
    assert warm.kinetic_solves > 0
    reread = run(batch=False)
    assert reread.kinetic_solves == 0
    assert reread.cache_misses == 0
    assert reread.cache_hits > 0

    db.kinetic_cache.clear()
    warm = run(batch=False)
    assert warm.kinetic_solves > 0
    reread = run(batch=True)
    assert reread.kinetic_solves == 0
    assert reread.cache_misses == 0
    assert reread.cache_hits > 0


def test_database_cache_bound_is_configurable():
    """MostDatabase(kinetic_cache_size=N) bounds the shared cache, with
    the same FIFO eviction order as the default-sized cache."""
    from repro.ftl.atoms import DEFAULT_CACHE_ENTRIES

    db = MostDatabase(kinetic_cache_size=4)
    cache = db.kinetic_cache
    assert cache.max_entries == 4
    empty = IntervalSet.empty(DISCRETE)
    for i in range(10):
        cache.put(("k", i), empty)
    assert len(cache) == 4
    # FIFO: the six oldest are gone, the four newest survive.
    assert all(cache.get(("k", i)) is None for i in range(6))
    assert all(cache.get(("k", i)) is not None for i in range(6, 10))
    assert MostDatabase().kinetic_cache.max_entries == DEFAULT_CACHE_ENTRIES


def test_bounded_cache_serves_the_batch_path():
    """A tightly bounded cache (more surviving rows than entries, so the
    batch itself overflows it) evicts mid-run without perturbing answers
    — batch and scalar still agree tuple for tuple."""
    query = FtlQuery(
        targets=("c", "v"),
        bindings={"c": "cars", "v": "vans"},
        where=AndF(
            Inside(Var("c"), "P"),
            Compare("<=", Dist(Var("c"), Var("v")), Const(6)),
        ),
    )
    rows = []
    for batch in (False, True):
        rng = random.Random(21)
        db = build_world(rng)
        # The cache is built lazily on first use, so sizing the db after
        # world construction still applies the bound.
        db.kinetic_cache_size = 3
        assert db.kinetic_cache.max_entries == 3
        rel = query.evaluate_full(
            FutureHistory(db), HORIZON, options=DEFAULT if batch else SCALAR
        )
        assert len(db.kinetic_cache) <= 3
        rows.append(rows_of(rel))
    assert rows[0] == rows[1]


# ---------------------------------------------------------------------------
# Error parity
# ---------------------------------------------------------------------------


def test_batch_preserves_errors_on_nonspatial_objects():
    """An atom over a class without spatial attributes raises the same
    error with the batch backend on and off — batching must never
    reorder or swallow the scalar path's failures."""
    from repro.spatial import Polygon

    db = MostDatabase()
    db.create_class(ObjectClass("tags", dynamic_attributes=("level",)))
    db.define_region("P", Polygon.rectangle(0, 0, 5, 5))
    db.add_object(
        "tags",
        "t0",
        dynamic={"level": DynamicAttribute.linear(1.0, 0.5)},
    )
    query = FtlQuery(
        targets=("t",), bindings={"t": "tags"}, where=Inside(Var("t"), "P")
    )
    with pytest.raises((QueryError, SchemaError)) as scalar_err:
        query.evaluate_full(FutureHistory(db), 5, options=SCALAR)
    with pytest.raises((QueryError, SchemaError)) as batch_err:
        query.evaluate_full(FutureHistory(db), 5)
    assert type(scalar_err.value) is type(batch_err.value)
    assert str(scalar_err.value) == str(batch_err.value)
