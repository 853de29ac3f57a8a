"""Differential harness: naive ≡ interval ≡ incremental continuous queries.

Three continuous queries — one per evaluation method — are registered over
identical randomly generated worlds and driven through the same randomized
update sequence.  At every step their displays must agree, and at the end
their full ``Answer(CQ)`` tuple sets must agree.  Scenarios use integer
positions, velocities and thresholds (like ``test_equivalence``) so the
kinetic solvers and the per-state oracle see the same tick-boundary
crossings.

Each seed is one deterministic case; the parametrized suite runs 200+.
"""

import random

import pytest

from repro.core import MostDatabase, ObjectClass
from repro.core.queries import ContinuousQuery
from repro.ftl import (
    Always,
    AlwaysFor,
    AndF,
    Attr,
    Compare,
    Const,
    Dist,
    Eventually,
    EventuallyAfter,
    EventuallyWithin,
    FtlQuery,
    Inside,
    Nexttime,
    NotF,
    OrF,
    Outside,
    Until,
    UntilWithin,
    Var,
    WithinSphere,
)
from repro.geometry import Point
from repro.spatial import Polygon

#: Random queries trip the FTL lint rules (FTL302, FTL501, FTL602, ...)
#: by design: the warnings are expected here and errors elsewhere.
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.ftl.analysis.diagnostics.FtlLintWarning"
)

HORIZON = 14
STEPS = 6

# ---------------------------------------------------------------------------
# Random worlds: two bound classes plus an unbound noise class
# ---------------------------------------------------------------------------


def build_world(rng: random.Random) -> MostDatabase:
    db = MostDatabase()
    db.create_class(
        ObjectClass("cars", static_attributes=("price",), spatial_dimensions=2)
    )
    db.create_class(ObjectClass("vans", spatial_dimensions=2))
    db.create_class(ObjectClass("birds", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(0, 0, 9, 9))
    db.define_region("Q", Polygon.rectangle(4, -6, 15, 3))
    for i in range(rng.randint(2, 3)):
        db.add_moving_object(
            "cars",
            f"c{i}",
            Point(rng.randint(-8, 12), rng.randint(-8, 12)),
            Point(rng.randint(-2, 2), rng.randint(-2, 2)),
            static={"price": rng.randint(0, 150)},
        )
    for i in range(rng.randint(1, 2)):
        db.add_moving_object(
            "vans",
            f"v{i}",
            Point(rng.randint(-8, 12), rng.randint(-8, 12)),
            Point(rng.randint(-2, 2), rng.randint(-2, 2)),
        )
    db.add_moving_object("birds", "b0", Point(0, 0), Point(1, 1))
    return db


# ---------------------------------------------------------------------------
# Random formulas from the incrementally maintainable fragment
# ---------------------------------------------------------------------------


def random_atom(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        ctor = rng.choice((Inside, Outside))
        return ctor(Var(rng.choice(("c", "v"))), rng.choice(("P", "Q")))
    if kind == 1:
        return Compare(
            rng.choice(("<=", ">=", "<", ">")),
            Attr(Var(rng.choice(("c", "v"))), "x_position"),
            Const(rng.randint(-10, 15)),
        )
    if kind == 2:
        return Compare(
            "<=", Attr(Var("c"), "price"), Const(rng.randint(0, 150))
        )
    if kind == 3:
        return Compare(
            rng.choice(("<=", ">=")),
            Dist(Var("c"), Var("v")),
            Const(rng.randint(0, 12)),
        )
    if kind == 4:
        return WithinSphere(rng.randint(1, 6), (Var("c"), Var("v")))
    return Compare(
        rng.choice(("<=", ">=")),
        Attr(Var("c"), "y_position"),
        Const(rng.randint(-10, 15)),
    )


def random_formula(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return random_atom(rng)
    kind = rng.randrange(11)
    sub = lambda: random_formula(rng, depth - 1)  # noqa: E731
    bound = rng.randint(0, 5)
    if kind == 0:
        return AndF(sub(), sub())
    if kind == 1:
        return OrF(sub(), sub())
    if kind == 2:
        return NotF(sub())
    if kind == 3:
        return Until(sub(), sub())
    if kind == 4:
        return UntilWithin(bound, sub(), sub())
    if kind == 5:
        return Nexttime(sub())
    if kind == 6:
        return Eventually(sub())
    if kind == 7:
        return EventuallyWithin(bound, sub())
    if kind == 8:
        return EventuallyAfter(bound, sub())
    if kind == 9:
        return Always(sub())
    return AlwaysFor(bound, sub())


def random_query(rng: random.Random) -> FtlQuery:
    formula = random_formula(rng, 2)
    free = sorted(formula.free_vars())
    if not free:  # pragma: no cover - atoms always mention a variable
        formula = AndF(formula, Inside(Var("c"), "P"))
        free = ["c"]
    bindings = {v: ("cars" if v == "c" else "vans") for v in free}
    return FtlQuery(targets=tuple(free), bindings=bindings, where=formula)


# ---------------------------------------------------------------------------
# Randomized update sequences applied identically to every replica
# ---------------------------------------------------------------------------


def apply_random_updates(rng: random.Random, dbs) -> None:
    """One step of the update process, replayed identically on each db."""
    n_updates = rng.randint(0, 2)
    movers = [o.object_id for o in dbs[0].objects_of("cars")] + [
        o.object_id for o in dbs[0].objects_of("vans")
    ]
    for _ in range(n_updates):
        action = rng.random()
        if action < 0.6:
            oid = rng.choice(movers)
            velocity = Point(rng.randint(-2, 2), rng.randint(-2, 2))
            position = (
                Point(rng.randint(-8, 12), rng.randint(-8, 12))
                if rng.random() < 0.3
                else None
            )
            for db in dbs:
                db.update_motion(oid, velocity, position=position)
        elif action < 0.8:
            price = rng.randint(0, 150)
            for db in dbs:
                db.update_static("c0", "price", price)
        else:
            # Noise: the unbound class must never dirty the answers.
            velocity = Point(rng.randint(-2, 2), rng.randint(-2, 2))
            for db in dbs:
                db.update_motion("b0", velocity)


def run_case(seed: int) -> None:
    rng = random.Random(seed)
    world_bits = rng.getstate()
    dbs = []
    for _ in range(3):
        rng.setstate(world_bits)  # identical replicas
        dbs.append(build_world(rng))
    query = random_query(rng)
    cqs = [
        ContinuousQuery(db, query, horizon=HORIZON, method=method)
        for db, method in zip(dbs, ("naive", "interval", "incremental"))
    ]
    naive, interval, incremental = cqs
    for step in range(STEPS):
        for db in dbs:
            db.clock.tick()
        apply_random_updates(rng, dbs)
        a, b, c = naive.current(), interval.current(), incremental.current()
        assert a == b == c, (
            f"seed {seed} step {step}: displays diverge for {query.where}\n"
            f"naive:       {sorted(a, key=str)}\n"
            f"interval:    {sorted(b, key=str)}\n"
            f"incremental: {sorted(c, key=str)}"
        )
    tuple_sets = [
        sorted((t.values, t.begin, t.end) for t in cq.answer_tuples())
        for cq in cqs
    ]
    assert tuple_sets[0] == tuple_sets[1] == tuple_sets[2], (
        f"seed {seed}: Answer(CQ) tuples diverge for {query.where}\n"
        f"naive:       {tuple_sets[0]}\n"
        f"interval:    {tuple_sets[1]}\n"
        f"incremental: {tuple_sets[2]}"
    )
    # The replicas saw identical update streams, so the unbound-class noise
    # and coalescing behaviour must leave all three counters in lockstep.
    assert naive.evaluations == interval.evaluations == incremental.evaluations


@pytest.mark.parametrize("seed", range(200))
def test_methods_agree(seed):
    run_case(seed)


@pytest.mark.parametrize("seed", range(200, 220))
def test_methods_agree_deep_formulas(seed):
    """Deeper trees stress the Until outer join and Or/Not enumeration."""
    rng = random.Random(seed)
    world_bits = rng.getstate()
    dbs = []
    for _ in range(3):
        rng.setstate(world_bits)
        dbs.append(build_world(rng))
    formula = random_formula(rng, 3)
    free = sorted(formula.free_vars())
    bindings = {v: ("cars" if v == "c" else "vans") for v in free}
    query = FtlQuery(targets=tuple(free), bindings=bindings, where=formula)
    cqs = [
        ContinuousQuery(db, query, horizon=HORIZON, method=method)
        for db, method in zip(dbs, ("naive", "interval", "incremental"))
    ]
    for step in range(4):
        for db in dbs:
            db.clock.tick()
        apply_random_updates(rng, dbs)
        results = [cq.current() for cq in cqs]
        assert results[0] == results[1] == results[2], (
            f"seed {seed} step {step}: {formula}"
        )


def test_incremental_actually_used():
    """Guard: the differential suite exercises the incremental path, not a
    silent fallback to full reevaluation."""
    refreshes = 0
    for seed in range(40):
        rng = random.Random(seed)
        world_bits = rng.getstate()
        rng.setstate(world_bits)
        db = build_world(rng)
        query = random_query(rng)
        cq = ContinuousQuery(db, query, horizon=HORIZON, method="incremental")
        assert cq._use_incremental
        for _ in range(STEPS):
            db.clock.tick()
            apply_random_updates(rng, [db])
            cq.current()
        refreshes += cq.incremental_refreshes
    assert refreshes > 50
