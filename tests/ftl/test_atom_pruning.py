"""Differential suite for index-pruned atom evaluation (DESIGN.md §7).

The accelerated base case — trajectory-MBR pruning plus stamped solve
reuse — must be answer-invisible: for every seeded world, query and
evaluation method, the accelerated run must produce the same relation,
tuple for tuple and interval for interval, as the exhaustive run with
pruning off and no validity stamps.  The worlds here are deliberately
*sparse* (positions an order of magnitude wider than the regions and
proximity bounds) so the pruner actually fires; guard tests assert that
it does, keeping the suite honest.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MostDatabase, ObjectClass
from repro.core.dynamic import DynamicAttribute
from repro.core.history import FutureHistory, epoch_token
from repro.core.queries import ContinuousQuery
from repro.errors import QueryError, SchemaError
from repro.ftl import (
    AndF,
    Compare,
    Const,
    Dist,
    Eventually,
    FtlQuery,
    Inside,
    Outside,
    Var,
    WithinSphere,
    parse_query,
)
from repro.ftl.atoms import RoundAtoms, _MbrTable, overlap_join
from repro.ftl.context import DEFAULT, ORACLE, EvalContext
from repro.ftl.evaluator import IntervalEvaluator
from repro.ftl.naive import NaiveEvaluator
from repro.geometry import Point
from repro.index.rtree import RTree
from repro.motion import PiecewiseLinearFunction, SinusoidFunction
from repro.spatial import Polygon
from repro.spatial.regions import Ball, Box

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


def rows_of(relation):
    """Canonical, order-independent form of a relation for equality."""
    return sorted(
        (inst, tuple((iv.start, iv.end) for iv in iset.intervals))
        for inst, iset in relation.rows()
    )


def build_sparse_world(rng: random.Random, n: int = 6) -> MostDatabase:
    """A fleet spread over +-300 with small regions: most instantiations
    never come near a region or each other, so pruning has teeth."""
    db = MostDatabase()
    db.create_class(
        ObjectClass("cars", static_attributes=("price",), spatial_dimensions=2)
    )
    db.create_class(ObjectClass("vans", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(-10, -10, 10, 10))
    db.define_region("Q", Polygon.rectangle(200, 200, 230, 230))
    for i in range(n):
        db.add_moving_object(
            "cars",
            f"c{i}",
            Point(rng.randint(-300, 300), rng.randint(-300, 300)),
            Point(rng.randint(-2, 2), rng.randint(-2, 2)),
            static={"price": rng.randint(0, 150)},
        )
    for i in range(max(2, n // 2)):
        db.add_moving_object(
            "vans",
            f"v{i}",
            Point(rng.randint(-300, 300), rng.randint(-300, 300)),
            Point(rng.randint(-2, 2), rng.randint(-2, 2)),
        )
    return db


#: Pruning on; no validity stamp, so every surviving row really solves.
PRUNED = DEFAULT
#: No index gate either: one solve per instantiation.
EXHAUSTIVE = replace(DEFAULT, index_pruning=False)


def held_store(db):
    """A store of solved atom rows (:class:`RoundAtoms`) for evaluations
    outside a continuous query: like the update router's, it drops the
    rows of every object committed to at its next open."""
    return RoundAtoms(db)


def read_through(table, ctx):
    """``table`` opened for one evaluation over ``ctx``'s window."""
    return table.open(epoch_token(ctx.history), ctx.end)


def stamped_rows(query, db, options=DEFAULT, table=None):
    """Rows of one evaluation reading ``table`` (a fresh store when
    none is given)."""
    ctx = EvalContext(FutureHistory(db), HORIZON, query.bindings)
    table = held_store(db) if table is None else table
    evaluator = IntervalEvaluator(
        ctx, options=options, atoms=read_through(table, ctx)
    )
    return rows_of(evaluator.evaluate(query.where))


def both_modes(query, db, horizon=HORIZON):
    """(exhaustive rows, accelerated rows) on snapshots of one db."""
    exhaustive = query.evaluate_full(
        FutureHistory(db), horizon, options=EXHAUSTIVE
    )
    accelerated = query.evaluate_full(FutureHistory(db), horizon)
    return rows_of(exhaustive), rows_of(accelerated)


# ---------------------------------------------------------------------------
# The main differential sweep: 200+ seeded scenarios
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(120))
def test_pruned_equals_exhaustive_random_worlds(seed):
    """Random dense-ish worlds and random formulas (all atom kinds, all
    temporal operators) — identical relations with and without the
    acceleration layers."""
    rng = random.Random(seed)
    db = build_world(rng)
    query = random_query(rng)
    plain, fast = both_modes(query, db)
    assert plain == fast, f"seed {seed}: {query.where}"


@pytest.mark.parametrize("seed", range(120, 220))
def test_pruned_equals_exhaustive_sparse_worlds(seed):
    """Sparse worlds where pruning fires on most instantiations."""
    rng = random.Random(seed)
    db = build_sparse_world(rng)
    query = random_query(rng)
    plain, fast = both_modes(query, db)
    assert plain == fast, f"seed {seed}: {query.where}"


ATOMS = [
    Inside(Var("c"), "P"),
    Outside(Var("c"), "Q"),
    WithinSphere(3, (Var("c"), Var("v"))),
    Compare("<=", Dist(Var("c"), Var("v")), Const(5)),
    Compare(">=", Dist(Var("c"), Var("v")), Const(5)),
    Compare("<", Dist(Var("c"), Var("v")), Const(5)),
    Compare(">", Const(5), Dist(Var("c"), Var("v"))),
]


@pytest.mark.parametrize("atom", ATOMS, ids=lambda a: str(a))
def test_every_prunable_atom_kind(atom):
    """Each prunable atom kind, alone and under a temporal operator, on
    sparse worlds — equal answers, and the pruner demonstrably fired."""
    pruned_total = 0
    for seed in range(8):
        rng = random.Random(1000 + seed)
        db = build_sparse_world(rng)
        free = sorted(atom.free_vars())
        bindings = {v: ("cars" if v == "c" else "vans") for v in free}
        for where in (atom, Eventually(atom)):
            query = FtlQuery(
                targets=tuple(free), bindings=bindings, where=where
            )
            plain, fast = both_modes(query, db)
            assert plain == fast, f"seed {seed}: {where}"
            ctx = EvalContext(FutureHistory(db), HORIZON, bindings)
            ev = IntervalEvaluator(ctx, options=PRUNED)
            ev.evaluate(where)
            pruned_total += ev.pruned_instantiations
    assert pruned_total > 0, f"pruner never fired for {atom}"


# ---------------------------------------------------------------------------
# Continuous queries under update streams
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("method", ["interval", "incremental"])
def test_continuous_queries_agree_under_updates(method, seed):
    """Accelerated vs exhaustive continuous queries over identical update
    streams: every display and the final Answer(CQ) must agree.  The
    accelerated queries refresh under validity stamps, so they also
    exercise stamped solve reuse across refreshes."""
    rng = random.Random(seed)
    world_bits = rng.getstate()
    dbs = []
    for _ in range(2):
        rng.setstate(world_bits)
        dbs.append(build_world(rng))
    query = random_query(rng)
    plain = ContinuousQuery(
        dbs[0],
        query,
        horizon=HORIZON,
        method=method,
        options=EXHAUSTIVE,
    )
    fast = ContinuousQuery(dbs[1], query, horizon=HORIZON, method=method)
    for step in range(STEPS):
        for db in dbs:
            db.clock.tick()
        apply_random_updates(rng, dbs)
        a, b = plain.current(), fast.current()
        assert a == b, (
            f"seed {seed} step {step}: displays diverge for {query.where}\n"
            f"exhaustive:  {sorted(a, key=str)}\n"
            f"accelerated: {sorted(b, key=str)}"
        )
    tuples = [
        sorted((t.values, t.begin, t.end) for t in cq.answer_tuples())
        for cq in (plain, fast)
    ]
    assert tuples[0] == tuples[1], f"seed {seed}: {query.where}"


def test_cache_invalidated_by_motion_update():
    """An explicit motion update commits its object, so the store drops
    its rows: a re-evaluation through the store tracks the new motion
    instead of serving the pre-update solve."""
    rng = random.Random(7)
    db = build_sparse_world(rng, n=4)
    query = FtlQuery(
        targets=("c",),
        bindings={"c": "cars"},
        where=Inside(Var("c"), "P"),
    )
    table = held_store(db)
    plain, _ = both_modes(query, db)
    assert stamped_rows(query, db, EXHAUSTIVE, table) == plain
    assert table.rows == 4  # every car's solve is stored
    # Send a far-away car through the region.
    db.update_motion("c0", Point(0, 0), position=Point(0, 0))
    plain, _ = both_modes(query, db)
    fast = stamped_rows(query, db, EXHAUSTIVE, table)
    assert plain == fast
    assert any(inst == ("c0",) for inst, _ in fast)


# ---------------------------------------------------------------------------
# Counters and cache units
# ---------------------------------------------------------------------------


def test_counters_account_for_pruning_and_caching():
    rng = random.Random(3)
    db = build_sparse_world(rng, n=8)
    # Survivors: a car crossing P with a van alongside, so pruning leaves
    # work for the cache layer to absorb on the second run.
    db.add_moving_object(
        "cars", "cnear", Point(-2, 0), Point(1, 0), static={"price": 1}
    )
    db.add_moving_object("vans", "vnear", Point(-1, 1), Point(1, 0))
    bindings = {"c": "cars", "v": "vans"}
    where = AndF(
        Inside(Var("c"), "P"),
        Compare("<=", Dist(Var("c"), Var("v")), Const(4)),
    )

    def run(options, table=None):
        ctx = EvalContext(FutureHistory(db), HORIZON, bindings)
        atoms = None if table is None else read_through(table, ctx)
        ev = IntervalEvaluator(ctx, options=options, atoms=atoms)
        ev.evaluate(where)
        return ev

    exhaustive = run(EXHAUSTIVE)
    pruned = run(PRUNED)
    assert exhaustive.pruned_instantiations == 0
    assert exhaustive.shared_rows == 0
    assert pruned.pruned_instantiations > 0
    assert pruned.kinetic_solves < exhaustive.kinetic_solves
    counters = pruned.counters()
    assert set(counters) == {
        "kinetic_solves",
        "sampled_atom_evals",
        "pruned_instantiations",
    }
    # Without a store nothing is reused: a second run solves again.
    assert run(PRUNED).kinetic_solves == pruned.kinetic_solves
    # The same evaluation twice through one store: the second run reads
    # every row, decided or solved, with no partition and no solve.
    table = held_store(db)
    first = run(DEFAULT, table)
    second = run(DEFAULT, table)
    assert first.kinetic_solves == pruned.kinetic_solves
    assert first.shared_rows == 0
    assert second.kinetic_solves == second.pruned_instantiations == 0
    # Per-atom stats feed the drift report.
    instantiations = 0
    for stats in second.atom_stats.values():
        assert stats["pruned"] == stats["solves"] == 0
        assert "cache_hits" not in stats
        instantiations += stats["instantiations"]
    assert second.shared_rows == instantiations > 0


def test_cache_bound_is_enforced():
    """The store is bounded by its live atoms' rows: a commit drops
    every row naming its object (pairs included) at the next open, and
    :meth:`RoundAtoms.retain` keeps only the atoms named."""
    from repro.temporal import DISCRETE, IntervalSet

    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    for i in range(10):
        db.add_moving_object("cars", f"o{i}", Point(i, 0), Point(1, 0))
    table = RoundAtoms(db)
    sets = IntervalSet.empty(DISCRETE)
    for i in range(10):
        table.store(table.entry(("k", i)), [((f"o{i}",), sets)], 0, 10)
    fuel = table.entry(("fuel",))
    table.store(fuel, [(("o1",), sets)], 0, 10)
    pairs = table.entry(("pairs",))
    table.store(pairs, [(("o0", "o1"), sets), (("o2", "o3"), sets)], 0, 10)
    assert (len(table), table.rows) == (12, 13)
    db.update_motion("o1", Point(0, 1))
    assert table.rows == 13  # dropped only when the store is next opened
    table.open("round", 10)
    assert (len(table), table.rows) == (12, 10)
    assert ("o0", "o1") not in pairs and ("o2", "o3") in pairs
    assert ("o1",) not in fuel
    table.retain([("k", 9), ("pairs",)])
    assert (len(table), table.rows) == (2, 2)
    db.update_motion("o9", Point(0, 1))
    db.update_motion("o3", Point(0, 1))
    table.open("round", 10)
    assert (len(table), table.rows) == (2, 0)


def test_naive_read_through_matches_geometry():
    """Cache coherence of the two representations, checked from outside:
    an interval pass answered entirely from the warm cache (hits, zero
    solves) returns the rows the per-state oracle derives from geometry.
    The oracle itself never reads the cache the evaluator under test
    writes."""
    rng = random.Random(11)
    db = build_world(rng)
    bindings = {"c": "cars", "v": "vans"}
    where = AndF(
        Inside(Var("c"), "P"), WithinSphere(4, (Var("c"), Var("v")))
    )
    unpruned = replace(DEFAULT, index_pruning=False)

    table = held_store(db)

    def interval_pass():
        ctx = EvalContext(FutureHistory(db), HORIZON, bindings)
        evaluator = IntervalEvaluator(
            ctx, options=unpruned, atoms=read_through(table, ctx)
        )
        return evaluator, evaluator.evaluate(where)

    warm, _ = interval_pass()
    assert warm.kinetic_solves > 0
    reread, from_cache = interval_pass()
    assert reread.shared_rows > 0
    assert reread.kinetic_solves == 0
    ctx = EvalContext(FutureHistory(db), HORIZON, bindings)
    naive = NaiveEvaluator(ctx)
    assert not hasattr(naive, "shared_rows")
    assert rows_of(from_cache) == rows_of(naive.evaluate(where))


# ---------------------------------------------------------------------------
# Error parity
# ---------------------------------------------------------------------------


def test_pruning_preserves_errors_on_nonspatial_objects():
    """An atom over a class without spatial attributes raises the same
    error with acceleration on and off — pruning must never swallow it."""
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
    with pytest.raises((QueryError, SchemaError)) as plain_err:
        query.evaluate_full(FutureHistory(db), 5, options=EXHAUSTIVE)
    with pytest.raises((QueryError, SchemaError)) as fast_err:
        query.evaluate_full(FutureHistory(db), 5)
    assert type(plain_err.value) is type(fast_err.value)
    assert str(plain_err.value) == str(fast_err.value)


def test_negative_sphere_radius_raises_like_exhaustive():
    """A negative WITHIN_SPHERE radius (only reachable below the static
    analysis) is the solve path's error to raise: the gate must neither
    prune the instantiation nor fail on a shrunken probe box."""
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.add_moving_object("cars", "far", Point(500, 0), Point(0, 0))
    db.add_moving_object("cars", "long", Point(0, 0), Point(3, 0))
    where = WithinSphere(-1, (Var("a"), Var("b")))
    errors = []
    for options in (EXHAUSTIVE, PRUNED):
        ctx = EvalContext(
            FutureHistory(db), HORIZON, {"a": "cars", "b": "cars"}
        )
        with pytest.raises(Exception) as err:
            IntervalEvaluator(ctx, options=options).evaluate(where)
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("op", ["<=", ">=", "<", ">"])
def test_nan_dist_bound_is_never_pruned(op):
    """Every comparison with a NaN bound is false, so the exhaustive
    answer is empty; a NaN-inflated box meets nothing, so a gate that
    took the pair for far apart would report ``>=`` / ``>`` as holding
    over the whole window."""
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.create_class(
        ObjectClass("zones", static_attributes=("r",), spatial_dimensions=2)
    )
    for i in range(4):
        db.add_moving_object("cars", f"c{i}", Point(100 * i, 0), Point(1, 0))
    db.add_moving_object(
        "zones", "z0", Point(-500, -500), Point(0, 0), static={"r": math.nan}
    )
    query = parse_query(
        f"RETRIEVE c FROM cars c, zones z WHERE DIST(c, z) {op} z.r"
    )
    want = query.evaluate(FutureHistory(db), 10, options=ORACLE)
    got = query.evaluate(FutureHistory(db), 10)
    assert rows_of(got) == rows_of(want) == []


def test_nan_sphere_radius_is_never_pruned():
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.add_moving_object("cars", "far", Point(500, 0), Point(0, 0))
    db.add_moving_object("cars", "near", Point(0, 0), Point(1, 0))
    where = WithinSphere(math.nan, (Var("a"), Var("b")))
    ctx = EvalContext(FutureHistory(db), HORIZON, {"a": "cars", "b": "cars"})
    assert ctx.atom_pruner().partition(where, ["a", "b"], [("far", "near")]) is None
    query = FtlQuery(
        targets=("a", "b"), bindings={"a": "cars", "b": "cars"}, where=where
    )
    plain, fast = both_modes(query, db)
    assert plain == fast


# ---------------------------------------------------------------------------
# The MBR table against an R-tree loaded with the same leg boxes
# ---------------------------------------------------------------------------
#
# ``AtomIndexPruner`` answers candidate queries with one vectorised
# overlap mask over a columnar table of leg boxes.  The reference below
# is the structure it replaced: the same boxes as ``Box`` objects in a
# Guttman R-tree per dimensionality, probed with ``RTree.search``.  The
# two must return *equal* sets — a superset would be sound, but would
# move ``pruned_instantiations``, cache keys and every golden counter.


class RTreeCandidates:
    """Candidate sets from ``RTree.search`` over a context's leg boxes."""

    def __init__(self, ctx):
        self.trees = {}
        self.boxes = {}
        self.unprunable = set()
        scale = 1.0
        for oid in dict.fromkeys(
            oid for var in ctx.bindings for oid in ctx.domain(var)
        ):
            try:
                mover = ctx.moving_point(oid)
                pieces = mover.linear_pieces(ctx.start, ctx.end)
            except (QueryError, SchemaError):
                pieces = None
            if pieces is None:
                self.unprunable.add(oid)
                continue
            tree = self.trees.setdefault(mover.dim, RTree())
            self.boxes[oid] = []
            for piece in pieces:
                a, b = piece.origin, piece.position_at(piece.end)
                bounds = [(min(x, y), max(x, y)) for x, y in zip(a, b)]
                scale = max(scale, *(abs(c) for pair in bounds for c in pair))
                self.boxes[oid].append(Box.from_bounds(*bounds))
                tree.insert(self.boxes[oid][-1], oid)
        self.pad = 1e-6 * (1.0 + scale)

    def _search(self, dim, probes):
        cands = set(self.unprunable)
        for d, tree in self.trees.items():
            if d == dim:
                for probe in probes:
                    cands.update(tree.search(probe))
            else:
                cands.update(
                    oid for oid, bs in self.boxes.items() if bs[0].dim == d
                )
        return frozenset(cands)

    def region(self, region):
        pad = self.pad
        if isinstance(region, Polygon):
            x0, y0, x1, y1 = region.bounding_box()
            bounds = [(x0 - pad, x1 + pad), (y0 - pad, y1 + pad)]
        else:
            bounds = [
                (c - region.radius - pad, c + region.radius + pad)
                for c in region.center
            ]
        return self._search(len(bounds), [Box.from_bounds(*bounds)])

    def pair(self, oid, radius):
        if oid not in self.boxes:
            return None
        grow = radius + self.pad
        probes = [
            Box.from_bounds(
                *((l - grow, h + grow) for l, h in zip(b.lo, b.hi))
            )
            for b in self.boxes[oid]
        ]
        return self._search(probes[0].dim, probes) | {oid}


def assert_table_equals_rtree(ctx, regions, radii):
    pruner = ctx.atom_pruner()
    reference = RTreeCandidates(ctx)
    for region in regions:
        assert pruner.region_candidates(region) == reference.region(region)
    for oid in [oid for var in ctx.bindings for oid in ctx.domain(var)]:
        assert pruner.is_indexed(oid) == (oid in reference.boxes)
        for radius in radii:
            assert pruner.pair_candidates(oid, radius) == reference.pair(
                oid, radius
            ), (oid, radius)


def add_piecewise_car(db, oid, x, y, legs, vy):
    """A 2-D car whose x axis follows ``legs`` = ``[(start, slope)]``."""
    db.add_object(
        "cars",
        oid,
        dynamic={
            "x_position": DynamicAttribute(
                x, 0.0, PiecewiseLinearFunction(legs)
            ),
            "y_position": DynamicAttribute.linear(y, vy),
        },
    )


def build_mixed_world(rng: random.Random, n: int = 8) -> MostDatabase:
    """Every shape the table has to plot or refuse, on integer grids so
    that boxes often touch exactly: linear and piecewise-linear 2-D
    movers, 3-D movers, one nonlinear (unprunable) and one non-spatial
    (raising) object."""
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.create_class(ObjectClass("drones", spatial_dimensions=3))
    db.create_class(ObjectClass("tags", dynamic_attributes=("level",)))

    def pos():
        return rng.randint(-20, 20)

    def vel():
        return rng.randint(-2, 2)

    for i in range(n):
        db.add_moving_object(
            "cars", f"c{i}", Point(pos(), pos()), Point(vel(), vel())
        )
    for i in range(n // 2):
        starts = sorted(rng.sample(range(1, 12), rng.randint(1, 3)))
        legs = [(0, vel())] + [(start, vel()) for start in starts]
        add_piecewise_car(db, f"p{i}", pos(), pos(), legs, vel())
    for i in range(n // 2):
        db.add_moving_object(
            "drones",
            f"d{i}",
            Point(pos(), pos(), pos()),
            Point(vel(), vel(), rng.randint(-1, 1)),
        )
    db.add_object(
        "cars",
        "wobbly",
        dynamic={
            "x_position": DynamicAttribute(0.0, 0.0, SinusoidFunction(5.0, 0.7)),
            "y_position": DynamicAttribute.linear(0.0, 1.0),
        },
    )
    db.add_object(
        "tags", "t0", dynamic={"level": DynamicAttribute.linear(1.0, 0.5)}
    )
    return db


MIXED_BINDINGS = {"c": "cars", "d": "drones", "t": "tags"}


@pytest.mark.parametrize("seed", range(40))
def test_table_candidates_equal_rtree_candidates(seed):
    rng = random.Random(4000 + seed)
    db = build_mixed_world(rng)
    horizon = rng.choice((0, 1, 6, 14))  # 0: a zero-length window
    ctx = EvalContext(FutureHistory(db), horizon, MIXED_BINDINGS)
    regions = [
        Polygon.rectangle(-5, -5, 5, 5),
        Polygon.rectangle(rng.randint(-20, 0), -3, rng.randint(1, 20), 30),
        Ball(Point(rng.randint(-10, 10), rng.randint(-10, 10)), 4.0),
        Ball(Point(0, 0, 0), float(rng.randint(0, 12))),
    ]
    assert_table_equals_rtree(ctx, regions, (0.0, 1.0, 2.5, 7.0, 40.0))
    pruner = ctx.atom_pruner()
    for oid in ("wobbly", "t0", "nobody"):  # nonlinear, non-spatial, unknown
        assert not pruner.is_indexed(oid)
        assert pruner.pair_candidates(oid, 1.0) is None
    assert {"wobbly", "t0"} <= pruner.region_candidates(regions[0])


coord = st.integers(min_value=-30, max_value=30)
speed = st.integers(min_value=-3, max_value=3)
turns = st.lists(
    st.tuples(st.integers(min_value=1, max_value=10), speed),
    max_size=3,
    unique_by=lambda turn: turn[0],
)
PROPERTY = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@PROPERTY
@given(
    cars=st.lists(st.tuples(coord, coord, speed, speed, turns), min_size=1, max_size=8),
    drones=st.lists(st.tuples(coord, coord, coord, speed, speed, speed), max_size=4),
    horizon=st.integers(min_value=0, max_value=12),
    rect=st.tuples(coord, coord, coord, coord),
    ball=st.tuples(coord, coord, coord, st.integers(min_value=0, max_value=20)),
    radius=st.integers(min_value=0, max_value=40),
)
def test_table_candidates_equal_rtree_candidates_property(
    cars, drones, horizon, rect, ball, radius
):
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.create_class(ObjectClass("drones", spatial_dimensions=3))
    for i, (x, y, vx, vy, legs) in enumerate(cars):
        add_piecewise_car(db, f"c{i}", x, y, [(0, vx)] + sorted(legs), vy)
    for i, (x, y, z, vx, vy, vz) in enumerate(drones):
        db.add_moving_object(
            "drones", f"d{i}", Point(x, y, z), Point(vx, vy, vz)
        )
    ctx = EvalContext(
        FutureHistory(db), horizon, {"c": "cars", "d": "drones"}
    )
    x0, y0, x1, y1 = rect
    regions = [
        Polygon.rectangle(
            min(x0, x1), min(y0, y1), max(x0, x1) + 1, max(y0, y1) + 1
        ),
        Ball(Point(*ball[:3]), float(ball[3])),
    ]
    assert_table_equals_rtree(ctx, regions, (float(radius),))


#: Linear-motion-free but spatial: unprunable, and safe to solve.
NONLINEAR = {"wobbly"}


def decided_rows(pruner, atom, free, rows):
    """The rows of ``rows`` the pruner's partition of ``atom`` decides."""
    split = pruner.partition(atom, free, rows)
    if split is None:
        return set()
    solve, count, _known = split
    out = set(rows) - {rows[i] for i in solve.tolist()}
    assert len(out) == count
    return out


def assert_gates_equal_rtree(ctx, radii):
    """As the first use of a fresh context, the ``DIST`` and
    ``WITHIN_SPHERE`` partitions decide a pair exactly when the R-tree
    reference has the second object indexed and outside the first's
    candidates (a sphere also needs both objects safe to solve)."""
    pruner = ctx.atom_pruner()
    ids = [oid for var in ctx.bindings for oid in ctx.domain(var)]
    ids = [*dict.fromkeys(ids), "nobody"]
    rows = [(a, b) for a in ids for b in ids]
    free = ["x", "y"]
    dist = {
        r: decided_rows(
            pruner, Compare("<=", Dist(Var("x"), Var("y")), Const(r)), free, rows
        )
        for r in radii
    }
    sphere = {
        r: decided_rows(pruner, WithinSphere(r, (Var("x"), Var("y"))), free, rows)
        for r in radii
    }
    reference = RTreeCandidates(ctx)
    pairs = {}

    def apart(a, b, radius):
        if (a, radius) not in pairs:
            pairs[a, radius] = reference.pair(a, radius)
        cands = pairs[a, radius]
        return cands is not None and b in reference.boxes and b not in cands

    def safe(oid):
        return oid in reference.boxes or oid in NONLINEAR

    pruned = 0
    for a, b in rows:
        for r in radii:
            want = apart(a, b, float(r))
            assert ((a, b) in dist[r]) == want, ("dist", a, b, r)
            pruned += want
            want = safe(a) and safe(b) and apart(a, b, 2.0 * float(r))
            assert ((a, b) in sphere[r]) == want, ("sphere", a, b, r)
    return pruned


def build_edge_world(rng: random.Random, n: int = 8) -> MostDatabase:
    """The mixed world's nonlinear and non-spatial members beside movers
    near 1e9, where one ulp is 2**-23 and the pad is about 1000, and a
    rocket whose one leg is 1e6 wide over ten ticks."""
    db = build_mixed_world(rng, n=0)
    base = 1e9
    for i in range(n):
        db.add_moving_object(
            "cars",
            f"e{i}",
            Point(base + rng.randint(-20, 20) * 1000.375, rng.randint(-20, 20)),
            Point(rng.choice((-0.3, 0.0, 0.7, 1.1)), rng.randint(-2, 2)),
        )
    db.add_moving_object("cars", "rocket", Point(base - 5e5, 0), Point(1e5, 0))
    db.add_moving_object("drones", "d0", Point(base, 0, 0), Point(1, 0, 0))
    return db


@pytest.mark.parametrize("world", [build_mixed_world, build_edge_world])
@pytest.mark.parametrize("seed", range(12))
def test_gates_equal_rtree_decisions(world, seed):
    rng = random.Random(5000 + seed)
    db = world(rng)
    horizon = rng.choice((0, 1, 6, 14))  # 0: a zero-length window
    bindings = {**MIXED_BINDINGS, "x": "cars", "y": "cars"}
    ctx = EvalContext(FutureHistory(db), horizon, bindings)
    radii = (0.0, 1.0, 2.5, 7.0, 40.0, 1500.0)
    pruned = assert_gates_equal_rtree(ctx, radii)
    assert pruned > 0, "the wall never saw a pair pruned"
    if world is build_edge_world:
        regions = [Polygon.rectangle(1e9 - 3000, -5, 1e9 + 3000, 5)]
        assert_table_equals_rtree(ctx, regions, radii)


def test_gate_decides_boxes_touching_at_r_plus_pad():
    """A static box exactly ``r + pad`` from another touches it (the
    solve path decides); one ulp farther it is pruned."""
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.add_moving_object("cars", "anchor", Point(100.0, 100.0), Point(0, 0))
    db.add_moving_object("cars", "a", Point(0.0, 0.0), Point(0, 0))
    r, pad = 2.5, 1e-6 * (1.0 + 100.0)
    touch = 0.0 + (r + pad)
    db.add_moving_object("cars", "touch", Point(touch, 0.0), Point(0, 0))
    gap = math.nextafter(touch, math.inf)
    db.add_moving_object("cars", "gap", Point(gap, 0.0), Point(0, 0))
    bindings = {"x": "cars", "y": "cars"}
    ctx = EvalContext(FutureHistory(db), 5, bindings)
    near = Compare("<=", Dist(Var("x"), Var("y")), Const(r))
    rows = [("a", "touch"), ("a", "gap")]
    assert decided_rows(ctx.atom_pruner(), near, ["x", "y"], rows) == {("a", "gap")}
    assert ctx.atom_pruner()._pad == pad
    assert "touch" in ctx.atom_pruner().pair_candidates("a", r)
    assert "gap" not in ctx.atom_pruner().pair_candidates("a", r)
    assert_gates_equal_rtree(EvalContext(FutureHistory(db), 5, bindings), (r,))
    query = FtlQuery(targets=("x", "y"), bindings=bindings, where=near)
    plain, fast = both_modes(query, db, horizon=5)
    assert plain == fast


box_corners = st.lists(st.tuples(coord, coord), min_size=2, max_size=2)


@PROPERTY
@given(
    boxes=st.lists(box_corners, min_size=1, max_size=30),
    probes=st.lists(box_corners, min_size=1, max_size=3),
)
def test_table_overlap_equals_rtree_search(boxes, probes):
    """Integer corners: most examples have boxes meeting a probe exactly
    on a face or corner, where only a closed test agrees with the tree."""

    def corners(pair):
        return tuple(map(min, *pair)), tuple(map(max, *pair))

    boxes = [corners(pair) for pair in boxes]
    probes = [corners(pair) for pair in probes]
    tree = RTree()
    for row, (lo, hi) in enumerate(boxes):
        tree.insert(Box(Point(*lo), Point(*hi)), row)
    expected = set()
    for lo, hi in probes:
        expected.update(tree.search(Box(Point(*lo), Point(*hi))))
    assert joined(table_of(probes), table_of(boxes)) == expected


def test_table_overlap_is_closed_on_the_boundary():
    """Boxes that share exactly one face, edge or corner with the probe
    overlap (``Box.intersects`` is closed); one ulp apart they do not."""
    boxes = {
        "face": ((2.0, 0.0), (3.0, 1.0)),
        "corner": ((2.0, 1.0), (3.0, 4.0)),
        "point": ((0.0, 0.0), (0.0, 0.0)),
        "inside": ((0.5, 0.5), (0.75, 0.75)),
        "gap": ((math.nextafter(2.0, 3.0), 0.0), (3.0, 1.0)),
        "below": ((0.0, -2.0), (1.0, math.nextafter(0.0, -1.0))),
    }
    table = table_of(boxes.values(), list(boxes))
    tree = RTree()
    for name, (lo, hi) in boxes.items():
        tree.insert(Box(Point(*lo), Point(*hi)), name)
    probe = table_of([((0.0, 0.0), (2.0, 1.0))])
    got = {table.owners[i] for i in joined(probe, table)}
    assert got == {"face", "corner", "point", "inside"}
    assert got == set(tree.search(Box(Point(0.0, 0.0), Point(2.0, 1.0))))
    # The same contact reached through the inflate: the probe grown by
    # 0.5 on every side against boxes moved 0.5 outward.
    shifted = table_of(
        [
            ((lo[0] + 0.5, lo[1]), (hi[0] + 0.5, hi[1]))
            for lo, hi in boxes.values()
        ],
        list(boxes),
    )
    small = table_of([((0.5, 0.0), (2.0, 1.0))])
    got = {shifted.owners[i] for i in joined(small, shifted, 0.5)}
    assert got == set(boxes) - {"gap"}


def table_of(boxes, owners=None):
    """An ``_MbrTable`` of ``(lo corner, hi corner)`` pairs."""
    boxes = list(boxes)
    return _MbrTable(
        [list(lo) for lo, _ in boxes],
        [list(hi) for _, hi in boxes],
        list(range(len(boxes))) if owners is None else owners,
    )


def joined(left, right, inflate=0.0):
    """The right rows any left row meets, through the join."""
    _, rows = overlap_join(left, right, inflate)
    return set(rows.tolist())


def broadcast_rows(left, right, inflate):
    """The reference the join replaced, kept here only: one closed
    overlap mask of every left box, grown by ``inflate``, against every
    right box — the right rows each left row meets, as sorted lists."""
    grown_lo = left.lo - inflate
    grown_hi = left.hi + inflate
    mask = (right.lo[:, None, :] <= grown_hi[:, :, None]) & (
        grown_lo[:, :, None] <= right.hi[:, None, :]
    )
    return [np.flatnonzero(row).tolist() for row in mask.all(axis=0)]


def join_rows(left, right, inflate):
    indptr, rows = overlap_join(left, right, inflate)
    return [
        sorted(rows[indptr[i] : indptr[i + 1]].tolist())
        for i in range(len(indptr) - 1)
    ]


#: Axis-0 offsets where ``lo - width`` rounds: the ulp near 1e9 is 2**-23.
BASES = (0.0, 1e9, -1e9, 2.0**53)
#: Leg widths spanning six orders of magnitude within one table.
WIDTHS = (0.0, 0.25, 1.0, 3.0, 1e6)


@st.composite
def wide_boxes(draw, base):
    lo = [base + draw(st.integers(-40, 40)) * 0.375, draw(coord) * 0.5]
    widths = [draw(st.sampled_from(WIDTHS)), draw(st.sampled_from(WIDTHS[:4]))]
    return tuple(lo), tuple(x + w for x, w in zip(lo, widths))


@PROPERTY
@given(
    data=st.data(),
    base=st.sampled_from(BASES),
    inflate=st.sampled_from((0.0, 0.5, 1e-6 * (1 + 1e9), 2.0, 7.25, 1e6)),
)
def test_join_rows_equal_broadcast_mask(data, base, inflate):
    """Row for row, the sorted join returns exactly the pairs of the
    broadcast mask: its axis-0 window never drops a match, even where
    widths differ by 1e6 and coordinates sit where ulps exceed 1."""
    left = table_of(data.draw(st.lists(wide_boxes(base), min_size=1, max_size=12)))
    right = table_of(
        data.draw(st.lists(wide_boxes(base), min_size=1, max_size=40))
    )
    assert join_rows(left, right, inflate) == broadcast_rows(
        left, right, inflate
    )


def test_join_window_survives_rounding_near_1e9():
    """A long leg sorted first must still reach a probe far to its
    right, and boxes one ulp short of the grown probe must stay out."""
    probe = table_of([((1e9 + 10.0, 0.0), (1e9 + 10.0, 0.0))])
    gap = math.nextafter(1e9 + 10.0 - 2.0, -math.inf)
    right = table_of(
        [
            ((1e9 - 1e6, 0.0), (1e9 + 8.0, 0.0)),  # ends exactly at lo - 2
            ((1e9 - 5.0, 0.0), (gap, 0.0)),  # one ulp short
            ((1e9 + 12.0, 0.0), (1e9 + 13.0, 0.0)),  # starts at hi + 2
            ((math.nextafter(1e9 + 12.0, math.inf), 0.0), (1e9 + 20.0, 0.0)),
        ]
    )
    assert join_rows(probe, right, 2.0) == [[0, 2]]
    assert join_rows(probe, right, 2.0) == broadcast_rows(probe, right, 2.0)


def test_join_is_blocked_on_dense_inputs(monkeypatch):
    """A join whose windows hold more pairs than one numpy pass takes
    returns the same CSR arrays in several passes."""
    import repro.ftl.atoms as atoms

    rng = random.Random(5)
    boxes = [
        ((x, y), (x + rng.randint(0, 4), y + rng.randint(0, 4)))
        for x, y in ((rng.randint(0, 30), rng.randint(0, 30)) for _ in range(60))
    ]
    table = table_of(boxes)
    whole = overlap_join(table, table, 3.0)
    monkeypatch.setattr(atoms, "_JOIN_BLOCK", 7)
    blocked = overlap_join(table, table, 3.0)
    assert [a.tolist() for a in whole] == [a.tolist() for a in blocked]
    assert join_rows(table, table, 3.0) == broadcast_rows(table, table, 3.0)


#: ``[(pruned, solves, rows read) of the first run, ... of the warm
#: re-run]`` on the worlds below.  The first run's pruned and solves were
#: recorded at the commit of the R-tree pruner; the warm re-run reads
#: every row from the store — decided and solved alike — so it
#: partitions and solves none.
PINNED_DENSE = [(374, 146, 0), (0, 0, 520)]
PINNED_SPARSE = [(420, 30, 0), (0, 0, 450)]


def test_candidate_counters_pinned_to_the_rtree_build():
    """``pruned_instantiations`` / ``kinetic_solves`` / ``shared_rows``
    of one dense and one sparse world, first run and warm re-run through
    one store: the first run exactly as the R-tree-backed pruner
    counted it."""
    near = Compare("<=", Dist(Var("c"), Var("v")), Const(12))
    dense_where = AndF(Eventually(Inside(Var("c"), "P")), near)
    sparse_where = Compare(">=", Dist(Var("c"), Var("v")), Const(60))
    bindings = {"c": "cars", "v": "vans"}

    def dense(rng):
        db = MostDatabase()
        db.create_class(ObjectClass("cars", spatial_dimensions=2))
        db.create_class(ObjectClass("vans", spatial_dimensions=2))
        db.define_region("P", Polygon.rectangle(-10, -10, 10, 10))
        for cls, count in (("cars", 40), ("vans", 12)):
            for i in range(count):
                db.add_moving_object(
                    cls,
                    f"{cls[0]}{i}",
                    Point(rng.randint(-40, 40), rng.randint(-40, 40)),
                    Point(rng.randint(-2, 2), rng.randint(-2, 2)),
                )
        return db

    def counters(db, where):
        out = []
        table = held_store(db)
        for _ in range(2):
            ctx = EvalContext(FutureHistory(db), HORIZON, bindings)
            ev = IntervalEvaluator(ctx, atoms=read_through(table, ctx))
            ev.evaluate(where)
            out.append(
                (ev.pruned_instantiations, ev.kinetic_solves, ev.shared_rows)
            )
        return out

    assert counters(dense(random.Random(77)), dense_where) == PINNED_DENSE
    sparse = build_sparse_world(random.Random(78), n=30)
    assert counters(sparse, sparse_where) == PINNED_SPARSE
