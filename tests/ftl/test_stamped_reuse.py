"""Stamped solve reuse: the one rule by which a kinetic solve is reused.

``db.kinetic_cache`` (:class:`~repro.ftl.atoms.KineticSolveCache`) holds,
per key, the window a solve ran over, the expiry of the validity stamp
it ran under and the answer.  Two things are pinned here:

* the closed forms of the store — an equal window, a contained window
  (equal to a fresh solve over it), a request ending past the stored
  end, a request starting at or after the expiry, replacement by a
  solve and the FIFO bound;
* that only a stamped evaluation touches it: a cold evaluation, an
  instantaneous query, a persistent query, a sharded evaluation, the
  ``ORACLE`` options and a continuous query without validity horizons
  build no key and leave the store empty — and the refresh round's
  atom table (``UpdateRouter.atoms``, one solve per atom per round)
  too, with a live continuous query holding the round open.
"""

import math
from dataclasses import replace

import pytest

from repro.core import MostDatabase, ObjectClass
from repro.core.dynamic import DynamicAttribute
from repro.core.history import FutureHistory
from repro.core.queries import (
    ContinuousQuery,
    InstantaneousQuery,
    PersistentQuery,
    UpdateRouter,
)
from repro.ftl import parse_query
from repro.ftl.atoms import KineticSolveCache
from repro.ftl.context import DEFAULT, ORACLE, EvalContext
from repro.ftl.evaluator import IntervalEvaluator
from repro.geometry import Point
from repro.motion import PiecewiseLinearFunction
from repro.parallel.evaluator import ShardedIntervalEvaluator
from repro.spatial import Polygon
from repro.temporal import DISCRETE, IntervalSet

from tests.ftl.test_atom_pruning import STAMP_ALL, rows_of


def ticks(*pairs):
    return IntervalSet.from_pairs(pairs, DISCRETE)


# ---------------------------------------------------------------------------
# Closed forms of the store
# ---------------------------------------------------------------------------


def test_equal_window_returns_the_stored_answer():
    cache = KineticSolveCache()
    answer = ticks((2, 6))
    cache.put("k", (0, 20), 15.0, answer)
    assert cache.get("k", (0, 20)) is answer
    assert (cache.hits, cache.misses) == (1, 0)


def one_car():
    """``c`` at (1, 1) moving +1 along x through ``P = [0, 9]^2``: inside
    exactly at ticks 0–8."""
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(0, 0, 9, 9))
    db.add_moving_object("cars", "c", Point(1, 1), Point(1, 0))
    return db


def inside(db, start, horizon, validity=None):
    query = parse_query("RETRIEVE o FROM cars o WHERE INSIDE(o, P)")
    ctx = EvalContext(FutureHistory(db, start), horizon, query.bindings)
    evaluator = IntervalEvaluator(ctx, validity=validity)
    return evaluator, rows_of(evaluator.evaluate(query.where))


def test_contained_window_equals_a_fresh_solve():
    db = one_car()
    first, rows = inside(db, 0, 20, STAMP_ALL)
    assert rows == [(("c",), ((0, 8),))]
    assert first.kinetic_solves == 1
    (key, (window, expire, answer)), = db.kinetic_cache._store.items()
    assert (window, expire, answer) == ((0, 20), math.inf, ticks((0, 8)))
    # A later, shorter window inside the stored one: answered by clipping.
    later, rows = inside(db, 5, 10, STAMP_ALL)
    assert (later.kinetic_solves, later.cache_hits) == (0, 1)
    fresh, fresh_rows = inside(db, 5, 10)
    assert fresh.kinetic_solves == 1
    assert rows == fresh_rows == [(("c",), ((5, 8),))]
    assert db.kinetic_cache.get(key, (5, 15)) == ticks((5, 8))
    # A hit writes nothing: the stored window is still the solved one.
    assert [entry[0] for _key, entry in db.kinetic_cache._store.items()] == [(0, 20)]


def test_request_ending_past_the_stored_end_misses():
    cache = KineticSolveCache()
    cache.put("k", (0, 20), math.inf, ticks((0, 8)))
    assert cache.get("k", (0, 21)) is None
    assert cache.get("k", (5, 25)) is None
    assert cache.get("k", (-1, 20)) is None  # starts before the solve
    assert (cache.hits, cache.misses) == (0, 3)


def test_request_starting_at_or_after_the_expiry_misses():
    cache = KineticSolveCache()
    cache.put("k", (0, 20), 15.0, ticks((0, 8)))
    assert cache.get("k", (15, 20)) is None
    assert cache.get("k", (16, 18)) is None
    assert cache.get("k", (14, 20)) == IntervalSet.empty(DISCRETE)
    assert (cache.hits, cache.misses) == (1, 2)


def test_a_solve_replaces_the_older_entry():
    cache = KineticSolveCache()
    cache.put("k", (0, 20), 15.0, ticks((0, 8)))
    cache.put("k", (10, 30), 40.0, ticks((12, 30)))
    assert len(cache) == 1
    assert cache.get("k", (0, 20)) is None  # no longer contained
    assert cache.get("k", (12, 20)) == ticks((12, 20))


def test_fifo_bound_counts_a_replaced_key_as_new():
    cache = KineticSolveCache(max_entries=2)
    cache.put("a", (0, 9), 9.0, ticks((1, 2)))
    cache.put("b", (0, 9), 9.0, ticks((3, 4)))
    cache.put("a", (0, 9), 9.0, ticks((5, 6)))  # re-solved: now newest
    cache.put("c", (0, 9), 9.0, ticks((7, 8)))
    assert [key for key, _entry in cache._store.items()] == ["a", "c"]
    assert cache.get("b", (0, 9)) is None
    assert cache.get("a", (0, 9)) == ticks((5, 6))


# ---------------------------------------------------------------------------
# Only a stamped evaluation builds a key
# ---------------------------------------------------------------------------

TEXT = (
    "RETRIEVE c FROM cars c, vans v WHERE "
    "(INSIDE(c, P) OR OUTSIDE(v, P)) AND DIST(c, v) <= 6 "
    "AND EVENTUALLY WITHIN_SPHERE(4, c, v) AND c.fuel >= 10"
)


def mixed_world():
    """Linear cars and vans, one van on a piecewise route (a scalar
    row) and a linear ``fuel`` attribute: every kind of kinetic row."""
    db = MostDatabase()
    db.create_class(
        ObjectClass("cars", dynamic_attributes=("fuel",), spatial_dimensions=2)
    )
    db.create_class(ObjectClass("vans", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(0, 0, 9, 9))
    for i, (x, y, vx) in enumerate([(1, 1, 1), (-3, 4, 2), (8, 2, -1)]):
        db.add_moving_object(
            "cars",
            f"c{i}",
            Point(x, y),
            Point(vx, 0),
            dynamic_extra={"fuel": DynamicAttribute.linear(20.0 + i, -1.0)},
        )
    db.add_moving_object("vans", "v0", Point(2, 3), Point(0, 1))
    db.add_moving_object("vans", "v1", Point(5, 5), Point(0, 0))
    db.update_dynamic(
        "v1",
        "x_position",
        value=5.0,
        function=PiecewiseLinearFunction([(0.0, 1.0), (4.0, -1.0)]),
    )
    return db


@pytest.fixture
def no_keys(monkeypatch):
    """Every solve-key builder raises while the fixture is in force."""
    import repro.ftl.atoms as atoms
    import repro.ftl.evaluator as evaluator

    def refuse(*_args, **_kwargs):
        raise AssertionError("a solve key was built without a stamp")

    for name in (
        "region_solve_key",
        "sphere_solve_key",
        "dist_solve_key",
        "linear_motion_tokens",
        "region_token",
    ):
        monkeypatch.setattr(evaluator, name, refuse)
    monkeypatch.setattr(atoms, "motion_token", refuse)
    monkeypatch.setattr(atoms, "_ctx_motion_token", refuse)


HORIZON = 12


def live_round(db):
    """A live continuous query ending past every window below, so the
    router's round table is open to any evaluation wired to it.  It
    runs without validity horizons, so it builds no key and reads no
    table itself."""
    ContinuousQuery(
        db,
        parse_query(TEXT),
        horizon=HORIZON + 20,
        options=replace(DEFAULT, validity_horizons=False),
    )


def untouched(db):
    """Neither the stamped store nor the round table holds anything."""
    return len(db.kinetic_cache) == 0 and len(UpdateRouter.of(db).atoms) == 0


def test_the_mixed_world_keys_every_kind_when_stamped():
    """The positive control of the tests below: a stamped evaluation of
    the same query over the same world builds keys and stores solves."""
    db = mixed_world()
    query = parse_query(TEXT)
    ctx = EvalContext(FutureHistory(db), HORIZON, query.bindings)
    evaluator = IntervalEvaluator(ctx, validity=STAMP_ALL)
    evaluator.evaluate(query.where)
    assert len(db.kinetic_cache) > 0
    kinds = {key[0] for key, _entry in db.kinetic_cache._store.items()}
    assert kinds == {"region", "dist", "sphere"}


def test_the_mixed_world_fills_the_round_table_when_stamped():
    """The round table's positive control: stamped continuous queries
    over the same world, refreshed in one round, fill it and read it."""
    db = mixed_world()
    query = parse_query(TEXT)
    cqs = [
        ContinuousQuery(db, query, horizon=h, method="incremental")
        for h in (HORIZON + 20, HORIZON)
    ]
    db.clock.tick()
    db.update_motion("c1", Point(0, 1))
    for cq in cqs:
        cq.refresh()
    assert len(UpdateRouter.of(db).atoms) > 0
    assert cqs[0].shared_rows == 0 < cqs[1].shared_rows


@pytest.mark.parametrize("options", [None, ORACLE], ids=["default", "oracle"])
def test_cold_evaluation_builds_no_key(no_keys, options):
    db = mixed_world()
    live_round(db)
    query = parse_query(TEXT)
    kwargs = {} if options is None else {"options": options}
    relation = query.evaluate(FutureHistory(db), HORIZON, **kwargs)
    naive = query.evaluate(FutureHistory(db), HORIZON, method="naive")
    assert rows_of(relation) == rows_of(naive)
    assert untouched(db)


def test_instantaneous_query_builds_no_key(no_keys):
    db = mixed_world()
    live_round(db)
    query = InstantaneousQuery(parse_query(TEXT), HORIZON)
    first = query.answer(db)
    assert rows_of(query.answer(db).relation) == rows_of(first.relation)
    assert untouched(db)


def test_persistent_query_builds_no_key(no_keys):
    db = mixed_world()
    live_round(db)
    persistent = PersistentQuery(db, parse_query(TEXT), HORIZON)
    db.clock.tick()
    db.update_motion("c1", Point(0, 1))
    persistent.current()
    assert persistent.evaluations == 2
    assert untouched(db)


@pytest.mark.parametrize(
    "options",
    [replace(DEFAULT, validity_horizons=False), ORACLE],
    ids=["validity-off", "oracle"],
)
def test_continuous_query_without_validity_builds_no_key(no_keys, options):
    """Validity horizons off alone (the pruned column path still on)
    builds no key and reads no round table, as ``ORACLE`` does: every
    solve runs, the differential twin of both reuses."""
    db = mixed_world()
    live_round(db)
    cq = ContinuousQuery(
        db, parse_query(TEXT), horizon=HORIZON, method="incremental",
        options=options,
    )
    for step in range(3):
        db.clock.tick()
        db.update_motion(f"c{step}", Point(1, 1))
        cq.current()
    assert cq.incremental_refreshes > 0
    assert cq.shared_rows == 0
    assert untouched(db)


def test_sharded_evaluation_builds_no_key(no_keys):
    """The parent builds no key and the shards report no lookup (the
    workers run the serial evaluator without stamps)."""
    db = mixed_world()
    live_round(db)
    query = parse_query(TEXT)
    sharded = ShardedIntervalEvaluator(query, FutureHistory(db), HORIZON, 2)
    relation = sharded.evaluate()
    serial = query.evaluate_full(FutureHistory(db), HORIZON)
    assert rows_of(relation) == rows_of(serial)
    assert sharded.counters["cache_hits"] == sharded.counters["cache_misses"] == 0
    assert untouched(db)
