"""The one store of solved atom rows, and who may touch it.

:class:`~repro.ftl.atoms.RoundAtoms` (``UpdateRouter.of(db).atoms``)
holds, per distinct atom and row, the window ``[s, E]`` the row was
solved over and its answer there.  Two things are pinned here:

* the closed forms of the store — an equal window returns the held
  answer, a contained window later in time reads the index's verdicts
  and equals a fresh solve, a read ending past the held end or starting
  before it misses, a commit to a row's object drops the row, a
  re-solve replaces the held row, and the rows of an atom no live query
  reads are dropped;
* that only a continuous query with validity horizons touches it: a
  cold evaluation, an instantaneous query, a persistent query, a
  sharded evaluation, the ``ORACLE`` options and a continuous query
  without validity horizons read and write no row, with a live
  continuous query holding the router open.
"""

from dataclasses import replace

import pytest

from repro.core import MostDatabase, ObjectClass
from repro.core.dynamic import DynamicAttribute
from repro.core.history import FutureHistory, epoch_token
from repro.core.queries import (
    ContinuousQuery,
    InstantaneousQuery,
    PersistentQuery,
    UpdateRouter,
)
from repro.ftl import parse_query
from repro.ftl.atoms import RoundAtoms
from repro.ftl.context import DEFAULT, ORACLE, EvalContext
from repro.ftl.evaluator import IntervalEvaluator
from repro.geometry import Point
from repro.motion import PiecewiseLinearFunction
from repro.parallel.evaluator import ShardedIntervalEvaluator
from repro.spatial import Polygon
from repro.temporal import DISCRETE, IntervalSet

from tests.ftl.test_atom_pruning import held_store, rows_of


def ticks(*pairs):
    return IntervalSet.from_pairs(pairs, DISCRETE)


# ---------------------------------------------------------------------------
# Closed forms of the store
# ---------------------------------------------------------------------------


def one_car():
    """``c`` at (1, 1) moving +1 along x through ``P = [0, 9]^2``: inside
    exactly at ticks 0–8; ``d`` parked inside ``P`` for good."""
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(0, 0, 9, 9))
    db.add_moving_object("cars", "c", Point(1, 1), Point(1, 0))
    db.add_moving_object("cars", "d", Point(4, 4), Point(0, 0))
    return db


def inside(db, start, horizon, table=None, end=None):
    """One evaluation of ``INSIDE(o, P)`` over ``[start, start +
    horizon]``, reading ``table`` as a round ending at ``end`` (the
    evaluation's own end by default)."""
    query = parse_query("RETRIEVE o FROM cars o WHERE INSIDE(o, P)")
    history = FutureHistory(db, start)
    ctx = EvalContext(history, horizon, query.bindings)
    atoms = None
    if table is not None:
        atoms = table.open(epoch_token(history), ctx.end if end is None else end)
    evaluator = IntervalEvaluator(ctx, atoms=atoms)
    return evaluator, rows_of(evaluator.evaluate(query.where))


def held(table, oid="c"):
    """The row of ``oid`` in the store's one entry."""
    (entry,) = table._entries.values()
    return entry.get((oid,))


def test_equal_window_returns_the_stored_answer():
    db = one_car()
    table = held_store(db)
    first, rows = inside(db, 0, 20, table)
    assert first.kinetic_solves == 2 and first.shared_rows == 0
    assert held(table)[:3] == (0, 20, ticks((0, 8))) and held(table)[3]
    again = IntervalEvaluator(
        EvalContext(FutureHistory(db), 20, {"o": "cars"}),
        atoms=table.open(epoch_token(FutureHistory(db)), 20),
    )
    relation = again.evaluate(parse_query("RETRIEVE o FROM cars o WHERE INSIDE(o, P)").where)
    assert (again.kinetic_solves, again.shared_rows) == (0, 2)
    assert relation.get(("c",)) is held(table)[2]


def test_contained_window_equals_a_fresh_solve():
    """``f`` runs far from ``P``: the index decides its row, and a later,
    shorter window reads that verdict clipped; ``c``'s and ``d``'s rows
    are kernel solves, which answer only the window they were solved
    over, so that window solves them again."""
    db = one_car()
    db.add_moving_object("cars", "f", Point(40, 1), Point(1, 0))
    table = held_store(db)
    first, rows = inside(db, 0, 20, table)
    assert ("c",) in dict(rows)
    assert held(table)[:3] == (0, 20, ticks((0, 8))) and held(table)[3]
    assert held(table, "f") == (0, 20, IntervalSet.empty(DISCRETE), 0)
    later, rows = inside(db, 5, 10, table, end=20)
    assert (later.kinetic_solves, later.shared_rows) == (2, 1)
    fresh, fresh_rows = inside(db, 5, 10)
    assert fresh.kinetic_solves == 2
    assert rows == fresh_rows
    assert dict(rows)[("c",)] == ((5, 8),)
    # The later window's solve replaces the one no later window reads.
    assert held(table)[:3] == (5, 15, ticks((5, 8)))


def test_request_ending_past_the_stored_end_misses():
    db = one_car()
    table = held_store(db)
    inside(db, 5, 15, table)
    assert held(table)[:2] == (5, 20)
    # A registration widened the round: the held rows end too early.
    wider, rows = inside(db, 5, 16, table)
    assert (wider.kinetic_solves, wider.shared_rows) == (2, 0)
    assert rows == inside(db, 5, 16)[1]
    # A read starting before the held start (a clock regression) misses.
    earlier, rows = inside(db, 2, 10, table, end=21)
    assert (earlier.kinetic_solves, earlier.shared_rows) == (2, 0)
    assert dict(rows)[("c",)] == ((2, 8),)


def test_request_starting_at_or_after_the_expiry_misses():
    """A row dies with its object's motion: after a commit to ``c`` its
    row misses and re-solves, while ``d``'s row, whose object nobody
    committed, is still read over the same window."""
    db = one_car()
    table = held_store(db)
    inside(db, 0, 20, table)
    db.update_motion("c", Point(0, 2))
    after, rows = inside(db, 0, 20, table)
    assert (after.kinetic_solves, after.shared_rows) == (1, 1)
    assert rows == inside(db, 0, 20)[1]
    # y = 1 + 2 t <= 9 up to t = 4.
    assert dict(rows)[("c",)] == ((0, 4),)
    assert held(table)[:3] == (0, 20, ticks((0, 4)))


def test_a_solve_replaces_the_older_entry():
    db = one_car()
    table = held_store(db)
    inside(db, 0, 10, table)
    assert held(table)[:3] == (0, 10, ticks((0, 8)))
    inside(db, 3, 12, table)  # ends past 10: re-solved over [3, 15]
    assert held(table)[:3] == (3, 15, ticks((3, 8)))
    assert len(table) == 1 and table.rows == 2
    # Re-read over the new row's window: no solve.
    again, _rows = inside(db, 3, 12, table)
    assert (again.kinetic_solves, again.shared_rows) == (0, 2)


def test_fifo_bound_counts_a_replaced_key_as_new():
    """The store has no size bound: the rows of an atom no live query
    reads are dropped when the router's query set changes, and every
    row when no query is live."""
    db = one_car()
    db.define_region("Q", Polygon.rectangle(20, 0, 29, 9))
    wide = ContinuousQuery(db, parse_query("RETRIEVE o FROM cars o WHERE INSIDE(o, P)"), 20)
    narrow = ContinuousQuery(db, parse_query("RETRIEVE o FROM cars o WHERE INSIDE(o, Q)"), 10)
    other = ContinuousQuery(db, parse_query("RETRIEVE o FROM cars o WHERE OUTSIDE(o, P)"), 10)
    table = UpdateRouter.of(db).atoms
    # Each query read the store at registration: one entry for Q, one
    # for P shared by INSIDE and OUTSIDE, each holding c's and d's rows.
    assert len(table) == 2 and table.rows == 4
    narrow.cancel()
    assert len(table) == 1 and table.rows == 2
    other.cancel()  # ``wide`` still reads P's entry
    assert len(table) == 1 and table.rows == 2
    wide.cancel()
    assert len(table) == 0 and table.rows == 0


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
def no_store(monkeypatch):
    """Every read and write of the store raises while in force."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("the store was touched")

    monkeypatch.setattr(RoundAtoms, "entry", refuse)
    monkeypatch.setattr(RoundAtoms, "store", refuse)


HORIZON = 12


def live_round(db):
    """A live continuous query ending past every window below, so the
    router's store is open to any evaluation wired to it.  It runs
    without validity horizons, so it reads no store itself."""
    ContinuousQuery(
        db,
        parse_query(TEXT),
        horizon=HORIZON + 20,
        options=replace(DEFAULT, validity_horizons=False),
    )


def untouched(db):
    """The router's store holds nothing."""
    return len(UpdateRouter.of(db).atoms) == 0


def test_the_mixed_world_keys_every_kind_when_stamped():
    """The positive control of the tests below: an evaluation of the
    same query over the same world handed a store fills an entry for
    every atom kind and class: ``INSIDE(c, P)`` over cars and
    ``OUTSIDE(v, P)`` over vans are two entries."""
    db = mixed_world()
    query = parse_query(TEXT)
    history = FutureHistory(db)
    ctx = EvalContext(history, HORIZON, query.bindings)
    table = held_store(db).open(epoch_token(history), ctx.end)
    evaluator = IntervalEvaluator(ctx, atoms=table)
    evaluator.evaluate(query.where)
    kinds = {key[0] for key in table._entries}
    assert kinds == {"region", "dist", "sphere", "attr"}
    assert len(table) == 5


def test_the_mixed_world_fills_the_round_table_when_stamped():
    """The router's positive control: continuous queries with validity
    horizons over the same world, refreshed in one round, fill the
    store and read it."""
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
def test_cold_evaluation_builds_no_key(no_store, options):
    db = mixed_world()
    live_round(db)
    query = parse_query(TEXT)
    kwargs = {} if options is None else {"options": options}
    relation = query.evaluate(FutureHistory(db), HORIZON, **kwargs)
    naive = query.evaluate(FutureHistory(db), HORIZON, method="naive")
    assert rows_of(relation) == rows_of(naive)
    assert untouched(db)


def test_instantaneous_query_builds_no_key(no_store):
    db = mixed_world()
    live_round(db)
    query = InstantaneousQuery(parse_query(TEXT), HORIZON)
    first = query.answer(db)
    assert rows_of(query.answer(db).relation) == rows_of(first.relation)
    assert untouched(db)


def test_persistent_query_builds_no_key(no_store):
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
def test_continuous_query_without_validity_builds_no_key(no_store, options):
    """Validity horizons off alone (the pruned column path still on)
    touches no store, as ``ORACLE`` does: every solve runs, the
    differential twin of the store."""
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


def test_sharded_evaluation_builds_no_key(no_store):
    """Neither the parent nor the shards touch a store (the workers run
    the serial evaluator without one)."""
    db = mixed_world()
    live_round(db)
    query = parse_query(TEXT)
    sharded = ShardedIntervalEvaluator(query, FutureHistory(db), HORIZON, 2)
    relation = sharded.evaluate()
    serial = query.evaluate_full(FutureHistory(db), HORIZON)
    assert rows_of(relation) == rows_of(serial)
    assert "cache_hits" not in sharded.counters
    assert untouched(db)
