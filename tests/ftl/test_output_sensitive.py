"""Cold evaluation visits candidates, not the domain (DESIGN.md §3c, §7).

Two mechanisms make the interval evaluator's cold path output-sensitive:
the index partitions each prunable atom's rows in bulk (decided rows are
counted, never visited), and a conjunction's right child enumerates only
the left relation's rows (a semi-join).  The tests here hold both to the
answers of the naive per-state evaluator and of sharded evaluation, pin
that the delta path of incremental maintenance stays unpartitioned, and
check a metamorphic law: translating a world in space and time
translates its answers.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MostDatabase, ObjectClass
from repro.core.history import FutureHistory, RecordedHistory
from repro.core.queries import ContinuousQuery
from repro.errors import FtlSemanticsError, QueryError
from repro.ftl import parse_query
from repro.ftl.atoms import AtomIndexPruner
from repro.ftl.context import DEFAULT, ORACLE, EvalContext
from repro.ftl.evaluator import IntervalEvaluator
from repro.geometry import Point
from repro.parallel import shutdown_pools
from repro.spatial import Polygon

HORIZON = 12


@pytest.fixture(scope="module", autouse=True)
def _stop_pools():
    yield
    shutdown_pools()


def answers(relation):
    """A relation as ``{instantiation: ((start, end), ...)}``."""
    return {
        inst: tuple((iv.start, iv.end) for iv in iset.intervals)
        for inst, iset in relation.rows()
    }


def fleet(rng, n_cars, extent=200, n_vans=0, price=False):
    """Cars (and vans) on the integer grid, regions ``P`` and ``Q``."""
    db = MostDatabase()
    db.create_class(
        ObjectClass(
            "cars",
            static_attributes=("price", "weight") if price else (),
            spatial_dimensions=2,
        )
    )
    db.create_class(ObjectClass("vans", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(-20, -20, 20, 20))
    db.define_region("Q", Polygon.rectangle(10, 10, 60, 60))
    for i in range(n_cars):
        static = (
            {"price": rng.randint(1, 9), "weight": rng.randint(1, 3)}
            if price
            else None
        )
        db.add_moving_object(
            "cars",
            f"c{i}",
            Point(rng.randint(-extent, extent), rng.randint(-extent, extent)),
            Point(rng.randint(-2, 2), rng.randint(-2, 2)),
            static=static,
        )
    for i in range(n_vans):
        db.add_moving_object(
            "vans",
            f"v{i}",
            Point(rng.randint(-extent, extent), rng.randint(-extent, extent)),
            Point(rng.randint(-2, 2), rng.randint(-2, 2)),
        )
    return db


def evaluator_for(db, text, horizon=HORIZON, options=DEFAULT):
    """The query, a planned interval evaluator on a fresh context, and
    the evaluated root's relation; the plan keeps the syntactic operand
    order when ``options.ordered`` is off."""
    query = parse_query(text)
    history = FutureHistory(db)
    plan = query.plan_for(history=history, horizon=horizon, order=options.ordered)
    ev = IntervalEvaluator(
        EvalContext(history, horizon, query.bindings), plan=plan, options=options
    )
    return query, ev, ev.evaluate(query.where)


def assert_oracles_agree(db, text, horizon=HORIZON, options=DEFAULT):
    """The semi-joined interval answer (and the sharded one) under
    ``options`` equals the naive and the exhaustive ones."""
    query = parse_query(text)
    got = answers(query.evaluate(FutureHistory(db), horizon, options=options))
    naive = answers(query.evaluate(FutureHistory(db), horizon, method="naive"))
    sharded = answers(
        query.evaluate(FutureHistory(db), horizon, options=options, parallel=2)
    )
    oracle = answers(query.evaluate(FutureHistory(db), horizon, options=ORACLE))
    assert got == naive == sharded == oracle
    return got


# ---------------------------------------------------------------------------
# The bulk partition
# ---------------------------------------------------------------------------


def test_pruner_has_no_per_row_gate():
    """The per-row gate closures are gone: the pruner answers an atom's
    rows only through :meth:`AtomIndexPruner.partition`."""
    assert not hasattr(AtomIndexPruner, "gate")


def test_inside_solves_only_candidates(monkeypatch):
    """An ``INSIDE`` atom over 2 000 objects with about ten candidates
    makes at most (candidates + unindexed) solve requests, and its
    counters still account for every row."""
    db = fleet(random.Random(7), 2000, extent=600)
    calls = []
    original = IntervalEvaluator._atom_request

    def counting(self, f, env):
        calls.append(env["o"])
        return original(self, f, env)

    monkeypatch.setattr(IntervalEvaluator, "_atom_request", counting)
    text = "RETRIEVE o FROM cars o WHERE INSIDE(o, P)"
    _query, ev, relation = evaluator_for(db, text)
    pruner = ev.ctx.atom_pruner()
    cands = pruner.region_candidates(ev.ctx.history.region("P"))
    unindexed = [o for o in ev.ctx.domain("o") if not pruner.is_indexed(o)]
    assert 0 < len(cands) <= 40
    assert len(calls) <= len(cands) + len(unindexed)
    assert set(calls) <= cands
    (stats,) = ev.atom_stats.values()
    assert stats["instantiations"] == 2000
    assert stats["pruned"] == ev.pruned_instantiations == 2000 - len(calls)
    monkeypatch.undo()
    assert answers(relation) == answers(
        parse_query(text).evaluate(FutureHistory(db), HORIZON, options=ORACLE)
    )


def test_attribute_query_builds_no_table():
    """A query with no atom the index can decide builds no trajectory
    table, and its answers are unchanged."""
    db = fleet(random.Random(11), 200)
    text = "RETRIEVE o FROM cars o WHERE o.x_position <= 10"
    query = parse_query(text)
    got = answers(query.evaluate(FutureHistory(db), HORIZON))
    assert db.mbr_tables.builds == 0
    want = answers(query.evaluate(FutureHistory(db), HORIZON, options=ORACLE))
    assert got == want
    query = parse_query("RETRIEVE o FROM cars o WHERE INSIDE(o, P)")
    query.evaluate(FutureHistory(db), HORIZON)
    assert db.mbr_tables.builds == 1


#: ``rows_recomputed`` summed over the four continuous queries of
#: :func:`test_delta_path_stays_unpartitioned`, as the evaluator that
#: ran every row through a per-row gate counted it.
PINNED_ROWS_RECOMPUTED = 1059


def test_delta_path_stays_unpartitioned():
    """Incremental refreshes never partition: after registration a
    seeded stream of motion updates adds no table build, and the delta
    frontier walks exactly the rows it walked before the partition."""
    rng = random.Random(2024)
    db = fleet(rng, 120, extent=80, n_vans=6)
    texts = (
        "RETRIEVE o FROM cars o WHERE EVENTUALLY WITHIN 8 INSIDE(o, P)",
        "RETRIEVE c FROM cars c, vans v WHERE DIST(c, v) <= 30",
        "RETRIEVE o FROM cars o WHERE INSIDE(o, P) UNTIL INSIDE(o, Q)",
        "RETRIEVE o FROM cars o WHERE INSIDE(o, P) AND o.x_position <= 10",
    )
    cqs = [
        ContinuousQuery(db, parse_query(text), horizon=40, method="incremental")
        for text in texts
    ]
    for cq in cqs:
        cq.current()
    builds = db.mbr_tables.builds
    assert builds > 0
    ids = [f"c{i}" for i in range(120)] + [f"v{i}" for i in range(6)]
    for _ in range(12):
        db.clock.tick()
        for oid in rng.sample(ids, 5):
            db.update_motion(oid, Point(rng.randint(-2, 2), rng.randint(-2, 2)))
        for cq in cqs:
            cq.current()
    assert db.mbr_tables.builds == builds
    assert sum(cq.rows_recomputed for cq in cqs) == PINNED_ROWS_RECOMPUTED


# ---------------------------------------------------------------------------
# The semi-join
# ---------------------------------------------------------------------------


def test_semijoined_right_atom_enumerates_left_rows():
    """The right atom of ``INSIDE(o, P) AND o.x_position <= 10`` sees
    exactly the left relation's rows, in domain order."""
    db = fleet(random.Random(5), 300)
    text = "RETRIEVE o FROM cars o WHERE INSIDE(o, P) AND o.x_position <= 10"
    query, ev, relation = evaluator_for(db, text)
    root = ev.plan.resolve(query.where)
    left = answers(IntervalEvaluator(ev.ctx).evaluate(root.left))
    stats = {id(s["formula"]): s for s in ev.atom_stats.values()}
    assert stats[id(root.right)]["instantiations"] == len(left) < 300
    assert stats[id(root.left)]["instantiations"] == 300
    assert answers(relation) == assert_oracles_agree(db, text)


def test_semijoin_keeps_plan_shared_subformulas_whole():
    """A plan-shared subformula evaluated inside a semi-joined right
    child holds only the scope's rows, so it must not serve the other
    occurrence of the shared node."""
    db = fleet(random.Random(3), 60, extent=60)
    for text in (
        "RETRIEVE o FROM cars o WHERE "
        "(INSIDE(o, P) AND EVENTUALLY INSIDE(o, Q)) OR EVENTUALLY INSIDE(o, Q)",
        "RETRIEVE o FROM cars o WHERE "
        "(INSIDE(o, P) AND NEXTTIME INSIDE(o, Q)) OR NOT NEXTTIME INSIDE(o, Q)",
    ):
        query, ev, relation = evaluator_for(db, text)
        root = ev.plan.resolve(query.where)
        shared = root.left.right
        assert id(shared) in ev.plan.shared_ids
        # The scoped occurrence solved a few rows, the other all 60.
        (inner,) = [
            s
            for s in ev.atom_stats.values()
            if str(s["formula"]) == "INSIDE(o, Q)"
        ]
        assert 60 < inner["instantiations"] < 120
        assert answers(relation) == assert_oracles_agree(db, text)


def test_semijoin_never_evaluates_excluded_rows():
    """A right child that raises for an object the left side excludes
    (a division by that car's zero weight) is never evaluated on it —
    as the naive evaluator's short-circuit ``and`` never asks."""
    db = fleet(random.Random(9), 30, extent=60, price=True)
    db.add_moving_object(
        "cars",
        "zero",
        Point(5000, 5000),
        Point(0, 0),
        static={"price": 1, "weight": 0},
    )
    text = (
        "RETRIEVE o FROM cars o WHERE "
        "EVENTUALLY INSIDE(o, P) AND o.price / o.weight >= 2"
    )
    alone = parse_query("RETRIEVE o FROM cars o WHERE o.price / o.weight >= 2")
    with pytest.raises(FtlSemanticsError, match="arithmetic failed"):
        alone.evaluate(FutureHistory(db), HORIZON)
    got = assert_oracles_agree(db, text)
    assert got and ("zero",) not in got


def test_semijoin_skips_the_pruners_raising_objects():
    """Over a recorded history a car whose position jumped has no
    continuous trajectory: the pruner names it raising and its solve
    raises.  A left side that excludes it keeps it from the right child
    entirely, as the naive evaluator's ``and`` does (sharding takes
    future histories only, so naive is the oracle here)."""
    db = fleet(random.Random(21), 12, extent=30, price=True)
    db.add_moving_object(
        "cars", "jumper", Point(0, 0), Point(1, 0), static={"price": 1, "weight": 1}
    )
    db.clock.tick(2)
    db.update_motion("jumper", Point(0, 1), position=Point(50, 50))
    history = RecordedHistory(db, 0)
    ctx = EvalContext(history, HORIZON, {"o": "cars"})
    pruner = ctx.atom_pruner()
    assert not pruner.is_indexed("jumper") and "jumper" in pruner._raising
    syntactic = replace(DEFAULT, ordered=False)
    alone = parse_query("RETRIEVE o FROM cars o WHERE EVENTUALLY INSIDE(o, P)")
    with pytest.raises(QueryError):
        alone.evaluate(RecordedHistory(db, 0), HORIZON, options=syntactic)
    query = parse_query(
        "RETRIEVE o FROM cars o WHERE o.price >= 2 AND EVENTUALLY INSIDE(o, P)"
    )
    got = answers(
        query.evaluate(RecordedHistory(db, 0), HORIZON, options=syntactic)
    )
    want = answers(
        query.evaluate(
            RecordedHistory(db, 0), HORIZON, method="naive", options=syntactic
        )
    )
    assert got and got == want and ("jumper",) not in got


def test_until_with_left_only_variables_inside_a_scope():
    """An ``Until`` whose left side has a variable its right side lacks
    enumerates that variable's whole domain, inside a scoped right child
    too."""
    db = fleet(random.Random(13), 24, extent=40, n_vans=6)
    text = (
        "RETRIEVE c, v FROM cars c, vans v WHERE DIST(c, v) <= 25 AND "
        "(DIST(c, v) <= 12 UNTIL INSIDE(c, P))"
    )
    query, ev, _relation = evaluator_for(db, text)
    root = ev.plan.resolve(query.where)
    assert type(root.right).__name__ == "Until"
    stats = {id(s["formula"]): s for s in ev.atom_stats.values()}
    assert stats[id(root.right.left)]["instantiations"] < 24 * 6
    assert_oracles_agree(db, text)


def test_nested_scopes_intersect():
    """A conjunction inside a scoped right child opens a scope of its
    own over its left rows that agree with the outer scope: the
    innermost atom sees no car the outer left side excluded."""
    db = fleet(random.Random(17), 30, extent=50, n_vans=5)
    text = (
        "RETRIEVE c, v FROM cars c, vans v WHERE DIST(c, v) <= 20 AND "
        "EVENTUALLY (DIST(c, v) <= 40 AND INSIDE(c, Q))"
    )
    syntactic = replace(DEFAULT, ordered=False)
    query, ev, relation = evaluator_for(db, text, options=syntactic)
    root = ev.plan.resolve(query.where)
    inner = root.right.operand
    assert type(inner).__name__ == "AndF"
    outer_cars = {c for c, _v in answers(
        IntervalEvaluator(ev.ctx).evaluate(root.left)
    )}
    stats = {id(s["formula"]): s for s in ev.atom_stats.values()}
    assert stats[id(inner.right)]["instantiations"] <= len(outer_cars) < 30
    assert answers(relation) == assert_oracles_agree(db, text, options=syntactic)


# ---------------------------------------------------------------------------
# Metamorphic wall: translating the world translates the answers
# ---------------------------------------------------------------------------

#: The four cold shapes plus the partition's full-window kinds,
#: ``OUTSIDE`` and ``DIST >=``; ``{r}`` is a radius, ``{x}`` a position.
SHAPES = (
    "RETRIEVE o FROM cars o WHERE EVENTUALLY WITHIN 8 INSIDE(o, P)",
    "RETRIEVE c FROM cars c, vans v WHERE DIST(c, v) <= {r}",
    "RETRIEVE o FROM cars o WHERE INSIDE(o, P) UNTIL INSIDE(o, Q)",
    "RETRIEVE o FROM cars o WHERE INSIDE(o, P) AND o.x_position <= {x}",
    "RETRIEVE o FROM cars o WHERE OUTSIDE(o, Q)",
    "RETRIEVE c, v FROM cars c, vans v WHERE DIST(c, v) >= {r}",
)

coord = st.integers(min_value=-30, max_value=30)
speed = st.integers(min_value=-3, max_value=3)
mover = st.tuples(coord, coord, speed, speed)
corner = st.tuples(coord, coord, st.integers(1, 25), st.integers(1, 25))


def shifted_world(cars, vans, regions, dx, dy, dt, touch):
    """The drawn world with every position moved by ``(dx, dy)`` and the
    clock started ``dt`` ticks later.  With ``touch``, two static vans
    sit exactly ``radius + pad`` apart on the x axis, where ``pad`` is
    the pruner's inflation in the unshifted world."""
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.create_class(ObjectClass("vans", spatial_dimensions=2))
    db.clock.tick(dt)
    for name, (x, y, w, h) in zip("PQ", regions):
        db.define_region(name, Polygon.rectangle(x + dx, y + dy, x + w + dx, y + h + dy))
    for cls, movers in (("cars", cars), ("vans", vans)):
        for i, (x, y, vx, vy) in enumerate(movers):
            db.add_moving_object(
                cls, f"{cls[0]}{i}", Point(x + dx, y + dy), Point(vx, vy)
            )
    if touch is not None:
        db.add_moving_object("vans", "ta", Point(dx, dy))
        db.add_moving_object("vans", "tb", Point(touch + dx, dy))
    return db


def pad_of(cars, vans, regions, horizon):
    db = shifted_world(cars, vans, regions, 0, 0, 0, None)
    ctx = EvalContext(FutureHistory(db), horizon, {"c": "cars", "v": "vans"})
    pruner = ctx.atom_pruner()
    pruner.is_indexed("c0")
    return pruner._pad


def mapped(relation, dt):
    """Answers with every interval moved ``dt`` ticks earlier."""
    return {
        inst: tuple((start - dt, end - dt) for start, end in spans)
        for inst, spans in answers(relation).items()
    }


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    cars=st.lists(mover, min_size=1, max_size=6),
    vans=st.lists(mover, max_size=3),
    regions=st.tuples(corner, corner),
    shift=st.tuples(
        st.integers(-400, 400), st.integers(-400, 400), st.integers(0, 40)
    ),
    radius=st.integers(0, 20),
    x=coord,
    touching=st.booleans(),
)
def test_translation_maps_answers(cars, vans, regions, shift, radius, x, touching):
    dx, dy, dt = shift
    horizon = 10
    touch = None
    if touching:
        touch = float(radius) + pad_of(cars, vans, regions, horizon)
    base = shifted_world(cars, vans, regions, 0, 0, 0, touch)
    moved = shifted_world(cars, vans, regions, dx, dy, dt, touch)
    for shape in SHAPES:
        text = shape.format(r=radius, x=x)
        moved_text = shape.format(r=radius, x=x + dx)
        query, moved_query = parse_query(text), parse_query(moved_text)
        want = answers(query.evaluate(FutureHistory(base), horizon))
        assert want == answers(
            query.evaluate(FutureHistory(base), horizon, method="naive")
        ), text
        for method in ("interval", "naive"):
            got = moved_query.evaluate(
                FutureHistory(moved), horizon, method=method
            )
            assert mapped(got, dt) == want, (text, method)


def test_translation_wall_reaches_the_full_window_rows():
    """The wall's worlds do exercise the partition's full-window rows:
    ``OUTSIDE`` and ``DIST >=`` decide rows without solving them."""
    db = shifted_world(
        [(0, 0, 1, 0), (25, 25, 0, 0)],
        [(-30, -30, 0, 0)],
        [(-5, -5, 10, 10), (20, 20, 10, 10)],
        0,
        0,
        0,
        None,
    )
    for text in (SHAPES[4], SHAPES[5].format(r=3)):
        _query, ev, relation = evaluator_for(db, text, horizon=10)
        assert ev.pruned_instantiations > 0
        assert any(
            spans == ((0, 10),) for spans in answers(relation).values()
        )
    options = replace(DEFAULT, index_pruning=False)
    for text in (SHAPES[4], SHAPES[5].format(r=3)):
        assert answers(evaluator_for(db, text, horizon=10)[2]) == answers(
            evaluator_for(db, text, horizon=10, options=options)[2]
        )
