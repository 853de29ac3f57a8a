"""Incremental refreshes gate their dirty rows through a frontier view
(DESIGN.md §3c, §7).

A refresh partitions each dirty atom's rows with the cold path's
``AtomIndexPruner.partition``, over a view whose tables hold only the
members those rows name.  The wall here drives random fleets and update
streams through incremental, interval and naive continuous queries and
holds, after every refresh:

* the incremental answer equals the interval answer, and the naive one,
  tuple for tuple;
* every row a frontier view decided re-solves, with no index, no cache
  and no batch, to exactly the decided answer;
* a frontier table's boxes are the whole class table's boxes for the
  same objects, bit for bit.

The worlds cover ``INSIDE`` / ``OUTSIDE`` (polygon and ball),
``DIST <=`` / ``>=`` across two classes and within one, ``WITHIN_SPHERE``,
a bound class with no dirty member, a region whose coordinates dwarf the
fleet's, tangent and zero-velocity movers.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MostDatabase, ObjectClass
from repro.core.history import FutureHistory
from repro.core.queries import ContinuousQuery
from repro.ftl import parse_query
from repro.ftl.ast import Compare, Const, Dist, Inside, Var
from repro.ftl.atoms import AtomIndexPruner, build_class_table
from repro.ftl.context import DEFAULT, ORACLE, EvalContext
from repro.ftl.evaluator import IntervalEvaluator
from repro.ftl.relations import EMPTY_SET
from repro.geometry import Point
from repro.spatial import Ball, Polygon

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.ftl.analysis.diagnostics.FtlLintWarning"
)

HORIZON = 8
TEXTS = (
    "RETRIEVE o FROM cars o WHERE INSIDE(o, P)",
    "RETRIEVE o FROM cars o WHERE OUTSIDE(o, P)",
    "RETRIEVE o FROM cars o WHERE EVENTUALLY WITHIN 3 INSIDE(o, B)",
    "RETRIEVE o FROM cars o WHERE INSIDE(o, FAR) UNTIL INSIDE(o, P)",
    "RETRIEVE v FROM cars v, depots d WHERE DIST(v, d) <= 6",
    "RETRIEVE v, d FROM cars v, depots d WHERE DIST(v, d) >= 6",
    "RETRIEVE a, b FROM cars a, cars b WHERE DIST(a, b) <= 4",
    "RETRIEVE a, d FROM cars a, depots d WHERE WITHIN_SPHERE(3, a, d)",
    "RETRIEVE o FROM cars o, depots d WHERE INSIDE(o, P) AND DIST(o, d) <= 9",
)
#: Regions: ``P`` and ``B`` sit among the fleet; ``FAR`` is a band whose
#: lower edge runs through it while its corners lie at +-1e7, so a view
#: holding a few cars near the origin must take its pad from the probe.
REGIONS = {
    "P": Polygon.rectangle(-10, -10, 10, 10),
    "B": Ball(Point(-12, 12), 5.0),
    "FAR": Polygon.rectangle(-1e7, 14, 1e7, 1e7),
}
VELOCITY = st.sampled_from((-2, -1, -0.5, 0, 0, 0.5, 1, 2))
COORD = st.integers(-24, 24)


@st.composite
def cars(draw):
    """One car: free, still, or tangent to ``P``'s top edge or to the
    ``DIST <= 6`` circle around the first depot, which stands still at
    ``(4, -4)``."""
    kind = draw(st.sampled_from(("free", "still", "edge", "circle")))
    if kind == "still":
        return (draw(COORD), draw(COORD)), (0, 0)
    if kind == "edge":
        return (draw(COORD), 10), (draw(VELOCITY), 0)
    if kind == "circle":
        # Closest approach to the depot at (4, -4) is exactly 6 at a tick.
        return (4 - 3, -4 + 6), (1, 0)
    return (draw(COORD), draw(COORD)), (draw(VELOCITY), draw(VELOCITY))


@st.composite
def worlds(draw):
    fleet = draw(st.lists(cars(), min_size=1, max_size=5))
    depots = [((4, -4), (0, 0))] + draw(
        st.lists(
            st.tuples(st.tuples(COORD, COORD), st.tuples(VELOCITY, VELOCITY)),
            max_size=1,
        )
    )
    steps = draw(
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(
                        [f"c{i}" for i in range(len(fleet))]
                        + [f"d{i}" for i in range(len(depots))]
                    ),
                    VELOCITY,
                    VELOCITY,
                ),
                max_size=3,
            ),
            min_size=1,
            max_size=4,
        )
    )
    return fleet, depots, steps


def build(fleet, depots):
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.create_class(ObjectClass("depots", spatial_dimensions=2))
    for name, region in REGIONS.items():
        db.define_region(name, region)
    for cls, members in (("cars", fleet), ("depots", depots)):
        for i, (pos, vel) in enumerate(members):
            oid = f"{cls[0]}{i}"
            db.add_moving_object(cls, oid, Point(*pos), Point(*vel))
    return db


class FrontierLog:
    """Every partition a restricted view answered, in call order."""

    def __init__(self, monkeypatch):
        self.calls = []
        original = AtomIndexPruner.partition

        def partition(pruner, f, free, rows):
            split = original(pruner, f, free, rows)
            if pruner._members is not None:
                self.calls.append((pruner, f, list(free), list(rows), split))
            return split

        monkeypatch.setattr(AtomIndexPruner, "partition", partition)

    def drain(self):
        calls, self.calls = self.calls, []
        return calls


def decided(rows, split):
    """``{row: known answer}`` for every row the partition decided."""
    if split is None:
        return {}
    solve, count, known = split
    assert solve.tolist() == sorted(set(solve.tolist()))
    solved = {rows[i] for i in solve.tolist()}
    out = {inst: known for inst in rows if inst not in solved}
    assert len(out) == count
    return out


def exact(iset):
    """An interval set with the type of every endpoint."""
    return iset.domain, [
        (type(iv.start), iv.start, type(iv.end), iv.end) for iv in iset
    ]


def check_frontier(calls):
    """Decided rows re-solve to their answers, and frontier boxes are
    the whole class's boxes; returns the number of decided rows."""
    total = 0
    for pruner, f, free, rows, split in calls:
        ctx = pruner.ctx
        verdicts = decided(rows, split)
        total += len(verdicts)
        if verdicts:
            solved = IntervalEvaluator(ctx, options=ORACLE)._batched_rows(
                f, free, list(verdicts)
            )
            for inst, known in verdicts.items():
                assert exact(solved.get(inst)) == exact(known), (f, inst)
        for cls, members in pruner._members.items():
            whole = build_class_table(
                ctx.history, cls, ctx.start, ctx.end, ctx.moving_point
            )
            assert_boxes_match(pruner, whole, members)
    return total


def assert_boxes_match(pruner, whole, members):
    pruner._build()
    mine = {oid: pruner._rows[oid] for oid in members if oid in pruner._rows}
    assert set(mine) == {oid for oid in members if oid in whole.rows}
    for oid, (table, first, stop) in mine.items():
        full, a, b = whole.rows[oid]
        for corner in ("lo", "hi"):
            got = np.ascontiguousarray(getattr(table, corner)[:, first:stop])
            want = np.ascontiguousarray(getattr(full, corner)[:, a:b])
            assert got.tobytes() == want.tobytes(), (oid, corner)


#: Validity horizons off: no store of solved rows, every row gated.
UNSTORED = replace(DEFAULT, validity_horizons=False)


def run_wall(fleet, depots, steps, log, naive, options=DEFAULT):
    db = build(fleet, depots)
    methods = ("incremental", "interval") + (("naive",) if naive else ())
    queries = {
        text: [
            ContinuousQuery(
                db, parse_query(text), horizon=HORIZON, method=m, options=options
            )
            for m in methods
        ]
        for text in TEXTS
    }
    log.drain()
    pruned = 0
    for step in steps:
        db.clock.tick()
        for oid, vx, vy in step:
            db.update_motion(oid, Point(vx, vy))
        for text, cqs in queries.items():
            shown = [cq.current() for cq in cqs]
            assert all(s == shown[0] for s in shown), (text, shown)
            tuples = [
                sorted((t.values, t.begin, t.end) for t in cq.answer_tuples())
                for cq in cqs
            ]
            assert all(t == tuples[0] for t in tuples), (text, tuples)
        pruned += check_frontier(log.drain())
    return sum(cqs[0].pruned_rows for cqs in queries.values()), pruned


GATE = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)


@GATE
@given(world=worlds())
def test_frontier_gate_wall(monkeypatch, world):
    fleet, depots, steps = world
    log = FrontierLog(monkeypatch)
    small = len(fleet) <= 3
    counted, pruned = run_wall(fleet, depots, steps, log, naive=small)
    assert counted == pruned


def test_wall_sees_every_atom_kind_decided(monkeypatch):
    """A fixed busy world: the wall's frontier views decide rows of
    every atom kind, and the queries count them as ``pruned_rows``."""
    fleet = [
        ((-20, -20), (0, 0)),
        ((22, 0), (0.5, 0)),
        ((0, 10), (1, 0)),
        ((1, 2), (1, 0)),
        ((-24, 24), (1, -1)),
        ((15, -18), (-1, 0.5)),
    ]
    depots = [((4, -4), (0, 0)), ((-18, 18), (0, 0))]
    steps = [
        [("c0", 1, 0), ("c1", -1, 0), ("c4", 0, 0)],
        [("c5", 0, 0), ("c2", 0, -1)],
        [("c0", 0, 1), ("c3", 2, 2)],
    ]
    log = FrontierLog(monkeypatch)
    kinds = set()
    original = check_frontier

    def kinds_of(calls):
        for _pruner, f, _free, rows, split in calls:
            if decided(rows, split):
                kinds.add(type(f).__name__ + getattr(f, "op", ""))
        return original(calls)

    monkeypatch.setattr(f"{__name__}.check_frontier", kinds_of)
    counted, pruned = run_wall(fleet, depots, steps, log, naive=True)
    assert counted == pruned > 0
    # With validity horizons on, OUTSIDE reads its region's entry in the
    # store of solved rows, whose rows are partitioned as the INSIDE
    # answer; the validity-off run partitions OUTSIDE itself.
    assert {"Inside", "Compare<=", "Compare>=", "WithinSphere"} <= kinds
    assert "Outside" not in kinds
    counted, pruned = run_wall(
        fleet, depots, steps, log, naive=True, options=UNSTORED
    )
    assert counted == pruned > 0
    want = {"Inside", "Outside", "Compare<=", "Compare>=", "WithinSphere"}
    assert want <= kinds


# ---------------------------------------------------------------------------
# The pad of a frontier view
# ---------------------------------------------------------------------------


def static_world(**cars):
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    for oid, (x, y) in cars.items():
        db.add_moving_object("cars", oid, Point(x, y), Point(0, 0))
    return db


def test_frontier_decides_boxes_touching_at_r_plus_pad():
    """A view of the pair and a far anchor takes the anchor's scale: a
    box exactly ``r + pad`` away touches (the solve path decides), one
    ulp farther is pruned."""
    r, pad = 2.5, 1e-6 * (1.0 + 100.0)
    touch = 0.0 + (r + pad)
    gap = math.nextafter(touch, math.inf)
    db = static_world(
        anchor=(100.0, 100.0), a=(0.0, 0.0), touch=(touch, 0.0), gap=(gap, 0.0)
    )
    ctx = EvalContext(FutureHistory(db), 5, {"x": "cars", "y": "cars"})
    view = AtomIndexPruner(ctx, {"cars": ["anchor", "a", "touch", "gap"]})
    near = Compare("<=", Dist(Var("x"), Var("y")), Const(r))
    rows = [("a", "touch"), ("a", "gap")]
    assert set(decided(rows, view.partition(near, ["x", "y"], rows))) == {
        ("a", "gap")
    }
    assert view._pad == pad


def test_frontier_pad_scales_to_a_region_far_out():
    """A view holding one car at the origin probes a region whose
    corners lie at 1e6: its pad is the probe's, so a region edge
    ``pad`` away still touches the car's box, and one ulp farther does
    not.  The whole-class view, whose boxes are as small, decides the
    same."""
    db = static_world(a=(0.0, 0.0), anchor=(3.0, 3.0))
    pad = 1e-6 * (1.0 + 1e6)
    for edge, pruned in ((pad, False), (math.nextafter(pad, math.inf), True)):
        name = f"R{edge!r}"
        db.define_region(name, Polygon.rectangle(edge, -1.0, 1e6, 1.0))
        ctx = EvalContext(FutureHistory(db), 5, {"o": "cars"})
        atom = Inside(Var("o"), name)
        for view in (AtomIndexPruner(ctx, {"cars": ["a"]}), ctx.atom_pruner()):
            split = view.partition(atom, ["o"], [("a",)])
            assert bool(decided([("a",)], split)) is pruned


def test_frontier_view_never_enters_the_table_cache():
    db = static_world(a=(0.0, 0.0), b=(5.0, 5.0))
    db.define_region("P", Polygon.rectangle(-1, -1, 1, 1))
    ctx = EvalContext(FutureHistory(db), 5, {"o": "cars"})
    view = AtomIndexPruner(ctx, {"cars": ["b"]})
    split = view.partition(Inside(Var("o"), "P"), ["o"], [("b",)])
    assert decided([("b",)], split) == {("b",): EMPTY_SET}
    assert db.mbr_tables.builds == 0 and len(db.mbr_tables) == 0
    assert not view.is_indexed("a")
