"""The atom column path (DESIGN.md §7, §8) against the per-row scalar path.

Rows whose motion is one plain linear leg are solved a column at a time:
the partition hands out row positions, legs come from one gather of the
motion columns, the batch takes arrays, and ``o.attr op c`` is one
closed-form pass (``repro.motion.batch.value_band``).  Every other row
keeps the per-row request path.  The wall drives random fleets — linear,
piecewise, sinusoid and inexact laws, NaN, ``-0.0`` and int
coefficients, update times inside the window, unknown ids, 2-D and 3-D
classes, polygons and balls — through ``_batched_rows`` on the default
path and on the scalar reference (every row's scalar closure inline,
``scalar_reference`` of ``test_batch_solver``), and demands identical
relations (endpoint types included), counters and per-atom statistics,
or the same first error.  The closed-form cases below
hand-derive the answers of the attribute kernel and of gathered
``DIST`` / ``INSIDE`` rows, and hold interval ≡ naive on each.
"""

import math
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MostDatabase, ObjectClass
from repro.core.columns import MotionColumns, linear_legs
from repro.core.dynamic import DynamicAttribute
from repro.core.history import FutureHistory
from repro.core.queries import ContinuousQuery
from repro.errors import ReproError
from repro.ftl import parse_query
from repro.ftl.ast import (
    Attr,
    Compare,
    Const,
    Dist,
    Inside,
    Outside,
    Var,
    WithinSphere,
)
from repro.ftl.context import EvalContext
from repro.ftl.evaluator import IntervalEvaluator
from repro.geometry import Point
from repro.motion.functions import (
    LinearFunction,
    PiecewiseLinearFunction,
    SinusoidFunction,
)
from repro.spatial import Polygon
from repro.spatial.regions import Ball
from repro.temporal import DISCRETE, IntervalSet

from tests.ftl.test_batch_solver import scalar_reference

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

DIMS = {"cars": 2, "vans": 2, "drones": 3}
AXES = ("x_position", "y_position", "z_position")


def make_db():
    db = MostDatabase()
    db.create_class(
        ObjectClass("cars", spatial_dimensions=2, dynamic_attributes=("fuel",))
    )
    db.create_class(ObjectClass("vans", spatial_dimensions=2))
    db.create_class(ObjectClass("drones", spatial_dimensions=3))
    db.define_region("P", Polygon.rectangle(-4, -3, 5, 6))
    db.define_region("B2", Ball(Point(1.0, -2.0), 3.5))
    db.define_region("B3", Ball(Point(0.0, 0.0, 1.0), 4.0))
    return db


def add_car(db, oid, position, velocity):
    db.add_moving_object(
        "cars",
        oid,
        Point(*position),
        Point(*velocity),
        dynamic_extra={"fuel": DynamicAttribute.linear(9, -1)},
    )


# ---------------------------------------------------------------------------
# Random fleets
# ---------------------------------------------------------------------------
coefficients = st.one_of(
    st.integers(-6, 6),
    st.sampled_from([0.0, -0.0, 0.5, -1.25, 2.0, 3.75, 1e-13]),
    st.floats(-9, 9, allow_nan=False, width=32),
)
#: A scalar attribute also meets the band's edge cases: a slope the
#: tiny-slope guard flattens over one span and not another, and ints
#: whose products float64 cannot carry.
attr_coefficients = st.one_of(
    coefficients, st.sampled_from([1e6, 2e-7, -2e-7, 2**53 - 1, 2**30 + 1])
)
linear = st.tuples(st.just("linear"), coefficients, coefficients)
odd_laws = st.one_of(
    st.tuples(st.just("piecewise"), coefficients, coefficients),
    st.tuples(st.just("sinusoid"), coefficients, st.sampled_from([0.0, 0.7])),
    st.tuples(st.just("inexact"), st.just(2**60 + 1), coefficients),
    st.tuples(st.just("late"), coefficients, coefficients),
)
fuel_laws = st.one_of(
    st.none(),
    st.just(("nan",) * 3),
    st.tuples(st.just("linear"), attr_coefficients, attr_coefficients),
    st.tuples(st.just("late"), attr_coefficients, attr_coefficients),
    odd_laws,
)


def triple(law, start):
    kind, value, slope = law
    if kind == "linear":
        return DynamicAttribute(value, start, LinearFunction(slope))
    if kind == "piecewise":
        return DynamicAttribute(
            value, start, PiecewiseLinearFunction([(0, slope), (2.5, -slope)])
        )
    if kind == "sinusoid":
        return DynamicAttribute(value, start, SinusoidFunction(1.5, slope))
    if kind == "inexact":
        return DynamicAttribute(value, start, LinearFunction(slope))
    # An update time inside the window: anchored in the future.
    return DynamicAttribute(value, start + 2, LinearFunction(slope))


#: Most objects move on one plain linear leg (the column path); the
#: rest carry one odd axis law or per-axis update times.
objects = st.lists(
    st.tuples(
        st.sampled_from(sorted(DIMS)),
        st.lists(linear, min_size=3, max_size=3),
        st.one_of(
            st.none(),
            st.none(),
            st.none(),
            st.tuples(st.integers(0, 2), odd_laws),
            st.just("per-axis"),
        ),
        fuel_laws,
    ),
    min_size=1,
    max_size=7,
)


def build(spec, start):
    db = make_db()
    for i, (cls, axes, odd, fuel) in enumerate(spec):
        dim = DIMS[cls]
        dynamic = {
            axis: triple(law, start) for axis, law in zip(AXES[:dim], axes)
        }
        if odd == "per-axis":
            # Per-axis update times: the leg is not one plain leg.
            _kind, value, slope = axes[1]
            dynamic["y_position"] = DynamicAttribute(
                value, start - 1, LinearFunction(slope)
            )
        elif odd is not None:
            axis, law = odd
            dynamic[AXES[axis % dim]] = triple(law, start)
        if cls == "cars":
            if fuel is None:
                fuel = ("linear", 7, -1)
            if fuel[0] == "nan":
                dynamic["fuel"] = DynamicAttribute(
                    math.nan, start, LinearFunction(1)
                )
            else:
                dynamic["fuel"] = triple(fuel, start)
        db.add_object(cls, f"{cls[0]}{i}", dynamic=dynamic)
    return db


#: Bounds beyond any sentinel are never reached, on either path.
bounds = st.sampled_from(
    [0, 1, 2.5, 4, -1, 7.25, 30, math.nan, -0.0, 1e6, 1e13, -1e13]
)


@st.composite
def atoms(draw):
    """An atom over ``x`` / ``y`` and its bindings."""
    kind = draw(
        st.sampled_from(["inside", "outside", "dist", "sphere", "attr"])
    )
    bindings = {"x": draw(st.sampled_from(sorted(DIMS)))}
    x, y = Var("x"), Var("y")
    if kind in ("inside", "outside"):
        region = draw(st.sampled_from(["P", "B2", "B3", "nowhere"]))
        return (Inside if kind == "inside" else Outside)(x, region), bindings
    bindings["y"] = draw(st.sampled_from(sorted(DIMS)))
    if kind == "sphere":
        radius = draw(st.sampled_from([0.0, 1.5, 3.0, -1.0]))
        return WithinSphere(radius, (x, y)), bindings
    op = draw(st.sampled_from(["<=", ">=", "<="]))
    bound = Const(draw(bounds))
    if kind == "dist":
        term = Dist(x, y)
    else:
        del bindings["y"]
        attr = draw(st.sampled_from(["x_position", "y_position", "fuel"]))
        if attr == "fuel":
            bindings["x"] = "cars"
        term = Attr(x, attr)
    if draw(st.booleans()):
        return Compare(op, term, bound), bindings
    return Compare(op, bound, term), bindings


def exact(iset):
    return iset.domain, [
        (type(iv.start), iv.start, type(iv.end), iv.end) for iv in iset
    ]


def outcome(db, f, bindings, rows, start, horizon, scalar):
    """One side's whole record: per pass the relation rows (exact), the
    counters and the per-atom statistics, or the first error."""
    db.mbr_tables.clear()
    free = sorted(f.free_vars())
    passes = []
    windows = [(start, horizon), (start, horizon)]
    if horizon:
        windows.append((start + 1, horizon - 1))  # a window-shifted refresh
    for begin, length in windows:
        ctx = EvalContext(FutureHistory(db, begin), length, bindings)
        ev = IntervalEvaluator(ctx)
        try:
            with scalar_reference() if scalar else nullcontext():
                relation = ev._batched_rows(f, free, list(rows))
        except (ReproError, ValueError, ZeroDivisionError) as exc:
            passes.append(("raised", type(exc), str(exc)))
            break
        (stats,) = ev.atom_stats.values()
        passes.append(
            (
                [(inst, exact(iset)) for inst, iset in relation.rows()],
                ev.counters(),
                {k: v for k, v in stats.items() if k != "formula"},
            )
        )
    return passes


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    objects,
    atoms(),
    st.sampled_from([0, 3]),
    st.sampled_from([0, 1, 7, 20]),
    st.lists(st.integers(0, 60), max_size=2),
)
def test_column_path_equals_the_scalar_rows(spec, atom, start, horizon, ghosts):
    f, bindings = atom
    db = build(spec, start)
    history = FutureHistory(db, start)
    free = sorted(f.free_vars())
    domains = [history.object_ids(bindings[v]) for v in free]
    rows = [()]
    for domain in domains:
        rows = [(*row, value) for row in rows for value in domain]
    for at in ghosts:  # unknown ids, which raise on the solve path
        rows.insert(at % (len(rows) + 1), tuple("ghost" for _ in free))
    got = outcome(db, f, bindings, rows, start, horizon, False)
    want = outcome(db, f, bindings, rows, start, horizon, True)
    assert got == want, f


def test_the_wall_reaches_the_column_path(monkeypatch):
    """Plain linear rows of every kind take the column path: not one
    per-row request is built for them."""
    db = make_db()
    for i in range(4):
        add_car(db, f"c{i}", (i, -i), (1, 0.5))
        db.add_moving_object("vans", f"v{i}", Point(-i, i), Point(0, -1))
    calls = []
    original = IntervalEvaluator._atom_request

    def counting(self, f, env):
        calls.append(f)
        return original(self, f, env)

    monkeypatch.setattr(IntervalEvaluator, "_atom_request", counting)
    for text in (
        "RETRIEVE o FROM cars o WHERE INSIDE(o, P)",
        "RETRIEVE o FROM cars o WHERE OUTSIDE(o, B2)",
        "RETRIEVE c FROM cars c, vans v WHERE DIST(c, v) <= 3",
        "RETRIEVE c FROM cars c, vans v WHERE 2 <= DIST(c, v)",
        "RETRIEVE c FROM cars c, vans v WHERE WITHIN_SPHERE(2, c, v)",
        "RETRIEVE o FROM cars o WHERE o.x_position <= 2",
        "RETRIEVE o FROM cars o WHERE 1 <= o.y_position",
    ):
        query = parse_query(text)
        with scalar_reference():
            want = query.evaluate(FutureHistory(db), 12)
        assert calls
        calls.clear()
        got = query.evaluate(FutureHistory(db), 12)
        assert calls == [], text
        assert got.rows() and [(i, exact(s)) for i, s in got.rows()] == [
            (i, exact(s)) for i, s in want.rows()
        ], text


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------
def ticks(*pairs):
    return IntervalSet.from_pairs(pairs, DISCRETE)


def answer(db, text, horizon=10):
    """The interval answer of ``text`` per row, checked exact against the
    scalar path and equal to the naive evaluator's."""
    query = parse_query(text)
    got = query.evaluate(FutureHistory(db), horizon)
    with scalar_reference():
        scalar = query.evaluate(FutureHistory(db), horizon)
    naive = query.evaluate(FutureHistory(db), horizon, method="naive")
    rows = {inst: iset for inst, iset in got.rows()}
    assert {i: exact(s) for i, s in rows.items()} == {
        i: exact(s) for i, s in scalar.rows()
    }
    assert rows == dict(naive.rows())
    return rows


def one_car(value, slope, fuel=None):
    db = make_db()
    db.add_object(
        "cars",
        "c",
        dynamic={
            "x_position": DynamicAttribute(value, 0, LinearFunction(slope)),
            "y_position": DynamicAttribute(0.0, 0, LinearFunction(0.0)),
            "fuel": fuel or DynamicAttribute.linear(9, -1),
        },
    )
    return db


@pytest.mark.parametrize(
    "value, slope, text, want",
    [
        # Zero velocity: inside for the whole window, or never.
        (2.0, 0.0, "o.x_position <= 3", ticks((0, 10))),
        (4.0, 0.0, "o.x_position <= 3", None),
        # A crossing exactly on a tick: 1 + 0.5 t = 3 at t = 4.
        (1.0, 0.5, "o.x_position <= 3", ticks((0, 4))),
        (1.0, 0.5, "o.x_position >= 3", ticks((4, 10))),
        # Between ticks: 1 + 0.4 t = 3 at t = 5 (0.4 is inexact: 4.999…).
        (1.0, 0.4, "o.x_position <= 3", ticks((0, 5))),
        (1.0, 0.3, "o.x_position <= 3", ticks((0, 6))),
        (1.0, 0.3, "3 <= o.x_position", ticks((7, 10))),
        # The value exactly equal to the bound, still and moving away.
        (3.0, 0.0, "o.x_position >= 3", ticks((0, 10))),
        (3.0, -1.0, "o.x_position >= 3", ticks((0, 0))),
        # The tiny-slope guard: |slope| * 10 <= 1e-12 * |value| is a
        # constant.  The value sits on the bound and the slope cannot
        # move it (1e6 - 1e-20 t == 1e6 at every tick); solved without
        # the guard, the crossing would come out at t = 0 only.
        (1e6, -1e-20, "o.x_position >= 1000000", ticks((0, 10))),
        (1e6, -1e-20, "o.x_position <= 1000000", ticks((0, 10))),
        (1e6, 1e-20, "o.x_position <= 1000000", ticks((0, 10))),
        # Int coefficients take the kernel too.
        (1, 1, "o.x_position <= 5", ticks((0, 4))),
        # A slope that does move the value, by 1e-12 over the window, is
        # no constant: it carries 3 + 1 ulp below the bound from t = 1.
        (3.0000000000000004, -1e-13, "o.x_position <= 3", ticks((1, 10))),
        (3.0000000000000004, -1e-13, "o.x_position >= 3", ticks((0, 0))),
    ],
)
def test_attribute_band_closed_forms(value, slope, text, want):
    db = one_car(value, slope)
    rows = answer(db, f"RETRIEVE o FROM cars o WHERE {text}")
    assert exact(rows.get(("c",), IntervalSet.empty(DISCRETE))) == exact(
        want or IntervalSet.empty(DISCRETE)
    )


def test_a_tiny_slope_split_by_its_update_time():
    """1e6 + 2e-7 (t - 2), anchored inside the window: the update time
    cuts the window at t = 2, and on neither side is the slope a
    constant.  Only t = 0 (1e6 - 4e-7) is at most 999999.9999997."""
    fuel = DynamicAttribute(1e6, 2, LinearFunction(2e-7))
    db = one_car(0.0, 0.0, fuel=fuel)
    rows = answer(db, "RETRIEVE o FROM cars o WHERE o.fuel <= 999999.9999997")
    assert exact(rows[("c",)]) == exact(ticks((0, 0)))


@pytest.mark.parametrize("value", [-5.0, 0.0, 5.0])
def test_a_bound_beyond_the_sentinel_is_never_reached(value):
    """A bound past the sentinel (which lies beyond any value the window
    reaches) holds at no tick, in either direction, on every path."""
    db = one_car(value, 1.5)
    for text in (
        "o.x_position <= -10000000000000",
        "o.x_position >= 10000000000000",
        "-10000000000000 >= o.x_position",
    ):
        assert answer(db, f"RETRIEVE o FROM cars o WHERE {text}") == {}


def test_nan_attribute_value_is_never_in_range():
    """A NaN value compares false at every tick (its row is inexact, so
    the scalar path solves it)."""
    db = one_car(0.0, 1.0, fuel=DynamicAttribute(math.nan, 0, LinearFunction(1)))
    for text in ("o.fuel <= 5", "o.fuel >= 5", "5 >= o.fuel"):
        assert answer(db, f"RETRIEVE o FROM cars o WHERE {text}") == {}


def test_nan_bound_is_never_in_range():
    db = one_car(1.0, 0.5)
    for op in ("<=", ">="):
        f = Compare(op, Attr(Var("o"), "x_position"), Const(math.nan))
        ctx = EvalContext(FutureHistory(db), 10, {"o": "cars"})
        got = IntervalEvaluator(ctx)._batched_rows(f, ["o"], [("c",)])
        with scalar_reference():
            want = IntervalEvaluator(ctx)._batched_rows(f, ["o"], [("c",)])
        assert list(got.rows()) == list(want.rows()) == []


def test_large_int_coefficients_keep_the_scalar_band():
    """Ints whose products float64 cannot carry: at t = 3 the value is
    ``1 + (2**53 - 1) * 3``, which exceeds the bound by 2 in int
    arithmetic and would equal it in float64.  The row keeps the scalar
    band, which — like the naive evaluator — never holds."""
    db = make_db()
    db.add_object(
        "cars",
        "c",
        dynamic={
            "x_position": DynamicAttribute(0.0, 0, LinearFunction(0.0)),
            "y_position": DynamicAttribute(0.0, 0, LinearFunction(0.0)),
            "fuel": DynamicAttribute(1, 0, LinearFunction(2**53 - 1)),
        },
    )
    db.clock.tick(3)
    bound = 3 * 2**53 - 4  # a float64, and the query's int constant
    assert answer(db, f"RETRIEVE o FROM cars o WHERE o.fuel <= {bound}") == {}


def test_rows_the_band_cannot_repeat_take_the_request(monkeypatch):
    """An update time inside the window and ints past float64's exact
    range are solved by the per-row request; the plain rows beside them
    are not.  A bound beyond the sentinel is never reached: the plain
    row stays on the column path and no row holds it, on either path."""
    db = make_db()
    laws = {
        "plain": DynamicAttribute(3.0, 0, LinearFunction(-0.5)),
        "late": DynamicAttribute(3.0, 4, LinearFunction(-0.5)),
        "huge": DynamicAttribute(1, 0, LinearFunction(2**53 - 1)),
    }
    for oid, fuel in laws.items():
        db.add_object(
            "cars",
            oid,
            dynamic={
                "x_position": DynamicAttribute(0.0, 0, LinearFunction(0.0)),
                "y_position": DynamicAttribute(0.0, 0, LinearFunction(0.0)),
                "fuel": fuel,
            },
        )
    requested = []
    original = IntervalEvaluator._atom_request

    def recording(self, f, env):
        requested.append(env["o"])
        return original(self, f, env)

    monkeypatch.setattr(IntervalEvaluator, "_atom_request", recording)
    for text in (
        "o.fuel <= 1",
        "o.fuel <= -10000000000000",
        "10000000000000 <= o.fuel",
    ):
        text = f"RETRIEVE o FROM cars o WHERE {text}"
        requested.clear()
        parse_query(text).evaluate(FutureHistory(db), 10)
        assert requested == ["late", "huge"], text
        rows = answer(db, text)
        if "10000000000000" in text:
            assert ("plain",) not in rows and ("late",) not in rows


def two_movers(a, va, b, vb):
    db = make_db()
    add_car(db, "a", a, va)
    db.add_moving_object("vans", "b", Point(*b), Point(*vb))
    return db


def test_gathered_dist_rows_closed_forms():
    # Still, 5 apart: always within 5, never within 4.
    db = two_movers((0, 0), (0, 0), (3, 4), (0, 0))
    dist = "RETRIEVE c, v FROM cars c, vans v WHERE DIST(c, v)"
    assert exact(answer(db, f"{dist} <= 5")[("a", "b")]) == exact(ticks((0, 10)))
    assert answer(db, f"{dist} <= 4") == {}
    assert exact(answer(db, f"{dist} >= 4")[("a", "b")]) == exact(ticks((0, 10)))
    # Closing head-on at speed 2 from 10 apart: |10 - 2t| <= 4 on [3, 7]
    # (crossings on ticks), <= 3 on [3.5, 6.5] -> ticks 4..6.
    db = two_movers((0, 0), (1, 0), (10, 0), (-1, 0))
    assert exact(answer(db, f"{dist} <= 4")[("a", "b")]) == exact(ticks((3, 7)))
    assert exact(answer(db, f"{dist} <= 3")[("a", "b")]) == exact(ticks((4, 6)))
    assert exact(answer(db, f"{dist} >= 3")[("a", "b")]) == exact(
        ticks((0, 3), (7, 10))
    )
    # Grazed at tangency: the van passes 2 above the car at t = 5, so the
    # discriminant of |d|^2 = 4 is 0 and only tick 5 is within 2.
    db = two_movers((0, 0), (0, 0), (-5, 2), (1, 0))
    assert exact(answer(db, f"{dist} <= 2")[("a", "b")]) == exact(ticks((5, 5)))


def test_gathered_inside_rows_closed_forms():
    db = make_db()
    # Crosses x = -4 (P's left edge) at t = 2 and x = 5 at t = 6.5.
    add_car(db, "in", (-8, 0), (2, 0))
    add_car(db, "still", (0, 0), (0, 0))
    add_car(db, "far", (50, 50), (0, 0))
    # Grazes B2 (center (1, -2), radius 3.5) at tangency: y = 1.5 at
    # t = 1, one tick.
    add_car(db, "graze", (1, 2.5), (0, -1))
    inside = answer(db, "RETRIEVE o FROM cars o WHERE INSIDE(o, P)")
    assert exact(inside[("in",)]) == exact(ticks((2, 6)))
    assert exact(inside[("still",)]) == exact(ticks((0, 10)))
    assert ("far",) not in inside
    outside = answer(db, "RETRIEVE o FROM cars o WHERE OUTSIDE(o, P)")
    assert exact(outside[("in",)]) == exact(ticks((0, 1), (7, 10)))
    assert exact(outside[("far",)]) == exact(ticks((0, 10)))
    ball = answer(db, "RETRIEVE o FROM cars o WHERE INSIDE(o, B2)")
    assert exact(ball[("graze",)]) == exact(ticks((1, 8)))


# ---------------------------------------------------------------------------
# A refresh reads only the rows it solves
# ---------------------------------------------------------------------------
def tuples(cq):
    return sorted((t.values, t.begin, t.end) for t in cq.answer_tuples())


def test_refresh_syncs_only_the_rows_it_names(monkeypatch):
    """After heartbeats to other cars and one real change, a refresh
    encodes no whole class: the heartbeat rows stay pending, and the
    legs it gathered equal a whole-class read bit for bit."""
    db = make_db()
    for i in range(30):
        add_car(db, f"c{i}", (i - 15, 0), (1, 0))
    for i in range(3):
        db.add_moving_object("vans", f"v{i}", Point(0, i), Point(0, 0))
    cqs = [
        ContinuousQuery(db, parse_query(text), horizon=20, method="incremental")
        for text in (
            "RETRIEVE o FROM cars o WHERE INSIDE(o, P)",
            "RETRIEVE c FROM cars c, vans v WHERE DIST(c, v) <= 4",
            "RETRIEVE o FROM cars o WHERE o.x_position <= 2",
        )
    ]
    for cq in cqs:
        cq.current()
    columns = db.motion_columns("cars")
    columns.positions()  # nothing pending
    syncs = []
    gathered = []
    original_sync = MotionColumns._sync
    original_positions = MotionColumns.positions

    def recording_sync(self, numbers=None):
        syncs.append(None if numbers is None else list(numbers))
        return original_sync(self, numbers)

    def recording_positions(self, numbers=None):
        if self is columns and numbers is not None:
            gathered.append(list(numbers))
        return original_positions(self, numbers)

    monkeypatch.setattr(MotionColumns, "_sync", recording_sync)
    monkeypatch.setattr(MotionColumns, "positions", recording_positions)
    db.clock.tick()
    heard = [f"c{i}" for i in range(10, 30)]
    for oid in heard:  # heartbeats: the same motion, re-announced
        db.update_motion(oid, Point(1, 0))
    db.update_motion("c3", Point(-1, 0.5))  # the one real change
    for cq in cqs:
        cq.current()
    assert syncs and None not in syncs
    pending = {row // columns.width for row in columns._pending}
    assert pending == {columns.index[oid] for oid in heard}
    assert any(columns.index["c3"] in numbers for numbers in gathered)
    monkeypatch.undo()
    for cq in cqs:
        naive = ContinuousQuery(
            db, cq.query, horizon=20 - db.clock.now, method="naive"
        )
        assert tuples(cq) == tuples(naive)
    ctx = EvalContext(FutureHistory(db), 20, {"o": "cars"})
    whole = linear_legs(columns.positions(), ctx.start)
    for numbers in gathered:
        legs = ctx.column_legs(columns.positions(numbers))
        for got, every in zip(legs, whole):
            assert got.tobytes() == every[numbers].tobytes()
