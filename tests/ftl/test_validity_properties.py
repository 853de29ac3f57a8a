"""Property test: validity-horizon reuse is sound for every evaluator.

The contract of :mod:`repro.ftl.analysis.validity` is that an update
whose observable trajectory never diverges from the previous one inside
the query's remaining window can never change ``Answer(CQ)``.  Over
160+ seeded worlds (random formula, random mixed update stream that
includes exact re-anchor heartbeats) and all three evaluation methods, a
horizon-stamped continuous query must stay *bit-identical* to an
unstamped twin built with ``validity_horizons`` off — and across the
run the stamped side must actually exercise the gate
(``horizon_skipped`` ≥ 1), otherwise the equivalence is vacuous.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ContinuousQuery, DynamicAttribute, MostDatabase, ObjectClass
from repro.ftl import (
    AndF,
    Attr,
    Compare,
    Const,
    Dist,
    Eventually,
    EventuallyWithin,
    FtlQuery,
    Inside,
    NotF,
    OrF,
    UntilWithin,
    Var,
    WithinSphere,
)
from repro.ftl.context import DEFAULT
from repro.geometry import Point
from repro.spatial import Polygon

#: Random queries trip the FTL lint rules (FTL302, FTL501, FTL602, ...)
#: by design: the warnings are expected here and errors elsewhere.
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.ftl.analysis.diagnostics.FtlLintWarning"
)

HORIZON = 8
#: The unstamped twin: no validity analysis, so no gate and no stamps.
UNSTAMPED = replace(DEFAULT, validity_horizons=False)
METHODS = ("interval", "naive", "incremental")

# Gate activity accumulated across the whole wall; asserted non-vacuous
# by test_wall_actually_exercised_the_gate below.
GATE_HITS = {"horizon_skipped": 0, "eligible_worlds": 0}


def build_db() -> MostDatabase:
    db = MostDatabase()
    db.create_class(
        ObjectClass(
            "cars",
            static_attributes=("price",),
            dynamic_attributes=("fuel",),
            spatial_dimensions=2,
        )
    )
    db.define_region("P", Polygon.rectangle(0, 0, 9, 9))
    for i, (x, vx) in enumerate([(-4, 2), (3, -1), (8, 0)]):
        db.add_moving_object(
            "cars",
            f"c{i}",
            Point(float(x), 1.0),
            Point(float(vx), 0.0),
            static={"price": 40.0 * (i + 1)},
            dynamic_extra={
                "fuel": DynamicAttribute.linear(30.0 + 5.0 * i, -1.0)
            },
        )
    return db


bounds = st.integers(min_value=0, max_value=4)

atoms = st.one_of(
    st.builds(Inside, st.just(Var("o")), st.just("P")),
    st.builds(
        Compare,
        st.sampled_from(["<=", ">="]),
        st.just(Attr(Var("o"), "x_position")),
        st.builds(Const, st.integers(min_value=-6, max_value=10)),
    ),
    st.builds(
        Compare,
        st.sampled_from(["<=", ">="]),
        st.builds(Dist, st.just(Var("o")), st.just(Var("n"))),
        st.builds(Const, st.integers(min_value=0, max_value=12)),
    ),
    st.builds(
        WithinSphere,
        st.integers(min_value=1, max_value=6),
        st.just((Var("o"), Var("n"))),
    ),
    st.builds(
        Compare,
        st.sampled_from(["<=", ">="]),
        st.just(Attr(Var("o"), "fuel")),
        st.builds(Const, st.integers(min_value=0, max_value=40)),
    ),
    st.builds(
        Compare,
        st.sampled_from(["<=", ">="]),
        st.just(Attr(Var("n"), "price")),
        st.builds(Const, st.integers(min_value=0, max_value=150)),
    ),
)


def formulas(depth: int):
    if depth == 0:
        return atoms
    sub = formulas(depth - 1)
    return st.one_of(
        atoms,
        st.builds(AndF, sub, sub),
        st.builds(OrF, sub, sub),
        st.builds(NotF, sub),
        st.builds(Eventually, sub),
        st.builds(EventuallyWithin, bounds, sub),
        st.builds(UntilWithin, bounds, sub, sub),
    )


oids = st.sampled_from(["c0", "c1", "c2"])

# Mixed update stream: exact re-anchor heartbeats (position and fuel)
# interleaved with genuinely new motion vectors, dynamic values and
# static rewrites.  Heartbeats are the updates the horizon gate exists
# to prove away; real changes are the ones it must never swallow.
steps = st.one_of(
    st.tuples(st.just("hb_position"), oids, st.just(0)),
    st.tuples(st.just("hb_fuel"), oids, st.just(0)),
    st.tuples(
        st.just("position"), oids, st.integers(min_value=-3, max_value=3)
    ),
    st.tuples(st.just("fuel"), oids, st.integers(min_value=0, max_value=40)),
    st.tuples(
        st.just("price"), oids, st.integers(min_value=10, max_value=200)
    ),
)


def apply_step(db: MostDatabase, step: tuple) -> None:
    what, oid, value = step
    if what == "hb_position":
        obj = db.get(oid)
        now = db.clock.now
        axes = [
            obj.dynamic_attribute(name)
            for name in obj.object_class.position_attributes
        ]
        db.update_motion(
            oid,
            Point(*(a.function.value(1.0) for a in axes)),
            position=Point(*(a.value_at(now) for a in axes)),
        )
    elif what == "hb_fuel":
        old = db.get(oid).dynamic_attribute("fuel")
        db.update_dynamic(oid, "fuel", function=old.function)
    elif what == "position":
        db.update_motion(
            oid, Point(float(value), 0.0), position=Point(float(value), 2.0)
        )
    elif what == "fuel":
        db.update_dynamic(oid, "fuel", value=float(value))
    else:
        db.update_static(oid, "price", float(value))


def visible(cq, now):
    return {
        (t.values, max(t.begin, now), t.end)
        for t in cq.answer_tuples()
        if t.end >= now
    }


@settings(
    max_examples=160,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    formula=formulas(2),
    stream=st.lists(steps, min_size=1, max_size=3),
    method=st.sampled_from(METHODS),
)
def test_stamped_answers_stay_bit_identical(formula, stream, method):
    db = build_db()
    query = FtlQuery(
        targets=("o",), bindings={"o": "cars", "n": "cars"}, where=formula
    )
    stamped = ContinuousQuery(db, query, horizon=HORIZON, method=method)
    twin_query = FtlQuery(
        targets=("o",), bindings={"o": "cars", "n": "cars"}, where=formula
    )
    twin = ContinuousQuery(
        db, twin_query, horizon=HORIZON, method=method, options=UNSTAMPED
    )
    assert twin.horizon_skipped == 0
    assert twin._validity is None

    for step in stream:
        db.clock.tick()
        apply_step(db, step)
        # Convergence after *every* step, not just at stream end: a
        # wrongly swallowed update would surface here tuple-for-tuple.
        assert stamped.current() == twin.current()
        now = db.clock.now
        assert visible(stamped, now) == visible(twin, now)

    assert twin.horizon_skipped == 0
    GATE_HITS["horizon_skipped"] += stamped.horizon_skipped
    if stamped._horizon_eligible:
        GATE_HITS["eligible_worlds"] += 1
    stamped.cancel()
    twin.cancel()


def test_wall_actually_exercised_the_gate():
    """The differential wall is only meaningful if the gate fired: at
    least one world must have skipped at least one update (and many
    worlds should have been horizon-eligible at all).

    Runs after the wall by file order; also guards against a silent
    regression that disables stamping and turns the wall vacuous.
    """
    assert GATE_HITS["horizon_skipped"] >= 1
    assert GATE_HITS["eligible_worlds"] >= 1


@settings(max_examples=30, deadline=None)
@given(method=st.sampled_from(METHODS), oid=oids, ticks=st.integers(1, 3))
def test_pure_heartbeat_streams_never_reevaluate(method, oid, ticks):
    """Deterministic flank of the wall: on an all-linear fleet every
    query horizon concretizes to infinity, so a stream of exact
    re-anchor heartbeats must be skipped wholesale while the twin
    re-evaluates — with identical answers throughout."""
    db = build_db()
    query = FtlQuery(
        targets=("o",),
        bindings={"o": "cars"},
        where=Eventually(Inside(Var("o"), "P")),
    )
    stamped = ContinuousQuery(db, query, horizon=HORIZON, method=method)
    twin_query = FtlQuery(
        targets=("o",),
        bindings={"o": "cars"},
        where=Eventually(Inside(Var("o"), "P")),
    )
    twin = ContinuousQuery(
        db, twin_query, horizon=HORIZON, method=method, options=UNSTAMPED
    )
    stamped.current(), twin.current()
    evals = stamped.evaluations
    for _ in range(ticks):
        db.clock.tick()
        apply_step(db, ("hb_position", oid, 0))
        assert stamped.current() == twin.current()
    # One heartbeat is one commit (a MostUpdate per spatial axis),
    # skipped — and counted — once.
    assert stamped.horizon_skipped == ticks
    assert stamped.evaluations == evals
    assert twin.horizon_skipped == 0
    stamped.cancel()
    twin.cancel()
