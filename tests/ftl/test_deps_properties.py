"""Property test: dependency pruning is sound for every evaluator.

The contract of :mod:`repro.ftl.analysis.deps` is that an explicit
update whose (class, kind) footprint is not covered by a query's
read-set can never change ``Answer(CQ)``.  Over ~200 seeded worlds
(random formula, random update) and all three evaluation methods, a
dependency-pruned continuous query must stay *bit-identical* to an
unpruned twin that refreshes on every class-relevant update — and when
the update falls outside the read-set, the pruned query must have
skipped it (``skipped_by_deps`` incremented, no reevaluation).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ContinuousQuery, DynamicAttribute, MostDatabase, ObjectClass
from repro.ftl import (
    AndF,
    Attr,
    Compare,
    Dist,
    Eventually,
    EventuallyWithin,
    FtlQuery,
    Inside,
    NotF,
    OrF,
    Const,
    UntilWithin,
    Var,
    WithinSphere,
)
from repro.ftl.analysis.deps import update_footprint
from repro.geometry import Point
from repro.spatial import Polygon

#: Random queries trip the FTL lint rules (FTL302, FTL501, FTL602, ...)
#: by design: the warnings are expected here and errors elsewhere.
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.ftl.analysis.diagnostics.FtlLintWarning"
)

HORIZON = 8
METHODS = ("interval", "naive", "incremental")


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

# Atoms deliberately mix read kinds: position-only (spatial), dynamic
# attribute (fuel) and static attribute (price), so generated formulas
# land anywhere on the read-set lattice.
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


updates = st.one_of(
    st.tuples(
        st.just("position"),
        st.sampled_from(["c0", "c1", "c2"]),
        st.integers(min_value=-3, max_value=3),
    ),
    st.tuples(
        st.just("fuel"),
        st.sampled_from(["c0", "c1", "c2"]),
        st.integers(min_value=0, max_value=40),
    ),
    st.tuples(
        st.just("price"),
        st.sampled_from(["c0", "c1", "c2"]),
        st.integers(min_value=10, max_value=200),
    ),
)


def apply_update(db: MostDatabase, update: tuple) -> None:
    what, oid, value = update
    if what == "position":
        db.update_motion(
            oid, Point(float(value), 0.0), position=Point(float(value), 2.0)
        )
    elif what == "fuel":
        db.update_dynamic(oid, "fuel", value=float(value))
    else:
        db.update_static(oid, "price", float(value))


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(formula=formulas(2), update=updates, method=st.sampled_from(METHODS))
def test_pruned_answers_stay_bit_identical(formula, update, method):
    db = build_db()
    query = FtlQuery(
        targets=("o",), bindings={"o": "cars", "n": "cars"}, where=formula
    )
    pruned = ContinuousQuery(db, query, horizon=HORIZON, method=method)
    naive_query = FtlQuery(
        targets=("o",), bindings={"o": "cars", "n": "cars"}, where=formula
    )
    unpruned = ContinuousQuery(db, naive_query, horizon=HORIZON, method=method)
    unpruned._deps = None  # the twin refreshes on every class match

    assert pruned._deps is not None
    evals_before = pruned.evaluations
    skips_before = pruned.skipped_by_deps

    db.clock.tick()
    apply_update(db, update)

    assert pruned.current() == unpruned.current()
    # Answer(CQ) agrees from the present on.  The raw begins can differ:
    # the twins clip to their own last-refresh tick, and a (correctly)
    # skipped update leaves the pruned clip anchored at registration.
    now = db.clock.now

    def visible(cq):
        return {
            (t.values, max(t.begin, now), t.end)
            for t in cq.answer_tuples()
            if t.end >= now
        }

    assert visible(pruned) == visible(unpruned)

    emitted = [
        u for u in db.log if u.time == db.clock.now
    ]
    covered = [
        u
        for u in emitted
        if pruned._deps.covers(update_footprint(u, db))
    ]
    if not covered:
        # Every record of this commit lay outside the read-set: the
        # pruned query must have skipped the commit — counted once, not
        # per record — without reevaluating.
        assert pruned.skipped_by_deps == skips_before + 1
        assert pruned.evaluations == evals_before
    pruned.cancel()
    unpruned.cancel()
