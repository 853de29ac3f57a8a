"""Property test: the analyzer's acceptance is sound.

Any formula the static analyzer accepts (no error-severity diagnostics
against the database schema) must evaluate without
:class:`FtlSemanticsError` under all three methods — naive, interval,
and the incremental continuous-query pipeline (including a post-update
refresh).  This is the contract pre-evaluation gating rests on: passing
the analyzer means no semantic failure can surface mid-evaluation.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ContinuousQuery, MostDatabase, ObjectClass
from repro.errors import FtlSemanticsError
from repro.ftl import (
    Always,
    AlwaysFor,
    AndF,
    Assign,
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
    analyze_formula,
)
from repro.geometry import Point
from repro.spatial import Polygon

#: Random queries trip the FTL lint rules (FTL302, FTL501, FTL602, ...)
#: by design: the warnings are expected here and errors elsewhere.
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.ftl.analysis.diagnostics.FtlLintWarning"
)

HORIZON = 8


def build_db() -> MostDatabase:
    db = MostDatabase()
    db.create_class(
        ObjectClass("cars", static_attributes=("price",), spatial_dimensions=2)
    )
    db.define_region("P", Polygon.rectangle(0, 0, 9, 9))
    for i, (x, vx) in enumerate([(-4, 2), (3, -1), (8, 0)]):
        db.add_moving_object(
            "cars",
            f"c{i}",
            Point(float(x), 1.0),
            Point(float(vx), 0.0),
            static={"price": 40.0 * (i + 1)},
        )
    return db


bounds = st.integers(min_value=0, max_value=4)

atoms = st.one_of(
    st.builds(Inside, st.just(Var("o")), st.just("P")),
    st.builds(Outside, st.just(Var("n")), st.just("P")),
    st.builds(
        Compare,
        st.sampled_from(["<=", ">=", "=", "!="]),
        st.just(Attr(Var("o"), "x_position")),
        st.builds(Const, st.integers(min_value=-6, max_value=10)),
    ),
    st.builds(
        Compare,
        st.just("<="),
        st.just(Attr(Var("o"), "price")),
        st.builds(Const, st.integers(min_value=0, max_value=150)),
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
        st.builds(Until, sub, sub),
        st.builds(UntilWithin, bounds, sub, sub),
        st.builds(Nexttime, sub),
        st.builds(Eventually, sub),
        st.builds(EventuallyWithin, bounds, sub),
        st.builds(EventuallyAfter, bounds, sub),
        st.builds(Always, sub),
        st.builds(AlwaysFor, bounds, sub),
        st.builds(
            Assign,
            st.just("v"),
            st.just(Attr(Var("o"), "x_position")),
            st.builds(
                Compare,
                st.sampled_from(["<=", ">="]),
                st.just(Attr(Var("n"), "x_position")),
                st.just(Var("v")),
            ),
        ),
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(formula=formulas(2))
def test_accepted_formulas_evaluate_everywhere(formula):
    db = build_db()
    bindings = {"o": "cars", "n": "cars"}
    result = analyze_formula(formula, bindings, schema=db)
    assert result.ok, f"generator produced a rejected formula: {result.errors}"

    query = FtlQuery(targets=("o",), bindings=bindings, where=formula)
    try:
        cq = ContinuousQuery(
            db, query, horizon=HORIZON, method="incremental"
        )
        cq.current()
        for method in ("naive", "interval"):
            ContinuousQuery(db, query, horizon=HORIZON, method=method).current()
        # Exercise the post-update refresh (incremental patch or the
        # analyzer-sanctioned fallback to full reevaluation).
        db.update_motion("c0", Point(-1.0, 0.0), position=Point(5.0, 1.0))
        cq.refresh()
        cq.current()
    except FtlSemanticsError as exc:  # pragma: no cover - the property
        raise AssertionError(
            f"analyzer accepted {formula} but evaluation raised: {exc}"
        ) from None
