"""Delta joins probe their full side (DESIGN.md §3c).

An incremental refresh joins each child's delta rows with the other
child's *full* cached relation, looking the matches up in that
relation's inverted index instead of scanning it
(``IntervalEvaluator._matches``).  Two walls:

* probe ≡ scan as maps (instantiation → interval set, endpoint types
  included) for the conjunction walked from either side and for the
  Until join, over random relations with 0, 1 and 2 shared variables,
  keys matching many rows, values repeated inside one row and empty
  sides — and the probed rows come in an order fixed by the relation,
  not by the hash seed;
* incremental ≡ interval ≡ naive continuous queries tuple for tuple on
  ``AND`` and ``UNTIL`` queries over random fleets and update streams.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MostDatabase, ObjectClass
from repro.core.history import FutureHistory
from repro.core.queries import ContinuousQuery
from repro.ftl import parse_query
from repro.ftl.context import EvalContext
from repro.ftl.evaluator import IntervalEvaluator
from repro.ftl.relations import FtlRelation
from repro.geometry import Point
from repro.spatial import Polygon
from repro.temporal import DISCRETE, IntervalSet, until

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.ftl.analysis.diagnostics.FtlLintWarning"
)

THINGS = ("x", "y", "z")
VARIABLES = ("a", "b", "c")


def evaluator():
    db = MostDatabase()
    db.create_class(ObjectClass("things", spatial_dimensions=0))
    for oid in THINGS:
        db.add_object("things", oid)
    ctx = EvalContext(
        FutureHistory(db), 20, {v: "things" for v in VARIABLES}
    )
    return IntervalEvaluator(ctx)


def as_map(relation):
    return {
        inst: [(type(iv.start), iv.start, type(iv.end), iv.end) for iv in iset]
        for inst, iset in relation.rows()
    }


SPANS = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 6)), min_size=1, max_size=3
).map(lambda ps: IntervalSet.from_pairs([(s, s + d) for s, d in ps], DISCRETE))


@st.composite
def relations(draw):
    names = draw(
        st.lists(st.sampled_from(VARIABLES), min_size=0, max_size=3, unique=True)
    )
    variables = tuple(sorted(names))
    rows = draw(
        st.dictionaries(
            st.tuples(*[st.sampled_from(THINGS) for _ in variables]),
            SPANS,
            max_size=12,
        )
    )
    return FtlRelation(variables, rows)


JOINS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@JOINS
@given(r1=relations(), r2=relations())
def test_probed_conjunction_is_the_scanned_one(r1, r2):
    ev = evaluator()
    scanned = as_map(ev._conjunction(r1, r2))
    assert as_map(ev._conjunction(r1, r2, probe=r2)) == scanned
    assert as_map(ev._conjunction(r1, r2, probe=r1)) == scanned


@JOINS
@given(r1=relations(), r2=relations())
def test_probed_until_join_is_the_scanned_one(r1, r2):
    ev = evaluator()
    scanned = as_map(ev._until_join(r1, r2, until))
    assert as_map(ev._until_join(r1, r2, until, probe=True)) == scanned


def test_the_walls_reach_every_shape():
    """0, 1 and 2 shared variables, a key matching several rows, a row
    naming one value twice and an empty side, each once explicitly."""
    ev = evaluator()
    s = IntervalSet.from_pairs([(0, 9)], DISCRETE)
    ab = FtlRelation(("a", "b"), {("x", "y"): s, ("x", "z"): s, ("y", "y"): s})
    a = FtlRelation(("a",), {("x",): s, ("y",): s})
    c = FtlRelation(("c",), {("z",): s})
    for r1, r2 in [
        (a, ab), (ab, a), (ab, ab), (a, c), (c, ab),
        (FtlRelation(("a",)), ab), (ab, FtlRelation(("a", "b"))),
    ]:
        scanned = as_map(ev._conjunction(r1, r2))
        assert as_map(ev._conjunction(r1, r2, probe=r2)) == scanned
        assert as_map(ev._conjunction(r1, r2, probe=r1)) == scanned
        assert as_map(ev._until_join(r1, r2, until, probe=True)) == as_map(
            ev._until_join(r1, r2, until)
        )
    # ("x",) meets two rows of ``ab``; ("y",) meets ("y", "y") once.
    assert sorted(as_map(ev._conjunction(a, ab, probe=ab))) == [
        ("x", "y"), ("x", "z"), ("y", "y"),
    ]


_ORDER_SCRIPT = """
from repro.ftl.relations import FtlRelation
from repro.temporal import DISCRETE, IntervalSet
s = IntervalSet.from_pairs([(0, 9)], DISCRETE)
full = FtlRelation(("a", "b"), {})
for i in range(40):
    full.set((f"o{i % 7}", f"p{i}"), s)
full.rows_touching(["o1"])
for i in range(0, 40, 3):
    full.patch([(f"o{i % 7}", f"p{i}")], FtlRelation(("a", "b")))
for i in range(40, 60):
    full.set((f"o{i % 7}", f"p{i}"), s)
print([inst for v in ("o1", "o3", "o5") for inst, _ in full.matching([0], (v,))])
print(full.rows_touching(["o2", "p41", "o6"]))
"""


def test_probe_order_does_not_depend_on_the_hash_seed():
    src = Path(__file__).parents[2] / "src"
    outputs = {
        subprocess.run(
            [sys.executable, "-c", _ORDER_SCRIPT],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("0", "1", "2")
    }
    assert len(outputs) == 1


# ----------------------------------------------------------------------
# The chain: incremental ≡ interval ≡ naive on AND and UNTIL queries
# ----------------------------------------------------------------------
HORIZON = 8
CHAIN_TEXTS = (
    # one shared variable
    "RETRIEVE o FROM cars o WHERE INSIDE(o, P) AND o.x_position <= 2",
    "RETRIEVE o FROM cars o WHERE INSIDE(o, P) UNTIL INSIDE(o, Q)",
    # one shared, the other side wider; Until with an extra variable
    "RETRIEVE a, b FROM cars a, cars b WHERE DIST(a, b) <= 5 AND INSIDE(a, P)",
    "RETRIEVE a, b FROM cars a, cars b WHERE DIST(a, b) <= 5 UNTIL INSIDE(b, Q)",
    # two shared variables
    "RETRIEVE a, b FROM cars a, cars b WHERE DIST(a, b) <= 6 AND DIST(a, b) >= 2",
    "RETRIEVE a, d FROM cars a, depots d WHERE DIST(a, d) >= 3 UNTIL DIST(a, d) <= 4",
    # no shared variable: a cross product
    "RETRIEVE a, d FROM cars a, depots d WHERE INSIDE(a, P) AND INSIDE(d, Q)",
)
SPEEDS = st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0))
FLEET = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(-8, 8), SPEEDS, SPEEDS),
    min_size=1,
    max_size=3,
)
STEPS = st.lists(
    st.lists(st.tuples(st.integers(0, 3), SPEEDS, SPEEDS), max_size=2),
    min_size=1,
    max_size=5,
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    fleet=FLEET,
    depots=st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=1, max_size=2),
    steps=STEPS,
    text=st.sampled_from(CHAIN_TEXTS),
)
def test_incremental_equals_interval_equals_naive(fleet, depots, steps, text):
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.create_class(ObjectClass("depots", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(-4, -4, 4, 4))
    db.define_region("Q", Polygon.rectangle(0, 0, 9, 9))
    for i, (x, y, vx, vy) in enumerate(fleet):
        db.add_moving_object("cars", f"c{i}", Point(float(x), float(y)), Point(vx, vy))
    for j, (x, y) in enumerate(depots):
        db.add_moving_object("depots", f"d{j}", Point(float(x), float(y)), Point(0.5, 0.0))
    cqs = [
        ContinuousQuery(db, parse_query(text), horizon=HORIZON, method=m)
        for m in ("incremental", "interval", "naive")
    ]
    for step in steps:
        db.clock.tick()
        for k, vx, vy in step:
            db.update_motion(f"c{k % len(fleet)}", Point(vx, vy))
        answers = [
            sorted((t.values, t.begin, t.end) for t in cq.answer_tuples())
            for cq in cqs
        ]
        assert answers[0] == answers[1] == answers[2], text
        assert cqs[0].current() == cqs[1].current() == cqs[2].current()
