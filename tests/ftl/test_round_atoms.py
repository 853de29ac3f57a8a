"""One solve per atom per refresh round (DESIGN.md §7).

The continuous queries refreshed in one round — one content version at
one clock tick — read each distinct atom's column-path rows from the
update router's round table (:class:`~repro.ftl.atoms.RoundAtoms`):
solved once over ``[now, E]``, ``E`` the widest live ``expires_at``,
and clipped to each query's own window.  Held here:

* the differential wall: two to four queries over ``INSIDE`` /
  ``OUTSIDE`` / ``DIST`` / attribute atoms, with different horizons and
  subscription ticks, refreshed together over fleets mixing plain
  linear, piecewise and fallback movers, give each query's relation and
  captured ``AnswerState`` diff exactly — endpoint types included —
  what the same query gives as the only live query on a twin database,
  and the answer tuples its naive twin gives;
* closed forms around the window ends, a polygon's edge and corner, a
  car standing on the boundary and a ``DIST`` bound met tangentially,
  derived by hand: shared ≡ alone ≡ naive;
* invalidation: a commit at the same tick (written directly or by an
  update listener) or a clock tick between two refreshes forces a miss;
* scope: a piecewise or fallback row is solved by each query, never
  served from the table.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MostDatabase, ObjectClass
from repro.core.dynamic import DynamicAttribute
from repro.core.history import FutureHistory, epoch_token
from repro.core.queries import ContinuousQuery, UpdateRouter
from repro.ftl import parse_query
from repro.geometry import Point
from repro.motion.functions import (
    LinearFunction,
    PiecewiseLinearFunction,
    SinusoidFunction,
)
from repro.server.registry import AnswerState
from repro.spatial import Ball, Polygon
from repro.temporal import DISCRETE

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.ftl.analysis.diagnostics.FtlLintWarning"
)

REGIONS = {
    "P": Polygon.rectangle(0, 0, 9, 9),
    "B": Ball(Point(4, 12), 4.0),
}
TEXTS = (
    "RETRIEVE c FROM cars c WHERE INSIDE(c, P)",
    "RETRIEVE c FROM cars c WHERE EVENTUALLY WITHIN 3 INSIDE(c, P)",
    "RETRIEVE c FROM cars c WHERE OUTSIDE(c, P)",
    "RETRIEVE c FROM cars c WHERE INSIDE(c, P) UNTIL INSIDE(c, B)",
    "RETRIEVE c FROM cars c WHERE INSIDE(c, B) AND c.fuel >= 6",
    "RETRIEVE c FROM cars c WHERE c.fuel >= 6",
    "RETRIEVE c, d FROM cars c, depots d WHERE DIST(c, d) <= 6",
    "RETRIEVE c FROM cars c, depots d WHERE EVENTUALLY DIST(c, d) <= 6",
    "RETRIEVE c, d FROM cars c, depots d WHERE DIST(c, d) >= 6 AND OUTSIDE(c, P)",
)


def new_db():
    db = MostDatabase()
    db.create_class(
        ObjectClass("cars", spatial_dimensions=2, dynamic_attributes=("fuel",))
    )
    db.create_class(ObjectClass("depots", spatial_dimensions=2))
    for name, region in REGIONS.items():
        db.define_region(name, region)
    return db


def exact(iset):
    """An interval set with the type of every endpoint."""
    return iset.domain, [
        (type(iv.start), iv.start, type(iv.end), iv.end) for iv in iset
    ]


def exact_rows(relation):
    return sorted(
        ((inst, exact(iset)) for inst, iset in relation.rows()),
        key=lambda row: row[0],
    )


def maintained(cq):
    """The query's relations, exactly: the maintained (unprojected,
    unclipped) ``R_f`` and the displayed answer."""
    return exact_rows(cq._rf), exact_rows(cq.answer.relation)


def answer_tuples(cq):
    return sorted((t.values, t.begin, t.end) for t in cq.answer_tuples())


def round_table(db):
    return UpdateRouter.of(db).atoms


# ---------------------------------------------------------------------------
# The differential wall
# ---------------------------------------------------------------------------

COORD = st.integers(-6, 15)
VELOCITY = st.sampled_from((-2, -1, -0.5, 0, 0.5, 1, 2))
#: Most cars run one plain linear leg (the column path); the others a
#: piecewise law (a leg boundary inside every window) or a sinusoid.
LAWS = st.sampled_from(("linear", "linear", "linear", "piecewise", "sinusoid"))

cars = st.tuples(
    LAWS, COORD, COORD, VELOCITY, VELOCITY, st.integers(3, 12), VELOCITY
)
depots = st.tuples(COORD, COORD, VELOCITY, VELOCITY)
#: ``(text, horizon, subscription tick, method)``.
queries = st.tuples(
    st.integers(0, len(TEXTS) - 1),
    st.integers(3, 14),
    st.integers(0, 2),
    st.sampled_from(("incremental", "interval")),
)


@st.composite
def scenarios(draw):
    fleet = draw(st.lists(cars, min_size=1, max_size=5))
    stops = draw(st.lists(depots, min_size=1, max_size=2))
    chosen = draw(st.lists(queries, min_size=2, max_size=4))
    order = draw(st.permutations(range(len(chosen))))
    steps = draw(
        st.lists(
            st.tuples(
                st.booleans(),
                st.lists(
                    st.tuples(
                        st.integers(0, len(fleet) - 1), VELOCITY, VELOCITY
                    ),
                    min_size=1,
                    max_size=3,
                ),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return fleet, stops, chosen, order, steps


def law(kind, value, speed):
    if kind == "piecewise":
        return DynamicAttribute(
            value, 0, PiecewiseLinearFunction([(0, speed), (3.5, -speed)])
        )
    if kind == "sinusoid":
        return DynamicAttribute(value, 0, SinusoidFunction(1.5, 0.7))
    return DynamicAttribute(value, 0, LinearFunction(speed))


def build(fleet, stops):
    db = new_db()
    for i, (kind, x, y, vx, vy, fuel, burn) in enumerate(fleet):
        db.add_object(
            "cars",
            f"c{i}",
            dynamic={
                "x_position": law(kind, x, vx),
                "y_position": DynamicAttribute(y, 0, LinearFunction(vy)),
                "fuel": DynamicAttribute(fuel, 0, LinearFunction(burn)),
            },
        )
    for i, (x, y, vx, vy) in enumerate(stops):
        db.add_moving_object("depots", f"d{i}", Point(x, y), Point(vx, vy))
    return db


def play(fleet, stops, chosen, order, steps, alone=None):
    """Subscribe the chosen queries (only ``alone``, with a naive twin,
    when given) at their ticks, then run every step as one round:
    optionally a tick, the motion updates, a refresh of every live
    query in ``order`` (the naive twin last) and a capture of each.
    Returns, per query, the log of ``(relations, capture diff, answer
    tuples)``, and the live queries."""
    db = build(fleet, stops)
    live: dict[object, ContinuousQuery] = {}
    for tick in range(3):
        for i, (text, horizon, at, method) in enumerate(chosen):
            if at != tick or alone not in (None, i):
                continue
            query = parse_query(TEXTS[text])
            live[i] = ContinuousQuery(db, query, horizon=horizon, method=method)
            if alone is not None:
                live["naive"] = ContinuousQuery(
                    db, query, horizon=horizon, method="naive"
                )
        db.clock.tick()
    states: dict[object, AnswerState] = {}
    log: dict[object, list] = {i: [] for i in live}
    for tick, updates in steps:
        if tick:
            db.clock.tick()
        for car, vx, vy in updates:
            db.update_motion(f"c{car}", Point(vx, vy))
        for i in [*(i for i in order if i in live), "naive"]:
            if i in live:
                live[i].refresh()
        now = db.clock.now
        for i, cq in live.items():
            prev = states.get(i)
            state = states[i] = AnswerState.capture(cq, now, prev)
            diff = state.since(prev) if prev is not None else state.tuples
            log[i].append((maintained(cq), diff, answer_tuples(cq)))
    return log, live


WALL = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@WALL
@given(scenarios())
def test_shared_round_equals_each_query_alone_and_naive(scenario):
    fleet, stops, chosen, order, steps = scenario
    shared, _live = play(fleet, stops, chosen, order, steps)
    for i in range(len(chosen)):
        alone, _ = play(fleet, stops, chosen, order, steps, alone=i)
        assert shared[i] == alone[i], (i, chosen[i])
        for (_rel, _diff, tuples), (_r, _d, naive) in zip(
            alone[i], alone["naive"]
        ):
            assert tuples == naive, (i, chosen[i])


def test_the_wall_shares_rows():
    """The wall's positive control: two queries reading ``INSIDE(c, P)``
    in one round read rows from the table, and the table holds the
    round the queries read."""
    fleet = [("linear", x, 1, 1, 0, 9, -1) for x in range(-4, 8)]
    chosen = [(0, 12, 0, "incremental"), (1, 9, 1, "incremental")]
    steps = [(True, [(0, 1, 1), (5, -1, 0)])]
    log, live = play(fleet, [(0, 0, 0, 0)], chosen, [0, 1], steps)
    assert live[0].shared_rows == 0
    assert live[1].shared_rows == 2
    db = live[0].db
    assert round_table(db).token == epoch_token(FutureHistory(db))
    assert round_table(db).end == live[0].expires_at


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

#: A decoy far from every region and depot: updating it dirties every
#: query over ``cars`` and changes no answer.
DECOY = ("z", (200, 200))


def add_car(db, oid, position, velocity):
    db.add_moving_object(
        "cars",
        oid,
        Point(*position),
        Point(*velocity),
        dynamic_extra={"fuel": DynamicAttribute.linear(9, -1)},
    )


def closed_world(car, velocity, depot=None):
    db = new_db()
    add_car(db, "c", car, velocity)
    add_car(db, DECOY[0], DECOY[1], (0, 0))
    if depot is not None:
        db.add_moving_object("depots", "d", Point(*depot), Point(0, 0))
    return db


def closed_round(world, text, horizons, refresh_order):
    """Subscribe ``text`` once per horizon at tick 0 (``interval``: a
    refresh re-solves every row), tick, update the decoy and refresh
    the queries in ``refresh_order``: their rows, shared, alone and
    naive."""
    db = world()
    query = parse_query(text)
    cqs = [
        ContinuousQuery(db, query, horizon=h, method="interval")
        for h in horizons
    ]
    db.clock.tick()
    db.update_motion(DECOY[0], Point(0, 1))
    before = [cq.shared_rows for cq in cqs]
    for k in refresh_order:
        cqs[k].refresh()
    shared = [maintained(cq) for cq in cqs]
    read = [cq.shared_rows - b for cq, b in zip(cqs, before)]
    alone, naive = [], []
    for h in horizons:
        twin = world()
        one = ContinuousQuery(twin, query, horizon=h, method="interval")
        slow = ContinuousQuery(twin, query, horizon=h, method="naive")
        twin.clock.tick()
        twin.update_motion(DECOY[0], Point(0, 1))
        one.refresh()
        alone.append(maintained(one))
        naive.append(answer_tuples(slow))
        assert answer_tuples(one) == naive[-1]
    return shared, alone, naive, read


def spans(*pairs):
    """Hand-derived rows: ``(instantiation, (lo, hi), ...)`` per row, as
    :func:`exact_rows` shows discrete int spans."""
    return sorted(
        (
            inst,
            (DISCRETE, [(int, lo, int, hi) for lo, hi in ranges]),
        )
        for inst, *ranges in pairs
    )


INSIDE_P = TEXTS[0]
DIST_6 = TEXTS[6]

#: ``(name, world, text, horizons, hand-derived rows per horizon)``,
#: every query subscribed at tick 0 and refreshed at tick 1.
CLOSED = [
    (
        # x = -5 + t enters P at t = 5, strictly between the ends 3 and 10.
        "enters-between-the-ends",
        lambda: closed_world((-5, 1), (1, 0)),
        INSIDE_P,
        (10, 3),
        [spans((("c",), (5, 10))), spans()],
    ),
    (
        # The same car seen through EVENTUALLY: a row solved over the
        # wider window must not make the narrower window's answer hold.
        "eventually-enters-after-the-shorter-end",
        lambda: closed_world((-5, 1), (1, 0)),
        "RETRIEVE c FROM cars c WHERE EVENTUALLY INSIDE(c, P)",
        (10, 3),
        [spans((("c",), (1, 10))), spans()],
    ),
    (
        # x = 6 + t leaves P after t = 3, exactly the shorter end.
        "leaves-at-the-shorter-end",
        lambda: closed_world((6, 1), (1, 0)),
        INSIDE_P,
        (10, 3),
        [spans((("c",), (1, 3))), spans((("c",), (1, 3)))],
    ),
    (
        # Along P's top edge y = 9: inside for x = -3 + t in [0, 9].
        "runs-along-an-edge",
        lambda: closed_world((-3, 9), (1, 0)),
        INSIDE_P,
        (10, 4),
        [spans((("c",), (3, 10))), spans((("c",), (3, 4)))],
    ),
    (
        # (7, 11) + t(1, -1) touches P's corner (9, 9) at t = 2 only.
        "touches-a-corner",
        lambda: closed_world((7, 11), (1, -1)),
        INSIDE_P,
        (10, 4),
        [spans((("c",), (2, 2))), spans((("c",), (2, 2)))],
    ),
    (
        # Standing on P's right edge: inside over every window.
        "stands-on-the-boundary",
        lambda: closed_world((9, 4), (0, 0)),
        INSIDE_P,
        (10, 4),
        [spans((("c",), (1, 10))), spans((("c",), (1, 4)))],
    ),
    (
        # |(-5 + t, 6)| >= 6, equal at t = 5 only: tangent to the bound.
        "dist-tangent-to-its-bound",
        lambda: closed_world((-5, 6), (1, 0), depot=(0, 0)),
        DIST_6,
        (10, 6),
        [spans((("c", "d"), (5, 5))), spans((("c", "d"), (5, 5)))],
    ),
]


@pytest.mark.parametrize(
    "refresh_order", [(0, 1), (1, 0)], ids=["wide-first", "narrow-first"]
)
@pytest.mark.parametrize(
    "world, text, horizons, expected",
    [case[1:] for case in CLOSED],
    ids=[case[0] for case in CLOSED],
)
def test_closed_forms_shared_alone_naive(
    world, text, horizons, expected, refresh_order
):
    shared, alone, naive, read = closed_round(
        world, text, horizons, refresh_order
    )
    assert shared == alone
    assert [answer for _rf, answer in shared] == expected
    for rows, tuples in zip(expected, naive):
        assert tuples == sorted(
            (inst, iv[1], iv[3]) for inst, (_domain, ivs) in rows for iv in ivs
        )
    # The query refreshed second read every row the first one solved.
    assert read[refresh_order[0]] == 0
    assert read[refresh_order[1]] == 2


# ---------------------------------------------------------------------------
# Invalidation and scope
# ---------------------------------------------------------------------------


def two_queries(db):
    query = parse_query(INSIDE_P)
    return (
        ContinuousQuery(db, query, horizon=10, method="interval"),
        ContinuousQuery(db, query, horizon=6, method="interval"),
    )


@pytest.mark.parametrize("writer", ["update-motion", "listener"])
def test_a_commit_between_two_refreshes_forces_a_miss(writer):
    """``c`` (x = -5 + t) turns to x-speed 2 at tick 1 after the wide
    query refreshed: the narrow one must not read the round it left."""
    db = closed_world((-5, 1), (1, 0))
    wide, narrow = two_queries(db)
    db.clock.tick()
    db.update_motion(DECOY[0], Point(0, 1))
    wide.refresh()
    if writer == "update-motion":
        db.update_motion("c", Point(2, 0))
    else:
        wrote = []

        def listener(updates):
            if not wrote and updates[0].object_id == DECOY[0]:
                wrote.append(True)
                db.update_motion("c", Point(2, 0))

        db.on_update(listener)
        db.update_motion(DECOY[0], Point(0, 2))
        assert wrote
    read = narrow.shared_rows
    narrow.refresh()
    assert narrow.shared_rows == read
    # x = -4 + 2 (t - 1) >= 0 from t = 3 on.
    assert exact_rows(narrow.answer.relation) == spans((("c",), (3, 6)))
    # The next round — the same tick, the new version — is shared again.
    wide.refresh()
    assert wide.shared_rows == 2
    assert exact_rows(wide.answer.relation) == spans((("c",), (3, 7)))


def test_a_clock_tick_between_two_refreshes_forces_a_miss():
    db = closed_world((-5, 1), (1, 0))
    wide, narrow = two_queries(db)
    db.clock.tick()
    db.update_motion(DECOY[0], Point(0, 1))
    wide.refresh()
    db.clock.tick()
    read = narrow.shared_rows
    narrow.refresh()
    assert narrow.shared_rows == read
    assert exact_rows(narrow.answer.relation) == spans((("c",), (5, 6)))
    assert round_table(db).token == epoch_token(FutureHistory(db))


def test_piecewise_and_fallback_rows_are_never_served():
    """Inside ``P``'s box, so no partition decides them: the piecewise
    and the sinusoid car are solved by each query over its own window,
    and held in the table as rows it does not answer."""
    db = closed_world((-5, 1), (1, 0))
    db.add_object(
        "cars",
        "p",
        dynamic={
            "x_position": law("piecewise", 2, 1),
            "y_position": DynamicAttribute(2, 0, LinearFunction(0)),
            "fuel": DynamicAttribute.linear(9, -1),
        },
    )
    db.add_object(
        "cars",
        "s",
        dynamic={
            "x_position": law("sinusoid", 4, 0),
            "y_position": DynamicAttribute(4, 0, LinearFunction(0)),
            "fuel": DynamicAttribute.linear(9, -1),
        },
    )
    wide, narrow = two_queries(db)
    db.clock.tick()
    db.update_motion(DECOY[0], Point(0, 1))
    solves = [wide.kinetic_solves, narrow.kinetic_solves]
    wide.refresh()
    narrow.refresh()
    (entry,) = round_table(db)._entries.values()
    assert entry[("p",)] is None and entry[("s",)] is None
    assert entry[("c",)] is not None
    # The narrow query read c's and the decoy's rows and solved p and s.
    assert narrow.shared_rows == 2
    assert narrow.kinetic_solves - solves[1] == 2
    assert wide.kinetic_solves - solves[0] == 3
    for cq, horizon in ((wide, 10), (narrow, 6)):
        twin = ContinuousQuery(db, cq.query, horizon=horizon - 1, method="naive")
        assert answer_tuples(cq) == answer_tuples(twin)
