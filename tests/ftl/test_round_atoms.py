"""One store for solved atoms (DESIGN.md §7).

The continuous queries of a database read each distinct atom's
column-path rows from the update router's store
(:class:`~repro.ftl.atoms.RoundAtoms`): each row held with the window
``[s, E]`` it was solved over, ``E`` the widest live ``expires_at`` at
tick ``s``, until a commit to one of its objects.  A row the index
decides is read clipped by any later window inside ``[s, E]``; a kernel
solve only by a window equal to it.  Held here:

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
* invalidation: a commit to a row's object (written directly, by an
  update listener, or heard by the store before the router) forces a
  miss, a clock tick does not drop a verdict;
* scope: a piecewise or fallback row is solved by each query, never
  served from the store;
* the invalidation wall: verdicts kept across ticks and commits to
  other objects; rows dropped by a commit to their own object through
  ``update_motion``, ``update_dynamic``, ``ingest_motion`` and a
  heartbeat; an insert into a read class; a region redefinition; a
  registration widening ``E``; a clock regression; query removal, with
  the store's size bounded by its live atoms' rows over many epochs —
  each case against the ``validity_horizons``-off twin and naive;
* speeds no binary fraction represents, crossing at every tick, against
  the ``validity_horizons``-off twin.
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
    over one window end read rows from the store, and the store holds
    the round the queries read.  At tick 4 the second query reads the
    two rows the first query re-solved over the same window after their
    cars' commits; the rows solved at the registration ticks 0 and 1
    are read by no one (a kernel solve answers its own window only)."""
    fleet = [("linear", x, 1, 1, 0, 9, -1) for x in range(-4, 8)]
    chosen = [(0, 12, 0, "incremental"), (1, 11, 1, "incremental")]
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
    # The decoy's commit dropped its row: the query refreshed first has
    # the index decide it again over the round window, and the second
    # reads that verdict.  The car's row is a kernel solve, which
    # answers only the window it was solved over: the wide query
    # re-solves it at the new tick, and the narrow query, whose window
    # ends earlier, solves its own.
    assert read[refresh_order[0]] == 0
    assert read[refresh_order[1]] == 1


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
    query refreshed: the narrow one must not read ``c``'s row.  The
    decoy's row, decided by the index for the wide query after the
    decoy's commit, is read unless the listener commits the decoy
    again."""
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
    assert narrow.shared_rows - read == (1 if writer == "update-motion" else 0)
    # x = -4 + 2 (t - 1) >= 0 from t = 3 on.
    assert exact_rows(narrow.answer.relation) == spans((("c",), (3, 6)))
    # The next round — the same tick, the new version — reads the
    # decoy's verdict again; ``c``'s row the narrow query solved over
    # its own window.
    read = wide.shared_rows
    wide.refresh()
    assert wide.shared_rows - read == 1
    assert exact_rows(wide.answer.relation) == spans((("c",), (3, 7)))


def test_a_listener_before_the_router_reads_no_dropped_row():
    """A listener subscribed before the router registers a query while
    ``c``'s commit is being heard, so the store is opened before the
    router hears that commit: the store itself drops the rows of every
    object the log records since it was last opened, so the new query,
    whose window is the round's, does not read ``c``'s old row."""
    db = closed_world((-5, 1), (1, 0))
    late = []

    def listener(updates):
        if updates[0].object_id == "c" and not late:
            late.append(ContinuousQuery(db, parse_query(INSIDE_P), horizon=9))

    db.on_update(listener)
    wide = ContinuousQuery(db, parse_query(INSIDE_P), horizon=10)
    db.clock.tick()
    db.update_motion(DECOY[0], Point(0, 1))
    wide.refresh()
    assert row(db, "c")[:2] == (1, 10)  # solved over the late query's window
    db.update_motion("c", Point(2, 0))
    (query,) = late
    # x = -4 + 2 (t - 1) lies in [0, 9] for t in [3, 7.5]; the old row
    # would read [5, 10].
    assert exact_rows(query.answer.relation) == spans((("c",), (3, 7)))
    twin = closed_world((-5, 1), (1, 0))
    twin.clock.tick()
    twin.update_motion("c", Point(2, 0))
    slow = ContinuousQuery(twin, query.query, horizon=9, method="naive")
    assert answer_tuples(query) == answer_tuples(slow)


def test_a_clock_tick_between_two_refreshes_keeps_the_verdicts():
    """A tick changes no motion: the narrow query reads, a tick after
    the wide one refreshed, the decoy's row the index decided at tick 1,
    clipped to its own window, and solves ``c``'s row again: a kernel
    solve answers only the window it was solved over."""
    db = closed_world((-5, 1), (1, 0))
    wide, narrow = two_queries(db)
    db.clock.tick()
    db.update_motion(DECOY[0], Point(0, 1))
    wide.refresh()
    db.clock.tick()
    read = narrow.shared_rows
    narrow.refresh()
    assert narrow.shared_rows - read == 1
    assert exact_rows(narrow.answer.relation) == spans((("c",), (5, 6)))
    assert round_table(db).token == epoch_token(FutureHistory(db))
    twin = closed_world((-5, 1), (1, 0))
    alone = ContinuousQuery(twin, narrow.query, horizon=6, method="naive")
    twin.clock.tick(2)
    assert answer_tuples(narrow) == answer_tuples(alone)


def test_a_clock_tick_between_two_refreshes_forces_a_miss():
    """The round's index views live one content token: the view the
    wide query built at tick 1 (partitioning the decoy's row) is not
    read a tick later, when the narrow query builds its own to
    partition ``c``'s row, while the decoy's verdict is read."""
    db = closed_world((-5, 1), (1, 0))
    wide, narrow = two_queries(db)
    db.clock.tick()
    db.update_motion(DECOY[0], Point(0, 1))
    wide.refresh()
    built = round_table(db).views
    assert built
    db.clock.tick()
    read = narrow.shared_rows
    narrow.refresh()
    views = round_table(db).views
    assert views is not built
    assert not {id(v) for v in views.values()} & {id(v) for v in built.values()}
    assert narrow.shared_rows - read == 1
    assert exact_rows(narrow.answer.relation) == spans((("c",), (5, 6)))


def test_piecewise_and_fallback_rows_are_never_served():
    """Inside ``P``'s box, so no partition decides them: the piecewise
    and the sinusoid car are solved by each query over its own window,
    and held in the store as rows it does not answer."""
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
    read = [wide.shared_rows, narrow.shared_rows]
    wide.refresh()
    narrow.refresh()
    (entry,) = round_table(db)._entries.values()
    assert entry[("p",)][2] is None and entry[("s",)][2] is None
    assert entry[("c",)][2] is not None
    # The wide query solved c's row again (a solve from tick 0 answers
    # only its own window), the index decided the decoy's, and it solved
    # p and s; the narrow query read the decoy's verdict and solved c's
    # row over its own window, and p and s.
    assert wide.shared_rows - read[0] == 0
    assert wide.kinetic_solves - solves[0] == 3
    assert narrow.shared_rows - read[1] == 1
    assert narrow.kinetic_solves - solves[1] == 3
    for cq, horizon in ((wide, 10), (narrow, 6)):
        twin = ContinuousQuery(db, cq.query, horizon=horizon - 1, method="naive")
        assert answer_tuples(cq) == answer_tuples(twin)


# ---------------------------------------------------------------------------
# The invalidation wall: rows outlive their tick and die with what they read
# ---------------------------------------------------------------------------

#: The wall's atoms: a region (``INSIDE`` and ``OUTSIDE`` share its
#: entry), a pair distance and a dynamic attribute.
WALL_TEXTS = (
    INSIDE_P,
    TEXTS[2],
    DIST_6,
    TEXTS[5],
)
#: ``(x, y, vx, vy)`` of the cars; ``z`` is far from everything.
WALL_CARS = {
    "a": (-5, 1, 1, 0),
    "b": (3, 3, 0, 0),
    "e": (12, 2, -1, 0),
    "z": (200, 200, 0, 0),
}


def wall_world():
    db = new_db()
    for oid, (x, y, vx, vy) in WALL_CARS.items():
        add_car(db, oid, (x, y), (vx, vy))
    db.add_moving_object("depots", "d", Point(0, 0), Point(0, 0))
    return db


def wall_queries(db, methods, options=None):
    """Every wall text once per ``(horizon, method)`` of ``methods``."""
    kwargs = {} if options is None else {"options": options}
    return [
        ContinuousQuery(db, parse_query(text), horizon=h, method=m, **kwargs)
        for text in WALL_TEXTS
        for h, m in methods
    ]


BOTH = ((10, "interval"), (6, "incremental"))


def displayed(cq):
    """The answer tuples as displayed at the current tick: a query the
    validity gate let skip a commit shows its last refresh's tuples,
    which hold from then on."""
    now = cq.db.clock.now
    return sorted(
        (t.values, max(t.begin, now), t.end)
        for t in cq.answer_tuples()
        if t.end >= now
    )


def run_wall(steps, methods=BOTH):
    """Run ``steps`` (each a function of the database) on three twin
    worlds — the store on, ``validity_horizons`` off, naive — and after
    each step refresh every query and hold the store's displayed answer
    tuples to the twin's and to naive's.  Returns the store's queries
    and their ``shared_rows`` read by each step."""
    from dataclasses import replace

    from repro.ftl.context import DEFAULT

    worlds = [wall_world() for _ in range(3)]
    shared = wall_queries(worlds[0], methods)
    twin = wall_queries(worlds[1], methods, replace(DEFAULT, validity_horizons=False))
    naive = wall_queries(worlds[2], [(h, "naive") for h, _m in methods])
    reads = []
    for step in steps:
        before = [cq.shared_rows for cq in shared]
        for db in worlds:
            step(db)
        for group in (shared, twin, naive):
            for cq in list(group):
                if not cq._cancelled:
                    cq.refresh()
        for one, other, slow in zip(shared, twin, naive):
            if one._cancelled:
                continue
            assert displayed(one) == displayed(other), one.query.where
            assert displayed(one) == displayed(slow), one.query.where
        reads.append([cq.shared_rows - b for cq, b in zip(shared, before)])
    return shared, reads


def row(db, oid, kind="region"):
    """The held row of ``oid`` in the entry of atom kind ``kind``, as the
    next round reads the store (the rows of pending commits dropped)."""
    UpdateRouter.of(db).round_atoms(FutureHistory(db), 0)
    for key, entry in round_table(db)._entries.items():
        if key[0] == kind:
            for inst, held in entry.items():
                if inst[0] == oid:
                    return held
    return None


def tick(db):
    db.clock.tick()


def turn_a(db):
    """A real turn of car ``a``: it dirties every query over positions."""
    db.update_motion("a", Point(1 + db.clock.now, 0))


def test_rows_are_kept_across_ticks_and_commits_to_other_objects():
    shared, reads = run_wall([tick, turn_a, tick, turn_a])
    db = shared[0].db
    # The index decided z's rows at registration (tick 0): they are read
    # at every later tick, across a's commits.
    assert row(db, "z")[:2] == (0, 10) and row(db, "z", "dist")[:2] == (0, 10)
    # a's rows were solved again after its last commit, at tick 2.
    assert row(db, "a")[:2] == (2, 10) and row(db, "a", "dist")[:2] == (2, 10)
    # A tick alone dirties no query.  A turn of a dirties every query
    # over positions, in refresh order: the interval INSIDE query reads
    # z's verdict and solves a, b and e again over the round window (a
    # kernel solve answers only its own window); the interval OUTSIDE
    # query, which shares that entry, reads all four; the DIST query
    # reads (z, d)'s verdict.  The incremental queries, whose window
    # ends earlier, solve a's rows over their own window, and the fuel
    # queries read no position.
    by_query = [1, 0, 4, 0, 1, 0, 0, 0]
    assert reads == [[0] * 8, by_query, [0] * 8, by_query]


def motion_writers():
    def motion(db):
        db.update_motion("a", Point(0, 1))

    def dynamic(db):
        db.update_dynamic(
            "a", "x_position", function=PiecewiseLinearFunction([(0, 1.0), (4, -1.0)])
        )

    def ingest(db):
        db.ingest_motion("a", 1, Point(2, 0), Point(-3, 1), db.clock.now)

    def beat(db):
        now = db.clock.now
        db.ingest_motion("a", 1, Point(1, 0), Point(-5 + now, 1), now)

    return {"update-motion": motion, "update-dynamic": dynamic, "ingest": ingest, "heartbeat": beat}


@pytest.mark.parametrize("writer", sorted(motion_writers()))
def test_a_commit_to_its_object_drops_a_row(writer):
    write = motion_writers()[writer]
    shared, reads = run_wall([tick, write])
    db = shared[0].db
    if writer == "heartbeat":
        # Every query skipped the heartbeat (the validity gate, or a
        # read-set without positions), so nobody solved a's rows again.
        assert row(db, "a") is None and row(db, "a", "dist") is None
    else:
        # a's position rows were solved again at tick 1.
        assert row(db, "a")[0] == 1 and row(db, "a", "dist")[0] == 1
    # z's verdicts are still tick 0's.
    assert row(db, "z")[0] == 0 and row(db, "z", "dist")[0] == 0
    # The commit dropped every row naming a, its fuel row too, and no
    # query reading fuel refreshed.
    assert row(db, "a", "attr") is None


def test_an_insert_into_a_read_class_solves_only_its_rows():
    def insert(db):
        add_car(db, "n", (2, 2), (1, 1))

    shared, reads = run_wall([tick, insert])
    db = shared[0].db
    assert row(db, "n")[0] == 1 and row(db, "z")[0] == 0
    assert sum(reads[1]) > 0  # z's verdicts, at least


def test_a_region_redefinition_misses():
    """No public path replaces a region (``define_region`` refuses a
    taken name), but the store keys a region by its geometry, not its
    name: a region swapped under its name starts an entry of its own."""

    def redefine(db):
        db._regions["P"] = Polygon.rectangle(-6, 0, 9, 9)
        db.update_motion("z", Point(0, 1))  # a commit, so every query refreshes

    shared, reads = run_wall([tick, redefine], methods=((10, "interval"),))
    db = shared[0].db
    regions = [key for key in round_table(db)._entries if key[0] == "region"]
    assert len(regions) == 2
    fresh = [
        entry
        for key, entry in round_table(db)._entries.items()
        if key[0] == "region" and entry[("a",)][0] == 1
    ]
    assert len(fresh) == 1 and fresh[0][("a",)][2] is not None


def test_a_registration_widening_the_end_misses():
    widened = []

    def register(db):
        widened.append(ContinuousQuery(db, parse_query(INSIDE_P), horizon=20))

    shared, reads = run_wall([tick, register])
    late = widened[0]
    assert late.shared_rows == 0  # every row ended at 10, before 21
    assert row(late.db, "a")[:2] == (1, 21)
    twin = wall_world()
    twin.clock.tick()
    alone = ContinuousQuery(twin, late.query, horizon=20, method="naive")
    assert answer_tuples(late) == answer_tuples(alone)


def test_a_clock_regression_misses():
    """A read starting before a row's window (a history anchored before
    the tick the row was solved at) re-solves, equal to an evaluation
    without the store and to naive."""
    from repro.ftl.context import EvalContext
    from repro.ftl.evaluator import IntervalEvaluator
    from repro.ftl.naive import NaiveEvaluator

    db = wall_world()
    wall_queries(db, BOTH)
    db.clock.tick(3)
    db.update_motion("z", Point(0, 1))
    for cq in UpdateRouter.of(db).queries:
        cq.refresh()
    assert row(db, "z")[0] == 3
    query = parse_query(INSIDE_P)
    history = FutureHistory(db, 1)
    ctx = EvalContext(history, 6, query.bindings)
    table = UpdateRouter.of(db).round_atoms(history, ctx.end)
    early = IntervalEvaluator(ctx, atoms=table)
    got = exact_rows(early.evaluate(query.where))
    assert row(db, "z")[0] == 1  # decided again from the earlier start
    assert early.shared_rows == 0  # a, b and e were solved over [3, 10]
    plain = IntervalEvaluator(EvalContext(history, 6, query.bindings))
    assert got == exact_rows(plain.evaluate(query.where))
    slow = NaiveEvaluator(EvalContext(history, 6, query.bindings))
    assert [
        (inst, [(iv.start, iv.end) for iv in iset])
        for inst, iset in exact_order(slow.evaluate(query.where))
    ] == [
        (inst, [(iv.start, iv.end) for iv in iset])
        for inst, iset in exact_order(plain.evaluate(query.where))
    ]


def exact_order(relation):
    return sorted(relation.rows(), key=lambda item: item[0])


def test_query_removal_bounds_the_store():
    """Over many epochs of commits the store holds at most one row per
    instantiation of each live atom, loses an atom's rows when its last
    reader goes and everything when no query is live."""
    import random

    rng = random.Random(5)
    cars = sorted(WALL_CARS)

    def churn(db):
        db.clock.tick()
        for oid in rng.sample(cars, 2):
            db.update_motion(oid, Point(rng.choice((-1, 0, 1)), rng.choice((-1, 1))))

    db = wall_world()
    queries = wall_queries(db, ((30, "interval"), (24, "incremental")))
    table = round_table(db)
    per_atom = {"region": 4, "dist": 4, "attr": 4}
    for _ in range(12):
        churn(db)
        for cq in queries:
            cq.refresh()
        assert len(table) == 3
        assert table.rows <= sum(per_atom.values())
    for cq in queries:
        if cq.query.where != parse_query(DIST_6).where:
            cq.cancel()
    assert {key[0] for key in table._entries} == {"dist"}
    assert table.rows <= per_atom["dist"]
    for cq in queries:
        cq.cancel()
    assert len(table) == 0 and table.rows == 0


# ---------------------------------------------------------------------------
# Speeds no binary fraction represents
# ---------------------------------------------------------------------------

#: Each car meets an atom's boundary exactly at an integer tick, at a
#: speed float64 does not represent: the kernels, which anchor a leg at
#: the window start, put that crossing within rounding of the tick on
#: either side of it depending on the window.
SLOW = (0.1, 0.3, 0.7, 1 / 3)


def slow_world():
    db = new_db()
    for v in SLOW:
        for k in range(1, 13):
            # Enters P across x = 0 at t = k; leaves DIST(c, d) <= 6 there.
            add_car(db, f"e{v}/{k}", (-v * k, 1), (v, 0))
            # Enters P across x = 9 at t = k.
            add_car(db, f"w{v}/{k}", (9 + v * k, 2), (-v, 0))
    add_car(db, DECOY[0], DECOY[1], (0, 0))
    db.add_moving_object("depots", "d", Point(-6, 1), Point(0, 0))
    return db


def test_slow_speeds_share_only_exact_rows():
    """INSIDE / OUTSIDE / DIST queries of different window ends and
    subscription ticks over cars crossing at every tick, refreshed at
    every tick: each query's displayed answer equals its
    ``validity_horizons``-off twin's (which solves every row over its
    own window) tuple for tuple before its last tick.  Naive is not a
    reference here: its per-tick sampling and a closed-form solve can
    disagree on a crossing within rounding of a tick.  The queries
    ending at the round's end read each other's rows."""
    from dataclasses import replace

    from repro.ftl.context import DEFAULT

    texts = (INSIDE_P, TEXTS[2], DIST_6)
    #: ``(horizon, subscription tick, method)``: the first two end at
    #: the round's end, 30, the others at ticks a car crosses at.
    plans = (
        (30, 0, "interval"),
        (29, 1, "interval"),
        (8, 0, "incremental"),
        (9, 1, "interval"),
    )
    off = replace(DEFAULT, validity_horizons=False)
    worlds = [slow_world(), slow_world()]
    groups: list[list[ContinuousQuery]] = [[], []]
    for step in range(14):
        for db, group, options in zip(worlds, groups, (DEFAULT, off)):
            if step:
                db.clock.tick()
                db.update_motion(DECOY[0], Point(0, step))
            for text in texts:
                for horizon, at, method in plans:
                    if at == step:
                        group.append(
                            ContinuousQuery(
                                db,
                                parse_query(text),
                                horizon=horizon,
                                method=method,
                                options=options,
                            )
                        )
            for cq in group:
                cq.refresh()
        for one, other in zip(*groups):
            # At a query's last tick every commit lies beyond its end, so
            # the validity gate skips the decoy's, and the display is the
            # previous tick's solve: not this wall's subject.
            if step < one.expires_at:
                assert displayed(one) == displayed(other), (step, one.query.where)
    wide = [cq for cq in groups[0] if cq.expires_at == 30]
    assert len(wide) == 6 and all(cq.shared_rows > 0 for cq in wide)
