"""Differential wall for the vectorized batch kinetic backend (DESIGN.md §8).

The batch backend must be answer-invisible *and* counter-invisible: for
every seeded world, query and evaluation method, the default evaluation
(whose column path queues single-leg rows on the backend) must produce
the same relation — tuple for tuple, interval for interval — and the
same acceleration counters as the scalar reference, which runs every
row's scalar closure inline, while filling the stamped kinetic-solve
table with the exact same keys when the atoms are stamped.  The scalar
reference is no option: it is :func:`scalar_reference`, a test-local
patch of the column path's one hook (``IntervalEvaluator._column_rows``)
that takes no row.  The sweeps
reuse the random worlds and formula generator of ``test_differential``
plus the sparse worlds of ``test_atom_pruning``, and add worlds the
vectorized paths cannot take whole (nonlinear and piecewise movers,
k≠2 spheres, mixed dimensions, bounds naming a row variable, recorded
histories) so the inline scalar rows are exercised alongside the numpy
paths.
"""

import random
from contextlib import contextmanager, nullcontext

import pytest

from repro.core import MostDatabase, ObjectClass
from repro.core.dynamic import DynamicAttribute
from repro.core.history import FutureHistory, RecordedHistory
from repro.core.queries import ContinuousQuery, PersistentQuery
from repro.errors import QueryError, SchemaError
from repro.ftl import (
    AndF,
    Arith,
    Attr,
    Compare,
    Const,
    Dist,
    Eventually,
    FtlQuery,
    Inside,
    Outside,
    Var,
    WithinSphere,
)
from repro.ftl.context import EvalContext
from repro.ftl.evaluator import IntervalEvaluator
from repro.geometry import Point
from repro.motion import PiecewiseLinearFunction, SinusoidFunction
from repro.spatial import Ball
from repro.temporal import DISCRETE, IntervalSet

from tests.ftl.test_atom_pruning import (
    EXHAUSTIVE as UNPRUNED,
    build_sparse_world,
    held_store,
    read_through,
    rows_of,
)
from tests.ftl.test_differential import (
    HORIZON,
    STEPS,
    apply_random_updates,
    build_world,
    random_query,
)

#: Random queries trip the FTL lint rules (FTL302, FTL501, FTL602, ...)
#: by design: the warnings are expected here and errors elsewhere.
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.ftl.analysis.diagnostics.FtlLintWarning"
)


@contextmanager
def scalar_reference(db=None):
    """The scalar twin: while open, the column path takes no row, so
    every row runs its scalar closure inline and nothing is queued for
    the backend — for evaluations over ``db``, or over every database
    when none is named."""
    column_rows = IntervalEvaluator._column_rows

    def no_columns(self, f, free, todo):
        if db is None or getattr(self.ctx.history, "db", None) is db:
            return None
        return column_rows(self, f, free, todo)

    IntervalEvaluator._column_rows = no_columns
    try:
        yield
    finally:
        IntervalEvaluator._column_rows = column_rows


def both_solvers(query, db, horizon=HORIZON, **kwargs):
    """(scalar rows, batched rows) on snapshots of one db.  Neither run
    is stamped, so the batched one really solves instead of replaying
    the scalar run's answers."""
    with scalar_reference():
        scalar = query.evaluate_full(FutureHistory(db), horizon, **kwargs)
    batched = query.evaluate_full(
        FutureHistory(db), horizon, **kwargs
    )
    return rows_of(scalar), rows_of(batched)


def run_with_counters(db, bindings, where, batch, horizon=HORIZON):
    """(rows, counters) of one interval evaluation."""
    ctx = EvalContext(FutureHistory(db), horizon, bindings)
    ev = IntervalEvaluator(ctx)
    with nullcontext() if batch else scalar_reference():
        rel = ev.evaluate(where)
    return rows_of(rel), ev.counters()


# ---------------------------------------------------------------------------
# The main differential sweep: 300+ seeded scenarios
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(150))
def test_batch_equals_scalar_random_worlds(seed):
    """Random dense-ish worlds and random formulas (all atom kinds, all
    temporal operators): identical relations with the batch backend on
    and off."""
    rng = random.Random(seed)
    db = build_world(rng)
    query = random_query(rng)
    scalar, batched = both_solvers(query, db)
    assert scalar == batched, f"seed {seed}: {query.where}"


@pytest.mark.parametrize("seed", range(150, 260))
def test_batch_equals_scalar_sparse_worlds(seed):
    """Sparse worlds where the index gate prunes most instantiations, so
    the batch sees small, ragged surviving sets."""
    rng = random.Random(seed)
    db = build_sparse_world(rng)
    query = random_query(rng)
    scalar, batched = both_solvers(query, db)
    assert scalar == batched, f"seed {seed}: {query.where}"


@pytest.mark.parametrize("seed", range(260, 300))
def test_batch_counters_equal_scalar_counters(seed):
    """Beyond equal answers, the batch path must report the exact same
    kinetic_solves / pruned / cache hit+miss accounting as scalar."""
    rng = random.Random(seed)
    db = build_world(rng)
    query = random_query(rng)
    free = sorted(query.where.free_vars())
    bindings = {v: query.bindings[v] for v in free}
    rows_s, counters_s = run_with_counters(
        db, bindings, query.where, batch=False
    )
    rows_b, counters_b = run_with_counters(
        db, bindings, query.where, batch=True
    )
    assert rows_s == rows_b, f"seed {seed}: {query.where}"
    assert counters_s == counters_b, f"seed {seed}: {query.where}"


# ---------------------------------------------------------------------------
# Every atom kind, including the shapes that must chunk through the
# scalar fallback
# ---------------------------------------------------------------------------


def build_atom_world(rng: random.Random) -> MostDatabase:
    """A sparse world with a ball region and a third bound class, so the
    atom sweep covers polygon + ball regions and k∈{1,2,3} spheres."""
    db = build_sparse_world(rng)
    db.define_region("B", Ball(Point(5, -5), 9))
    db.create_class(ObjectClass("trucks", spatial_dimensions=2))
    for i in range(2):
        db.add_moving_object(
            "trucks",
            f"t{i}",
            Point(rng.randint(-40, 40), rng.randint(-40, 40)),
            Point(rng.randint(-2, 2), rng.randint(-2, 2)),
        )
    return db


ATOMS = [
    Inside(Var("c"), "P"),
    Outside(Var("c"), "Q"),
    Inside(Var("c"), "B"),
    Outside(Var("v"), "B"),
    WithinSphere(3, (Var("c"),)),
    WithinSphere(3, (Var("c"), Var("v"))),
    WithinSphere(6, (Var("c"), Var("v"), Var("t"))),
    Compare("<=", Dist(Var("c"), Var("v")), Const(5)),
    Compare(">=", Dist(Var("c"), Var("v")), Const(5)),
    Compare("<", Dist(Var("c"), Var("v")), Const(5)),
    Compare(">", Const(5), Dist(Var("c"), Var("v"))),
    Compare("<=", Attr(Var("c"), "x_position"), Const(3)),
    Compare(">=", Attr(Var("c"), "price"), Const(75)),
]

_CLASS_OF = {"c": "cars", "v": "vans", "t": "trucks"}


@pytest.mark.parametrize("atom", ATOMS, ids=lambda a: str(a))
def test_every_atom_kind(atom):
    """Each atom kind, alone and under a temporal operator: equal rows
    and equal counters, batch on and off."""
    for seed in range(6):
        rng = random.Random(2000 + seed)
        db = build_atom_world(rng)
        free = sorted(atom.free_vars())
        bindings = {v: _CLASS_OF[v] for v in free}
        for where in (atom, Eventually(atom)):
            rows_s, counters_s = run_with_counters(
                db, bindings, where, batch=False
            )
            rows_b, counters_b = run_with_counters(
                db, bindings, where, batch=True
            )
            assert rows_s == rows_b, f"seed {seed}: {where}"
            assert counters_s == counters_b, f"seed {seed}: {where}"


def test_nonlinear_movers_chunk_through_the_scalar_fallback():
    """Sinusoid movers have no linear breakpoints, so the batch rejects
    their rows and solves them scalar mid-batch — answers and counters
    must still match the all-scalar run exactly."""
    for seed in range(10):
        rng = random.Random(3000 + seed)
        db = build_world(rng)
        db.add_object(
            "cars",
            "osc",
            static={"price": 10.0},
            dynamic={
                "x_position": DynamicAttribute(
                    2.0, function=SinusoidFunction(8, 0.7)
                ),
                "y_position": DynamicAttribute.static(3.0),
            },
        )
        bindings = {"c": "cars", "v": "vans"}
        for where in (
            Inside(Var("c"), "P"),
            Compare("<=", Dist(Var("c"), Var("v")), Const(6)),
            WithinSphere(4, (Var("c"), Var("v"))),
        ):
            rows_s, counters_s = run_with_counters(
                db, bindings, where, batch=False
            )
            rows_b, counters_b = run_with_counters(
                db, bindings, where, batch=True
            )
            assert rows_s == rows_b, f"seed {seed}: {where}"
            assert counters_s == counters_b, f"seed {seed}: {where}"


# ---------------------------------------------------------------------------
# The rows the column path never takes
# ---------------------------------------------------------------------------


def add_routes(rng: random.Random, db: MostDatabase, n: int = 3) -> None:
    """Cars on piecewise routes: each axis turns once mid-window, so the
    mover has several legs and its rows run their scalar closure."""
    now = db.clock.now
    for i in range(n):
        db.add_object(
            "cars",
            f"route{i}",
            static={"price": rng.randint(0, 150)},
            dynamic={
                axis: DynamicAttribute(
                    rng.randint(-8, 12),
                    now,
                    PiecewiseLinearFunction(
                        [
                            (0, rng.randint(-2, 2)),
                            (rng.randint(1, 6), rng.choice((-1.5, 1, 2))),
                        ]
                    ),
                )
                for axis in ("x_position", "y_position")
            },
        )


#: Atoms whose rows the column path leaves to the scalar closures: the
#: piecewise routes under every kinetic kind, and bounds that name a row
#: variable (the atom's constants do not resolve, whatever the motion).
ROUTE_ATOMS = [
    Inside(Var("c"), "P"),
    Outside(Var("c"), "B"),
    Inside(Var("c"), "B"),
    Compare("<=", Dist(Var("c"), Var("v")), Const(6)),
    Compare(">=", Dist(Var("c"), Var("v")), Const(4)),
    WithinSphere(3, (Var("c"), Var("v"))),
    Compare(
        "<=",
        Dist(Var("c"), Var("v")),
        Arith("/", Attr(Var("c"), "price"), Const(10)),
    ),
    Compare(
        ">=",
        Attr(Var("c"), "x_position"),
        Arith("/", Attr(Var("c"), "price"), Const(20)),
    ),
]


def record(db, history, where, horizon=HORIZON):
    """One interval evaluation: rows and counters."""
    bindings = {v: _CLASS_OF[v] for v in where.free_vars()}
    ev = IntervalEvaluator(EvalContext(history, horizon, bindings))
    return rows_of(ev.evaluate(where)), ev.counters()


def test_rows_the_column_path_never_takes(monkeypatch):
    """Piecewise routes under ``INSIDE`` of a polygon and a ball,
    ``DIST`` and two-object ``WITHIN_SPHERE``, bounds that name a row
    variable, and a persistent query over the recorded history: the
    default evaluation runs their scalar closures inline, row for row
    as the scalar reference does — equal tuples and counters."""
    requested = []
    atom_request = IntervalEvaluator._atom_request

    def recording(self, f, env):
        requested.append(env["c"])
        return atom_request(self, f, env)

    monkeypatch.setattr(IntervalEvaluator, "_atom_request", recording)
    reached = set()
    for seed in range(8):
        rng = random.Random(4000 + seed)
        db = build_world(rng)
        db.define_region("B", Ball(Point(4, 4), 5))
        add_routes(rng, db)
        for atom in ROUTE_ATOMS:
            for where in (atom, Eventually(atom)):
                with scalar_reference():
                    want = record(db, FutureHistory(db), where)
                requested.clear()
                got = record(db, FutureHistory(db), where)
                assert got == want, f"seed {seed}: {where}"
                if any(c.startswith("route") for c in requested):
                    reached.add(str(atom))
    assert reached == {str(atom) for atom in ROUTE_ATOMS}

    # A persistent query: the update log turns each recorded trajectory
    # into a piecewise linear mover, which the column path never reads.
    rng = random.Random(4100)
    state = rng.getstate()
    twins = []
    for _ in range(2):
        rng.setstate(state)
        db = build_world(rng)
        db.define_region("B", Ball(Point(4, 4), 5))
        twins.append(db)
    query = FtlQuery(
        targets=("c",),
        bindings={"c": "cars", "v": "vans"},
        where=AndF(
            Eventually(Inside(Var("c"), "P")),
            Compare("<=", Dist(Var("c"), Var("v")), Const(8)),
        ),
    )
    anchor = twins[0].clock.now
    with scalar_reference(twins[0]):
        persistent = [
            PersistentQuery(db, query, HORIZON, method="interval")
            for db in twins
        ]
        movers = [o.object_id for o in twins[0].objects_of("cars")]
        movers += [o.object_id for o in twins[0].objects_of("vans")]
        for step in range(STEPS):
            oid = rng.choice(movers)
            velocity = Point(rng.randint(-2, 2), rng.randint(-2, 2))
            for db in twins:  # turns only: a recorded trajectory is continuous
                db.clock.tick()
                db.update_motion(oid, velocity)
            scalar, default = (pq.current() for pq in persistent)
            assert scalar == default, f"step {step}"
            assert persistent[0].evaluations == persistent[1].evaluations
        assert [pq.last_method for pq in persistent] == ["interval"] * 2
        solves = 0
        for atom in ROUTE_ATOMS:
            want, got = (
                record(db, RecordedHistory(db, anchor), atom) for db in twins
            )
            assert got == want, atom
            solves += got[1]["kinetic_solves"]
        assert solves


# ---------------------------------------------------------------------------
# All three evaluators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_naive_oracle_agrees_with_batched_interval(seed):
    """The per-state oracle (which has no kinetic solves to batch) vs
    the batched interval evaluator on one world."""
    rng = random.Random(seed)
    db = build_world(rng)
    query = random_query(rng)
    oracle = rows_of(
        query.evaluate_full(FutureHistory(db), HORIZON, method="naive")
    )
    batched = rows_of(query.evaluate_full(FutureHistory(db), HORIZON))
    assert oracle == batched, f"seed {seed}: {query.where}"


@pytest.mark.parametrize("seed", range(40))
def test_incremental_continuous_queries_under_updates(seed):
    """Scalar vs batched incremental continuous queries over identical
    update streams: every display and the final Answer(CQ) must agree.
    This drives the batch path through PartialIntervalEvaluator's dirty
    frontiers, where the surviving row sets shift every step."""
    rng = random.Random(seed)
    world_bits = rng.getstate()
    dbs = []
    for _ in range(2):
        rng.setstate(world_bits)
        dbs.append(build_world(rng))
    query = random_query(rng)
    with scalar_reference(dbs[0]):
        scalar = ContinuousQuery(
            dbs[0], query, horizon=HORIZON, method="incremental"
        )
        batched = ContinuousQuery(
            dbs[1], query, horizon=HORIZON, method="incremental"
        )
        for step in range(STEPS):
            for db in dbs:
                db.clock.tick()
            apply_random_updates(rng, dbs)
            a, b = scalar.current(), batched.current()
            assert a == b, (
                f"seed {seed} step {step}: displays diverge for {query.where}\n"
                f"scalar:  {sorted(a, key=str)}\n"
                f"batched: {sorted(b, key=str)}"
            )
    tuples = [
        sorted((t.values, t.begin, t.end) for t in cq.answer_tuples())
        for cq in (scalar, batched)
    ]
    assert tuples[0] == tuples[1], f"seed {seed}: {query.where}"


# ---------------------------------------------------------------------------
# The batch path really runs (keeping the suite honest)
# ---------------------------------------------------------------------------


def test_batch_path_actually_used(monkeypatch):
    """Guard: the default-on batch path routes atom evaluation through
    KineticBatch.solve — not a silent fallback to the scalar loop."""
    import repro.ftl.evaluator as evaluator_mod

    solves = []
    orig = evaluator_mod.KineticBatch

    class Counting(orig):
        def solve(self):
            solves.append(1)
            return super().solve()

    monkeypatch.setattr(evaluator_mod, "KineticBatch", Counting)
    rng = random.Random(4)
    db = build_world(rng)
    bindings = {"c": "cars", "v": "vans"}
    where = AndF(
        Inside(Var("c"), "P"),
        Compare("<=", Dist(Var("c"), Var("v")), Const(6)),
    )
    ctx = EvalContext(FutureHistory(db), HORIZON, bindings)
    IntervalEvaluator(ctx).evaluate(where)
    assert solves, "the column path never reached KineticBatch.solve"


def test_zero_length_window_stays_scalar():
    """A horizon-0 window has no kinetics to batch; the column path must
    stay shut there (the scalar pairing synthesizes a zero-velocity leg
    the coefficient extraction deliberately does not reproduce)."""
    rng = random.Random(9)
    db = build_world(rng)
    bindings = {"c": "cars", "v": "vans"}
    ctx = EvalContext(FutureHistory(db), 0, bindings)
    assert not IntervalEvaluator(ctx)._use_batch()
    query = random_query(rng)
    scalar, batched = both_solvers(query, db, horizon=0)
    assert scalar == batched


# ---------------------------------------------------------------------------
# Cache-key compatibility and the configurable bound
# ---------------------------------------------------------------------------


def test_batch_and_scalar_fill_the_same_cache_keys():
    """A store warmed by a batched run serves a scalar rerun every row,
    with zero fresh solves and the same relation; a store warmed by the
    scalar reference holds the rows it solved as ``None`` (the column
    path took none), so a batched rerun reads only the rows the index
    decided and solves every other row itself — the store never serves
    an answer the column path did not produce."""
    rng = random.Random(5)
    db = build_world(rng)
    bindings = {"c": "cars", "v": "vans"}
    where = AndF(
        Inside(Var("c"), "P"),
        Compare("<=", Dist(Var("c"), Var("v")), Const(6)),
    )

    def run(batch, table):
        ctx = EvalContext(FutureHistory(db), HORIZON, bindings)
        ev = IntervalEvaluator(ctx, atoms=read_through(table, ctx))
        with nullcontext() if batch else scalar_reference():
            rel = ev.evaluate(where)
        return ev, rows_of(rel)

    ctx = EvalContext(FutureHistory(db), HORIZON, bindings)
    plain = rows_of(IntervalEvaluator(ctx).evaluate(where))
    table = held_store(db)
    warm, rows = run(True, table)
    assert warm.kinetic_solves > 0 and rows == plain
    reread, rows = run(False, table)
    assert reread.kinetic_solves == 0 and rows == plain
    assert reread.shared_rows > 0

    table = held_store(db)
    warm, rows = run(False, table)
    assert warm.kinetic_solves > 0 and rows == plain
    reread, rows = run(True, table)
    assert rows == plain
    assert reread.shared_rows == warm.pruned_instantiations
    assert reread.kinetic_solves == warm.kinetic_solves


def test_database_cache_bound_is_configurable():
    """The store has no size knob: ``MostDatabase`` takes no bound, and
    what a continuous query's store holds is its live atoms' rows —
    after any number of rounds of commits at most one row per
    instantiation of each atom."""
    with pytest.raises(TypeError):
        MostDatabase(kinetic_cache_size=4)
    rng = random.Random(9)
    db = build_world(rng)
    query = FtlQuery(
        targets=("c",),
        bindings={"c": "cars", "v": "vans"},
        where=AndF(
            Inside(Var("c"), "P"),
            Compare("<=", Dist(Var("c"), Var("v")), Const(6)),
        ),
    )
    from repro.core.queries import ContinuousQuery, UpdateRouter

    cqs = [ContinuousQuery(db, query, horizon=h) for h in (HORIZON, HORIZON - 2)]
    cars = [o.object_id for o in db.objects_of("cars")]
    vans = [o.object_id for o in db.objects_of("vans")]
    bound = len(cars) + len(cars) * len(vans)
    table = UpdateRouter.of(db).atoms
    for step in range(6):
        db.clock.tick()
        db.update_motion(rng.choice(cars), Point(rng.randint(-2, 2), 1))
        for cq in cqs:
            cq.refresh()
        assert len(table) == 2 and table.rows <= bound


def test_bounded_cache_serves_the_batch_path():
    """A store holding rows solved over a window serves the batch path
    those rows when the window is read again — batch and scalar still
    agree tuple for tuple with each other and with an evaluation
    without a store.  The rows solved at the tick before answer no
    later window: a kernel solve is read only over its own window."""
    query = FtlQuery(
        targets=("c", "v"),
        bindings={"c": "cars", "v": "vans"},
        where=AndF(
            Inside(Var("c"), "P"),
            Compare("<=", Dist(Var("c"), Var("v")), Const(6)),
        ),
    )
    rows = []
    for batch in (False, True):
        rng = random.Random(21)
        db = build_world(rng)
        table = held_store(db)
        with nullcontext() if batch else scalar_reference():
            reads = []
            for horizon in (HORIZON, HORIZON - 1, HORIZON - 1):
                ctx = EvalContext(FutureHistory(db), horizon, query.bindings)
                ev = IntervalEvaluator(
                    ctx, options=UNPRUNED, atoms=read_through(table, ctx)
                )
                rel = ev.evaluate(query.where)
                reads.append(ev.shared_rows)
                if horizon == HORIZON:
                    db.clock.tick()
        assert reads[:2] == [0, 0]
        assert reads[2] > 0 if batch else reads[2] == 0
        rows.append(rows_of(rel))
    assert rows[0] == rows[1]
    db = build_world(random.Random(21))
    db.clock.tick()
    assert rows[1] == rows_of(query.evaluate_full(FutureHistory(db), HORIZON - 1))


# ---------------------------------------------------------------------------
# Error parity
# ---------------------------------------------------------------------------


def test_batch_preserves_errors_on_nonspatial_objects():
    """An atom over a class without spatial attributes raises the same
    error with the batch backend on and off — batching must never
    reorder or swallow the scalar path's failures."""
    from repro.spatial import Polygon

    db = MostDatabase()
    db.create_class(ObjectClass("tags", dynamic_attributes=("level",)))
    db.define_region("P", Polygon.rectangle(0, 0, 5, 5))
    db.add_object(
        "tags",
        "t0",
        dynamic={"level": DynamicAttribute.linear(1.0, 0.5)},
    )
    query = FtlQuery(
        targets=("t",), bindings={"t": "tags"}, where=Inside(Var("t"), "P")
    )
    with pytest.raises((QueryError, SchemaError)) as scalar_err:
        with scalar_reference():
            query.evaluate_full(FutureHistory(db), 5)
    with pytest.raises((QueryError, SchemaError)) as batch_err:
        query.evaluate_full(FutureHistory(db), 5)
    assert type(scalar_err.value) is type(batch_err.value)
    assert str(scalar_err.value) == str(batch_err.value)
