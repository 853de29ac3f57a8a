"""``EvalOptions``: the one object that selects acceleration layers.

Three things are pinned here: the value semantics the object needs to be
shared across refreshes and shipped to shard workers; the all-layers-off
wall ``DEFAULT ≡ ORACLE ≡ naive`` (every other differential wall turns
off one or two layers — none turns them all off together); and that the
per-layer keywords the object replaced are really gone, not aliased.
"""

import dataclasses
import pickle
import random

import pytest

from repro.core.history import FutureHistory
from repro.core.queries import ContinuousQuery
from repro.ftl import AndF, Compare, Const, Dist, EvalOptions, Inside, Var
from repro.ftl.context import DEFAULT, ORACLE, EvalContext
from repro.ftl.evaluator import IntervalEvaluator
from repro.parallel.evaluator import ShardedIntervalEvaluator

from tests.ftl.test_atom_pruning import rows_of
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

FIELDS = (
    "ordered",
    "index_pruning",
    "validity_horizons",
    "analytic_atoms",
)


# ---------------------------------------------------------------------------
# Value semantics
# ---------------------------------------------------------------------------


def test_presets():
    assert tuple(f.name for f in dataclasses.fields(EvalOptions)) == FIELDS
    assert all(getattr(DEFAULT, name) for name in FIELDS)
    assert ORACLE.analytic_atoms
    assert not any(getattr(ORACLE, name) for name in FIELDS[:-1])


def test_frozen_hashable_picklable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT.index_pruning = False
    unpruned = dataclasses.replace(DEFAULT, index_pruning=False)
    assert unpruned != DEFAULT and DEFAULT.index_pruning
    assert len({DEFAULT, EvalOptions(), ORACLE, unpruned}) == 3
    for options in (DEFAULT, ORACLE, unpruned):
        clone = pickle.loads(pickle.dumps(options))
        assert clone == options and hash(clone) == hash(options)


def test_unknown_fields_rejected():
    with pytest.raises(TypeError):
        EvalOptions(halo=False)
    with pytest.raises(TypeError, match="solve_cache"):
        EvalOptions(solve_cache=False)  # reuse follows validity stamps
    with pytest.raises(TypeError):
        dataclasses.replace(DEFAULT, parallel=2)


# ---------------------------------------------------------------------------
# DEFAULT ≡ ORACLE ≡ naive
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(60))
def test_default_oracle_and_naive_agree(seed):
    """One-shot evaluation with every layer on, every layer off, and the
    per-state semantics: identical rows."""
    rng = random.Random(seed)
    db = build_world(rng)
    query = random_query(rng)
    fast = rows_of(query.evaluate_full(FutureHistory(db), HORIZON))
    plain = rows_of(
        query.evaluate_full(FutureHistory(db), HORIZON, options=ORACLE)
    )
    naive = rows_of(
        query.evaluate_full(FutureHistory(db), HORIZON, method="naive")
    )
    assert fast == plain == naive, f"seed {seed}: {query.where}"


def test_oracle_runs_no_acceleration_layer():
    """Not just the same answers: with ORACLE no gate prunes and no
    row is read from a store.  The batch backend is no layer — ORACLE's
    single-leg rows take it as every evaluation's do."""
    db = build_world(random.Random(4))
    where = AndF(
        Inside(Var("c"), "P"),
        Compare("<=", Dist(Var("c"), Var("v")), Const(6)),
    )
    ctx = EvalContext(FutureHistory(db), HORIZON, {"c": "cars", "v": "vans"})
    ev = IntervalEvaluator(ctx, options=ORACLE)
    ev.evaluate(where)
    assert ev._use_batch()
    counters = ev.counters()
    assert counters["kinetic_solves"] > 0
    for name in ("pruned_instantiations", "sampled_atom_evals"):
        assert counters[name] == 0, name
    assert ev.shared_rows == 0


@pytest.mark.parametrize("seed", range(40))
def test_sampled_atoms_match_analytic_atoms(seed):
    """``analytic_atoms`` off (every spatial atom sampled per tick — the
    one layer ORACLE keeps on) leaves the rows unchanged; until now only
    bench_ablation_kinetic.py compared the two."""
    rng = random.Random(seed)
    db = build_world(rng)
    query = random_query(rng)
    analytic = query.evaluate_full(FutureHistory(db), HORIZON)
    sampled = query.evaluate_full(
        FutureHistory(db),
        HORIZON,
        options=dataclasses.replace(DEFAULT, analytic_atoms=False),
    )
    assert rows_of(analytic) == rows_of(sampled), f"seed {seed}: {query.where}"


def test_sampled_atoms_really_sample():
    db = build_world(random.Random(4))
    where = Inside(Var("c"), "P")
    ctx = EvalContext(FutureHistory(db), HORIZON, {"c": "cars"})
    ev = IntervalEvaluator(
        ctx, options=dataclasses.replace(DEFAULT, analytic_atoms=False)
    )
    ev.evaluate(where)
    cars = len(ctx.domain("c"))
    assert ev.sampled_atom_evals == cars * (HORIZON + 1)
    assert ev.kinetic_solves == ev.pruned_instantiations == 0


@pytest.mark.parametrize("seed", range(20))
def test_oracle_continuous_queries_track_default(seed):
    """Incremental continuous queries under DEFAULT and ORACLE over one
    update stream: every display and the final Answer(CQ) agree (the
    ``validity_horizons`` and ``ordered`` fields only act here)."""
    rng = random.Random(seed)
    world_bits = rng.getstate()
    dbs = []
    for _ in range(2):
        rng.setstate(world_bits)
        dbs.append(build_world(rng))
    query = random_query(rng)
    fast = ContinuousQuery(dbs[0], query, horizon=HORIZON, method="incremental")
    plain = ContinuousQuery(
        dbs[1], query, horizon=HORIZON, method="incremental", options=ORACLE
    )
    assert plain.options is ORACLE
    assert plain.plan is None and plain._validity is None
    for step in range(STEPS):
        for db in dbs:
            db.clock.tick()
        apply_random_updates(rng, dbs)
        assert fast.current() == plain.current(), f"seed {seed} step {step}"
    assert plain.horizon_skipped == 0
    assert sorted(
        (t.values, t.begin, t.end) for t in fast.answer_tuples()
    ) == sorted((t.values, t.begin, t.end) for t in plain.answer_tuples())


# ---------------------------------------------------------------------------
# Replace, not alias: the per-layer keywords are gone
# ---------------------------------------------------------------------------

REMOVED = (
    "batch_solver",
    "index_pruning",
    "solve_cache",
    "ordered",
    "validity_horizons",
    "halo",
)


@pytest.mark.parametrize("keyword", REMOVED)
def test_removed_keywords_raise(keyword):
    rng = random.Random(0)
    db = build_world(rng)
    query = random_query(rng)
    history = FutureHistory(db)
    with pytest.raises(TypeError, match=keyword):
        query.evaluate(history, HORIZON, **{keyword: False})
    with pytest.raises(TypeError, match=keyword):
        query.evaluate_full(history, HORIZON, **{keyword: False})
    with pytest.raises(TypeError, match=keyword):
        ContinuousQuery(db, query, horizon=HORIZON, **{keyword: False})
    with pytest.raises(TypeError, match=keyword):
        ShardedIntervalEvaluator(query, history, HORIZON, 2, **{keyword: False})
    with pytest.raises(TypeError, match=keyword):
        IntervalEvaluator(
            EvalContext(history, HORIZON, query.bindings), **{keyword: False}
        )
