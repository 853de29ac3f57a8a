"""Process isolation: workers never trust the parent's memoized state.

Under the ``fork`` start method a worker inherits the parent's module
globals — including the region solve-token memo in ``repro.ftl.atoms``
— and any :class:`EvalContext` it is handed carries mover/pruner memos
built against the parent's object graph.  Serving either from a worker
would mean answering queries about one database from another's cached
motion state.  ``reset_worker_caches`` and ``EvalContext.reset_memos``
exist to sever both links; these tests pin their behaviour down and
prove the end-to-end property on a real forked pool.
"""

import multiprocessing

import pytest

from repro.core import MostDatabase, ObjectClass
from repro.core.history import FutureHistory
from repro.ftl import FtlQuery, Inside, Var
from repro.ftl import atoms as atoms_module
from repro.ftl.atoms import clear_region_tokens
from repro.ftl.context import EvalContext
from repro.geometry import Point
from repro.parallel.worker import reset_worker_caches
from repro.spatial import Polygon

HORIZON = 10


def build_db(vx=1):
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(0, 0, 9, 9))
    db.add_moving_object("cars", "c0", Point(1, 1), Point(vx, 0))
    db.add_moving_object("cars", "c1", Point(20, 20), Point(0, 0))
    return db


def query():
    return FtlQuery(
        targets=("c",), bindings={"c": "cars"}, where=Inside(Var("c"), "P")
    )


def test_clear_region_tokens_empties_the_memo():
    db = build_db()
    query().evaluate(FutureHistory(db), HORIZON)
    assert atoms_module._REGION_TOKENS, "evaluation should prime the memo"
    clear_region_tokens()
    assert not atoms_module._REGION_TOKENS


def test_reset_worker_caches_clears_region_tokens():
    db = build_db()
    query().evaluate(FutureHistory(db), HORIZON)
    assert atoms_module._REGION_TOKENS
    reset_worker_caches()
    assert not atoms_module._REGION_TOKENS


def test_reset_memos_clears_context_state():
    db = build_db()
    ctx = EvalContext(FutureHistory(db), HORIZON, {"c": "cars"})
    ctx.moving_point("c0")
    ctx.atom_pruner()
    assert ctx._movers and ctx._pruner is not None
    ctx.reset_memos()
    assert not ctx._movers
    assert ctx._pruner is None


def _forked_probe(result_queue):
    """Runs in the forked child: after the worker-style cache reset, the
    inherited parent memo must be empty."""
    inherited = len(atoms_module._REGION_TOKENS)
    reset_worker_caches()
    result_queue.put((inherited, len(atoms_module._REGION_TOKENS)))


def test_forked_worker_starts_with_empty_memo():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    db = build_db()
    query().evaluate(FutureHistory(db), HORIZON)
    assert atoms_module._REGION_TOKENS, "parent memo must be primed"
    ctx = multiprocessing.get_context("fork")
    result_queue = ctx.Queue()
    proc = ctx.Process(target=_forked_probe, args=(result_queue,))
    proc.start()
    inherited, after_reset = result_queue.get(timeout=30)
    proc.join(timeout=30)
    assert inherited > 0, "fork must actually inherit the parent memo"
    assert after_reset == 0, "reset_worker_caches must clear it"
    # The parent's own memo is untouched by the child's reset.
    assert atoms_module._REGION_TOKENS


def test_sharded_answers_survive_parent_memo_poisoning():
    """End to end: evaluate serially (priming parent memos), mutate the
    world, then evaluate sharded — the workers must answer from the
    *current* database state, not any forked-over memo."""
    db = build_db(vx=1)
    q = query()
    before = q.evaluate(FutureHistory(db), HORIZON).answer_tuples()
    assert before, "c0 starts inside P"
    # Reverse c0 away from the region: the correct answer changes.
    db.clock.tick()
    db.update_motion("c0", Point(-5, -5), position=Point(-20, -20))
    serial = q.evaluate(FutureHistory(db), HORIZON).answer_tuples()
    parallel = q.evaluate(FutureHistory(db), HORIZON, parallel=2).answer_tuples()
    assert parallel == serial
    assert parallel != before
