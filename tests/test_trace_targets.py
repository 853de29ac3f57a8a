"""Guard: every callable the end-to-end benchmark traces still resolves.

``benchmarks/e2e/tracing.py`` gets its per-layer times by replacing the
callables named in its ``TARGETS`` table by attribute assignment, and
reads counters off the traced objects in its ``_AFTER`` hooks.  A rename
under ``src/`` breaks the benchmark's traced run — which only the
benchmark gate would notice.  This test reads the table (read-only) and
resolves every entry the way ``Tracer.install`` does, so the rename
fails in tier-1 instead.  The counter names ``benchmarks/e2e/sim.py``
reads off the server and its queries are checked the same way, parsed
without importing the module.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_TRACING = Path(__file__).parents[1] / "benchmarks" / "e2e" / "tracing.py"
_spec = importlib.util.spec_from_file_location("_e2e_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

#: The benchmark's own modules, importable only from its directory.
_BENCH_OWNERS = {"harness"}

ENTRIES = [
    (owner, attr)
    for owner, attr, _layer, _keep in tracing.TARGETS
    if owner not in _BENCH_OWNERS
]


def test_table_is_read():
    assert len(ENTRIES) >= 50
    assert len(ENTRIES) == len(set(ENTRIES)), "duplicate TARGETS entry"


@pytest.mark.parametrize("owner,attr", ENTRIES)
def test_target_resolves(owner, attr):
    resolved = tracing._resolve(owner)
    if inspect.isclass(resolved):
        # install() reads owner.__dict__[attr]: an inherited method
        # would be patched on the wrong class, so it does not count.
        assert attr in resolved.__dict__, f"{owner} does not define {attr}"
        raw = resolved.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            raw = raw.__func__
    else:
        assert hasattr(resolved, attr), f"{owner} has no {attr}"
        raw = getattr(resolved, attr)
    assert callable(raw), f"{owner}.{attr} is not callable"


def test_after_hooks_attach_to_traced_targets():
    assert set(tracing._AFTER) <= set(ENTRIES)


#: Counters the benchmark still names but the evaluators no longer
#: report: every reuse of a solve is a ``cache_hits`` since shifted and
#: exact reuse became one stamped rule, so the tracer's missing-counter
#: default of 0 is the true count.
RETIRED_COUNTERS = {"cache_shift_hits"}


def test_after_hooks_find_their_counters():
    """What the ``_after_*`` hooks read off the traced evaluators."""
    from repro.core import FutureHistory, MostDatabase, ObjectClass
    from repro.ftl import parse_query
    from repro.ftl.evaluator import IntervalEvaluator
    from repro.ftl.incremental import PartialIntervalEvaluator
    from repro.geometry import Point
    from repro.parallel.evaluator import ShardedIntervalEvaluator
    from repro.spatial import Polygon

    assert issubclass(PartialIntervalEvaluator, IntervalEvaluator)
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(0, 0, 5, 5))
    db.add_moving_object("cars", "c0", Point(1, 1), Point(1, 0))
    query = parse_query("RETRIEVE c FROM cars c WHERE INSIDE(c, P)")
    ev = ShardedIntervalEvaluator(query, FutureHistory(db), 5, 1)
    ev.evaluate()
    assert ev.sharded is False
    assert isinstance(ev.shard_times, list)
    assert RETIRED_COUNTERS <= set(tracing.EVAL_COUNTERS)
    live = set(tracing.EVAL_COUNTERS) - RETIRED_COUNTERS
    serial = IntervalEvaluator(ev.ctx).counters()
    assert live <= set(ev.counters) and live <= set(serial)
    assert not RETIRED_COUNTERS & (set(ev.counters) | set(serial))


def _sim_names(name):
    """A tuple of strings assigned at the top of ``benchmarks/e2e/sim.py``."""
    tree = ast.parse((_TRACING.parent / "sim.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"sim.py assigns no {name}")


def test_sim_counters_are_attributes():
    """``SERVER_COUNTERS`` are read off ``CQServer.metrics`` and
    ``QUERY_COUNTERS`` off every registered ``ContinuousQuery``."""
    from repro.core import ContinuousQuery, MostDatabase, ObjectClass
    from repro.distributed.network import FaultPlan, SimNetwork
    from repro.ftl import parse_query
    from repro.server import CQServer

    server_counters = _sim_names("SERVER_COUNTERS")
    query_counters = _sim_names("QUERY_COUNTERS")
    assert server_counters and query_counters
    db = MostDatabase()
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    server = CQServer(db, SimNetwork(db.clock, faults=FaultPlan(seed=0)))
    query = parse_query("RETRIEVE c FROM cars c WHERE c.x_position > 0")
    cq = ContinuousQuery(db, query, 5)
    for name in server_counters:
        assert isinstance(getattr(server.metrics, name, None), (int, float)), name
    for name in query_counters:
        assert isinstance(getattr(cq, name, None), (int, float)), name


#: Atom-layer callables the traced run must keep timing: the batch
#: solve, the pruner's probes, the scalar kinetic solvers as the
#: evaluator imports them, and the two evaluator roots.
ATOM_LAYER = [
    ("repro.ftl.atoms:KineticBatch", "solve"),
    ("repro.ftl.atoms:AtomIndexPruner", "region_candidates"),
    ("repro.ftl.atoms:AtomIndexPruner", "pair_candidates"),
    *(
        ("repro.ftl.evaluator", name)
        for name in (
            "when_dist_at_least",
            "when_dist_at_most",
            "when_inside_ball",
            "when_inside_polygon",
            "when_value_in_range",
            "when_within_sphere",
        )
    ),
    ("repro.ftl.evaluator:IntervalEvaluator", "evaluate"),
    ("repro.ftl.incremental:PartialIntervalEvaluator", "refresh"),
]


@pytest.mark.parametrize("owner,attr", ATOM_LAYER)
def test_atom_layer_is_traced(owner, attr):
    assert (owner, attr) in ENTRIES

