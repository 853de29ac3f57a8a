"""A shard worker is the serial evaluator on a chunk of the domain.

No worker-side evaluator subclass, no halo, no spatial partitioner: the
removed names are gone (not aliased), the worker body builds
``repro.ftl.evaluator.IntervalEvaluator``, and the partitioner cannot
reach a history because its module imports nothing that has one.
"""

import ast
import importlib
import inspect
import random

import pytest

from repro.core.history import FutureHistory
from repro.ftl import evaluator as serial_module
from repro.ftl.context import DEFAULT
from repro.parallel import partition, worker

from tests.ftl.test_differential import HORIZON, build_world, random_query
from tests.parallel.test_sharded_differential import rows_of


@pytest.mark.parametrize(
    "module,name",
    [
        ("repro.parallel.evaluator", "ShardedWorkerEvaluator"),
        ("repro.parallel.partition", "halo_members"),
        ("repro.parallel", "halo_members"),
    ],
)
def test_removed_names_are_import_errors(module, name):
    namespace = {}
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", namespace)
    assert name not in importlib.import_module(module).__all__


def test_worker_evaluates_with_the_plain_interval_evaluator(monkeypatch):
    built = []

    class Recording(serial_module.IntervalEvaluator):
        def __init__(self, ctx, **kwargs):
            built.append(ctx)
            super().__init__(ctx, **kwargs)

    assert worker.IntervalEvaluator is serial_module.IntervalEvaluator
    monkeypatch.setattr(worker, "IntervalEvaluator", Recording)
    rng = random.Random(4)
    db = build_world(rng)
    query = random_query(rng)
    history = FutureHistory(db)
    split_var = sorted(query.bindings)[0]
    domain = history.object_ids(query.bindings[split_var])
    spec = {
        "query": query,
        "horizon": HORIZON,
        "split_var": split_var,
        "shard_ids": domain[:1],
        "model": None,
        "order": True,
        "options": DEFAULT,
    }
    payload = worker._evaluate({"history": history}, spec)
    (ctx,) = built
    assert ctx.domain(split_var) == domain[:1]
    assert "halo_prunes" not in payload
    assert "trace" not in payload
    serial = query.evaluate_full(history, HORIZON)
    idx = serial.variables.index(split_var)
    variables, rows = payload["relation"]
    assert variables == serial.variables
    assert sorted((inst, iset.intervals) for inst, iset in rows.items()) == [
        row for row in rows_of(serial) if row[0][idx] == domain[0]
    ]


def test_partitioner_imports_nothing_that_has_a_history():
    tree = ast.parse(inspect.getsource(partition))
    imported = [
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    ] + [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ]
    assert imported, "the scan found the import statements"
    for name in imported:
        assert not name.startswith(("repro.core", "repro.motion", "repro.ftl")), name
    assert list(inspect.signature(partition.partition_ids).parameters) == [
        "ids",
        "shard_count",
    ]
