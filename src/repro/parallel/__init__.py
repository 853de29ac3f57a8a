"""Sharded parallel FTL evaluation (DESIGN.md §12).

The appendix algorithm's per-subformula relations ``R_g`` are keyed by
variable instantiations, and every row's interval content depends only on
the instantiation's objects plus the frozen history — never on which
*other* objects happen to be in a variable's domain.  Restricting one
FROM-bound variable (the *split variable*) to a subset of its class
therefore yields exactly the serial relation's rows whose split-variable
value lies in the subset; evaluating the query once per subset and taking
the keyed union of the results reproduces the serial answer bit for bit.

This package exploits that: :func:`repro.parallel.partition.partition_ids`
cuts the split variable's class into contiguous, balanced chunks,
:class:`repro.parallel.pool.ShardWorkerPool` keeps a persistent
``multiprocessing`` pool whose workers hold a database replica rebuilt
from shared-memory motion arrays (:mod:`repro.parallel.motion`), and
:class:`repro.parallel.evaluator.ShardedIntervalEvaluator` dispatches one
restricted evaluation per shard and merges the relations, counters and
per-atom stats.

The one door is ``parallel=N`` on a cold
:meth:`repro.ftl.query.FtlQuery.evaluate` / ``evaluate_full``; ``N in
(None, 0, 1, False)`` keeps the serial path, ``"auto"`` resolves to
``REPRO_PARALLEL_WORKERS`` or ``os.cpu_count() - 1``.  Registered
continuous queries never come here: they are maintained incrementally
and in-process, and :mod:`repro.core` and :mod:`repro.server` import
nothing from this package.
"""

from __future__ import annotations

import os

from repro.errors import QueryError
from repro.parallel.evaluator import (
    ShardedIntervalEvaluator,
    enumerate_formula_nodes,
    merge_relations,
)
from repro.parallel.motion import MotionSnapshot
from repro.parallel.partition import ShardPlan, partition_ids
from repro.parallel.pool import ShardWorkerPool, get_pool, shutdown_pools

__all__ = [
    "MotionSnapshot",
    "ShardPlan",
    "ShardWorkerPool",
    "ShardedIntervalEvaluator",
    "enumerate_formula_nodes",
    "get_pool",
    "merge_relations",
    "partition_ids",
    "resolve_workers",
    "shutdown_pools",
]


def resolve_workers(parallel: object) -> int:
    """Normalise a ``parallel=`` knob value to a worker count.

    ``None`` / ``False`` / ``0`` / ``1`` mean serial (returns 1);
    ``"auto"`` resolves to ``REPRO_PARALLEL_WORKERS`` when set, else
    ``max(1, os.cpu_count() - 1)``; a positive integer is taken as-is.
    Anything else raises :class:`~repro.errors.QueryError`.
    """
    if parallel is None or parallel is False:
        return 1
    if isinstance(parallel, str):
        if parallel != "auto":
            raise QueryError(
                f"parallel must be an integer, 'auto' or None; got "
                f"{parallel!r}"
            )
        from repro.config import parallel_workers

        configured = parallel_workers()
        if configured is not None:
            return configured
        return max(1, (os.cpu_count() or 2) - 1)
    if isinstance(parallel, bool):  # True is not a worker count
        raise QueryError(
            "parallel must be an integer, 'auto' or None; got True"
        )
    if isinstance(parallel, int):
        if parallel < 0:
            raise QueryError(
                f"parallel must be non-negative, got {parallel}"
            )
        return max(1, parallel)
    raise QueryError(
        f"parallel must be an integer, 'auto' or None; got {parallel!r}"
    )
