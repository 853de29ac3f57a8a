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
from a pickled motion snapshot (:mod:`repro.parallel.motion`), and
:class:`repro.parallel.evaluator.ShardedIntervalEvaluator` dispatches one
restricted evaluation per shard and merges the relations, counters and
per-atom stats.

Sharding is frozen: it does not beat the serial pass on a 2-vCPU host,
so nothing turns it on implicitly.  The one door is an explicit
``parallel=N`` on a cold :meth:`repro.ftl.query.FtlQuery.evaluate` /
``evaluate_full``; ``N in (None, 0, 1, False)`` keeps the serial path.
Registered continuous queries never come here: they are maintained
incrementally and in-process, and :mod:`repro.core` and
:mod:`repro.server` import nothing from this package.
"""

from __future__ import annotations

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
    """Normalise a ``parallel=`` value to a worker count.

    ``None`` / ``False`` / ``0`` / ``1`` mean serial (returns 1); a
    positive integer is taken as-is.  Anything else raises
    :class:`~repro.errors.QueryError`.
    """
    if parallel is None or parallel is False:
        return 1
    if isinstance(parallel, int) and not isinstance(parallel, bool):
        if parallel < 0:
            raise QueryError(
                f"parallel must be non-negative, got {parallel}"
            )
        return max(1, parallel)
    raise QueryError(
        f"parallel must be a non-negative integer, None or False; got "
        f"{parallel!r}"
    )
