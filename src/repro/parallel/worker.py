"""The shard-worker process body.

A worker loops over its task queue:

* ``("snapshot", snap_id, payload)`` — unpickle the
  :class:`~repro.parallel.motion.MotionSnapshot`, rebuild the database
  replica from it, ack.  The replica replaces any previous one;
  per-process caches are reset first so a forked worker can never serve
  answers from memo state inherited from the parent's address space.
* ``("eval", task_id, spec)`` — evaluate the spec's query with the split
  variable's domain restricted to the spec's shard, and ship the
  relation, counters and per-atom stats back, the stats keyed by *node
  path* (deterministic tree position) rather than ``id()`` so the parent
  can re-key them onto its own tree.
* ``("stop",)`` — exit.

Exceptions escape to the parent as shipped errors, not worker deaths:
the parent re-raises them, so sharded evaluation fails exactly like
serial evaluation does.
"""

from __future__ import annotations

import pickle
import time
from typing import TYPE_CHECKING, Any

from repro.errors import FtlSemanticsError
from repro.ftl.atoms import clear_region_tokens
from repro.ftl.context import EvalContext
from repro.ftl.evaluator import IntervalEvaluator
from repro.motion.batch import clear_polygon_edges

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.queues import Queue as MpQueue

    from repro.core.history import FutureHistory

__all__ = ["reset_worker_caches", "worker_main"]


def reset_worker_caches() -> None:
    """Reset every process-global memo a forked worker may inherit.

    Under the ``fork`` start method the child begins with a byte copy of
    the parent's heap: module-level memos (the region-token table) are
    populated with entries keyed by parent-object identities.  They are
    identity-guarded, so they could at worst pin parent objects alive —
    but a worker must never depend on (or pay for) another address
    space's memo state, so it starts from a clean slate and repopulates
    against its own replica.
    """
    clear_region_tokens()
    clear_polygon_edges()


def _ship_error(exc: BaseException) -> tuple[str, object]:
    """Encode an exception for transport (pickle, else name + message)."""
    try:
        return ("pickled", pickle.dumps(exc))
    except Exception:
        return (
            "named",
            (type(exc).__module__, type(exc).__qualname__, str(exc)),
        )


def _evaluate(state: dict[str, Any], spec: dict[str, Any]) -> dict[str, Any]:
    """Run one shard-restricted evaluation against the replica."""
    from repro.parallel.evaluator import enumerate_formula_nodes

    history: "FutureHistory | None" = state.get("history")
    if history is None:
        raise FtlSemanticsError("worker received eval before any snapshot")
    query = spec["query"]
    horizon = int(spec["horizon"])
    model = spec["model"]
    plan = None
    if model is not None:
        try:
            plan = query.plan_for(model=model, order=spec["order"])
        except FtlSemanticsError:
            plan = None
    root = plan.resolve(query.where) if plan is not None else query.where
    id_to_path = {
        id(node): path
        for path, node in enumerate(enumerate_formula_nodes(root))
    }
    ctx = EvalContext(
        history,
        horizon,
        query.bindings,
        domain_restrictions={spec["split_var"]: list(spec["shard_ids"])},
    )
    evaluator = IntervalEvaluator(ctx, plan=plan, options=spec["options"])
    t0 = time.perf_counter()
    c0 = time.process_time()
    relation = evaluator.evaluate(query.where)
    eval_cpu = time.process_time() - c0
    eval_time = time.perf_counter() - t0

    atom_stats = {}
    for node_id, stats in evaluator.atom_stats.items():
        path = id_to_path.get(node_id)
        if path is not None:
            atom_stats[path] = {
                key: stats[key]
                for key in ("instantiations", "pruned", "solves")
            }
    return {
        "relation": (relation.variables, dict(relation.rows())),
        "counters": evaluator.counters(),
        "atom_stats": atom_stats,
        "eval_time": eval_time,
        # CPU seconds spent in this worker: on a time-sliced host the
        # wall span above stretches with contention, but CPU time is the
        # shard's true work — what a real core would take.
        "eval_cpu": eval_cpu,
    }


def worker_main(
    worker_id: int,
    task_queue: "MpQueue[tuple[Any, ...]]",
    result_queue: "MpQueue[tuple[Any, ...]]",
) -> None:
    """Entry point of one shard-worker process (spawn-safe: top level)."""
    reset_worker_caches()
    state: dict[str, Any] = {}
    while True:
        msg = task_queue.get()
        kind = msg[0]
        if kind == "stop":
            break
        if kind == "snapshot":
            snap_id, payload = msg[1], msg[2]
            try:
                reset_worker_caches()
                db, history = pickle.loads(payload).build_database()
                state.clear()
                state.update(snap_id=snap_id, db=db, history=history)
                result_queue.put(("snapack", worker_id, snap_id))
            except BaseException as exc:  # noqa: BLE001 - shipped upward
                # A snapshot failure must still unblock the parent's ack
                # collection; ship the error in ack position.
                state.clear()
                result_queue.put(("snapack", worker_id, snap_id))
                state["snapshot_error"] = _ship_error(exc)
        elif kind == "eval":
            task_id, spec = msg[1], msg[2]
            pending = state.get("snapshot_error")
            if pending is not None:
                result_queue.put(("error", task_id, pending))
                continue
            try:
                result_queue.put(("result", task_id, _evaluate(state, spec)))
            except BaseException as exc:  # noqa: BLE001 - shipped upward
                result_queue.put(("error", task_id, _ship_error(exc)))
