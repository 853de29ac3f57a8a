"""The persistent shard-worker pool.

Workers are long-lived processes (one pool per ``(worker count, start
method)``, shared by every query in the process): each holds a database
replica rebuilt from the last shipped :class:`~repro.parallel.motion.
MotionSnapshot` and answers ``eval`` tasks against it.  The parent ships
a snapshot only when the database *epoch* changes — the content token
of :func:`repro.core.history.epoch_token` over the database version,
population, class/region names and window start — so several cold
evaluations against the same database state pay the flatten-and-ship
cost once, not once per query.

Transport: everything travels through ordinary queues — the snapshot is
pickled once and put on each worker's task queue, so no OS resource
outlives a call.  Worker exceptions are shipped back and re-raised in
the parent, so error behaviour matches serial evaluation.  A worker that
dies fails the call in flight with :class:`~repro.errors.QueryError`;
:func:`get_pool` then replaces the whole pool on the next call.
"""

from __future__ import annotations

import atexit
import itertools
import pickle
from multiprocessing import get_context
from multiprocessing.context import BaseContext
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.history import epoch_token
from repro.errors import QueryError
from repro.parallel.motion import MotionSnapshot

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.process import BaseProcess
    from multiprocessing.queues import Queue as MpQueue

    from repro.core.history import History

__all__ = ["ShardWorkerPool", "get_pool", "shutdown_pools"]

#: Seconds a blocked result read waits between worker-liveness checks.
_POLL_INTERVAL = 0.5
#: Seconds without any result before a task is declared wedged.
_TASK_TIMEOUT = 300.0

def _reraise(err: tuple[str, object]) -> None:
    """Re-raise a worker-shipped exception in the parent."""
    kind, payload = err
    if kind == "pickled":
        assert isinstance(payload, bytes)
        raise pickle.loads(payload)
    # Fallback: the exception itself would not pickle; rebuild by name.
    module, qualname, message = payload  # type: ignore[misc]
    exc_type: type[BaseException] = RuntimeError
    try:
        import importlib

        mod = importlib.import_module(module)
        candidate = mod
        for part in str(qualname).split("."):
            candidate = getattr(candidate, part)
        if isinstance(candidate, type) and issubclass(
            candidate, BaseException
        ):
            exc_type = candidate
    except Exception:  # pragma: no cover - defensive
        pass
    raise exc_type(message)


class ShardWorkerPool:
    """A fixed set of persistent shard-worker processes."""

    def __init__(
        self, workers: int, start_method: str | None = None
    ) -> None:
        if workers < 1:
            raise QueryError(f"worker count must be >= 1, got {workers}")
        if start_method is None:
            from repro.config import parallel_start_method

            start_method = parallel_start_method()
        ctx: BaseContext
        if start_method is None:
            methods = __import__("multiprocessing").get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        ctx = get_context(start_method)
        self.workers = workers
        self.start_method = start_method
        self._result_queue: "MpQueue[tuple[Any, ...]]" = ctx.Queue()
        self._task_queues: list["MpQueue[tuple[Any, ...]]"] = []
        self._processes: list["BaseProcess"] = []
        self._snap_ids = itertools.count(1)
        self._snap_token: tuple[object, ...] | None = None
        self._closed = False
        from repro.parallel.worker import worker_main

        for i in range(workers):
            tq: "MpQueue[tuple[Any, ...]]" = ctx.Queue()
            proc = ctx.Process(
                target=worker_main,
                args=(i, tq, self._result_queue),
                daemon=True,
                name=f"repro-shard-{i}",
            )
            proc.start()
            self._task_queues.append(tq)
            self._processes.append(proc)

    # ------------------------------------------------------------------
    def dead_workers(self) -> list[str]:
        """Names of the worker processes that are no longer running."""
        return [p.name for p in self._processes if not p.is_alive()]

    def _check_alive(self) -> None:
        dead = self.dead_workers()
        if dead:
            raise QueryError(
                f"shard worker(s) died: {', '.join(dead)}; "
                "shut the pool down and retry"
            )

    def _collect(self, expected: int) -> list[tuple[Any, ...]]:
        """Read ``expected`` messages, watching worker liveness."""
        import queue as _queue

        out: list[tuple[Any, ...]] = []
        waited = 0.0
        while len(out) < expected:
            try:
                out.append(self._result_queue.get(timeout=_POLL_INTERVAL))
                waited = 0.0
            except _queue.Empty:
                self._check_alive()
                waited += _POLL_INTERVAL
                if waited >= _TASK_TIMEOUT:
                    raise QueryError(
                        "shard evaluation timed out waiting for workers"
                    ) from None
        return out

    # ------------------------------------------------------------------
    def ensure_snapshot(self, history: "History") -> tuple[object, ...] | None:
        """Ship a motion snapshot of ``history`` unless the workers
        already hold one for the same database epoch.

        Returns the epoch token (diagnostics/tests).  Blocks until every
        worker has rebuilt its replica from the snapshot and acked.
        """
        if self._closed:
            raise QueryError("worker pool is closed")
        token = epoch_token(history)
        if token is not None and token == self._snap_token:
            return token
        self._check_alive()
        snap = MotionSnapshot.build(history)
        snap_id = next(self._snap_ids)
        # Pickled here, once for every worker: a triple that does not
        # pickle fails this call, not the queues' feeder threads.
        payload = pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL)
        for tq in self._task_queues:
            tq.put(("snapshot", snap_id, payload))
        acks = self._collect(self.workers)
        for msg in acks:
            if msg[0] != "snapack" or msg[2] != snap_id:
                raise QueryError(
                    f"unexpected worker message during snapshot: {msg[0]!r}"
                )
        self._snap_token = token
        return token

    def run(self, specs: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
        """Evaluate one spec per shard, round-robin across workers.

        Returns the per-shard result payloads in spec order.  The first
        shipped worker exception (by shard index) is re-raised here, so
        a failing sharded evaluation surfaces the same error type and
        message serial evaluation would.
        """
        if self._closed:
            raise QueryError("worker pool is closed")
        if not specs:
            return []
        self._check_alive()
        for i, spec in enumerate(specs):
            self._task_queues[i % self.workers].put(("eval", i, spec))
        results: dict[int, dict[str, Any]] = {}
        errors: dict[int, tuple[str, object]] = {}
        for msg in self._collect(len(specs)):
            kind, task_id = msg[0], msg[1]
            if kind == "result":
                results[task_id] = msg[2]
            elif kind == "error":
                errors[task_id] = msg[2]
            else:
                raise QueryError(
                    f"unexpected worker message during eval: {kind!r}"
                )
        if errors:
            _reraise(errors[min(errors)])
        return [results[i] for i in range(len(specs))]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and drop the queues.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for tq in self._task_queues:
            try:
                tq.put(("stop",))
            except Exception:  # pragma: no cover - queue already broken
                pass
        for proc in self._processes:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - wedged worker
                proc.terminate()
                proc.join(timeout=1.0)
        for tq in self._task_queues:
            # A message a dead worker never read must not hold up
            # interpreter exit behind the queue's feeder thread.
            tq.cancel_join_thread()
            tq.close()
        self._result_queue.close()
        self._task_queues.clear()
        self._processes.clear()
        self._snap_token = None


# ---------------------------------------------------------------------------
# Process-wide pool registry
# ---------------------------------------------------------------------------
_POOLS: dict[tuple[int, str | None], ShardWorkerPool] = {}


def get_pool(
    workers: int, start_method: str | None = None
) -> ShardWorkerPool:
    """The shared pool for a worker count (created on first use).

    Every query evaluated with ``parallel=N`` in this process shares the
    same N workers — and therefore the same shipped snapshot per database
    epoch (:func:`epoch_token`).  A cached pool that is closed or has
    lost a worker is closed and replaced, together with whatever its
    workers left unread.
    """
    key = (workers, start_method)
    pool = _POOLS.get(key)
    if pool is None or pool._closed or pool.dead_workers():
        if pool is not None:
            pool.close()
        pool = ShardWorkerPool(workers, start_method=start_method)
        _POOLS[key] = pool
    return pool


def shutdown_pools() -> None:
    """Close every pool this process created (idempotent)."""
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()


atexit.register(shutdown_pools)
