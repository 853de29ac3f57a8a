"""The persistent shard-worker pool.

Workers are long-lived processes (one pool per ``(worker count, start
method)``, shared by every query in the process): each holds a database
replica rebuilt from the last shipped :class:`~repro.parallel.motion.
MotionSnapshot` and answers ``eval`` tasks against it.  The parent ships
a snapshot only when the database *epoch* changes — a cheap token over
the database version, population, class/region names and window start —
so several cold evaluations against the same database state pay the
flatten-and-ship cost once, not once per query.

Transport: motion arrays travel through
:class:`multiprocessing.shared_memory.SharedMemory` (workers copy out
and ack before the parent unlinks); tasks and results travel through
ordinary queues.  Worker exceptions are shipped back and re-raised in
the parent, so error behaviour matches serial evaluation.
"""

from __future__ import annotations

import atexit
import itertools
import pickle
from multiprocessing import get_context
from multiprocessing.context import BaseContext
from typing import TYPE_CHECKING, Any, Sequence

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

_db_uids = itertools.count(1)


def _db_uid(db: object) -> int:
    """A stable per-database identity that survives ``id()`` reuse."""
    uid = getattr(db, "_parallel_uid", None)
    if uid is None:
        uid = next(_db_uids)
        try:
            db._parallel_uid = uid  # type: ignore[attr-defined]
        except AttributeError:  # pragma: no cover - db without __dict__
            return id(db)
    return int(uid)


def epoch_token(history: "History") -> tuple[object, ...]:
    """The snapshot-identity token of a database-backed history.

    Two histories with equal tokens have byte-identical snapshots: every
    mutation path of :class:`~repro.core.database.MostDatabase` either
    commits an update (bumping ``db.version``) or changes the population
    / class / region signature, and the window start pins the statics
    read point.  A *snapshotting*
    :class:`~repro.core.history.FutureHistory` froze its contents at
    construction, so its content version is the one recorded then
    (``build_version``), not the database's current one — a stale
    snapshot history must never be served from a newer cached replica,
    nor the other way round.
    """
    db = history.db
    if getattr(history, "_snapshot", False):
        version = getattr(history, "build_version", 0)
        population = sum(
            len(ids) for ids in history._population.values()
        )
    else:
        version = db.version
        population = len(db)
    return (
        _db_uid(db),
        int(version),
        population,
        tuple(db.class_names()),
        tuple(db.region_names()),
        float(history.start),
    )


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
    def _check_alive(self) -> None:
        dead = [p.name for p in self._processes if not p.is_alive()]
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
    def ensure_snapshot(self, history: "History") -> tuple[object, ...]:
        """Ship a motion snapshot of ``history`` unless the workers
        already hold one for the same database epoch.

        Returns the epoch token (diagnostics/tests).  Blocks until every
        worker has copied the arrays out of shared memory, then unlinks
        the segments — no shared state outlives the call.
        """
        if self._closed:
            raise QueryError("worker pool is closed")
        token = epoch_token(history)
        if token == self._snap_token:
            return token
        self._check_alive()
        snap = MotionSnapshot.build(history)
        snap_id = next(self._snap_ids)
        payload = snap.to_payload()
        try:
            for tq in self._task_queues:
                tq.put(("snapshot", snap_id, payload))
            acks = self._collect(self.workers)
        finally:
            snap.release()
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
    epoch (:func:`epoch_token`).
    """
    key = (workers, start_method)
    pool = _POOLS.get(key)
    if pool is None or pool._closed:
        pool = ShardWorkerPool(workers, start_method=start_method)
        _POOLS[key] = pool
    return pool


def shutdown_pools() -> None:
    """Close every pool this process created (idempotent)."""
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()


atexit.register(shutdown_pools)
