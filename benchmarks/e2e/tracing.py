"""Outside-in layer tracing: spans recorded from the benchmark's own files.

Nothing under ``src/`` knows it is being traced.  :class:`Tracer.install`
replaces the public callables of :data:`TARGETS` by attribute assignment
(a class attribute, or the binding an importing module holds, e.g.
``repro.server.tcp.encode_line``) with wrappers that time the call,
charge it to its layer and to the enclosing wrapper's *child time*, and
— for the low-frequency boundaries — keep a span (layer, start, end,
parent span, operation id).  A layer's **self time** is its duration
minus the part its wrapped children cover, so the self times under one
root span add up to that root's wall time by construction.

Calls that happen more than about ten times per operation
(``RTree.search``, ``ContinuousQuery.affects``, ``IntervalSet`` algebra,
per-session steps, per-message sends) are *aggregated*: count and times
are charged exactly like a span's, but no span record is kept.

End-to-end metrics never come from a traced run; the traced run exists
to say where the time of an untraced run goes.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from pathlib import Path
from typing import Any, Callable, Iterator

#: ``(owner, attribute, layer, keep_spans)``.  ``owner`` is
#: ``module`` or ``module:Class``; the layer is the name the per-layer
#: metrics of ``BENCHMARK.json`` are derived from (:func:`layer_metrics`).
TARGETS: tuple[tuple[str, str, str, bool], ...] = (
    # ftl front end
    ("repro.ftl", "parse_query", "ftl.parser.parse", True),
    ("repro.server.registry", "parse_query", "ftl.parser.parse", True),
    ("repro.ftl.query:FtlQuery", "analyze", "ftl.analysis.analyze", True),
    ("repro.ftl.query:FtlQuery", "plan_for", "ftl.analysis.plan", True),
    # atoms: index pruning, kinetic solving
    ("repro.ftl.atoms:AtomIndexPruner", "region_candidates", "ftl.atoms.pruner.probe", False),
    ("repro.ftl.atoms:AtomIndexPruner", "pair_candidates", "ftl.atoms.pruner.probe", False),
    ("repro.index.rtree:RTree", "search", "index.rtree.search", False),
    ("repro.index.rtree:RTree", "insert", "index.rtree.insert", False),
    ("repro.ftl.atoms:KineticBatch", "solve", "motion.batch.solve", True),
    *(
        ("repro.ftl.evaluator", name, "spatial.kinetic.scalar", False)
        for name in (
            "when_dist_at_least",
            "when_dist_at_most",
            "when_inside_ball",
            "when_inside_polygon",
            "when_value_in_range",
            "when_within_sphere",
        )
    ),
    # evaluators, interval algebra, relations
    ("repro.ftl.evaluator:IntervalEvaluator", "evaluate", "ftl.evaluator.evaluate", True),
    ("repro.ftl.incremental:PartialIntervalEvaluator", "refresh", "ftl.incremental.refresh", True),
    ("repro.temporal.intervalset:IntervalSet", "intersection", "temporal.ops", False),
    ("repro.temporal.intervalset:IntervalSet", "union", "temporal.ops", False),
    *(
        (module, name, "temporal.ops", False)
        for module in ("repro.ftl.evaluator", "repro.ftl.incremental")
        for name in (
            "until",
            "until_within",
            "eventually",
            "eventually_within",
            "eventually_after",
            "always",
            "always_for",
            "nexttime",
        )
    ),
    ("repro.ftl.relations:FtlRelation", "patch", "ftl.relations.patch", False),
    ("repro.ftl.relations:FtlRelation", "project", "ftl.relations.project", True),
    # core: ingest, update listeners, refresh
    ("repro.core.database:MostDatabase", "ingest_motion", "core.database.ingest", False),
    ("repro.core.history:FutureHistory", "__init__", "core.history.build", False),
    ("repro.core.queries:ContinuousQuery", "affects", "core.queries.affects", False),
    ("repro.core.queries:ContinuousQuery", "refresh", "core.queries.refresh", True),
    ("repro.core.queries:ContinuousQuery", "stamped_tuples", "core.queries.stamped_tuples", True),
    # server
    ("repro.server.epoch:CQServer", "run_epoch", "server.epoch", True),
    ("repro.temporal.clock:SimulationClock", "tick", "server.epoch.pump", True),
    ("repro.server.registry:SubscriptionRegistry", "refresh_round", "server.registry.refresh_round", True),
    ("repro.server.registry:AnswerState", "capture", "server.registry.capture", True),
    ("repro.server.session:ClientSession", "step", "server.session.step", False),
    ("repro.server.transport:SimTransport", "send", "server.transport.send", False),
    ("repro.distributed.network:SimNetwork", "send", "distributed.network.send", False),
    ("repro.server.client:SubscriberClient", "_on_delta", "server.client.on_delta", False),
    ("repro.server.tcp", "encode_line", "server.protocol.encode", False),
    ("repro.server.tcp", "decode_line", "server.protocol.decode", False),
    ("repro.server.tcp:TcpTransport", "send", "server.tcp.send", False),
    # sharded evaluation
    ("repro.parallel.pool", "get_pool", "parallel.pool.start", True),
    ("repro.parallel.pool:ShardWorkerPool", "ensure_snapshot", "parallel.pool.ship", True),
    ("repro.parallel.pool:ShardWorkerPool", "run", "parallel.pool.run", True),
    ("repro.parallel.evaluator:ShardedIntervalEvaluator", "evaluate", "parallel.evaluator.evaluate", True),
    ("repro.parallel.motion:MotionSnapshot", "build", "parallel.motion.snapshot", True),
    # the benchmark's own calibration loops, so they are not read as
    # driver time
    ("harness", "calibrate", "bench.calibration", False),
)

#: Evaluator counters summed by the ``after`` hooks below.
EVAL_COUNTERS = (
    "kinetic_solves",
    "pruned_instantiations",
    "cache_hits",
    "cache_misses",
    "cache_shift_hits",
)

#: ``[calls, inclusive seconds, self seconds]`` per layer.
Totals = dict[str, list[float]]


def _resolve(owner: str) -> Any:
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span and aggregate recorder behind the installed wrappers."""

    def __init__(self) -> None:
        #: ``[layer, start, end, parent span index or -1, phase, op]``.
        self.spans: list[list[Any]] = []
        #: phase -> layer -> ``[calls, inclusive s, self s]``.
        self.totals: dict[str, Totals] = {}
        #: phase -> counter name -> value (fed by the ``after`` hooks).
        self.counters: dict[str, dict[str, float]] = {}
        self.phase = "setup"
        #: Shared identifier of the spans of one operation (epoch/pass).
        self.op = -1
        # Frames of the wrappers currently on the call stack:
        # ``[child seconds, index of the nearest kept span]``.
        self._stack: list[list[Any]] = []
        # Wrappers of each layer currently on the stack, so a layer that
        # re-enters itself (synchronous SimNetwork delivery, IntervalSet
        # algebra) is not charged its inclusive time twice.
        self._depth: dict[str, int] = {}
        self._saved: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _charge(
        self, layer: str, duration: float, child: float, outermost: bool
    ) -> None:
        phase = self.totals.setdefault(self.phase, {})
        row = phase.get(layer)
        if row is None:
            row = phase[layer] = [0, 0.0, 0.0]
        row[0] += 1
        if outermost:
            row[1] += duration
        row[2] += duration - child

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to a phase-scoped counter."""
        phase = self.counters.setdefault(self.phase, {})
        phase[name] = phase.get(name, 0) + value

    def _enter(self, layer: str, keep: bool) -> tuple[list[Any], float]:
        stack = self._stack
        parent = stack[-1][1] if stack else -1
        index = parent
        if keep:
            index = len(self.spans)
            self.spans.append([layer, 0.0, 0.0, parent, self.phase, self.op])
        frame = [0.0, index]
        stack.append(frame)
        self._depth[layer] = self._depth.get(layer, 0) + 1
        return frame, time.perf_counter()

    def _exit(self, layer: str, keep: bool, frame: list[Any], t0: float) -> None:
        t1 = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = t1 - t0
        if stack:
            stack[-1][0] += duration
        if keep:
            span = self.spans[frame[1]]
            span[1], span[2] = t0, t1
        depth = self._depth[layer] = self._depth[layer] - 1
        self._charge(layer, duration, frame[0], depth == 0)

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        keep: bool,
        after: Callable[["Tracer", tuple[Any, ...], Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as one call of ``layer``."""
        enter, leave = self._enter, self._exit
        if inspect.iscoroutinefunction(fn):

            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                frame, t0 = enter(layer, keep)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    leave(layer, keep, frame, t0)

            return traced_async

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame, t0 = enter(layer, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(layer, keep, frame, t0)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    def span(self, layer: str) -> "_Span":
        """A context manager recording the enclosed block as a kept span
        (the benchmark's own root spans: one per timed section)."""
        return _Span(self, layer)

    def install(self) -> None:
        """Swap every callable of :data:`TARGETS` for its wrapper."""
        for owner_path, attr, layer, keep in TARGETS:
            owner = _resolve(owner_path)
            raw = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
            after = _AFTER.get((owner_path, attr))
            if isinstance(raw, staticmethod):
                new: Any = staticmethod(self.wrap(layer, raw.__func__, keep, after))
            elif isinstance(raw, classmethod):
                new = classmethod(self.wrap(layer, raw.__func__, keep, after))
            else:
                new = self.wrap(layer, raw, keep, after)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Put the original callables back."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    def export(self) -> dict[str, Any]:
        """Everything recorded, JSON-ready (the ``tcp_openloop`` child
        ships this to the parent in its exit summary)."""
        return {"totals": self.totals, "counters": self.counters}

    def dump(self, path: Path) -> None:
        """Write the trace as JSON lines: one ``span`` record per kept
        span, then one ``aggregate`` record per (phase, layer)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for index, (layer, t0, t1, parent, phase, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "type": "span",
                            "id": index,
                            "layer": layer,
                            "start": t0,
                            "end": t1,
                            "parent": parent,
                            "phase": phase,
                            "op": op,
                        }
                    )
                    + "\n"
                )
            for phase, layers in self.totals.items():
                for layer, (calls, total, self_s) in sorted(layers.items()):
                    fh.write(
                        json.dumps(
                            {
                                "type": "aggregate",
                                "phase": phase,
                                "layer": layer,
                                "calls": calls,
                                "total_s": total,
                                "self_s": self_s,
                            }
                        )
                        + "\n"
                    )


class _Span:
    def __init__(self, tracer: Tracer, layer: str) -> None:
        self.tracer = tracer
        self.layer = layer

    def __enter__(self) -> "_Span":
        self._frame, self._t0 = self.tracer._enter(self.layer, True)
        return self

    def __exit__(self, *exc: object) -> None:
        self.tracer._exit(self.layer, True, self._frame, self._t0)


# ---------------------------------------------------------------------------
# Counters read off the traced objects after the call
# ---------------------------------------------------------------------------


def _after_serial_eval(tracer: Tracer, args: tuple[Any, ...], _result: Any) -> None:
    for name, value in args[0].counters().items():
        if name in EVAL_COUNTERS:
            tracer.count(name, value)


def _after_sharded_eval(tracer: Tracer, args: tuple[Any, ...], _result: Any) -> None:
    ev = args[0]
    if not ev.sharded:
        return  # fell back to the serial evaluator, which was counted
    for name in EVAL_COUNTERS:
        tracer.count(name, ev.counters.get(name, 0))
    times = ev.shard_times
    if times and sum(times) > 0:
        tracer.count("shard_skew_sum", max(times) / (sum(times) / len(times)))
        tracer.count("shard_evals", 1)
        tracer.count("shard_max_s", max(times))


def _after_snapshot(tracer: Tracer, _args: tuple[Any, ...], snap: Any) -> None:
    tracer.count(
        "snapshot_bytes", sum(int(a.nbytes) for a in snap.arrays.values())
    )


def _after_encode(tracer: Tracer, _args: tuple[Any, ...], line: bytes) -> None:
    tracer.count("bytes_out", len(line))


def _after_decode(tracer: Tracer, args: tuple[Any, ...], _result: Any) -> None:
    tracer.count("bytes_in", len(args[0]))


_AFTER: dict[tuple[str, str], Callable[[Tracer, tuple[Any, ...], Any], None]] = {
    ("repro.ftl.evaluator:IntervalEvaluator", "evaluate"): _after_serial_eval,
    ("repro.ftl.incremental:PartialIntervalEvaluator", "refresh"): _after_serial_eval,
    ("repro.parallel.evaluator:ShardedIntervalEvaluator", "evaluate"): _after_sharded_eval,
    ("repro.parallel.motion:MotionSnapshot", "build"): _after_snapshot,
    ("repro.server.tcp", "encode_line"): _after_encode,
    ("repro.server.tcp", "decode_line"): _after_decode,
}


def iter_trace(path: Path) -> Iterator[dict[str, Any]]:
    """The records of a dumped trace file."""
    with path.open() as fh:
        for line in fh:
            yield json.loads(line)
