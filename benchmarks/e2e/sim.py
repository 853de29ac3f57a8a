"""The closed-loop server workloads: ``CQServer`` over ``SimNetwork``.

``steady_patch``, ``heartbeat_fleet`` and ``fanout_shared`` share this
runner and differ only in their row of the workload table.  One
``ProtocolNode`` (the generator) sends one ``IngestBatch`` per epoch —
a per-tracker ``BatchingReporter`` would put a thousand generator tick
callbacks inside the measured epoch — and the next batch is sent only
after ``run_epoch`` returned: a closed loop with one outstanding batch.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from typing import Any

import repro.ftl as ftl
from repro.core import FutureHistory
from repro.distributed.network import Message, SimNetwork
from repro.server import CQServer, IngestBatch, SubscriberClient
from repro.server.protocol import INGEST_ACK, INGEST_BATCH
from repro.server.transport import ProtocolNode
from repro.temporal import SimulationClock

import workloads as W
from harness import Calibrated, Ops, Segment
from tracing import Tracer

GENERATOR_ID = "generator"

#: Epochs a subscription or the final drain may take before it counts
#: as failed.
PATIENCE_EPOCHS = 16

SERVER_COUNTERS = (
    "epochs",
    "updates_applied",
    "updates_rejected",
    "inbox_high_water",
    "refreshes",
    "deps_skipped_refreshes",
    "horizon_skipped_refreshes",
    "deltas_sent",
    "tuples_sent",
    "retract_tuples_sent",
    "snapshots_sent",
    "delta_retransmissions",
    "disconnects",
)
QUERY_COUNTERS = (
    "evaluations",
    "full_evaluations",
    "skipped_by_deps",
    "horizon_skipped",
    "subtrees_skipped",
    "horizon_subtrees_skipped",
)


def server_counters(server: CQServer) -> dict[str, float]:
    """The exact counts a run reports, read off the server's public
    metrics, its registered queries and its database."""
    out: dict[str, float] = {
        name: getattr(server.metrics, name) for name in SERVER_COUNTERS
    }
    for name in QUERY_COUNTERS:
        out[name] = sum(
            getattr(rq.cq, name) for rq in server.registry.queries.values()
        )
    out["ingest_rejected"] = server.db.ingest_rejected
    return out


def counter_delta(
    after: dict[str, float], before: dict[str, float]
) -> dict[str, float]:
    """``after - before`` (high-water marks are kept as they are)."""
    return {
        name: value if name == "inbox_high_water" else value - before[name]
        for name, value in after.items()
    }


class SimRunner:
    """Set-up, timed epochs, drain and oracle of one sim workload."""

    def __init__(
        self, spec: W.Workload, seed: int, epochs: int, tracer: Tracer | None
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.epochs = epochs
        self.tracer = tracer
        self.loop = asyncio.new_event_loop()
        self.first_answers: list[float] = []
        self.acked = 0
        self.sent_batches = 0
        self.sent_updates = 0

    def _on_ack(self, _message: Message) -> None:
        self.acked += 1

    async def _epoch(self, batch: tuple[Any, ...]) -> float:
        """Send one batch, run one epoch; seconds inside ``run_epoch``."""
        self.generator.send(
            self.server.server_id,
            INGEST_BATCH,
            IngestBatch(GENERATOR_ID, self.sent_batches, batch),
        )
        self.sent_batches += 1
        self.sent_updates += len(batch)
        t0 = time.perf_counter()
        await self.server.run_epoch()
        return time.perf_counter() - t0

    # ------------------------------------------------------------------
    def setup(self) -> None:
        self.loop.run_until_complete(self._setup())

    async def _setup(self) -> None:
        spec = self.spec
        world = W.make_world(spec, self.seed)
        clock = SimulationClock()
        self.db = W.build_database(world, clock)
        network = SimNetwork(clock)
        self.server = CQServer(
            self.db, network, inbox_capacity=4096, batch_limit=4096
        )
        self.generator = ProtocolNode(GENERATOR_ID, network)
        self.generator.on_kind(INGEST_ACK, self._on_ack)
        sessions = len(spec.queries) * spec.subscribers_per_query
        horizon = sessions + W.WARMUP_EPOCHS + self.epochs + W.HORIZON_SLACK
        self.clients: list[SubscriberClient] = []
        # One subscription at a time on an otherwise idle server: the
        # first subscriber of a query pays its initial evaluation.
        for q, text in enumerate(spec.queries):
            for s in range(spec.subscribers_per_query):
                t0 = time.perf_counter()
                client = SubscriberClient(network, f"sub-{q}-{s}", text, horizon)
                for _ in range(PATIENCE_EPOCHS):
                    await self.server.run_epoch()
                    if client.snapshots_received:
                        break
                if s == 0:
                    self.first_answers.append(time.perf_counter() - t0)
                self.clients.append(client)
        self.batches = W.update_stream(
            spec, self.seed, world, clock.now, W.WARMUP_EPOCHS + self.epochs
        )
        self.digest = W.stream_digest(self.batches)
        for batch in self.batches[: W.WARMUP_EPOCHS]:
            await self._epoch(batch)

    def run(self, cal: Calibrated) -> dict[str, Any]:
        return self.loop.run_until_complete(self._run(cal))

    async def _run(self, cal: Calibrated) -> dict[str, Any]:
        before = server_counters(self.server)
        metrics = self.server.metrics
        epochs = self.epochs
        batches = self.batches[W.WARMUP_EPOCHS :]
        per_segment = max(W.MIN_SEGMENT_EPOCHS, epochs // W.SEGMENTS)
        segments = []
        cal.mark()
        for start in range(0, epochs, per_segment):
            samples, work = [], []
            for index in range(start, min(epochs, start + per_segment)):
                if self.tracer is not None:
                    self.tracer.op = index
                applied = metrics.updates_applied
                samples.append(await self._epoch(batches[index]))
                work.append(metrics.updates_applied - applied)
            cal.mark()
            segments.append(Segment(samples, work))
        return {
            "segments": segments,
            "factors": cal.factors(),
            "counts": counter_delta(server_counters(self.server), before),
            "extra": {
                "server.first_answer_ms": statistics.mean(self.first_answers) * 1e3,
            },
        }

    # ------------------------------------------------------------------
    def verify(self, ops: Ops) -> None:
        self.loop.run_until_complete(self._verify(ops))

    async def _verify(self, ops: Ops) -> None:
        server = self.server
        for _ in range(PATIENCE_EPOCHS):
            if server.drained():
                break
            await server.run_epoch()
        ops.check(server.drained(), "server did not drain")
        metrics = server.metrics
        ops.check(
            metrics.updates_applied == self.sent_updates
            and metrics.updates_rejected == 0,
            f"{self.sent_updates} updates sent, {metrics.updates_applied} "
            f"applied, {metrics.updates_rejected} rejected",
            self.sent_updates,
        )
        ops.check(
            self.acked == self.sent_batches,
            f"{self.sent_batches} batches sent, {self.acked} acked",
            self.sent_batches,
        )
        now = self.db.clock.now
        expected = {}
        for rq in server.registry.queries.values():
            relation = ftl.parse_query(rq.text).evaluate(
                FutureHistory(self.db), max(0, rq.cq.expires_at - now)
            )
            expected[rq.text] = relation.satisfied_at(now)
        for client in self.clients:
            ok = client.subscribed and client.display_at(now) == expected[client.text]
            ops.check(ok, f"{client.client_id} display differs from the oracle")

    def teardown(self) -> None:
        self.loop.close()
