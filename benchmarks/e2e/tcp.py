"""``tcp_openloop``: the open-loop load generator (this process) against
a server in a child process (:mod:`serve`), over real sockets.

Exactly two connections: one reporter stream carrying one-update
``IngestBatch`` lines, one subscriber stream multiplexing the workload's
client ids (``TcpTransport`` routes by id; the queries are distinct, so
``query_id`` names the client an ack belongs to).  Updates follow a
seeded Poisson schedule at one fixed rate and are timed from when they
were *due*, so a stall charges every update it delayed.  Canary cars
jump between the middle of region ``P`` and far outside every few
ticks; the moment a canary enters or leaves subscriber 0's display
stamps update→delta latency without any cooperation from the server.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import math
import random
import subprocess
import sys
import threading
from collections import deque
from pathlib import Path
from typing import Any

from repro.distributed.updates import MotionUpdate
from repro.geometry import Point
from repro.server.protocol import (
    DELTA,
    DELTA_ACK,
    INGEST_ACK,
    INGEST_BATCH,
    SUBSCRIBE,
    SUBSCRIBED,
    DeltaAck,
    IngestBatch,
    SubscribeMsg,
    decode_line,
    encode_line,
)

import workloads as W
from harness import Calibrated, Ops, Segment, percentile, share, short_factors

SERVE = Path(__file__).resolve().parent / "serve.py"
HOST = "127.0.0.1"
GENERATOR_ID = "generator"
#: Stream buffer: a snapshot of a few hundred tuples is one long line.
LINE_LIMIT = 1 << 22
#: Seconds the parent waits for the child to come up, answer, or exit.
CHILD_PATIENCE_S = 30.0
#: A run is invalid when the generator ran later than this share of the
#: tick period (p95), or the server's epoch loop was busier than this.
MAX_LATE_SHARE = 0.2
MAX_UTILISATION = 0.6


def schedule(
    spec: W.Workload, seed: int, seconds: float
) -> list[tuple[float, str]]:
    """``(due offset in seconds, object id)`` of every update, sorted.

    Ordinary cars receive updates as one Poisson process; each canary
    flips at gaps drawn from ``CANARY_GAP_TICKS``.
    """
    rng = random.Random(f"e2e/{seed}/tcp-schedule")
    cars = [f"car-{i}" for i in range(spec.n_cars)]
    events = []
    t = rng.expovariate(W.TCP_UPDATE_RATE_PER_S)
    while t < seconds:
        events.append((t, rng.choice(cars)))
        t += rng.expovariate(W.TCP_UPDATE_RATE_PER_S)
    lo, hi = W.CANARY_GAP_TICKS
    for canary in W.CANARY_IDS:
        t = rng.uniform(0.0, hi) * W.TICK_PERIOD_S
        while t < seconds:
            events.append((t, canary))
            t += rng.uniform(lo, hi) * W.TICK_PERIOD_S
    events.sort()
    return events


def normalised_latencies(
    samples: list[tuple[float, float]], starts: list[float], factors: list[float]
) -> list[float]:
    """Update→delta latencies in reference-host seconds.

    A latency is a timer wait (due time → start of the epoch that served
    the update: the tick period's doing, left raw) plus processing (that
    epoch's start → delta received here: ingest, refresh, fan-out, codec,
    sockets), which is scaled by the calibration loops the server ran
    around that epoch.  ``starts`` are the epochs' start times on the
    clock the samples use (``time.monotonic`` in both processes).
    """
    out = []
    for due, received in samples:
        epoch = bisect.bisect_right(starts, received) - 1
        if epoch < 0:
            out.append(received - due)
            continue
        start = max(starts[epoch], due)
        out.append(start - due + (received - start) * factors[epoch])
    return out


class TcpRunner:
    """Child launch, open-loop run and oracle of ``tcp_openloop``."""

    def __init__(self, spec: W.Workload, seed: int, seconds: int, traced: bool) -> None:
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.loop = asyncio.new_event_loop()
        self.world = W.make_world(spec, seed)
        total = W.TCP_WARMUP_S + seconds + W.TCP_GRACE_S + CHILD_PATIENCE_S
        self.horizon = math.ceil(total / W.TICK_PERIOD_S)
        self.proc: subprocess.Popen[str] | None = None
        self.writers: list[asyncio.StreamWriter] = []
        self.tasks: list[asyncio.Task[None]] = []
        self.rng = random.Random(f"e2e/{seed}/tcp-velocities")
        self.batch_seq = 0
        #: Latest ``aged_from`` seen on the delta stream: a tick the
        #: server has certainly reached, so ``measured_at`` never leads it.
        self.aged_from = 0
        self.client_of: dict[str, str] = {}
        self.snapshots = 0
        self.canary_query = ""
        self.shown = {canary: False for canary in W.CANARY_IDS}
        self.inside = dict(self.shown)
        self.canary_seq = {canary: -1 for canary in W.CANARY_IDS}
        self.pending: dict[str, deque[float]] = {
            canary: deque() for canary in W.CANARY_IDS
        }
        self.due_at: dict[int, float] = {}
        self.measuring = False
        #: ``(due, received)`` of every canary flip seen, event-loop clock.
        self.canary_samples: list[tuple[float, float]] = []
        self.ack_latencies: list[float] = []
        self.late: list[float] = []
        self.stream_bytes = 0
        self.canaries_sent = 0
        self.canaries_skipped = 0
        self.stray_flips = 0
        self.batches_sent = 0
        self.acks = 0
        self.summary: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Streams
    # ------------------------------------------------------------------
    async def _read_acks(self, reader: asyncio.StreamReader) -> None:
        while line := await reader.readline():
            kind, payload = decode_line(line)
            if kind != INGEST_ACK:
                continue
            due = self.due_at.pop(payload.batch_seq, None)
            if due is not None:
                self.acks += 1
                self.ack_latencies.append(self.loop.time() - due)

    async def _read_deltas(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while line := await reader.readline():
            now = self.loop.time()
            if self.measuring:
                self.stream_bytes += len(line)
            kind, msg = decode_line(line)
            if kind == SUBSCRIBED:
                self.client_of[msg.query_id] = msg.client_id
                if msg.client_id == "sub-0":
                    self.canary_query = msg.query_id
                continue
            if kind != DELTA:
                continue
            self.aged_from = max(self.aged_from, msg.aged_from)
            self.snapshots += msg.snapshot
            writer.write(
                encode_line(
                    DELTA_ACK,
                    DeltaAck(
                        self.client_of[msg.query_id],
                        msg.query_id,
                        msg.incarnation,
                        msg.seq,
                    ),
                )
            )
            if msg.query_id == self.canary_query:
                self._watch_canaries(msg, now)

    def _watch_canaries(self, msg: Any, now: float) -> None:
        """Apply one delta of the canary query to the canaries' shown
        state; a canary that appeared or vanished answers the oldest
        flip still pending for it.  (A refresh that merely re-clips a
        tuple retracts and re-adds it in one delta: no change.)"""
        shown = self.shown
        before = dict(shown)
        if msg.snapshot:
            shown.update(dict.fromkeys(shown, False))
        for t in msg.retracts:
            if t.values[0] in shown:
                shown[t.values[0]] = False
        for t in msg.adds:
            if t.values[0] in shown:
                shown[t.values[0]] = True
        for canary, visible in shown.items():
            if visible == before[canary]:
                continue
            if self.pending[canary]:
                self.canary_samples.append((self.pending[canary].popleft(), now))
            else:
                self.stray_flips += 1

    def _send_update(self, object_id: str, due: float) -> None:
        measured_at = self.aged_from
        if object_id in self.pending:
            if self.pending[object_id]:
                # Its previous flip has not shown up yet (a stall): a
                # second flip could cancel the first inside one epoch
                # and neither would ever be seen.  Skip, and say so.
                self.canaries_skipped += 1
                return
            self.inside[object_id] = not self.inside[object_id]
            spot = W.CANARY_INSIDE if self.inside[object_id] else W.CANARY_OUTSIDE
            self.canary_seq[object_id] += 1
            update = MotionUpdate(
                object_id,
                self.canary_seq[object_id],
                measured_at,
                Point(*spot),
                Point(0.0, 0.0),
            )
            self.pending[object_id].append(due)
            self.canaries_sent += 1
        else:
            car = self.world.cars[object_id]
            velocity = W.new_velocity(
                self.rng, car, *car.at(measured_at), self.spec.extent
            )
            update = W.motion_update(object_id, car, measured_at, velocity)
        self.due_at[self.batch_seq] = due
        self.writers[0].write(
            encode_line(
                INGEST_BATCH, IngestBatch(GENERATOR_ID, self.batch_seq, (update,))
            )
        )
        self.batch_seq += 1
        self.batches_sent += 1

    async def _generate(self, events: list[tuple[float, str]]) -> None:
        start = self.loop.time()
        for offset, object_id in events:
            due = start + offset
            delay = due - self.loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            self.late.append(max(0.0, self.loop.time() - due))
            self._send_update(object_id, due)

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Child launch to every subscriber's first snapshot received."""
        command = [sys.executable, str(SERVE), "--seed", str(self.seed)]
        command += ["--cars", str(self.spec.n_cars)]
        command += ["--max-seconds", str(self.horizon * W.TICK_PERIOD_S)]
        if self.traced:
            command.append("--trace")
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        ready = self.proc.stdout.readline().split()
        if len(ready) != 2 or ready[0] != "ready":
            raise RuntimeError(f"server child did not come up: {ready!r}")
        self.loop.run_until_complete(self._connect(int(ready[1])))

    async def _connect(self, port: int) -> None:
        ack_reader, ack_writer = await asyncio.open_connection(HOST, port)
        delta_reader, delta_writer = await asyncio.open_connection(
            HOST, port, limit=LINE_LIMIT
        )
        self.writers = [ack_writer, delta_writer]
        self.tasks = [
            self.loop.create_task(self._read_acks(ack_reader)),
            self.loop.create_task(self._read_deltas(delta_reader, delta_writer)),
        ]
        for q, text in enumerate(self.spec.queries):
            delta_writer.write(
                encode_line(SUBSCRIBE, SubscribeMsg(f"sub-{q}", text, self.horizon))
            )
        deadline = self.loop.time() + CHILD_PATIENCE_S
        while self.snapshots < len(self.spec.queries):
            if self.loop.time() > deadline:
                raise RuntimeError("subscriptions were not answered in time")
            await asyncio.sleep(0.002)

    def run(self, cal: Calibrated) -> dict[str, Any]:
        cal.mark()
        self.loop.run_until_complete(self._run())
        cal.mark()
        summary = self.summary
        counts = dict(summary["counts"])
        counts.update(
            canaries_sent=self.canaries_sent,
            canaries_seen=len(self.canary_samples),
            canaries_skipped=self.canaries_skipped,
            batches_sent=self.batches_sent,
            acks=self.acks,
        )
        late_p95 = percentile(self.late, 95)
        # The server's busy time is scaled by the calibration loops it
        # ran between epochs; so is the processing part of a latency.
        factors = short_factors(summary["epoch_loop_s"])
        busy = [b * f for b, f in zip(summary["epoch_busy_s"], factors)]
        raw_latencies = [received - due for due, received in self.canary_samples]
        latencies = normalised_latencies(
            self.canary_samples, summary["epoch_start_s"], factors
        )
        invalid = []
        if late_p95 > MAX_LATE_SHARE * W.TICK_PERIOD_S:
            invalid.append(
                f"generator ran late: p95 {late_p95 * 1e3:.2f} ms of a "
                f"{W.TICK_PERIOD_S * 1e3:.0f} ms tick"
            )
        if summary["utilisation"] > MAX_UTILISATION:
            invalid.append(
                f"server utilisation {summary['utilisation']:.2f} exceeds "
                f"{MAX_UTILISATION}: the open-loop rate is not sustainable here"
            )
        out = {
            "segments": [
                Segment(latencies or [0.0], work=summary["epoch_applied"], busy=busy)
            ],
            # Already scaled: the timer wait not at all, the rest per epoch.
            "factors": [1.0],
            "counts": counts,
            "invalid": invalid,
            "extra": {
                "server.epoch.p95_ms": summary["busy_p95_ms"],
                "server.epoch.utilisation": summary["utilisation"],
                "server.epoch.lag_p95_ms": summary["lag_p95_ms"],
                "server.tcp.bad_lines": summary["bad_lines"],
                "server.tcp.delta_latency_p95_ms": percentile(raw_latencies, 95) * 1e3,
                "server.tcp.delta_latency_raw_p50_ms": percentile(raw_latencies, 50)
                * 1e3,
                "server.tcp.ingest_ack_p50_ms": percentile(self.ack_latencies, 50)
                * 1e3,
                "server.tcp.bytes_per_update": share(
                    self.stream_bytes, counts["updates_applied"]
                ),
                "bench.generator_late_p95_ms": late_p95 * 1e3,
            },
        }
        if "trace" in summary:
            out["child"] = summary["trace"]
            hooks = summary["trace"]["counters"].get("run", {})
            out["extra"]["server.protocol.bytes_out"] = hooks.get("bytes_out", 0)
            out["extra"]["server.protocol.bytes_in"] = hooks.get("bytes_in", 0)
        return out

    async def _run(self) -> None:
        # Warm-up: the same traffic, not measured.
        await self._generate(schedule(self.spec, self.seed - 1, W.TCP_WARMUP_S))
        await self._settle()
        self._command("mark")
        await self.loop.run_in_executor(None, self._read_line, "marked")
        for series in (self.canary_samples, self.ack_latencies, self.late):
            series.clear()
        self.canaries_sent = self.canaries_skipped = 0
        self.batches_sent = self.acks = 0
        self.measuring = True
        events = schedule(self.spec, self.seed, self.seconds)
        self.digest = hashlib.sha256(repr(events).encode()).hexdigest()
        await self._generate(events)
        await self._settle()
        self.measuring = False
        self._command("stop")
        self.proc.stdin.close()
        line = await self.loop.run_in_executor(None, self._read_line, "summary ")
        self.summary = json.loads(line[len("summary ") :])

    async def _settle(self) -> None:
        """Wait (bounded) until every batch is acked and every canary
        flip has shown up."""
        deadline = self.loop.time() + W.TCP_GRACE_S
        while self.loop.time() < deadline:
            if not self.due_at and not any(self.pending.values()):
                return
            await asyncio.sleep(0.005)

    def _command(self, word: str) -> None:
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()

    def _read_line(self, prefix: str) -> str:
        """The child's next stdout line starting with ``prefix``."""
        for line in self.proc.stdout:
            if line.startswith(prefix):
                return line
        raise RuntimeError(f"server child exited before printing {prefix!r}")

    # ------------------------------------------------------------------
    def verify(self, ops: Ops) -> None:
        summary, counts = self.summary, self.summary["counts"]
        seen = len(self.canary_samples)
        ops.check(
            seen == self.canaries_sent,
            f"{self.canaries_sent} canary flips sent, {seen} seen",
            self.canaries_sent,
        )
        ops.check(
            self.acks == self.batches_sent and not self.due_at,
            f"{self.batches_sent} batches sent, {self.acks} acked",
            self.batches_sent,
        )
        ops.check(
            counts["updates_applied"] == self.batches_sent
            and counts["updates_rejected"] == 0,
            f"{self.batches_sent} updates sent, {counts['updates_applied']} "
            f"applied, {counts['updates_rejected']} rejected",
            self.batches_sent,
        )
        ops.check(self.stray_flips == 0, "a canary flipped without an update")
        ops.check(summary["bad_lines"] == 0, "server saw malformed lines")
        ops.check(counts["disconnects"] == 0, "server disconnected a client")
        ops.check(
            counts["delta_retransmissions"] == 0, "server retransmitted deltas"
        )
        ops.check(
            summary["drained"] and summary["inbox_depth"] == 0,
            "server inbox or session logs not drained at exit",
        )

    def teardown(self) -> None:
        """Stop everything this runner started and wait for it."""
        for task in self.tasks:
            task.cancel()
        for writer in self.writers:
            writer.close()
        if self.tasks:
            self.loop.run_until_complete(
                asyncio.gather(*self.tasks, return_exceptions=True)
            )
        self.loop.close()
        proc = self.proc
        if proc is None:
            return
        if not proc.stdin.closed:
            proc.stdin.close()  # the child reads this as ``stop``
        # Drain its stdout so a long summary cannot block its exit; a
        # child that does not end on its own is killed.
        killer = threading.Timer(CHILD_PATIENCE_S, proc.kill)
        killer.start()
        try:
            proc.stdout.read()
            proc.wait()
        finally:
            killer.cancel()
            proc.stdout.close()
