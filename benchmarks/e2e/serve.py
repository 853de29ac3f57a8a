"""``tcp_openloop``'s server process.

Launched by :mod:`tcp` as ``python serve.py --seed N --cars C [--trace]``.
Builds the seeded world, puts a :class:`CQServer` on a
:class:`TcpTransport`, prints ``ready <port>`` and drives
``run_epoch()`` on a fixed period — an epoch that overran does not move
the schedule, so a stall shows up as lag, not as a slower clock.  After
every epoch it runs one short calibration loop (≈4 ms, outside the
measured busy time), so the parent can express the epochs' busy time —
and the processing part of a latency — in reference-host seconds like
every other workload's.

The parent steers it over stdin: ``mark`` starts the timed section
(counters are snapshotted, the tracer's phase flips to ``run``, the
child answers ``marked``), ``stop`` ends it; the child then prints one JSON summary line and exits.
It also exits on its own after ``--max-seconds``, so a crashed parent
never leaves it behind.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

from repro.distributed.backoff import RetrySchedule  # noqa: E402
from repro.server import CQServer  # noqa: E402
from repro.server.tcp import TcpTransport  # noqa: E402

import workloads as W  # noqa: E402
from harness import (  # noqa: E402
    OUT_DIR,
    SHORT_ITERATIONS,
    calibration_loop,
    percentile,
    share,
)
from sim import counter_delta, server_counters  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Ticks no healthy run reaches: the parent acks every delta within
#: milliseconds and never heartbeats, so neither timer may fire.
NEVER_TICKS = 1 << 30
RETRY_TICKS = 400.0
#: Epochs the child keeps serving after ``stop`` so in-flight acks land.
DRAIN_EPOCHS = 40


async def serve(args: argparse.Namespace) -> dict[str, object]:
    spec = replace(W.WORKLOADS["tcp_openloop"], n_cars=args.cars)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    db = W.build_database(W.make_world(spec, args.seed), canary=True)
    server = CQServer(
        db,
        None,
        inbox_capacity=4096,
        batch_limit=4096,
        heartbeat_timeout=NEVER_TICKS,
        retry=RetrySchedule(base=RETRY_TICKS, factor=1.0, cap=RETRY_TICKS),
    )
    transport = TcpTransport(server)
    await transport.start()
    print(f"ready {transport.port}", flush=True)

    loop = asyncio.get_running_loop()
    commands: asyncio.Queue[str] = asyncio.Queue()

    def read_stdin() -> None:
        for line in sys.stdin:
            loop.call_soon_threadsafe(commands.put_nowait, line.strip())
        loop.call_soon_threadsafe(commands.put_nowait, "stop")

    # A daemon thread: it blocks in a read the parent may never end.
    threading.Thread(target=read_stdin, daemon=True).start()

    period = W.TICK_PERIOD_S
    root = contextlib.ExitStack()  # the traced run's root span
    busy: list[float] = []
    applied: list[int] = []
    starts: list[float] = []
    loops: list[float] = []
    lags: list[float] = []
    before = server_counters(server)
    marked_at = time.perf_counter()
    deadline = marked_at + args.max_seconds
    due = loop.time() + period
    while time.perf_counter() < deadline:
        await asyncio.sleep(max(0.0, due - loop.time()))
        lags.append(max(0.0, loop.time() - due))
        due += period
        if tracer is not None:
            tracer.op = server.metrics.epochs
        done = server.metrics.updates_applied
        # ``time.monotonic`` is the parent's event-loop clock too.
        starts.append(time.monotonic())
        t0 = time.perf_counter()
        await server.run_epoch()
        busy.append(time.perf_counter() - t0)
        applied.append(server.metrics.updates_applied - done)
        # The epoch's deltas are on the wire; a short calibration loop now
        # delays nothing but the reading of lines the next tick applies.
        loops.append(calibration_loop(SHORT_ITERATIONS))
        command = None if commands.empty() else commands.get_nowait()
        if command == "mark":
            busy.clear()
            applied.clear()
            starts.clear()
            loops.clear()
            lags.clear()
            before = server_counters(server)
            marked_at = time.perf_counter()
            if tracer is not None:
                tracer.phase = "run"
                root.enter_context(tracer.span("bench.run"))
            print("marked", flush=True)
        elif command == "stop":
            break
    root.close()
    wall = time.perf_counter() - marked_at
    counts = counter_delta(server_counters(server), before)
    summary: dict[str, object] = {
        "counts": counts,
        "epoch_busy_s": busy,
        "epoch_applied": applied,
        "epoch_start_s": starts,
        "epoch_loop_s": loops,
        "busy_p95_ms": percentile(busy, 95) * 1e3,
        "wall_s": wall,
        "utilisation": share(sum(busy), wall),
        "lag_p95_ms": percentile(lags, 95) * 1e3,
        "bad_lines": transport.bad_lines,
    }
    if tracer is not None:
        tracer.phase = "drain"
    # The last epoch's deltas are acked a round trip later; give them
    # (bounded) time before judging whether the server drained.
    for _ in range(DRAIN_EPOCHS):
        if server.drained():
            break
        await asyncio.sleep(period)
        await server.run_epoch()
    summary["drained"] = server.drained()
    summary["inbox_depth"] = server.inbox_depth
    await transport.stop()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(OUT_DIR / "trace-tcp_openloop.jsonl")
        summary["trace"] = tracer.export()
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cars", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--max-seconds", type=float, default=120.0)
    args = parser.parse_args()
    warnings.filterwarnings("ignore", category=Warning, module="repro")
    summary = asyncio.run(serve(args))
    print("summary " + json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
