"""``python -m repro.server`` — a self-contained quickstart demo.

Starts the continuous-query server on a real TCP socket, connects one
motion reporter and one subscriber over that socket, drives a few dozen
epochs of a small tracked fleet, and prints the subscriber's display as
it evolves plus the server's metrics at the end.

    $ python -m repro.server --epochs 40 --port 0

Everything runs inside one asyncio loop; the same protocol works for
out-of-process endpoints (`repro.server.protocol.encode_line` /
`decode_line` is the whole wire format).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
from typing import Any

from repro.core.database import MostDatabase
from repro.core.objects import ObjectClass
from repro.geometry import Point
from repro.server.epoch import CQServer
from repro.server.protocol import (
    DELTA,
    DELTA_ACK,
    HEARTBEAT,
    INGEST_BATCH,
    SUBSCRIBED,
    DeltaAck,
    DeltaMsg,
    HeartbeatMsg,
    IngestBatch,
    SubscribeMsg,
    SubscribedMsg,
    WireTuple,
    decode_line,
    encode_line,
)
from repro.server.protocol import SUBSCRIBE as SUBSCRIBE_KIND
from repro.server.tcp import TcpTransport
from repro.distributed.updates import MotionUpdate
from repro.temporal.clock import SimulationClock

QUERY = "RETRIEVE v FROM trackers v, beacons b WHERE DIST(v, b) <= 60"


async def _reporter(
    host: str, port: int, clock: SimulationClock, db_epochs: int, seed: int
) -> None:
    """Feed seeded integer-grid motion over the socket, one small batch
    per epoch-ish interval.  Fixes are stamped from the server's clock —
    the demo shares one process with it — so none is "measured in the
    future" however the two loops' periods relate."""
    rng = random.Random(seed)
    reader, writer = await asyncio.open_connection(host, port)
    seqs = {f"tracker-{i}": 0 for i in range(3)}
    batch_seq = 0
    for _ in range(db_epochs):
        updates = []
        for object_id in seqs:
            if rng.random() < 0.3:
                updates.append(
                    MotionUpdate(
                        object_id=object_id,
                        seq=seqs[object_id],
                        measured_at=clock.now,
                        position=Point(
                            float(rng.randint(-50, 50)),
                            float(rng.randint(-50, 50)),
                        ),
                        velocity=Point(
                            float(rng.randint(-3, 3)),
                            float(rng.randint(-3, 3)),
                        ),
                    )
                )
                seqs[object_id] += 1
        if updates:
            writer.write(
                encode_line(
                    INGEST_BATCH,
                    IngestBatch("demo-reporter", batch_seq, tuple(updates)),
                )
            )
            batch_seq += 1
            await writer.drain()
        await asyncio.sleep(0.01)
    writer.close()


async def _subscriber(host: str, port: int, stop: asyncio.Event) -> int:
    """A minimal display client: subscribe, apply deltas, ack, print.
    Returns how many times a non-empty display was printed."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        encode_line(
            SUBSCRIBE_KIND,
            SubscribeMsg(
                client_id="demo-sub", text=QUERY, horizon=200,
                staleness_bound=10.0,
            ),
        )
    )
    await writer.drain()
    query_id, incarnation, last_seq = "", 0, 0
    display: dict[tuple[Any, ...], WireTuple] = {}
    shown: set[str] = set()
    displays = 0
    while not stop.is_set():
        try:
            line = await asyncio.wait_for(reader.readline(), timeout=0.5)
        except asyncio.TimeoutError:
            continue
        if not line:
            break
        kind, payload = decode_line(line)
        if kind == SUBSCRIBED:
            assert isinstance(payload, SubscribedMsg)
            query_id = payload.query_id
            incarnation = payload.incarnation
            if payload.error:
                print("subscription refused:", payload.error)
                return displays
            continue
        if kind != DELTA:
            continue
        assert isinstance(payload, DeltaMsg)
        msg = payload
        if msg.snapshot:
            display = {t.key(): t for t in msg.adds}
            incarnation, last_seq = msg.incarnation, msg.seq
        elif msg.incarnation == incarnation and msg.seq == last_seq + 1:
            for t in msg.retracts:
                display.pop(t.key(), None)
            for t in msg.adds:
                display[t.key()] = t
            last_seq = msg.seq
        else:
            continue  # the demo skips gap recovery; see SubscriberClient
        writer.write(
            encode_line(
                DELTA_ACK,
                DeltaAck("demo-sub", query_id, incarnation, last_seq),
            )
        )
        writer.write(
            encode_line(HEARTBEAT, HeartbeatMsg("demo-sub", last_seq))
        )
        await writer.drain()
        now_shown = {t.values[0] for t in display.values()}
        if now_shown != shown:
            shown = now_shown
            if shown:
                displays += 1
            print(f"display -> {sorted(shown)}")
    writer.close()
    return displays


async def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server", description=__doc__
    )
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    db = MostDatabase()
    db.create_class(ObjectClass("trackers", spatial_dimensions=2))
    db.create_class(ObjectClass("beacons", spatial_dimensions=2))
    db.add_moving_object("beacons", "beacon", Point(0.0, 0.0))
    rng = random.Random(args.seed)
    for i in range(3):
        db.add_moving_object(
            "trackers",
            f"tracker-{i}",
            Point(float(rng.randint(-50, 50)), float(rng.randint(-50, 50))),
            Point(float(rng.randint(-3, 3)), float(rng.randint(-3, 3))),
        )
        db.track(f"tracker-{i}")

    server = CQServer(db)
    transport = TcpTransport(server, port=args.port)
    await transport.start()
    print(f"continuous-query server on 127.0.0.1:{transport.port}")

    stop = asyncio.Event()
    reporter = asyncio.create_task(
        _reporter(
            "127.0.0.1", transport.port, db.clock, args.epochs, args.seed
        )
    )
    subscriber = asyncio.create_task(
        _subscriber("127.0.0.1", transport.port, stop)
    )
    await server.serve(epochs=args.epochs, interval=0.02)
    stop.set()
    _, displays = await asyncio.gather(reporter, subscriber)
    await transport.stop()
    print(json.dumps(server.metrics.to_dict(), indent=2))
    rejected = server.metrics.updates_rejected
    if rejected or not displays:
        print(
            f"demo failed: {rejected} updates rejected, "
            f"{displays} displays shown",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(asyncio.run(main()))
