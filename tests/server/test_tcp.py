"""TCP transport smoke tests: the epoch loop over real sockets."""

import asyncio
import json

import pytest

from repro.core.database import MostDatabase
from repro.core.objects import ObjectClass
from repro.geometry import Point
from repro.server import __main__ as quickstart
from repro.server.epoch import CQServer
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
from repro.server.tcp import TcpTransport
from repro.distributed.updates import MotionUpdate
from tests.server.test_protocol import (
    BAD_SUBSCRIBE_FIELDS,
    ESCAPING_FRAMES,
    MALFORMED_FRAMES,
)

QUERY = "RETRIEVE v FROM trackers v, beacons b WHERE DIST(v, b) <= 60"


def make_server():
    db = MostDatabase()
    db.create_class(ObjectClass("trackers", spatial_dimensions=2))
    db.create_class(ObjectClass("beacons", spatial_dimensions=2))
    db.add_moving_object("beacons", "beacon", Point(0.0, 0.0))
    db.add_moving_object("trackers", "t0", Point(5.0, 0.0), Point(0.0, 0.0))
    db.track("t0")
    return CQServer(db)


async def _subscribe_and_collect(port):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        encode_line(
            SUBSCRIBE,
            SubscribeMsg(client_id="c1", text=QUERY, horizon=100),
        )
    )
    await writer.drain()
    got = {"subscribed": None, "deltas": []}
    try:
        while len(got["deltas"]) < 1:
            line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            if not line:
                break
            kind, payload = decode_line(line)
            if kind == SUBSCRIBED:
                got["subscribed"] = payload
            elif kind == DELTA:
                got["deltas"].append(payload)
                writer.write(
                    encode_line(
                        DELTA_ACK,
                        DeltaAck(
                            "c1", payload.query_id, payload.incarnation,
                            payload.seq,
                        ),
                    )
                )
                await writer.drain()
    finally:
        writer.close()
    return got


async def _run_smoke():
    server = make_server()
    transport = TcpTransport(server)
    try:
        await transport.start()
    except OSError:
        pytest.skip("cannot bind a loopback socket in this environment")
    try:
        client = asyncio.create_task(_subscribe_and_collect(transport.port))
        # Feed one batch over a second connection while epochs run.
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", transport.port
        )
        writer.write(
            encode_line(
                INGEST_BATCH,
                IngestBatch(
                    "r0",
                    0,
                    (
                        MotionUpdate(
                            "t0", 0, 0, Point(3.0, 0.0), Point(0.0, 0.0)
                        ),
                    ),
                ),
            )
        )
        await writer.drain()
        serve = asyncio.create_task(server.serve(epochs=20, interval=0.01))
        got = await asyncio.wait_for(client, timeout=10.0)
        await serve
        writer.close()
        return server, got
    finally:
        await transport.stop()


async def _ingest_and_await_ack(reader, writer, seq):
    update = MotionUpdate("t0", seq, 0, Point(3.0, 0.0), Point(0.0, 0.0))
    writer.write(encode_line(INGEST_BATCH, IngestBatch("r0", seq, (update,))))
    await writer.drain()
    while True:
        kind, payload = decode_line(
            await asyncio.wait_for(reader.readline(), timeout=5.0)
        )
        if kind == INGEST_ACK:
            return payload.acked


async def _bad_frame_beside_a_reporter(line):
    """Send ``line`` on its own connection while a reporter stays
    connected; returns what the bad connection reads before it closes,
    ``bad_lines`` after it, and the reporter's next ack."""
    server = make_server()
    transport = TcpTransport(server)
    try:
        await transport.start()
    except OSError:
        pytest.skip("cannot bind a loopback socket")
    serve = asyncio.create_task(server.serve(epochs=100, interval=0.01))
    try:
        r_reader, r_writer = await asyncio.open_connection(
            "127.0.0.1", transport.port
        )
        acked = await _ingest_and_await_ack(r_reader, r_writer, 0)
        assert acked == (("t0", 0),)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", transport.port
        )
        writer.write(line)
        await writer.drain()
        dropped = await asyncio.wait_for(reader.read(), timeout=5.0)
        writer.close()
        bad_lines = transport.bad_lines
        acked = await _ingest_and_await_ack(r_reader, r_writer, 1)
        r_writer.close()
        return dropped, bad_lines, acked
    finally:
        serve.cancel()
        await transport.stop()


class TestTcpSmoke:
    def test_subscribe_snapshot_and_ingest_over_sockets(self):
        server, got = asyncio.run(_run_smoke())
        assert got["subscribed"] is not None and not got["subscribed"].error
        assert got["deltas"] and got["deltas"][0].snapshot
        values = {t.values[0] for t in got["deltas"][0].adds}
        assert values == {"t0"}
        assert server.metrics.updates_applied >= 1

    def test_malformed_line_drops_connection_not_server(self):
        lines = [b"this is not json\n", *MALFORMED_FRAMES.values()]

        async def run():
            server = make_server()
            transport = TcpTransport(server)
            try:
                await transport.start()
            except OSError:
                pytest.skip("cannot bind a loopback socket")
            try:
                for line in lines:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", transport.port
                    )
                    writer.write(line)
                    await writer.drain()
                    await server.serve(epochs=2, interval=0.01)
                    # The offending connection is dropped ...
                    dropped = await asyncio.wait_for(reader.read(), timeout=5.0)
                    assert dropped == b""
                    writer.close()
                # ... and the loop still serves a well-formed one.
                _, writer = await asyncio.open_connection(
                    "127.0.0.1", transport.port
                )
                update = MotionUpdate(
                    "t0", 0, 0, Point(3.0, 0.0), Point(0.0, 0.0)
                )
                writer.write(
                    encode_line(INGEST_BATCH, IngestBatch("r0", 0, (update,)))
                )
                await writer.drain()
                await server.serve(epochs=3, interval=0.01)
                writer.close()
                return transport.bad_lines, server.metrics.updates_applied
            finally:
                await transport.stop()

        assert asyncio.run(run()) == (len(lines), 1)

    @pytest.mark.parametrize(
        "line", ESCAPING_FRAMES.values(), ids=ESCAPING_FRAMES.keys()
    )
    def test_escaping_frame_is_counted_and_drops_only_its_connection(
        self, line
    ):
        """A frame that once crashed the connection handler bumps
        ``bad_lines`` by one and closes its own connection, while a
        second, open connection keeps being served."""
        assert asyncio.run(_bad_frame_beside_a_reporter(line)) == (
            b"",
            1,
            (("t0", 1),),
        )

    def test_overlong_line_is_counted_and_drops_only_its_connection(self):
        # Past asyncio's 64 KiB stream limit ``readline`` raises rather
        # than returning a line.
        line = b'{"kind":"cq-heartbeat","client_id":"' + b"a" * 70_000
        assert asyncio.run(_bad_frame_beside_a_reporter(line + b'"}\n')) == (
            b"",
            1,
            (("t0", 1),),
        )

    def test_bad_subscribe_frames_leave_the_durable_table_alone(self):
        """A SUBSCRIBE the server cannot open a session for is refused
        where it is decoded: nothing reaches the registry, the loop runs
        on, and a later crash-restart reopens exactly the good sessions."""
        bad = [
            line
            for name, line in MALFORMED_FRAMES.items()
            if name.startswith("subscribe-")
        ]
        assert len(bad) == len(BAD_SUBSCRIBE_FIELDS)

        async def run():
            server = make_server()
            transport = TcpTransport(server)
            try:
                await transport.start()
            except OSError:
                pytest.skip("cannot bind a loopback socket")
            try:
                good = asyncio.create_task(
                    _subscribe_and_collect(transport.port)
                )
                await server.serve(epochs=5, interval=0.01)
                await asyncio.wait_for(good, timeout=10.0)
                registry = server.registry
                before = (
                    dict(registry.queries),
                    dict(registry.records),
                    dict(registry._by_spec),
                    dict(server.sessions),
                )
                assert [len(table) for table in before] == [1, 1, 1, 1]
                for line in bad:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", transport.port
                    )
                    writer.write(line)
                    await writer.drain()
                    await server.serve(epochs=2, interval=0.01)
                    dropped = await asyncio.wait_for(reader.read(), timeout=5.0)
                    assert dropped == b""
                    writer.close()
                assert transport.bad_lines == len(bad)
                assert before == (
                    registry.queries,
                    registry.records,
                    registry._by_spec,
                    server.sessions,
                )
                epochs = server.metrics.epochs
                await server.serve(epochs=1)
                assert server.metrics.epochs == epochs + 1
                server.crash()
                server.restart()
                assert not server.crashed
                assert list(server.sessions) == list(registry.records)
            finally:
                await transport.stop()

        asyncio.run(run())


# ---------------------------------------------------------------------------
# ``python -m repro.server``: the quickstart CI runs, and its exit code
# ---------------------------------------------------------------------------


def _run_quickstart(capsys):
    try:
        status = asyncio.run(quickstart.main(["--epochs", "30"]))
    except OSError:
        pytest.skip("cannot bind a loopback socket")
    out = capsys.readouterr().out
    return status, out, json.loads(out[out.index("\n{") :])


def test_quickstart_demo_applies_every_update(capsys):
    status, out, metrics = _run_quickstart(capsys)
    assert metrics["updates_rejected"] == 0
    assert metrics["updates_applied"] == metrics["updates_enqueued"] > 0
    assert "display -> ['tracker-" in out
    assert status == 0


def test_quickstart_demo_fails_on_a_rejected_update(capsys, monkeypatch):
    def stale(**fields):
        return MotionUpdate(**{**fields, "seq": 0})

    monkeypatch.setattr(quickstart, "MotionUpdate", stale)
    status, _out, metrics = _run_quickstart(capsys)
    assert metrics["updates_rejected"] > 0
    assert status != 0
