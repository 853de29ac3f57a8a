"""Real-socket transport: the epoch loop over asyncio streams.

Endpoints connect over TCP and speak the newline-delimited JSON codec of
:mod:`repro.server.protocol`.  The transport learns each endpoint's id
from its first message (``client_id`` / ``reporter_id``) and routes
the server's outbound sends back down the matching stream; a vanished
stream makes ``send`` return ``False``, which to the epoch loop
looks exactly like a lossy SimNetwork link — all recovery (retries,
resumes, snapshots) is protocol-level and transport-agnostic.

``python -m repro.server`` (:mod:`repro.server.__main__`) runs a
self-contained demo over this transport.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

from repro.errors import DistributedError
from repro.server.protocol import (
    DELTA_ACK,
    HEARTBEAT,
    INGEST_BATCH,
    RESUME,
    SUBSCRIBE,
    IngestBatch,
    decode_line,
    encode_line,
)
from repro.server.transport import Transport

if TYPE_CHECKING:
    from repro.server.epoch import CQServer


def source_of(kind: str, payload: object) -> str | None:
    """The sender's endpoint id, as carried inside the message itself."""
    if kind == INGEST_BATCH and isinstance(payload, IngestBatch):
        return payload.reporter_id
    if kind in (SUBSCRIBE, DELTA_ACK, RESUME, HEARTBEAT):
        client_id = getattr(payload, "client_id", None)
        return client_id if isinstance(client_id, str) else None
    return None


class TcpTransport(Transport):
    """Newline-JSON stream endpoints for a :class:`CQServer`.

    Attach with ``server.transport = TcpTransport(server)`` then
    ``await transport.start()``; run the epoch loop with
    ``await server.serve(interval=...)`` concurrently.
    """

    def __init__(
        self, server: "CQServer", host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.server = server
        self.host = host
        self.port = port
        self._writers: dict[str, asyncio.StreamWriter] = {}
        self._tcp_server: asyncio.Server | None = None
        #: Lines that failed to decode (malformed input never crashes
        #: the loop; the offending connection is dropped).
        self.bad_lines = 0
        server.transport = self

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._tcp_server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._tcp_server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the listener and every live stream."""
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
        for writer in list(self._writers.values()):
            writer.close()
        self._writers.clear()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        ids: set[str] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    ConnectionError,
                    asyncio.IncompleteReadError,
                    asyncio.CancelledError,
                ):
                    break
                except ValueError:
                    # A line longer than the stream limit is a bad frame
                    # like any other.
                    self.bad_lines += 1
                    break
                if not line:
                    break
                try:
                    kind, payload = decode_line(line)
                except DistributedError:
                    self.bad_lines += 1
                    break
                src = source_of(kind, payload)
                if src is not None:
                    ids.add(src)
                    self._writers[src] = writer
                if not self.down:
                    self.server._dispatch(src or "?", kind, payload)
        finally:
            for src in ids:
                if self._writers.get(src) is writer:
                    del self._writers[src]
            writer.close()

    def send(
        self, dst: str, kind: str, payload: object, size: int = 1
    ) -> bool:
        if self.down:
            return False
        writer = self._writers.get(dst)
        if writer is None or writer.is_closing():
            return False
        try:
            writer.write(encode_line(kind, payload))
        except (ConnectionError, RuntimeError):
            return False
        return True

    def is_connected(self, node_id: str) -> bool:
        writer = self._writers.get(node_id)
        return writer is not None and not writer.is_closing()
