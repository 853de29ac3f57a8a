"""Transports binding the server to its reporters and subscribers.

Two implementations share one server:

* :class:`SimTransport` — rides the deterministic, fault-injectable
  :class:`~repro.distributed.network.SimNetwork`.  One fault schedule
  (drop/delay/duplicate/reorder/crash) covers update ingest and the
  serving path alike; the epoch loop pumps in-flight messages by
  ticking the shared simulation clock.
* :class:`TcpTransport` (:mod:`repro.server.tcp`) — real asyncio stream
  sockets speaking the newline-JSON codec of
  :mod:`repro.server.protocol`, used by ``python -m repro.server``.

Both deliver inbound messages to the server through the same dispatch
callback, so the epoch loop is transport-agnostic.
"""

from __future__ import annotations

from typing import Callable

from repro.distributed.network import Message, SimNetwork
from repro.errors import DistributedError

Dispatch = Callable[[str, str, object], None]  # (src, kind, payload)


class Transport:
    """What the epoch loop needs from a transport: outbound sends."""

    #: A crashed server's transport is down: sends fail, inbound drops.
    down = False

    def send(
        self, dst: str, kind: str, payload: object, size: int = 1
    ) -> bool:
        """Attempt delivery to endpoint ``dst``; best-effort boolean."""
        raise NotImplementedError

    def is_connected(self, node_id: str) -> bool:
        """Whether the endpoint is currently reachable (best effort)."""
        return True


class SimTransport(Transport):
    """The server's endpoint on a :class:`SimNetwork`.

    Inbound messages are handed to ``dispatch`` (the server's router)
    unless the server is crashed, in which case they are counted and
    dropped — a crashed process neither receives nor replies, and the
    senders' retry machinery is what recovers.
    """

    def __init__(
        self, network: SimNetwork, server_id: str, dispatch: Dispatch
    ) -> None:
        self.network = network
        self.server_id = server_id
        self._dispatch = dispatch
        #: Messages that arrived while the server was crashed.
        self.dropped_while_down = 0
        self.down = False
        network.register(server_id, self._on_message)

    def _on_message(self, message: Message) -> None:
        if self.down:
            self.dropped_while_down += 1
            return
        self._dispatch(message.src, message.kind, message.payload)

    def send(
        self, dst: str, kind: str, payload: object, size: int = 1
    ) -> bool:
        if self.down:
            return False
        try:
            return self.network.send(
                self.server_id, dst, kind, payload, size=size
            )
        except DistributedError:
            # Unknown destination: the endpoint never registered (or a
            # TCP client of another transport) — not a server fault.
            return False

    def is_connected(self, node_id: str) -> bool:
        try:
            return self.network.is_connected(node_id)
        except DistributedError:
            return False


class ProtocolNode:
    """A lightweight client endpoint on the simulated network.

    Unlike :class:`~repro.distributed.node.MobileNode` it hosts no
    moving object — just per-kind handlers.  Messages without a handler
    are counted and dropped (bounded memory: nothing queues unread).
    """

    def __init__(self, node_id: str, network: SimNetwork) -> None:
        self.node_id = node_id
        self.network = network
        self.unhandled = 0
        self._handlers: dict[str, Callable[[Message], None]] = {}
        network.register(node_id, self._on_message)

    def _on_message(self, message: Message) -> None:
        handler = self._handlers.get(message.kind)
        if handler is None:
            self.unhandled += 1
            return
        handler(message)

    def on_kind(
        self, kind: str, handler: Callable[[Message], None]
    ) -> None:
        """Register the handler for one message kind."""
        self._handlers[kind] = handler

    def send(
        self, dst: str, kind: str, payload: object, size: int = 1
    ) -> bool:
        """Send one message from this endpoint."""
        return self.network.send(self.node_id, dst, kind, payload, size=size)

    @property
    def connected(self) -> bool:
        """Whether this endpoint is currently reachable."""
        return self.network.is_connected(self.node_id)
