"""A deterministic message-passing simulation with cost accounting.

Without a fault plan, messages are delivered synchronously at the current
clock tick; a message to (or from) a node inside one of its
*disconnection windows* is lost — the paper's motivating failure ("due to
disconnection, an object cannot continuously update its position",
section 1; the propagation probability of section 5.2).

With a :class:`FaultPlan` the network becomes asynchronous: every
``send`` enqueues the message with a sampled in-flight delay, and a
tick-driven pump delivers due messages in ``(delivery time, reorder
rank, send order)`` order.  The plan is seeded and fully deterministic —
the same plan driven through the same simulation produces the same
message trace — which is what lets the soak harness
(:mod:`repro.server.soak`) run differential experiments.

Disconnection-window boundary semantics (pinned): windows are **closed**
intervals ``[start, end]`` of clock ticks.  A node is offline at *both*
endpoints — a message sent (or due for delivery) exactly at ``start`` or
exactly at ``end`` is lost; the first reachable tick is ``end + 1``.
Adjacent windows ``[a, b]`` and ``[b, c]`` therefore behave as the single
window ``[a, c]``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import DistributedError
from repro.temporal import DENSE, IntervalSet, SimulationClock


@dataclass(frozen=True)
class Message:
    """One delivered message.

    ``time`` is the delivery tick; under a fault plan it may exceed
    ``sent_at`` (the tick :meth:`SimNetwork.send` was called) by the
    sampled in-flight delay.
    """

    time: int
    src: str
    dst: str
    kind: str
    payload: object
    size: int
    sent_at: int | None = None


@dataclass
class NetworkStats:
    """Aggregate message accounting (experiments E2, E7, E8 read this)."""

    attempted: int = 0
    delivered: int = 0
    dropped: int = 0
    bytes_sent: int = 0
    #: Messages delivered more than once by a duplication fault.
    duplicated: int = 0
    #: Messages delivered out of send order (later send, earlier delivery).
    reordered: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.attempted = 0
        self.delivered = 0
        self.dropped = 0
        self.bytes_sent = 0
        self.duplicated = 0
        self.reordered = 0


@dataclass(frozen=True)
class LinkFaults:
    """Fault rates for one directed link (or the whole network).

    Attributes:
        drop: probability a transmitted copy is lost in flight.
        duplicate: probability the message spawns a second in-flight copy.
        delay: inclusive ``(lo, hi)`` range of the uniform integer
            in-flight delay, in ticks.  ``(0, 0)`` means "next pump".
        reorder: probability a copy is assigned a random same-tick
            delivery rank instead of FIFO order.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    delay: tuple[int, int] = (0, 0)
    reorder: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "reorder"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise DistributedError(f"{name} must be a probability, got {p}")
        lo, hi = self.delay
        if lo < 0 or hi < lo:
            raise DistributedError(f"bad delay range {self.delay}")


#: The no-fault link spec (used after the plan's heal time).
CLEAN_LINK = LinkFaults()


class FaultPlan:
    """A deterministic, seedable schedule of network faults.

    Args:
        seed: RNG seed; the same plan driven through the same simulation
            yields the same fault decisions.
        default: fault rates applied to every link without an override.
        links: per-link overrides, keyed by ``(src, dst)``.
        crashes: node id → list of ``[start, end]`` crash windows (closed,
            like disconnection windows).  While crashed a node can neither
            send nor receive; restart is the first tick after the window.
        heal_at: tick after which every link behaves as :data:`CLEAN_LINK`
            (crash schedules are explicit and unaffected).  ``None`` means
            the plan never heals.
    """

    def __init__(
        self,
        seed: int = 0,
        default: LinkFaults | None = None,
        links: dict[tuple[str, str], LinkFaults] | None = None,
        crashes: dict[str, list[tuple[float, float]]] | None = None,
        heal_at: int | None = None,
    ) -> None:
        self._rng = random.Random(seed)
        self.seed = seed
        self.default = default if default is not None else CLEAN_LINK
        self.links = dict(links or {})
        self.heal_at = heal_at
        self._crashes: dict[str, IntervalSet] = {
            node: IntervalSet.from_pairs(windows)
            for node, windows in (crashes or {}).items()
        }

    # ------------------------------------------------------------------
    def link(self, src: str, dst: str, now: int) -> LinkFaults:
        """The fault spec governing one transmission at tick ``now``."""
        if self.heal_at is not None and now >= self.heal_at:
            return CLEAN_LINK
        return self.links.get((src, dst), self.default)

    def crashed(self, node_id: str, at: float) -> bool:
        """Whether the node is inside one of its crash windows."""
        windows = self._crashes.get(node_id)
        return windows is not None and windows.contains(at)

    def sample_copies(
        self, src: str, dst: str, now: int
    ) -> list[tuple[int, float]]:
        """Fault decisions for one send: ``(delay, rank)`` per surviving
        in-flight copy (empty when every copy is dropped)."""
        spec = self.link(src, dst, now)
        copies = 1
        if spec.duplicate and self._rng.random() < spec.duplicate:
            copies = 2
        out: list[tuple[int, float]] = []
        for _ in range(copies):
            if spec.drop and self._rng.random() < spec.drop:
                continue
            delay = (
                self._rng.randint(*spec.delay)
                if spec.delay != (0, 0)
                else 0
            )
            rank = 0.0
            if spec.reorder and self._rng.random() < spec.reorder:
                rank = self._rng.uniform(-1.0, 1.0)
            out.append((delay, rank))
        return out


@dataclass(order=True)
class _QueueEntry:
    deliver_at: int
    rank: float
    seq: int
    message: Message = field(compare=False)


Handler = Callable[[Message], None]


class SimNetwork:
    """Nodes, handlers, disconnection windows, faults, per-message stats."""

    def __init__(
        self,
        clock: SimulationClock | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.clock = clock if clock is not None else SimulationClock()
        self.faults = faults
        self.stats = NetworkStats()
        self._handlers: dict[str, Handler] = {}
        self._offline: dict[str, IntervalSet] = {}
        self._queue: list[_QueueEntry] = []
        self._seq = 0
        self._last_delivered_seq = -1
        if faults is not None:
            self.clock.on_tick(self._pump)

    # ------------------------------------------------------------------
    def register(self, node_id: str, handler: Handler) -> None:
        """Attach a node; its handler receives delivered messages."""
        if node_id in self._handlers:
            raise DistributedError(f"node {node_id!r} already registered")
        self._handlers[node_id] = handler
        self._offline.setdefault(node_id, IntervalSet.empty(DENSE))

    def set_disconnections(
        self, node_id: str, windows: list[tuple[float, float]]
    ) -> None:
        """Schedule the node's offline windows.

        Windows are closed intervals: the node is unreachable at both
        endpoints and reachable again from ``end + 1`` (see the module
        docstring for the pinned boundary semantics).
        """
        if node_id not in self._handlers:
            raise DistributedError(f"unknown node {node_id!r}")
        self._offline[node_id] = IntervalSet.from_pairs(windows)

    def is_connected(self, node_id: str, at: float | None = None) -> bool:
        """Whether the node is reachable at ``at`` (default: now).

        ``False`` inside any disconnection window — including exactly at a
        window's ``start`` or ``end`` tick — and inside any crash window
        of the fault plan.
        """
        t = self.clock.now if at is None else at
        if self.faults is not None and self.faults.crashed(node_id, t):
            return False
        return not self._offline.get(
            node_id, IntervalSet.empty(DENSE)
        ).contains(t)

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Messages enqueued but not yet delivered (fault plans only)."""
        return len(self._queue)

    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: object,
        size: int = 1,
    ) -> bool:
        """Attempt delivery.

        Without a fault plan the message is handled synchronously and the
        return value says whether it got through.  With a fault plan the
        surviving copies are *enqueued* (delivery happens when the clock
        ticks past their delay, or on :meth:`pump`) and the return value
        says whether at least one copy made it onto the wire.
        """
        if dst not in self._handlers:
            raise DistributedError(f"unknown destination {dst!r}")
        self.stats.attempted += 1
        now = self.clock.now
        if self.faults is None:
            if not self.is_connected(src, now) or not self.is_connected(
                dst, now
            ):
                self.stats.dropped += 1
                return False
            self._deliver(Message(now, src, dst, kind, payload, size, now))
            return True
        # Faulty path: the source must be up to transmit at all; the
        # destination's reachability is checked at delivery time.
        if not self.is_connected(src, now):
            self.stats.dropped += 1
            return False
        copies = self.faults.sample_copies(src, dst, now)
        if not copies:
            self.stats.dropped += 1
            return False
        if len(copies) > 1:
            self.stats.duplicated += 1
        for delay, rank in copies:
            self._seq += 1
            heapq.heappush(
                self._queue,
                _QueueEntry(
                    deliver_at=now + delay,
                    rank=rank,
                    seq=self._seq,
                    message=Message(
                        now + delay, src, dst, kind, payload, size, now
                    ),
                ),
            )
        return True

    def pump(self) -> int:
        """Deliver every queued message due at or before the current tick
        (called automatically on every clock tick under a fault plan).
        Returns the number of messages handed to handlers."""
        return self._pump(self.clock.now)

    def _pump(self, now: int) -> int:
        delivered = 0
        while self._queue and self._queue[0].deliver_at <= now:
            entry = heapq.heappop(self._queue)
            message = entry.message
            if not self.is_connected(message.dst, now):
                self.stats.dropped += 1
                continue
            if entry.seq < self._last_delivered_seq:
                self.stats.reordered += 1
            self._last_delivered_seq = max(self._last_delivered_seq, entry.seq)
            # Stamp the actual delivery tick (a manual pump can run after
            # the nominal delivery time).
            if message.time != now:
                message = Message(
                    now,
                    message.src,
                    message.dst,
                    message.kind,
                    message.payload,
                    message.size,
                    message.sent_at,
                )
            self._deliver(message)
            delivered += 1
        return delivered

    def _deliver(self, message: Message) -> None:
        self.stats.delivered += 1
        self.stats.bytes_sent += message.size
        self._handlers[message.dst](message)

    def broadcast(
        self, src: str, kind: str, payload: object, size: int = 1
    ) -> int:
        """Send to every other node; returns the number delivered (or,
        under a fault plan, accepted onto the wire)."""
        delivered = 0
        for node_id in self._handlers:
            if node_id == src:
                continue
            if self.send(src, node_id, kind, payload, size):
                delivered += 1
        return delivered
