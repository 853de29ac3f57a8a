"""Differential soak harness: the one fault wall of the update pipeline.

One seeded world — trackers reporting motion through batching reporters,
display clients subscribed under all three §5.2 transmission policies,
and a probe :class:`~repro.core.queries.ContinuousQuery` attached
straight to the database — is driven twice through the *identical*
update schedule:

* the **faulty** run injects a :class:`~repro.distributed.FaultPlan`
  (drop / delay / duplicate / reorder, a tracker crash window), forces a
  client disconnection window, and crash-restarts the server itself
  mid-run; faults heal at ``run_epochs`` and the run drains until
  quiescent;
* the **clean** twin uses a zero-fault plan (same asynchronous delivery
  semantics) with no crashes or disconnections, driven to the same
  final tick.

Checked properties (the PR's acceptance criteria):

1. **Convergence** — after drain, every client's display is
   tuple-for-tuple identical to its clean twin's, and the clean
   unwindowed immediate client matches the server's own answer, both
   clipped to the common comparison window ``[final, final + K]``
   (clipping cancels the runs' differing refresh/registration ticks,
   which shift interval *bounds* but not answers).
2. **Bounded staleness** — at every faulty-run epoch, no client ever
   displays an *unflagged* tuple whose supporting objects are staler
   than its ``staleness_bound`` on the server (the conservative
   client-side aging rule makes flagging early, never late).
3. **The ingest half on its own** — the probe sees what the database
   sees, with no session, policy or client in between.  At every epoch
   of *both* runs its degraded display is exactly its fresh active
   tuples and none of those rests on an object staler than the bound;
   after drain the faulty probe's answer, clipped as above, equals the
   clean twin's.  A run with ``n_subscribers=0`` checks nothing else.

Positions and velocities are drawn on an integer grid so that a late
update extrapolated to its apply tick reconstructs the sender's
trajectory *exactly* (float products of small integers are exact), which
is what makes tuple-for-tuple convergence a fair assertion.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.database import MostDatabase
from repro.core.objects import ObjectClass
from repro.core.queries import ContinuousQuery
from repro.distributed.network import FaultPlan, LinkFaults, SimNetwork
from repro.distributed.node import MobileNode
from repro.errors import SchemaError
from repro.ftl import parse_query
from repro.geometry import Point
from repro.motion import linear_moving_point
from repro.server.client import BatchingReporter, SubscriberClient
from repro.server.epoch import CQServer
from repro.temporal import SimulationClock

QUERY = "RETRIEVE v FROM trackers v, beacons b WHERE DIST(v, b) <= {r}"

#: Width of the convergence comparison window past the final tick.
COMPARE_WINDOW = 10


@dataclass(frozen=True)
class SoakConfig:
    """One soak experiment: world size, fault mix, chaos timeline."""

    seed: int = 0
    n_trackers: int = 4
    n_subscribers: int = 3
    radius: float = 60.0
    horizon: int = 400
    run_epochs: int = 40
    max_drain: int = 120
    #: Consecutive quiescent epochs required before the drain ends
    #: (covers periodic-policy cadence and retransmission backoff caps).
    settle: int = 12
    drop: float = 0.25
    delay: tuple[int, int] = (0, 3)
    duplicate: float = 0.1
    reorder: float = 0.2
    #: Crash one tracker node for a seeded window.
    tracker_crash: bool = True
    #: Crash-restart the epoch loop itself at these epochs.
    server_crash_at: int | None = 14
    server_restart_at: int | None = 18
    #: Force-disconnect one subscriber over this closed window.
    client_disconnect: tuple[int, int] | None = (22, 27)
    staleness_bound: float = 6.0
    inbox_capacity: int = 256
    batch_limit: int = 128
    window: int = 64
    period: int = 3


#: Subscriber profiles cycled across ``n_subscribers``: (policy, period,
#: windowed?).  The first is the unwindowed immediate client the
#: truth-comparison uses.
_PROFILES = (
    ("immediate", 1, False),
    ("delayed", 1, True),
    ("periodic", None, True),
)


@dataclass
class ClientOutcome:
    """Per-client soak outcome."""

    client_id: str
    policy: str
    converged: bool
    display: frozenset[tuple[Any, ...]]
    deltas: int
    snapshots: int
    duplicates: int
    gaps: int
    resumes_sent: int


@dataclass
class SoakResult:
    """Outcome of one differential soak."""

    config: SoakConfig
    final_tick: int
    drained: bool
    clean_drained: bool
    #: Unflagged-but-stale display observations across the faulty run.
    staleness_violations: int
    #: Clean immediate client vs the server's own answer.
    truth_match: bool
    #: Epoch checks the probe failed (display != fresh tuples, or a
    #: fresh tuple on over-age support), per twin.
    probe_violations: int
    clean_probe_violations: int
    #: Faulty probe's drained answer equals the clean twin's.
    probe_match: bool
    #: Messages offered to the network, and ingest batches the
    #: reporters sent more than once, per twin.
    messages: int
    clean_messages: int
    retransmissions: int
    clean_retransmissions: int
    clients: list[ClientOutcome] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)
    clean_metrics: dict[str, Any] = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return all(c.converged for c in self.clients)

    @property
    def ok(self) -> bool:
        """Drained, converged, truth-matched, and never displayed
        unflagged data beyond the staleness bound — at the clients and
        at the probe."""
        return (
            self.drained
            and self.clean_drained
            and self.converged
            and self.truth_match
            and self.probe_match
            and self.staleness_violations == 0
            and self.probe_violations == 0
            and self.clean_probe_violations == 0
        )

    def summary(self) -> str:
        """One line for logs and assertion messages."""
        per_client = " ".join(
            f"{c.client_id}:{'ok' if c.converged else 'DIVERGED'}"
            for c in self.clients
        )
        return (
            f"seed={self.config.seed} ok={self.ok} drained={self.drained}/"
            f"{self.clean_drained} truth={self.truth_match} "
            f"probe={self.probe_match} "
            f"violations={self.staleness_violations}+"
            f"{self.probe_violations}/{self.clean_probe_violations} "
            f"[{per_client}]"
        )


def fault_plan(config: SoakConfig) -> FaultPlan:
    """The seeded fault plan of the faulty run (heals at ``run_epochs``)."""
    rng = random.Random(config.seed * 7919 + 11)
    crashes: dict[str, list[tuple[float, float]]] = {}
    if config.tracker_crash and config.n_trackers > 0:
        victim = rng.randrange(config.n_trackers)
        start = rng.randint(2, max(2, config.run_epochs // 3))
        end = start + rng.randint(2, max(2, config.run_epochs // 4))
        crashes[f"tracker-{victim}"] = [(start, min(end, config.run_epochs - 1))]
    return FaultPlan(
        seed=config.seed,
        default=LinkFaults(
            drop=config.drop,
            duplicate=config.duplicate,
            delay=config.delay,
            reorder=config.reorder,
        ),
        crashes=crashes,
        heal_at=config.run_epochs,
    )


def clean_plan(config: SoakConfig) -> FaultPlan:
    """The zero-fault twin: asynchronous delivery, nothing injected."""
    return FaultPlan(seed=config.seed)


def update_schedule(config: SoakConfig) -> list[tuple[int, int, Point]]:
    """Seeded ``(epoch, tracker index, velocity)`` motion changes on the
    exactness-preserving integer grid."""
    rng = random.Random(config.seed * 104729 + 12)
    out: list[tuple[int, int, Point]] = []
    for tick in range(1, config.run_epochs):
        for idx in range(config.n_trackers):
            if rng.random() < 0.25:
                out.append(
                    (
                        tick,
                        idx,
                        Point(
                            float(rng.randint(-3, 3)),
                            float(rng.randint(-3, 3)),
                        ),
                    )
                )
    return out


@dataclass
class _World:
    clock: SimulationClock
    db: MostDatabase
    network: SimNetwork
    server: CQServer
    reporters: list[BatchingReporter]
    clients: list[SubscriberClient]
    probe: ContinuousQuery
    violations: int = 0
    probe_violations: int = 0


def _build(config: SoakConfig, plan: FaultPlan) -> _World:
    rng = random.Random(config.seed * 15485863 + 13)
    clock = SimulationClock()
    db = MostDatabase(clock)
    network = SimNetwork(clock, faults=plan)
    db.create_class(ObjectClass("trackers", spatial_dimensions=2))
    db.create_class(ObjectClass("beacons", spatial_dimensions=2))
    # The beacon is server-local (untracked): it never goes stale.
    db.add_moving_object("beacons", "beacon", Point(0.0, 0.0))
    server = CQServer(
        db,
        network,
        inbox_capacity=config.inbox_capacity,
        batch_limit=config.batch_limit,
        seed=config.seed,
    )
    reporters: list[BatchingReporter] = []
    for i in range(config.n_trackers):
        object_id = f"tracker-{i}"
        position = Point(
            float(rng.randint(-50, 50)), float(rng.randint(-50, 50))
        )
        velocity = Point(
            float(rng.randint(-3, 3)), float(rng.randint(-3, 3))
        )
        db.add_moving_object("trackers", object_id, position, velocity)
        db.track(object_id)
        node = MobileNode(
            object_id, network, linear_moving_point(position, velocity)
        )
        reporters.append(BatchingReporter(node, object_id=object_id))
    clients: list[SubscriberClient] = []
    text = QUERY.format(r=config.radius)
    for i in range(config.n_subscribers):
        policy, period, windowed = _PROFILES[i % len(_PROFILES)]
        clients.append(
            SubscriberClient(
                network,
                f"sub-{i}",
                text,
                horizon=config.horizon,
                policy=policy,
                period=period if period is not None else config.period,
                window=config.window if windowed else None,
                staleness_bound=config.staleness_bound,
            )
        )
    probe = ContinuousQuery(
        db,
        parse_query(text),
        horizon=config.horizon,
        method="incremental",
        staleness_bound=config.staleness_bound,
    )
    return _World(clock, db, network, server, reporters, clients, probe)


def _staleness(db: MostDatabase, object_id: object) -> float:
    try:
        return db.staleness(object_id)
    except SchemaError:
        return float("inf")


def _check_epoch(world: _World, config: SoakConfig) -> None:
    """No client displays an unflagged tuple staler than its bound."""
    now = world.clock.now
    for client in world.clients:
        bound = client.staleness_bound
        if bound is None:
            continue
        for key, (tup, _) in client.display.items():
            if not tup.active_at(now) or client.flagged(key, now):
                continue
            if any(_staleness(world.db, v) > bound for v in tup.support):
                world.violations += 1


def _check_probe(world: _World, config: SoakConfig) -> None:
    """The probe's degraded display is exactly its fresh tuples —
    nothing suppressed that is fresh, nothing emitted that is stale."""
    now = world.clock.now
    shown = world.probe.current()
    fresh: set[tuple[Any, ...]] = set()
    for stamped in world.probe.stamped_tuples():
        if not stamped.active_at(now) or stamped.degraded:
            continue
        fresh.add(stamped.values)
        if any(
            _staleness(world.db, v) > config.staleness_bound
            for v in stamped.support
        ):
            world.probe_violations += 1
    if shown != fresh:
        world.probe_violations += 1


def _meaningful_in_flight(world: _World) -> int:
    """In-flight messages that still carry recovery state.

    Heartbeats (and the window refreshes they carry) are perpetual
    background traffic — a live client never stops sending them, so
    quiescence must not wait for an empty wire.
    """
    from repro.server.protocol import HEARTBEAT

    return sum(
        1
        for entry in world.network._queue
        if entry.message.kind != HEARTBEAT
    )


def _quiescent(world: _World) -> bool:
    return (
        _meaningful_in_flight(world) == 0
        and world.server.drained()
        and all(r.drained() for r in world.reporters)
        and all(c.subscribed for c in world.clients)
    )


async def _drive(
    world: _World,
    config: SoakConfig,
    schedule: list[tuple[int, int, Point]],
    chaos: bool,
    until: int | None,
) -> tuple[int, bool]:
    """Drive the world one epoch at a time; ``(final tick, drained)``.

    With ``until=None`` the run lasts ``run_epochs`` plus drain (capped
    at ``max_drain``), requiring ``settle`` consecutive quiescent epochs
    so periodic policies and capped backoffs get their turn; with a tick
    given, the clean twin mirrors the faulty run's exact length.
    """
    by_tick: dict[int, list[tuple[int, Point]]] = {}
    for tick, idx, velocity in schedule:
        by_tick.setdefault(tick, []).append((idx, velocity))
    end = until if until is not None else config.run_epochs + config.max_drain
    quiet = 0
    while world.clock.now < end:
        now = world.clock.now
        for idx, velocity in by_tick.get(now, ()):
            world.reporters[idx].report(velocity)
        if chaos:
            if config.server_crash_at is not None and now == config.server_crash_at:
                world.server.crash()
            if (
                config.server_restart_at is not None
                and now == config.server_restart_at
            ):
                world.server.restart()
        await world.server.run_epoch()
        _check_probe(world, config)
        if chaos:
            _check_epoch(world, config)
        if until is None and world.clock.now >= config.run_epochs:
            quiet = quiet + 1 if _quiescent(world) else 0
            if quiet >= config.settle:
                break
    return world.clock.now, _quiescent(world)


def _clip(
    tuples: Iterable[tuple[Any, float, float]], lo: float, hi: float
) -> frozenset[tuple[Any, float, float]]:
    """``(values, begin, end)`` triples clipped to the comparison window."""
    out: set[tuple[Any, float, float]] = set()
    for values, begin, end in tuples:
        b, e = max(begin, lo), min(end, hi)
        if b <= e:
            out.add((values, b, e))
    return frozenset(out)


def _client_tuples(client: SubscriberClient) -> list[tuple[Any, float, float]]:
    return [
        (tup.values, tup.begin, tup.end) for tup, _ in client.display.values()
    ]


def _query_tuples(cq: ContinuousQuery) -> list[tuple[Any, float, float]]:
    """A query's converged answer (degraded tuples included — after
    drain nothing is stale, so the flag distinction is moot)."""
    return [(s.values, s.begin, s.end) for s in cq.stamped_tuples()]


def _server_tuples(world: _World) -> list[tuple[Any, float, float]]:
    """The server's own converged answer."""
    out: list[tuple[Any, float, float]] = []
    for rq in world.server.registry.queries.values():
        out.extend(_query_tuples(rq.cq))
    return out


async def _run(config: SoakConfig) -> SoakResult:
    schedule = update_schedule(config)

    faulty = _build(config, fault_plan(config))
    if config.client_disconnect is not None and faulty.clients:
        faulty.network.set_disconnections(
            faulty.clients[0].client_id, [config.client_disconnect]
        )
    final_tick, drained = await _drive(
        faulty, config, schedule, chaos=True, until=None
    )

    clean = _build(config, clean_plan(config))
    _, clean_drained = await _drive(
        clean, config, schedule, chaos=False, until=final_tick
    )

    lo, hi = float(final_tick), float(final_tick + COMPARE_WINDOW)
    clients: list[ClientOutcome] = []
    for fc, cc in zip(faulty.clients, clean.clients):
        f_disp = _clip(_client_tuples(fc), lo, hi)
        c_disp = _clip(_client_tuples(cc), lo, hi)
        clients.append(
            ClientOutcome(
                client_id=fc.client_id,
                policy=fc.policy,
                converged=f_disp == c_disp,
                display=f_disp,
                deltas=fc.deltas_received,
                snapshots=fc.snapshots_received,
                duplicates=fc.duplicates,
                gaps=fc.gaps,
                resumes_sent=fc.resumes_sent,
            )
        )
    truth = _clip(_server_tuples(clean), lo, hi)
    # Without subscribers the server registers no query and there is
    # nothing to match; the probe comparison is what keeps such a run
    # from passing vacuously.
    truth_match = not clean.clients or (
        _clip(_client_tuples(clean.clients[0]), lo, hi) == truth
    )
    return SoakResult(
        config=config,
        final_tick=final_tick,
        drained=drained,
        clean_drained=clean_drained,
        staleness_violations=faulty.violations,
        truth_match=truth_match,
        probe_violations=faulty.probe_violations,
        clean_probe_violations=clean.probe_violations,
        probe_match=(
            _clip(_query_tuples(faulty.probe), lo, hi)
            == _clip(_query_tuples(clean.probe), lo, hi)
        ),
        messages=faulty.network.stats.attempted,
        clean_messages=clean.network.stats.attempted,
        retransmissions=sum(r.retransmissions for r in faulty.reporters),
        clean_retransmissions=sum(r.retransmissions for r in clean.reporters),
        clients=clients,
        metrics=faulty.server.metrics.to_dict(),
        clean_metrics=clean.server.metrics.to_dict(),
    )


def run_soak(config: SoakConfig | None = None) -> SoakResult:
    """One differential soak experiment (synchronous entry point)."""
    return asyncio.run(_run(config if config is not None else SoakConfig()))


def soak_sweep(seeds: Iterable[int], **overrides: Any) -> list[SoakResult]:
    """One soak per seed, varying the fault mix with the seed."""
    results: list[SoakResult] = []
    for seed in seeds:
        rng = random.Random(seed * 31337 + 14)
        config = SoakConfig(
            seed=seed,
            drop=rng.choice([0.1, 0.2, 0.3, 0.4]),
            delay=(0, rng.randint(0, 4)),
            duplicate=rng.choice([0.0, 0.1, 0.2]),
            reorder=rng.choice([0.0, 0.2, 0.4]),
            tracker_crash=rng.random() < 0.6,
            **overrides,  # type: ignore[arg-type]
        )
        results.append(run_soak(config))
    return results
