"""The workload table and the seeded input generators of the e2e benchmark.

Everything a workload is made of lives here: the constants (one table,
:data:`WORKLOADS`, mirrored by name and ``why`` into ``BENCHMARK.json``),
the common world (classes ``cars`` / ``depots``, regions ``P`` / ``Q``,
the ``QMIX`` query pool) and the generators that turn ``--seed`` into a
world and an update stream.  The program under test only ever sees the
generated inputs, never the seed.

Velocities are dyadic and positions integral, so a heartbeat that
re-announces an unchanged motion law re-anchors float-exactly: the
server's validity gates (DESIGN.md §11) can prove it changes nothing.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace

from repro.core import MostDatabase, ObjectClass
from repro.distributed.updates import MotionUpdate
from repro.geometry import Point
from repro.spatial.polygon import Polygon
from repro.temporal import SimulationClock

#: Wall seconds of :func:`harness.calibrate` on the reference host; the
#: unit every calibration-normalised time is expressed in.
CAL_REF_S = 0.055

#: Times each run builds its world from scratch; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: The timed section is cut into this many equal-work segments, each
#: preceded by one calibration loop.
SEGMENTS = 10
#: ... but never fewer epochs than this in a segment (short runs get
#: fewer segments, not noisier ones).
MIN_SEGMENT_EPOCHS = 10

#: Expiration slack, in ticks, left after the last timed epoch so the
#: drain and the oracle still see a live query.
HORIZON_SLACK = 32

#: Epochs with real update batches run at the end of every server
#: set-up, before anything is timed (caches fill, lazy indexes build).
WARMUP_EPOCHS = 8

#: ``tcp_openloop``: epoch period of the child server, the one fixed
#: Poisson arrival rate of motion updates (sized once so the server's
#: epoch loop is busy at most 0.4 of the wall on the reference host —
#: never adaptive), the number of canary cars and each canary's flip
#: spacing in ticks (never two flips of one canary inside one epoch).
TICK_PERIOD_S = 0.050
TCP_UPDATE_RATE_PER_S = 120.0
CANARIES = 16
CANARY_GAP_TICKS = (4.0, 7.0)
#: Open-loop warm-up inside set-up, and how long the generator waits
#: after the last due time for outstanding acks and canary deltas.
TCP_WARMUP_S = 0.5
TCP_GRACE_S = 1.0

#: Cars start on the integer grid of ``[-extent, extent]^2`` and are
#: steered back inward once outside it, so the density over ``P`` and
#: ``Q`` stays stationary however long a run lasts.  :data:`EXTENT` is
#: the default; ``fanout_shared`` packs its fleet into a quarter of the
#: area (see there).
EXTENT = 200
SPEEDS = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)

REGIONS = {
    "P": (-40.0, -40.0, 40.0, 40.0),
    "Q": (20.0, 20.0, 120.0, 120.0),
}

QMIX = (
    "RETRIEVE o FROM cars o WHERE EVENTUALLY WITHIN 8 INSIDE(o, P)",
    "RETRIEVE v FROM cars v, depots d WHERE DIST(v, d) <= 40",
    "RETRIEVE o FROM cars o WHERE INSIDE(o, P) UNTIL INSIDE(o, Q)",
    "RETRIEVE o FROM cars o WHERE INSIDE(o, P) AND o.x_position <= 10",
    "RETRIEVE o FROM cars o WHERE EVENTUALLY WITHIN 16 INSIDE(o, Q)",
    "RETRIEVE v FROM cars v, depots d WHERE DIST(v, d) <= 60",
)

#: ``tcp_openloop`` subscribes 8 distinct queries; subscriber 0 watches
#: the canaries through the first one.
CANARY_IDS = tuple(f"canary-{k}" for k in range(CANARIES))
CANARY_INSIDE = (0.0, 0.0)
CANARY_OUTSIDE = (1000.0, 1000.0)
TCP_QUERIES = (
    "RETRIEVE o FROM cars o WHERE INSIDE(o, P)",
    *QMIX,
    "RETRIEVE v FROM cars v, depots d WHERE DIST(v, d) <= 80",
)


@dataclass(frozen=True)
class Workload:
    """One row of the workload table.

    ``kind`` picks the runner (``cold`` / ``sim`` / ``tcp``);
    ``work_per_s`` sizes the fixed amount of timed work from
    ``--seconds`` (evaluation passes for ``cold``, epochs for ``sim``)
    so the timed section lasts about that long on the reference host
    while every count stays a function of ``(seed, seconds)`` alone.
    """

    name: str
    why: str
    kind: str
    n_cars: int
    n_depots: int
    queries: tuple[str, ...]
    work_per_s: float = 0.0
    #: ``cold``: worker count of ``FtlQuery.evaluate(parallel=...)``.
    parallel: int | None = None
    #: ``cold``: FTL evaluation horizon in ticks.
    horizon: int = 32
    #: Half-width of the square the fleet lives in.
    extent: int = EXTENT
    #: ``sim``: clients per distinct query.
    subscribers_per_query: int = 1
    #: ``sim``: share of the fleet given a new velocity each epoch.
    change_share: float = 0.0
    #: ``sim``: share of the fleet re-announcing its unchanged motion.
    heartbeat_share: float = 0.0
    #: ``sim``: one heartbeat becomes a real change every this many
    #: epochs (0 = never).
    real_change_every: int = 0

    def units(self, seconds: float) -> int:
        """Timed work of a run: passes (``cold``, at least 2), epochs
        (``sim``, a whole number per segment) or seconds (``tcp``)."""
        if self.kind == "cold":
            return max(2, round(self.work_per_s * seconds))
        if self.kind == "sim":
            return SEGMENTS * max(1, round(self.work_per_s * seconds / SEGMENTS))
        return max(1, round(seconds))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cold_eval",
            why="No server: query text to rows for 4 queries over 1000 cars, every "
            "pass on a fresh database (no cache reuse); index build and probes, batch "
            "kinetic solving and joins do all the work.",
            kind="cold",
            n_cars=1000,
            n_depots=4,
            queries=QMIX[:4],
            work_per_s=1.0,
        ),
        Workload(
            name="cold_sharded",
            why="The same four evaluations with parallel=2 on a started pool: adds "
            "snapshot ship, shard run and merge; cold_eval bypasses all of it and "
            "must not move when sharding changes.",
            kind="cold",
            n_cars=1000,
            n_depots=4,
            queries=QMIX[:4],
            work_per_s=1.5,
            parallel=2,
        ),
        Workload(
            name="steady_patch",
            why="CQServer over SimNetwork, 500 cars, 6 distinct incremental "
            "queries, 5% real velocity changes per epoch, cache fits: incremental "
            "patching and answer capture dominate, fan-out is 6 sessions.",
            kind="sim",
            n_cars=500,
            n_depots=2,
            queries=QMIX,
            work_per_s=30.0,
            change_share=0.05,
        ),
        Workload(
            name="heartbeat_fleet",
            why="Same world and queries, 30% of the fleet re-announces unchanged "
            "motion each epoch, one real change per 10 epochs: ingest and the "
            "affects/validity gates dominate, refresh is skipped.",
            kind="sim",
            n_cars=500,
            n_depots=2,
            queries=QMIX,
            work_per_s=50.0,
            heartbeat_share=0.30,
            real_change_every=10,
        ),
        Workload(
            name="fanout_shared",
            why="256 cars at 4x density, 4 distinct queries x 32 subscribers (128 "
            "sessions), 4% real changes per epoch: 4 refreshes but 128 session steps "
            "per epoch, so diffing, pacing, delivery and liveness dominate.",
            kind="sim",
            n_cars=256,
            n_depots=2,
            queries=QMIX[:4],
            work_per_s=26.0,
            subscribers_per_query=32,
            change_share=0.04,
            # Fan-out work is proportional to answer size.  At the default
            # extent an answer holds ~15 of the 256 cars and its size, hence
            # the epoch time, varied by +-10 % from seed to seed; four
            # times the density halves that for twice the epoch time.
            extent=100,
        ),
        Workload(
            name="tcp_openloop",
            why="Open loop: child server on TcpTransport at a 50 ms epoch period, "
            "Poisson updates at one fixed rate over two sockets, canary-timed "
            "update-to-delta latency; the only workload paying codec and sockets.",
            kind="tcp",
            n_cars=128,
            n_depots=2,
            queries=TCP_QUERIES,
        ),
    )
}


#: ``--smoke``: every workload at toy size (the oracle, the metric
#: names and the trace rules are what a smoke run checks, not speed).
SMOKE_CARS = 48
SMOKE_SECONDS = 1.0


def smoke(spec: Workload) -> Workload:
    """``spec`` shrunk to a toy fleet and at most 4 clients per query."""
    return replace(
        spec,
        n_cars=SMOKE_CARS,
        subscribers_per_query=min(spec.subscribers_per_query, 4),
    )


# ---------------------------------------------------------------------------
# The common world
# ---------------------------------------------------------------------------


@dataclass
class Car:
    """Generator-side motion state of one car: position ``(x, y)`` at
    tick ``t0`` moving with ``(vx, vy)``; ``seq`` is the last sequence
    number sent for it."""

    x: float
    y: float
    vx: float
    vy: float
    t0: int = 0
    seq: int = -1

    def at(self, t: int) -> tuple[float, float]:
        """Position at tick ``t`` (float-exact: dyadic speeds)."""
        dt = t - self.t0
        return self.x + self.vx * dt, self.y + self.vy * dt


@dataclass
class World:
    """The seeded initial state, as plain data (the ``tcp_openloop``
    parent needs it without building a database)."""

    cars: dict[str, Car]
    depots: list[tuple[float, float]]


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"e2e/{seed}/{stream}")


def make_world(spec: Workload, seed: int, n_cars: int | None = None) -> World:
    """The initial fleet and depots for ``seed``."""
    rng = _rng(seed, "world")
    n = spec.n_cars if n_cars is None else n_cars
    cars = {
        f"car-{i}": Car(
            float(rng.randint(-spec.extent, spec.extent)),
            float(rng.randint(-spec.extent, spec.extent)),
            rng.choice(SPEEDS),
            rng.choice(SPEEDS),
        )
        for i in range(n)
    }
    half = spec.extent // 2
    depots = [
        (float(rng.randint(-half, half)), float(rng.randint(-half, half)))
        for _ in range(spec.n_depots)
    ]
    return World(cars, depots)


def world_digest(world: World) -> str:
    """A hash of a generated world (seed-sensitivity check)."""
    state = [(i, c.x, c.y, c.vx, c.vy) for i, c in world.cars.items()]
    return hashlib.sha256(repr((state, world.depots)).encode()).hexdigest()


def build_database(
    world: World, clock: SimulationClock | None = None, canary: bool = False
) -> MostDatabase:
    """A MOST database holding ``world`` (cars tracked, depots local)."""
    db = MostDatabase(clock)
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    db.create_class(ObjectClass("depots", spatial_dimensions=2))
    for name, box in REGIONS.items():
        db.define_region(name, Polygon.rectangle(*box))
    for oid, car in world.cars.items():
        db.add_moving_object(
            "cars", oid, Point(car.x, car.y), Point(car.vx, car.vy)
        )
        db.track(oid)
    if canary:
        for canary_id in CANARY_IDS:
            db.add_moving_object(
                "cars", canary_id, Point(*CANARY_OUTSIDE), Point(0.0, 0.0)
            )
            db.track(canary_id)
    for j, (x, y) in enumerate(world.depots):
        db.add_moving_object("depots", f"depot-{j}", Point(x, y))
    return db


# ---------------------------------------------------------------------------
# Update streams
# ---------------------------------------------------------------------------


def _steer(speed: float, coord: float, extent: int) -> float:
    """Point a velocity component back inward once outside the extent."""
    if coord > extent:
        return -abs(speed)
    if coord < -extent:
        return abs(speed)
    return speed


def new_velocity(
    rng: random.Random, car: Car, x: float, y: float, extent: int
) -> tuple[float, float]:
    """A velocity that genuinely differs from the car's current one."""
    while True:
        vx = _steer(rng.choice(SPEEDS), x, extent)
        vy = _steer(rng.choice(SPEEDS), y, extent)
        if (vx, vy) != (car.vx, car.vy):
            return vx, vy


def motion_update(
    car_id: str, car: Car, now: int, velocity: tuple[float, float] | None
) -> MotionUpdate:
    """Advance ``car`` to tick ``now`` and report it; ``velocity=None``
    is a heartbeat (the unchanged motion law, re-anchored)."""
    x, y = car.at(now)
    vx, vy = (car.vx, car.vy) if velocity is None else velocity
    car.x, car.y, car.vx, car.vy, car.t0 = x, y, vx, vy, now
    car.seq += 1
    return MotionUpdate(car_id, car.seq, now, Point(x, y), Point(vx, vy))


def update_stream(
    spec: Workload, seed: int, world: World, first_tick: int, epochs: int
) -> list[tuple[MotionUpdate, ...]]:
    """One batch of motion updates per epoch, measured at the tick the
    batch is sent (``first_tick + epoch``).  Mutates ``world.cars``."""
    rng = _rng(seed, "updates")
    ids = list(world.cars)
    n_real = round(spec.change_share * len(ids))
    n_beat = round(spec.heartbeat_share * len(ids))
    batches = []
    for epoch in range(epochs):
        now = first_tick + epoch
        chosen = rng.sample(ids, n_real + n_beat)
        promote = (
            1
            if spec.real_change_every and epoch % spec.real_change_every == 0
            else 0
        )
        batch = []
        for rank, car_id in enumerate(chosen):
            car = world.cars[car_id]
            velocity = None
            if rank < n_real + promote:
                velocity = new_velocity(rng, car, *car.at(now), spec.extent)
            batch.append(motion_update(car_id, car, now, velocity))
        batches.append(tuple(batch))
    return batches


def stream_digest(batches: list[tuple[MotionUpdate, ...]]) -> str:
    """A hash of a generated update stream (seed-sensitivity check)."""
    h = hashlib.sha256()
    for batch in batches:
        for u in batch:
            h.update(
                repr(
                    (u.object_id, u.seq, u.measured_at,
                     u.position.coords, u.velocity.coords)
                ).encode()
            )
    return h.hexdigest()
