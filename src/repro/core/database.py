"""The MOST database: clock, object store, updates, and the update log.

The database holds object classes, their objects, and named spatial
regions (the polygons and circles queries refer to).  All explicit updates
go through :meth:`MostDatabase.update_motion` /
:meth:`~MostDatabase.update_static` so that

* the update log records every change (persistent queries replay it,
  section 2.3),
* registered continuous queries are told their materialised
  ``Answer(CQ)`` may have changed (section 2.3: "a continuous query CQ has
  to be reevaluated when an update occurs that may change the set of
  tuples Answer(CQ)").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from repro.core.dynamic import DynamicAttribute
from repro.core.objects import MostObject, ObjectClass
from repro.errors import SchemaError
from repro.geometry import Point
from repro.motion.functions import LinearFunction, TimeFunction
from repro.spatial.polygon import Polygon
from repro.spatial.regions import Ball
from repro.temporal import SimulationClock

Region = Polygon | Ball


@dataclass(frozen=True)
class MostUpdate:
    """One explicit update of an object attribute.

    ``old``/``new`` are static values or :class:`DynamicAttribute` triples
    depending on the attribute kind.  ``class_name`` and ``kind`` let
    listeners (continuous queries, triggers) decide relevance without a
    database lookup; they default to ``None``/``"dynamic"`` for updates
    constructed outside :class:`MostDatabase`.
    """

    time: int
    object_id: object
    attribute: str
    old: object
    new: object
    class_name: str | None = None
    kind: str = "dynamic"


UpdateListener = Callable[[MostUpdate], None]

_uids = itertools.count(1)


class MostDatabase:
    """Object classes + objects + named regions under one global clock."""

    def __init__(
        self,
        clock: SimulationClock | None = None,
        kinetic_cache_size: int | None = None,
    ) -> None:
        self.clock = clock if clock is not None else SimulationClock()
        #: Process-unique identity (``id()`` can be reused once a database
        #: is collected); the first field of a history's content token.
        self.uid = next(_uids)
        #: Bound on the kinetic-solve memo table (None = the default,
        #: ``repro.ftl.atoms.DEFAULT_CACHE_ENTRIES``).
        self.kinetic_cache_size = kinetic_cache_size
        self._classes: dict[str, ObjectClass] = {}
        self._objects: dict[object, MostObject] = {}
        self._by_class: dict[str, list[object]] = {}
        self._regions: dict[str, Region] = {}
        self._log: list[MostUpdate] = []
        self._version = 0
        self._listeners: list[UpdateListener] = []
        self._last_seq: dict[object, int] = {}
        self._last_update_time: dict[object, int] = {}
        self._tracked: set[object] = set()
        self._kinetic_cache = None
        self._mbr_tables = None
        #: Network-delivered updates refused as stale or duplicate.
        self.ingest_rejected = 0

    @property
    def kinetic_cache(self):
        """The database-wide kinetic-solve memo table (lazily created).

        Shared by every evaluator querying this database; motion updates
        invalidate naturally because the frozen dynamic-attribute triples
        are part of every key (see :mod:`repro.ftl.atoms`).
        """
        if self._kinetic_cache is None:
            from repro.config import kinetic_cache_entries
            from repro.ftl.atoms import KineticSolveCache  # avoid cycle

            size = self.kinetic_cache_size
            if size is None:
                size = kinetic_cache_entries()
            if size is None:
                self._kinetic_cache = KineticSolveCache()
            else:
                self._kinetic_cache = KineticSolveCache(max_entries=size)
        return self._kinetic_cache

    @property
    def mbr_tables(self):
        """The database-wide trajectory-MBR tables of the atom pruner
        (lazily created): one per object class and evaluation window of
        one content version, shared by every query and context (see
        :class:`repro.ftl.atoms.MbrTableCache`)."""
        if self._mbr_tables is None:
            from repro.ftl.atoms import MbrTableCache  # avoid cycle

            self._mbr_tables = MbrTableCache()
        return self._mbr_tables

    # ------------------------------------------------------------------
    # Classes and regions
    # ------------------------------------------------------------------
    def create_class(self, object_class: ObjectClass) -> ObjectClass:
        """Register an object class."""
        if object_class.name in self._classes:
            raise SchemaError(f"class {object_class.name!r} already exists")
        self._classes[object_class.name] = object_class
        self._by_class[object_class.name] = []
        return object_class

    def object_class(self, name: str) -> ObjectClass:
        """Class by name."""
        try:
            return self._classes[name]
        except KeyError:
            raise SchemaError(f"unknown object class {name!r}") from None

    def class_names(self) -> list[str]:
        """All registered class names."""
        return list(self._classes)

    def define_region(self, name: str, region: Region) -> None:
        """Register a named polygon or ball for use in queries."""
        if name in self._regions:
            raise SchemaError(f"region {name!r} already exists")
        self._regions[name] = region

    def region_names(self) -> list[str]:
        """All defined region names."""
        return list(self._regions)

    def region(self, name: str) -> Region:
        """Named region lookup."""
        try:
            return self._regions[name]
        except KeyError:
            raise SchemaError(f"unknown region {name!r}") from None

    # ------------------------------------------------------------------
    # Objects
    # ------------------------------------------------------------------
    def add_object(
        self,
        class_name: str,
        object_id: object,
        static: Mapping[str, object] | None = None,
        dynamic: Mapping[str, DynamicAttribute] | None = None,
    ) -> MostObject:
        """Insert a new object."""
        cls = self.object_class(class_name)
        if object_id in self._objects:
            raise SchemaError(f"object {object_id!r} already exists")
        obj = MostObject(object_id, cls, static=static, dynamic=dynamic)
        self._objects[object_id] = obj
        self._by_class[class_name].append(object_id)
        self._last_update_time[object_id] = self.clock.now
        return obj

    def add_moving_object(
        self,
        class_name: str,
        object_id: object,
        position: Point,
        velocity: Point | None = None,
        static: Mapping[str, object] | None = None,
        dynamic_extra: Mapping[str, DynamicAttribute] | None = None,
    ) -> MostObject:
        """Convenience: insert a spatial object from position + motion
        vector (the common case of section 1)."""
        cls = self.object_class(class_name)
        if not cls.is_spatial:
            raise SchemaError(f"class {class_name!r} is not spatial")
        if position.dim != cls.spatial_dimensions:
            raise SchemaError(
                f"position has {position.dim} coordinates, class needs "
                f"{cls.spatial_dimensions}"
            )
        now = self.clock.now
        speeds = (
            velocity.coords
            if velocity is not None
            else (0.0,) * cls.spatial_dimensions
        )
        dynamic = dict(dynamic_extra or {})
        for name, coord, speed in zip(
            cls.position_attributes, position.coords, speeds
        ):
            dynamic[name] = DynamicAttribute.linear(coord, speed, updatetime=now)
        return self.add_object(
            class_name, object_id, static=static, dynamic=dynamic
        )

    def get(self, object_id: object) -> MostObject:
        """Object by id."""
        try:
            return self._objects[object_id]
        except KeyError:
            raise SchemaError(f"unknown object {object_id!r}") from None

    def objects_of(self, class_name: str) -> list[MostObject]:
        """All objects of one class, in insertion order."""
        self.object_class(class_name)
        return [self._objects[i] for i in self._by_class[class_name]]

    def class_count(self, class_name: str) -> int:
        """Number of objects of one class (O(1) population check)."""
        self.object_class(class_name)
        return len(self._by_class[class_name])

    def all_objects(self) -> Iterator[MostObject]:
        """Every object in the database."""
        return iter(self._objects.values())

    def __len__(self) -> int:
        return len(self._objects)

    # ------------------------------------------------------------------
    # Explicit updates
    # ------------------------------------------------------------------
    def update_static(
        self, object_id: object, attr: str, value: object
    ) -> None:
        """Explicitly update a static attribute."""
        obj = self.get(object_id)
        old = obj._set_static(attr, value)
        self._commit(
            MostUpdate(
                self.clock.now,
                object_id,
                attr,
                old,
                value,
                class_name=obj.object_class.name,
                kind="static",
            )
        )

    def update_dynamic(
        self,
        object_id: object,
        attr: str,
        value: float | None = None,
        function: TimeFunction | None = None,
    ) -> None:
        """Explicitly update a dynamic attribute (value, function or both)
        at the current clock time."""
        obj = self.get(object_id)
        old = obj.dynamic_attribute(attr)
        new = old.updated(self.clock.now, value=value, function=function)
        obj._set_dynamic(attr, new)
        self._commit(
            MostUpdate(
                self.clock.now,
                object_id,
                attr,
                old,
                new,
                class_name=obj.object_class.name,
                kind="dynamic",
            )
        )

    def update_motion(
        self,
        object_id: object,
        velocity: Point,
        position: Point | None = None,
    ) -> None:
        """Update a spatial object's motion vector (and optionally snap its
        position, e.g. from a GPS fix)."""
        obj = self.get(object_id)
        names = obj.object_class.position_attributes
        if velocity.dim != len(names):
            raise SchemaError("velocity dimension mismatch")
        for axis, name in enumerate(names):
            self.update_dynamic(
                object_id,
                name,
                value=None if position is None else position[axis],
                function=LinearFunction(velocity[axis]),
            )

    # ------------------------------------------------------------------
    # Network ingest + staleness accounting (fault-tolerant pipeline)
    # ------------------------------------------------------------------
    def track(self, object_id: object) -> None:
        """Mark an object as *remotely sourced*: its dynamic attributes
        arrive over the network, so it participates in staleness
        accounting.  Server-local objects (named regions' reference
        objects, stationary beacons) stay untracked and always count as
        fresh."""
        self.get(object_id)
        self._tracked.add(object_id)

    def is_tracked(self, object_id: object) -> bool:
        """Whether the object participates in staleness accounting."""
        return object_id in self._tracked

    def last_update_time(self, object_id: object) -> int:
        """The tick the object was last heard from (creation time when it
        has never been updated)."""
        self.get(object_id)
        return self._last_update_time[object_id]

    def staleness(self, object_id: object) -> int:
        """Ticks since the object was last heard from.

        Untracked (server-local) objects are always fresh (0): their
        attributes never travel over the network, so there is nothing to
        go stale.
        """
        if object_id not in self._tracked:
            self.get(object_id)
            return 0
        return self.clock.now - self._last_update_time[object_id]

    def last_ingested_seq(self, object_id: object) -> int:
        """Highest sequence number applied for the object (-1 if none)."""
        return self._last_seq.get(object_id, -1)

    def ingest_motion(
        self,
        object_id: object,
        seq: int,
        velocity: Point,
        position: Point,
        measured_at: int,
    ) -> bool:
        """Apply one network-delivered motion update, idempotently.

        The update carries the position fix *at measurement time*; a
        delayed delivery extrapolates it along the reported velocity to
        the current tick, so a late update installs the same trajectory
        the sender observed.  Updates whose ``seq`` is at or below the
        highest already applied for the object are stale duplicates or
        out-of-order stragglers: they are rejected (counted in
        :attr:`ingest_rejected`) and leave the database untouched.

        Returns whether the update was applied.
        """
        obj = self.get(object_id)
        if seq <= self._last_seq.get(object_id, -1):
            self.ingest_rejected += 1
            return False
        names = obj.object_class.position_attributes
        if velocity.dim != len(names) or position.dim != len(names):
            raise SchemaError("motion update dimension mismatch")
        now = self.clock.now
        if measured_at > now:
            raise SchemaError(
                f"update measured at {measured_at} arrives at {now}"
            )
        self._last_seq[object_id] = seq
        self._tracked.add(object_id)
        extrapolated = Point(
            *(
                p + v * (now - measured_at)
                for p, v in zip(position.coords, velocity.coords)
            )
        )
        self.update_motion(object_id, velocity, position=extrapolated)
        return True

    # ------------------------------------------------------------------
    # Log + listeners
    # ------------------------------------------------------------------
    @property
    def log(self) -> tuple[MostUpdate, ...]:
        """The full update log in commit order."""
        return tuple(self._log)

    def iter_log(self) -> Iterator[MostUpdate]:
        """The update log in commit order, without copying it."""
        return iter(self._log)

    @property
    def version(self) -> int:
        """How many updates have been committed: equal versions (and an
        equal population) mean equal database contents."""
        return self._version

    def on_update(self, listener: UpdateListener) -> Callable[[], None]:
        """Subscribe to updates; returns an unsubscribe function."""
        self._listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

        return unsubscribe

    def _commit(self, update: MostUpdate) -> None:
        self._log.append(update)
        self._version += 1
        self._last_update_time[update.object_id] = update.time
        for listener in list(self._listeners):
            listener(update)

    # ------------------------------------------------------------------
    # Attribute timelines (persistent queries, section 2.3)
    # ------------------------------------------------------------------
    def attribute_timeline(
        self, object_id: object, attr: str, since: float = 0.0
    ) -> list[tuple[float, DynamicAttribute]]:
        """The versions a dynamic attribute went through.

        Returns ``[(from_time, triple)]`` sorted by time: version ``i`` is
        in force from ``from_time_i`` until the next version.  This is the
        "information about the way the database is updated over time" that
        persistent-query evaluation requires.
        """
        obj = self.get(object_id)
        current = obj.dynamic_attribute(attr)
        versions: list[tuple[float, DynamicAttribute]] = []
        for update in self._log:
            if update.object_id != object_id or update.attribute != attr:
                continue
            if not isinstance(update.new, DynamicAttribute):
                continue
            versions.append((update.time, update.new))
        if not versions or versions[0][0] > since:
            # The initial version: whatever was in force before the first
            # logged update (or the current triple when never updated).
            first_old = None
            for update in self._log:
                if (
                    update.object_id == object_id
                    and update.attribute == attr
                    and isinstance(update.old, DynamicAttribute)
                ):
                    first_old = update.old
                    break
            versions.insert(
                0, (since, first_old if first_old is not None else current)
            )
        return versions
