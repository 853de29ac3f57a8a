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
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from repro.core.columns import MotionColumns
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


#: Called once per commit with the commit's records (see ``on_update``).
UpdateListener = Callable[[tuple[MostUpdate, ...]], None]

_uids = itertools.count(1)


def _same_float(a: object, b: object) -> bool:
    """Whether ``a`` and ``b`` are one float bit for bit: signed zeros
    told apart, and never a NaN."""
    return (
        type(a) is float
        and type(b) is float
        and a == b
        and math.copysign(1.0, a) == math.copysign(1.0, b)
    )


class MostDatabase:
    """Object classes + objects + named regions under one global clock."""

    def __init__(self, clock: SimulationClock | None = None) -> None:
        self.clock = clock if clock is not None else SimulationClock()
        #: Process-unique identity (``id()`` can be reused once a database
        #: is collected); the first field of a history's content token.
        self.uid = next(_uids)
        self._classes: dict[str, ObjectClass] = {}
        self._objects: dict[object, MostObject] = {}
        # The tick each object was inserted at (``add_object``): where a
        # recorded history first holds it.
        self._inserted: dict[object, int] = {}
        # Per class, its motion columns (repro.core.columns): written
        # wherever a triple is installed — ``add_object`` and ``_write``;
        # any new write or delete path must write them too.  Their ``ids``
        # are the class's objects in insertion order.
        self._columns: dict[str, MotionColumns] = {}
        self._regions: dict[str, Region] = {}
        self._log: list[MostUpdate] = []
        self._version = 0
        self._listeners: list[UpdateListener] = []
        #: The database's one continuous-query listener
        #: (:class:`repro.core.queries.UpdateRouter`), created by the
        #: first continuous-query registration.
        self._query_router = None
        self._last_seq: dict[object, int] = {}
        self._last_update_time: dict[object, int] = {}
        self._tracked: set[object] = set()
        # The heard-order index (see ``heard_since``): object -> the
        # serial of the last event that reset or started its staleness
        # clock, oldest first.
        self._heard: dict[object, int] = {}
        self._heard_serial = 0
        self._mbr_tables = None
        #: Network-delivered updates refused as stale or duplicate.
        self.ingest_rejected = 0

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
        self._columns[object_class.name] = MotionColumns(object_class)
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
        self._inserted[object_id] = self.clock.now
        self._columns[class_name].append(
            object_id, [obj.dynamic_attribute(a) for a in cls.all_dynamic]
        )
        self._last_update_time[object_id] = self.clock.now
        self._hear(object_id)
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
        if not all(map(math.isfinite, position.coords)):
            raise SchemaError(f"position {position} is not finite")
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
        return [self._objects[i] for i in self.motion_columns(class_name).ids]

    def object_ids_of(self, class_name: str) -> list[object]:
        """The ids of one class's objects, in insertion order (a copy)."""
        return list(self.motion_columns(class_name).ids)

    def class_count(self, class_name: str) -> int:
        """Number of objects of one class (O(1) population check)."""
        return len(self.motion_columns(class_name))

    def motion_columns(self, class_name: str) -> MotionColumns:
        """One class's motion columns (:mod:`repro.core.columns`): the
        live store, changed in place by every later write.  Raises
        :class:`SchemaError` for an unknown class."""
        try:
            return self._columns[class_name]
        except KeyError:
            raise SchemaError(f"unknown object class {class_name!r}") from None

    def motion_event_candidates(
        self, class_name: str, t_eval: float
    ) -> list[MostObject]:
        """The objects of a class that can carry a motion event strictly
        after ``t_eval`` (see
        :func:`repro.ftl.analysis.validity.class_motion_events`).

        A *plain* attribute — ``type(function) is LinearFunction`` —
        decomposes into one piece from ``t = 0`` at every duration, so
        its only candidate event is its own ``updatetime``.  When no
        plain attribute of the class is anchored after ``t_eval`` (the
        largest ``updatetime`` ever installed in the class, the columns'
        ``latest``, is at or before it), only objects carrying a
        non-plain dynamic attribute — a ``KIND_PICKLED`` row of the
        class's motion columns — can contribute; otherwise every object
        is returned.  Raises :class:`SchemaError` for an unknown class.
        """
        columns = self.motion_columns(class_name)
        if columns.latest <= t_eval:
            return [self._objects[i] for i in columns.eventful()]
        return self.objects_of(class_name)

    def all_objects(self) -> Iterator[MostObject]:
        """Every object in the database."""
        return iter(self._objects.values())

    def __len__(self) -> int:
        return len(self._objects)

    def arrivals(self, since: float) -> dict[object, int]:
        """The objects inserted after tick ``since``, each with the tick
        it was inserted at."""
        return {oid: t for oid, t in self._inserted.items() if t > since}

    def __contains__(self, object_id: object) -> bool:
        """Whether ``object_id`` names an object of this database."""
        return object_id in self._objects

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
        self._write(
            obj, (self._dynamic_update(obj, attr, value, function),)
        )

    def update_motion(
        self,
        object_id: object,
        velocity: Point,
        position: Point | None = None,
    ) -> None:
        """Update a spatial object's motion vector (and optionally snap its
        position, e.g. from a GPS fix).

        One logical update, one commit: every axis's new triple is
        computed before any is written, so a refused axis leaves the
        object untouched and no listener ever sees a half-moved object.
        """
        obj = self.get(object_id)
        if velocity.dim != len(obj.object_class.position_attributes):
            raise SchemaError("velocity dimension mismatch")
        values = None if position is None else position.coords
        self._write(obj, self._motion_updates(obj, velocity.coords, values))

    def _dynamic_update(
        self,
        obj: MostObject,
        attr: str,
        value: float | None,
        function: TimeFunction | None,
    ) -> MostUpdate:
        """The record of one dynamic-attribute update, nothing written.

        A NaN or infinite position is refused here and in
        :meth:`_motion_updates`: installed, it would drop its object out
        of every answer silently."""
        if (
            value is not None
            and attr in obj.object_class.position_attributes
            and not math.isfinite(value)
        ):
            raise SchemaError(f"{attr} = {value} is not finite")
        old = obj.dynamic_attribute(attr)
        new = old.updated(self.clock.now, value=value, function=function)
        return MostUpdate(
            self.clock.now,
            obj.object_id,
            attr,
            old,
            new,
            class_name=obj.object_class.name,
            kind="dynamic",
        )

    def _motion_updates(
        self,
        obj: MostObject,
        slopes: Sequence[float],
        values: Sequence[float] | None,
    ) -> tuple[MostUpdate, ...]:
        """One record per position axis of a motion update, nothing
        written (raises before anything changes): axis ``i`` takes the
        plain linear law of slope ``slopes[i]`` from ``values[i]`` — from
        the value its old law implies now when ``values`` is None.

        Each axis's old triple is read once, and a heartbeat — a float
        slope bit-identical to the old one, signed zeros told apart —
        keeps the old (immutable) :class:`LinearFunction`."""
        now = self.clock.now
        object_id = obj.object_id
        class_name = obj.object_class.name
        dynamic = obj._dynamic
        records = []
        for axis, name in enumerate(obj.object_class.position_attributes):
            value = None if values is None else values[axis]
            if value is not None and not math.isfinite(value):
                raise SchemaError(f"{name} = {value} is not finite")
            old = dynamic[name]
            function = old.function
            if not (
                type(function) is LinearFunction
                and _same_float(function.slope, slopes[axis])
            ):
                function = LinearFunction(slopes[axis])
            new = old.updated(now, value, function)
            records.append(
                MostUpdate(now, object_id, name, old, new, class_name, "dynamic")
            )
        return tuple(records)

    def _write(self, obj: MostObject, updates: tuple[MostUpdate, ...]) -> None:
        """Install computed dynamic-attribute records and their column
        rows, then commit them (listeners see current columns)."""
        dynamic = obj._dynamic
        for update in updates:
            dynamic[update.attribute] = update.new
        self._columns[obj.object_class.name].write(obj.object_id, updates)
        self._commit(*updates)

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
        self._hear(object_id)

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

    @property
    def heard_serial(self) -> int:
        """The serial of the latest event that moved some object's
        staleness clock off the common tick: a commit naming it, its
        insertion, or its tracking."""
        return self._heard_serial

    def heard_since(self, serial: int) -> list[object]:
        """The objects heard from after :attr:`heard_serial` read
        ``serial``, most recent first — in time proportional to their
        number.  Every other object's :meth:`staleness` has grown by
        exactly the ticks elapsed since."""
        out: list[object] = []
        for object_id, heard in reversed(self._heard.items()):
            if heard <= serial:
                break
            out.append(object_id)
        return out

    def _hear(self, object_id: object) -> None:
        self._heard_serial += 1
        self._heard.pop(object_id, None)
        self._heard[object_id] = self._heard_serial

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

        Returns whether the update was applied.  An update that raises
        (wrong dimensions, a measurement from the future or at a
        non-finite time, a NaN or infinite coordinate, an axis whose
        triple is newer than the clock) writes nothing and consumes
        neither its ``seq`` nor the object's tracking.
        """
        obj = self.get(object_id)
        if seq <= self._last_seq.get(object_id, -1):
            self.ingest_rejected += 1
            return False
        dim = len(obj.object_class.position_attributes)
        if velocity.dim != dim or position.dim != dim:
            raise SchemaError("motion update dimension mismatch")
        now = self.clock.now
        if measured_at > now:
            raise SchemaError(
                f"update measured at {measured_at} arrives at {now}"
            )
        if not math.isfinite(measured_at):  # NaN passes the test above
            raise SchemaError(f"update measured at non-finite {measured_at}")
        # The fix extrapolated along the reported velocity to now.
        elapsed = now - measured_at
        slopes = velocity.coords
        values = [
            float(p + v * elapsed) for p, v in zip(position.coords, slopes)
        ]
        updates = self._motion_updates(obj, slopes, values)
        self._last_seq[object_id] = seq
        self._tracked.add(object_id)
        self._write(obj, updates)
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

    def log_since(self, position: int) -> list[MostUpdate]:
        """The records logged after the first ``position``, in commit
        order."""
        return self._log[position:]

    @property
    def version(self) -> int:
        """How many commits (logical updates) there have been: equal
        versions (and an equal population) mean equal database
        contents."""
        return self._version

    def on_update(self, listener: UpdateListener) -> Callable[[], None]:
        """Subscribe to commits; returns an unsubscribe function.

        A listener is called once per commit with the commit's records —
        one per attribute written, all of one object, every one already
        installed."""
        self._listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

        return unsubscribe

    def _commit(self, *updates: MostUpdate) -> None:
        """Log one logical update (one record per attribute, all of one
        object at one time), bump the version once, hear the object once
        and notify every listener once."""
        self._log.extend(updates)
        self._version += 1
        first = updates[0]
        self._last_update_time[first.object_id] = first.time
        self._hear(first.object_id)
        for listener in list(self._listeners):
            listener(updates)

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
