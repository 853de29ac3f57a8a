"""Database histories (section 2.2 of the paper).

"A database history is an infinite sequence of database states, one for
each clock tick ... the database history is an abstract concept,
introduced solely for providing formal semantics to our temporal query
language, FTL.  The database history does not consume space."

Accordingly, the classes here never materialise states eagerly:

* :class:`FutureHistory` — the history implied at a time point ``t``:
  every future state is "identical to the state at time t, except for the
  value of the dynamic attributes", which evolve under the functions
  frozen at ``t``.  This is the history instantaneous and continuous
  queries are evaluated on.
* :class:`RecordedHistory` — the history anchored at an earlier time that
  *persistent* queries are re-evaluated on: the recorded past (replayed
  from the update log) followed by the future implied by the current
  state.
* :class:`DatabaseState` — a lazy view of one state, mostly for
  presentation and the naive reference evaluator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.dynamic import DynamicAttribute
from repro.errors import QueryError
from repro.geometry import Point
from repro.motion.moving import MovingPoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.database import MostDatabase, Region


class DatabaseState:
    """One state of a history: attribute values at a fixed time stamp."""

    def __init__(self, history: "History", time: float) -> None:
        self._history = history
        self.time = time

    def value(self, object_id: object, attr: str) -> object:
        """Attribute value in this state."""
        return self._history.value(object_id, attr, self.time)

    def position(self, object_id: object) -> Point:
        """Spatial position in this state."""
        return self._history.position(object_id, self.time)

    def __repr__(self) -> str:
        return f"DatabaseState(time={self.time})"


class History:
    """Common behaviour of future and recorded histories."""

    def __init__(self, db: "MostDatabase", start: float) -> None:
        self.db = db
        self.start = start

    # -- population ----------------------------------------------------
    def object_ids(self, class_name: str) -> list[object]:
        """Ids of the class's objects (population frozen at ``start``)."""
        raise NotImplementedError

    def value(self, object_id: object, attr: str, t: float) -> object:
        """Attribute value at time ``t`` of this history."""
        raise NotImplementedError

    def position(self, object_id: object, t: float) -> Point:
        """Spatial position at time ``t``."""
        obj = self.db.get(object_id)
        return Point(
            *(
                self.value(object_id, name, t)
                for name in obj.object_class.position_attributes
            )
        )

    def state(self, t: float) -> DatabaseState:
        """The state with time stamp ``t`` (must not precede ``start``)."""
        if t < self.start:
            raise QueryError(
                f"state {t} precedes the history start {self.start}"
            )
        return DatabaseState(self, t)

    def region(self, name: str) -> "Region":
        """Named region lookup (regions are static database objects)."""
        return self.db.region(name)


class FutureHistory(History):
    """The infinite history implied by the database contents at ``start``.

    By default dynamic-attribute triples and static values are snapshotted
    at construction, so later explicit updates do not leak in — exactly
    the "tentative answer" semantics of section 1.  With
    ``snapshot=False`` the history reads through to the live database
    state instead: construction is O(1) regardless of population, which is
    what incremental continuous-query refreshes need (they evaluate
    synchronously, so no update can interleave with the read-through).
    """

    def __init__(
        self,
        db: "MostDatabase",
        start: float | None = None,
        snapshot: bool = True,
    ) -> None:
        super().__init__(db, db.clock.now if start is None else start)
        self._snapshot = snapshot
        #: ``db.version`` at construction — the content version of a
        #: snapshotting history.  Sharded evaluation keys its shipped
        #: motion snapshots on this (a snapshot history's contents are
        #: frozen here, no matter how the database moves on).
        self.build_version = db.version
        self._population: dict[str, list[object]] = {}
        self._dynamic: dict[tuple[object, str], DynamicAttribute] = {}
        self._static: dict[tuple[object, str], object] = {}
        if not snapshot:
            return
        self._population = {
            cls: [o.object_id for o in db.objects_of(cls)]
            for cls in db.class_names()
        }
        for obj in db.all_objects():
            for attr in obj.object_class.all_dynamic:
                self._dynamic[(obj.object_id, attr)] = obj.dynamic_attribute(attr)
            for attr in obj.object_class.static_attributes:
                self._static[(obj.object_id, attr)] = obj.static_value(attr)

    def object_ids(self, class_name: str) -> list[object]:
        self.db.object_class(class_name)
        if not self._snapshot:
            return [o.object_id for o in self.db.objects_of(class_name)]
        return list(self._population.get(class_name, ()))

    def value(self, object_id: object, attr: str, t: float) -> object:
        if not self._snapshot:
            obj = self.db.get(object_id)
            if obj.object_class.is_dynamic(attr):
                return obj.dynamic_attribute(attr).value_at(t)
            if obj.object_class.has_attribute(attr):
                return obj.static_value(attr)
            raise QueryError(
                f"object {object_id!r} has no attribute {attr!r} in this "
                "history"
            )
        key = (object_id, attr)
        if key in self._dynamic:
            return self._dynamic[key].value_at(t)
        if key in self._static:
            return self._static[key]
        raise QueryError(
            f"object {object_id!r} has no attribute {attr!r} in this history"
        )

    def moving_point(self, object_id: object) -> MovingPoint:
        """The object's motion as frozen at ``start`` — the input to the
        kinetic solvers of the FTL interval algorithm."""
        from repro.core.objects import MostObject  # local to avoid cycle

        obj = self.db.get(object_id)
        if not self._snapshot:
            return obj.moving_point()
        snapshot = MostObject(
            object_id,
            obj.object_class,
            static={
                a: self._static[(object_id, a)]
                for a in obj.object_class.static_attributes
            },
            dynamic={
                a: self._dynamic[(object_id, a)]
                for a in obj.object_class.all_dynamic
            },
        )
        return snapshot.moving_point()

    def dynamic_triple(self, object_id: object, attr: str) -> DynamicAttribute:
        """The frozen (value, updatetime, function) of one attribute."""
        if not self._snapshot:
            obj = self.db.get(object_id)
            if not obj.object_class.is_dynamic(attr):
                raise QueryError(
                    f"object {object_id!r} has no dynamic attribute {attr!r}"
                )
            return obj.dynamic_attribute(attr)
        try:
            return self._dynamic[(object_id, attr)]
        except KeyError:
            raise QueryError(
                f"object {object_id!r} has no dynamic attribute {attr!r}"
            ) from None


class RecordedHistory(History):
    """The history anchored at ``start``, replaying recorded updates.

    For ``t`` between ``start`` and the current clock time, attribute
    values come from the update-log timeline (which version of the triple
    was in force at ``t``); beyond the current time they follow the
    current triples — the shape persistent queries need (the speed-
    doubling query ``R`` of section 2.3).
    """

    def object_ids(self, class_name: str) -> list[object]:
        return [o.object_id for o in self.db.objects_of(class_name)]

    def value(self, object_id: object, attr: str, t: float) -> object:
        obj = self.db.get(object_id)
        if not obj.object_class.is_dynamic(attr):
            return self._static_value_at(object_id, attr, t)
        timeline = self.db.attribute_timeline(object_id, attr, since=self.start)
        triple = timeline[0][1]
        for from_time, version in timeline:
            if from_time <= t:
                triple = version
            else:
                break
        return triple.value_at(t)

    def _static_value_at(self, object_id: object, attr: str, t: float) -> object:
        obj = self.db.get(object_id)
        value = obj.static_value(attr)
        # Roll back updates committed after t.
        for update in reversed(self.db.log):
            if (
                update.object_id == object_id
                and update.attribute == attr
                and update.time > t
            ):
                value = update.old
        return value

    def moving_point(self, object_id: object) -> MovingPoint:
        """The object's full recorded-plus-implied trajectory as a single
        piecewise-linear moving point.

        This is what lets *persistent* queries run through the appendix
        interval algorithm (processing the paper defers to future work):
        each axis timeline of linear versions becomes one
        :class:`~repro.motion.PiecewiseLinearFunction` anchored at the
        history start, with the current version extending into the implied
        future.

        Raises:
            QueryError: when a version is nonlinear, or an update snapped
                the position discontinuously (a jump cannot be expressed
                as a continuous piecewise function — callers fall back to
                the per-state evaluator).
        """
        from repro.motion.functions import PiecewiseLinearFunction

        obj = self.db.get(object_id)
        names = obj.object_class.position_attributes
        if not names:
            raise QueryError(
                f"class {obj.object_class.name} is not spatial"
            )
        anchor_coords: list[float] = []
        functions = []
        for attr in names:
            timeline = self.db.attribute_timeline(
                object_id, attr, since=self.start
            )
            anchor_value: float | None = None
            pieces: list[tuple[float, float]] = []
            for i, (from_time, triple) in enumerate(timeline):
                if not triple.function.is_linear:
                    raise QueryError(
                        "recorded trajectory is not piecewise linear"
                    )
                effective_from = max(from_time, self.start)
                value_at_from = triple.value_at(effective_from)
                if anchor_value is None:
                    anchor_value = value_at_from
                elif i > 0:
                    previous = timeline[i - 1][1]
                    if abs(previous.value_at(effective_from) - value_at_from) > 1e-9:
                        raise QueryError(
                            f"attribute {attr!r} of {object_id!r} jumps at "
                            f"t={effective_from}; interval evaluation needs "
                            "a continuous trajectory"
                        )
                rel = effective_from - self.start
                if pieces and pieces[-1][0] == rel:
                    pieces[-1] = (rel, triple.speed)  # same-tick re-update
                else:
                    pieces.append((rel, triple.speed))
            anchor_coords.append(anchor_value)
            functions.append(PiecewiseLinearFunction(pieces))
        return MovingPoint(
            Point(*anchor_coords), functions, anchor_time=self.start
        )
