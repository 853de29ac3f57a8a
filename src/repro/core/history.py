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

import math
from typing import TYPE_CHECKING

from repro.core.dynamic import DynamicAttribute
from repro.errors import QueryError, SchemaError
from repro.geometry import Point
from repro.motion.moving import MovingPoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.columns import MotionColumns
    from repro.core.database import MostDatabase, Region
    from repro.core.objects import MostObject


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
        #: Objects that enter the history after ``start``, each with the
        #: tick it enters at: no state before that tick holds it, so
        #: every atom over it is false there.  Empty for a future
        #: history, whose population is frozen at ``start``.
        self.arrivals: dict[object, int] = {}

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

    Every future state is "identical to the state at time t, except for
    the value of the dynamic attributes", so nothing is copied: readers
    go to the live objects.  The history is pinned to the content token
    it was opened on (:func:`epoch_token`); once a commit or an insert
    moves the database on, every reader raises ``QueryError``.
    """

    def __init__(self, db: "MostDatabase", start: float | None = None) -> None:
        super().__init__(db, db.clock.now if start is None else start)
        self._token: tuple[object, ...] = (
            db.uid,
            db.version,
            len(db),
            tuple(db.class_names()),
            tuple(db.region_names()),
            float(self.start),
        )

    def _live(self) -> "MostDatabase":
        """The database, checked not to have moved since the pin."""
        db, pin = self.db, self._token
        if db.version != pin[1] or len(db) != pin[2]:
            raise QueryError(
                f"future history pinned at database version {pin[1]} ({pin[2]} "
                f"objects), read at version {db.version} ({len(db)} objects)"
            )
        return db

    def _object(self, object_id: object) -> "MostObject | None":
        try:
            return self._live().get(object_id)
        except SchemaError:
            return None

    def object_ids(self, class_name: str) -> list[object]:
        return self._live().object_ids_of(class_name)

    def value(self, object_id: object, attr: str, t: float) -> object:
        obj = self._object(object_id)
        if obj is not None and obj.object_class.is_dynamic(attr):
            return obj.dynamic_attribute(attr).value_at(t)
        if obj is not None and obj.object_class.has_attribute(attr):
            return obj.static_value(attr)
        raise QueryError(
            f"object {object_id!r} has no attribute {attr!r} in this history"
        )

    def moving_point(self, object_id: object) -> MovingPoint:
        """The object's motion as implied at ``start`` (the solvers' input)."""
        return self._live().get(object_id).moving_point()

    def dynamic_triple(self, object_id: object, attr: str) -> DynamicAttribute:
        """The (value, updatetime, function) of one attribute."""
        obj = self._object(object_id)
        if obj is None or not obj.object_class.is_dynamic(attr):
            raise QueryError(f"object {object_id!r} has no dynamic attribute {attr!r}")
        return obj.dynamic_attribute(attr)

    def motion_columns(self, class_name: str) -> "MotionColumns":
        """One class's motion columns (:mod:`repro.core.columns`) as of
        the pin; read them before the database moves on."""
        return self._live().motion_columns(class_name)

    def motion_slot(self, object_id: object) -> "tuple[MotionColumns, int]":
        """The object's class columns and its object number in them;
        raises ``QueryError`` for an unknown object."""
        obj = self._object(object_id)
        if obj is None:
            raise QueryError(f"object {object_id!r} is not in this history")
        columns = self.db.motion_columns(obj.object_class.name)
        return columns, columns.index[object_id]


def epoch_token(history: History) -> tuple[object, ...] | None:
    """The content-identity token of a future history, or ``None``.

    Two histories with equal tokens have identical contents: every
    mutation path of :class:`~repro.core.database.MostDatabase` either
    commits an update (bumping ``db.version``) or changes the population
    / class / region signature, and the window start pins the statics
    read point.  A :class:`FutureHistory` reads only under the token it
    was pinned to, so what is derived under a token — the shard pool's
    replica, the pruner's trajectory-MBR tables — is what every history
    holding it reads.  A :class:`RecordedHistory` has no token.
    """
    if not isinstance(history, FutureHistory):
        return None
    return history._token


class RecordedHistory(History):
    """The history anchored at ``start``, replaying recorded updates.

    For ``t`` between ``start`` and the current clock time, attribute
    values come from the update-log timeline (which version of the triple
    was in force at ``t``); beyond the current time they follow the
    current triples — the shape persistent queries need (the speed-
    doubling query ``R`` of section 2.3).  An object inserted after
    ``start`` enters the history at its insert tick (:attr:`arrivals`).
    """

    def __init__(self, db: "MostDatabase", start: float) -> None:
        super().__init__(db, start)
        self.arrivals = db.arrivals(start)

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
        value = self.db.get(object_id).static_value(attr)
        # Roll back updates committed after t: the value in force at t is
        # the ``old`` of the first such update, or the current value.
        for update in self.db.iter_log():
            if (
                update.object_id == object_id
                and update.attribute == attr
                and update.time > t
            ):
                return update.old
        return value

    def moving_point(self, object_id: object) -> MovingPoint:
        """The object's full recorded-plus-implied trajectory as a single
        piecewise-linear moving point.

        This is what lets *persistent* queries run through the appendix
        interval algorithm (processing the paper defers to future work):
        each axis timeline of piecewise-linear versions becomes one
        :class:`~repro.motion.PiecewiseLinearFunction` anchored at the
        history start — each version contributing its own pieces,
        clipped to the span it was in force — with the current version
        extending into the implied future.

        Raises:
            QueryError: when a version is not piecewise linear, or an
                update snapped the position discontinuously (a jump cannot
                be expressed as a continuous piecewise function — callers
                fall back to the per-state evaluator).
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
                breakpoints = triple.function.linear_breakpoints(math.inf)
                if breakpoints is None:
                    raise QueryError(
                        "recorded trajectory is not piecewise linear"
                    )
                effective_from = max(from_time, self.start)
                value_at_from = triple.value_at(effective_from)
                if anchor_value is None or from_time <= self.start:
                    # The version in force at the start anchors the axis;
                    # a jump at or before the start is never observed.
                    anchor_value = value_at_from
                else:
                    previous = timeline[i - 1][1]
                    if abs(previous.value_at(effective_from) - value_at_from) > 1e-9:
                        raise QueryError(
                            f"attribute {attr!r} of {object_id!r} jumps at "
                            f"t={effective_from}; interval evaluation needs "
                            "a continuous trajectory"
                        )
                # The version's piece in force at ``effective_from`` (the
                # first one before its anchor: it extrapolates backwards),
                # then its later breakpoints until the next version.
                elapsed = effective_from - triple.updatetime
                slope = breakpoints[0][1]
                for rel_t, piece_slope in breakpoints:
                    if rel_t > elapsed:
                        break
                    slope = piece_slope
                rel = effective_from - self.start
                if pieces and pieces[-1][0] == rel:
                    pieces[-1] = (rel, slope)  # same-tick re-update
                else:
                    pieces.append((rel, slope))
                until = timeline[i + 1][0] if i + 1 < len(timeline) else math.inf
                for rel_t, piece_slope in breakpoints:
                    t_abs = triple.updatetime + rel_t
                    if effective_from < t_abs < until:
                        pieces.append((t_abs - self.start, piece_slope))
            anchor_coords.append(anchor_value)
            functions.append(PiecewiseLinearFunction(pieces))
        return MovingPoint(
            Point(*anchor_coords), functions, anchor_time=self.start
        )
