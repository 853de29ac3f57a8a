"""Motion snapshots for shard workers.

A :class:`MotionSnapshot` flattens a history's population into numpy
triple arrays — ``value`` / ``updatetime`` / ``slope`` per dynamic
attribute row — plus a small picklable ``meta`` dict.  The snapshot is a
plain dataclass: it travels to each worker pickled inside the task
message, and the worker rebuilds a :class:`~repro.core.database.
MostDatabase` replica from it.  Evaluating on the replica is
bit-identical to evaluating on the original because every reconstructed
triple reproduces the original's *values and value types* exactly:

* int-typed values, update times and slopes (the common case — worlds are
  built from integer coordinates) are flagged per row and restored as
  ``int``, so instantiation keys and ``Assign`` value domains keep their
  types (``str((5, 'c0')) != str((5.0, 'c0'))`` — display ordering would
  drift otherwise);
* values that do not round-trip through ``float64``, non-numeric values,
  and every function other than a plain ``LinearFunction``
  (``PiecewiseLinearFunction``, ``ShiftedFunction``,
  ``PolynomialFunction``, ``SinusoidFunction``) travel as the original
  triple in the per-row ``fallback`` — exact by construction and rare by
  construction (the batch solver cannot vectorize them either).

The arrays are the database's own motion columns
(:mod:`repro.core.columns`), each class's rows copied out in one
concatenation — the store the atom pruner's leg-box tables, the batch
solver's single legs and the stamped solves' motion tokens read too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.columns import (
    FLAG_SLOPE_INT,
    FLAG_UPDATETIME_INT,
    FLAG_VALUE_INT,
    KIND_LINEAR,
)
from repro.core.database import MostDatabase
from repro.core.dynamic import DynamicAttribute
from repro.core.history import FutureHistory
from repro.core.objects import ObjectClass
from repro.errors import QueryError
from repro.motion.functions import LinearFunction
from repro.temporal import SimulationClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.history import History

__all__ = ["MotionSnapshot"]

#: The snapshot's arrays: the motion columns, by dtype.
_DTYPES = {
    "value": np.float64,
    "updatetime": np.float64,
    "slope": np.float64,
    "kind": np.int8,
    "intflags": np.int8,
}


@dataclass
class MotionSnapshot:
    """A history's population flattened into picklable arrays."""

    meta: dict[str, object]
    arrays: dict[str, "np.ndarray[tuple[int], np.dtype[np.float64]] | np.ndarray[tuple[int], np.dtype[np.int8]]"]

    # ------------------------------------------------------------------
    # Build (parent side)
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, history: "History") -> "MotionSnapshot":
        """Flatten ``history``'s population (classes in database order,
        objects in class order, attributes in ``all_dynamic`` order)."""
        db = getattr(history, "db", None)
        if db is None:
            raise QueryError(
                "a motion snapshot needs a database-backed history"
            )
        classes: list[ObjectClass] = [
            db.object_class(name) for name in db.class_names()
        ]
        ids: dict[str, list[object]] = {
            c.name: history.object_ids(c.name) for c in classes
        }
        statics: dict[str, dict[object, dict[str, object]]] = {}
        for c in classes:
            if not c.static_attributes:
                continue
            per_class: dict[object, dict[str, object]] = {}
            for oid in ids[c.name]:
                values = {
                    attr: history.value(oid, attr, history.start)
                    for attr in c.static_attributes
                }
                values = {a: v for a, v in values.items() if v is not None}
                if values:
                    per_class[oid] = values
            if per_class:
                statics[c.name] = per_class

        # Every class's rows, copied out of its motion columns in one
        # concatenation per column; fallback rows renumbered to match.
        blocks = [history.motion_columns(c.name).rows() for c in classes]
        fallback: dict[int, DynamicAttribute] = {}
        base = 0
        for rows in blocks:
            fallback.update((base + row, t) for row, t in rows.fallback.items())
            base += rows.value.size

        meta: dict[str, object] = {
            "start": history.start,
            "classes": classes,
            "ids": ids,
            "statics": statics,
            "regions": [(name, db.region(name)) for name in db.region_names()],
            "fallback": fallback,
        }
        arrays = {
            name: np.concatenate(
                [np.zeros(0, dtype), *(getattr(rows, name) for rows in blocks)]
            )
            for name, dtype in _DTYPES.items()
        }
        return cls(meta=meta, arrays=arrays)

    # ------------------------------------------------------------------
    # Rebuild (worker side)
    # ------------------------------------------------------------------
    def build_database(self) -> tuple[MostDatabase, FutureHistory]:
        """Reconstruct a database replica and its read-through history.

        The replica is private to the calling process and never mutated,
        so the one history, pinned to the replica's only content version,
        serves every evaluation of this snapshot.
        """
        meta = self.meta
        start = meta["start"]
        assert isinstance(start, (int, float))
        clock = SimulationClock(start=max(0, int(start)))
        db = MostDatabase(clock=clock)
        classes = meta["classes"]
        assert isinstance(classes, list)
        ids = meta["ids"]
        assert isinstance(ids, dict)
        statics = meta["statics"]
        assert isinstance(statics, dict)
        regions = meta["regions"]
        assert isinstance(regions, list)
        fallback = meta["fallback"]
        assert isinstance(fallback, dict)

        for c in classes:
            db.create_class(c)
        for name, region in regions:
            db.define_region(name, region)

        value = self.arrays["value"]
        updatetime = self.arrays["updatetime"]
        slope = self.arrays["slope"]
        kind = self.arrays["kind"]
        intflags = self.arrays["intflags"]

        row = 0
        for c in classes:
            class_statics = statics.get(c.name, {})
            for oid in ids[c.name]:
                dynamic: dict[str, DynamicAttribute] = {}
                for attr in c.all_dynamic:
                    if int(kind[row]) != KIND_LINEAR:
                        dynamic[attr] = fallback[row]
                    else:
                        flags = int(intflags[row])
                        v: float | int = float(value[row])
                        if flags & FLAG_VALUE_INT:
                            v = int(v)
                        u: float | int = float(updatetime[row])
                        if flags & FLAG_UPDATETIME_INT:
                            u = int(u)
                        s: float | int = float(slope[row])
                        if flags & FLAG_SLOPE_INT:
                            s = int(s)
                        dynamic[attr] = DynamicAttribute(
                            value=v, updatetime=u, function=LinearFunction(s)
                        )
                    row += 1
                db.add_object(
                    c.name,
                    oid,
                    static=class_statics.get(oid),
                    dynamic=dynamic,
                )
        history = FutureHistory(db, start=start)
        return db, history
