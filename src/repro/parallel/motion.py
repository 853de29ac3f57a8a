"""Shared-memory motion snapshots for shard workers.

A :class:`MotionSnapshot` flattens a history's population into numpy
triple arrays — ``value`` / ``updatetime`` / ``slope`` per dynamic
attribute row, plus a ragged breakpoint pool for piecewise-linear motion —
that ship to worker processes through
:class:`multiprocessing.shared_memory.SharedMemory` instead of pickled
object graphs.  Workers rebuild a :class:`~repro.core.database.
MostDatabase` replica from the arrays; evaluating on the replica is
bit-identical to evaluating on the original because every reconstructed
triple reproduces the original's *values and value types* exactly:

* int-typed values, update times and slopes (the common case — worlds are
  built from integer coordinates) are flagged per row and restored as
  ``int``, so instantiation keys and ``Assign`` value domains keep their
  types (``str((5, 'c0')) != str((5.0, 'c0'))`` — display ordering would
  drift otherwise);
* values that do not round-trip through ``float64``, non-numeric values,
  and non-linear functions (``ShiftedFunction``, ``PolynomialFunction``,
  ``SinusoidFunction``) fall back to a per-row pickle — exact by
  construction and rare by construction (the batch solver cannot
  vectorize them either).

The arrays feed the PR 6 batch solver directly: a worker's evaluator
builds its :class:`~repro.motion.batch.LinearTable` rows from the very
triples reconstructed here (see :func:`repro.motion.batch.export_motion_rows`
for the shared flattening core).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING

import numpy as np

from repro.core.database import MostDatabase
from repro.core.dynamic import DynamicAttribute
from repro.core.history import FutureHistory
from repro.core.objects import ObjectClass
from repro.errors import QueryError
from repro.motion.batch import (
    FLAG_SLOPE_INT,
    FLAG_UPDATETIME_INT,
    FLAG_VALUE_INT,
    KIND_LINEAR,
    KIND_PICKLED,
    KIND_PIECEWISE,
    export_motion_rows,
)
from repro.motion.functions import LinearFunction, PiecewiseLinearFunction
from repro.temporal import SimulationClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.history import History

__all__ = ["MotionSnapshot", "SharedPayload"]

_ARRAY_NAMES = (
    "value",
    "updatetime",
    "slope",
    "kind",
    "intflags",
    "pw_offsets",
    "pw_starts",
    "pw_slopes",
)


def _attach_untracked(shm_name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker bookkeeping.

    Attaching registers the segment with the resource tracker a second
    time on Python < 3.13 (cpython#82300), and with the fork start
    method every worker shares the parent's tracker — duplicate
    register/unregister messages against its per-name *set* desync the
    accounting into "leaked segment" warnings or KeyErrors at shutdown.
    The parent owns every segment and unlinks it right after the workers
    ack, so worker attachments need no tracking at all: suppress the
    registration for the duration of the attach (the worker loop is
    single-threaded, so the patch cannot leak into other attaches).
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=shm_name)
    finally:
        resource_tracker.register = original


@dataclass
class SharedPayload:
    """The picklable wire form of a snapshot: small meta + shm names."""

    meta: bytes
    blocks: list[tuple[str, str, str, tuple[int, ...]]]


@dataclass
class MotionSnapshot:
    """A history's population flattened into transportable arrays."""

    meta: dict[str, object]
    arrays: dict[str, "np.ndarray[tuple[int], np.dtype[np.float64]] | np.ndarray[tuple[int], np.dtype[np.int64]] | np.ndarray[tuple[int], np.dtype[np.int8]]"]
    _segments: list[shared_memory.SharedMemory] = field(default_factory=list)

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

        triples: list[DynamicAttribute] = []
        for c in classes:
            for oid in ids[c.name]:
                for attr in c.all_dynamic:
                    triples.append(history.dynamic_triple(oid, attr))
        rows = export_motion_rows(triples)

        meta: dict[str, object] = {
            "start": history.start,
            "classes": classes,
            "ids": ids,
            "statics": statics,
            "regions": [(name, db.region(name)) for name in db.region_names()],
            "fallback": rows.fallback,
        }
        arrays = {
            "value": rows.value,
            "updatetime": rows.updatetime,
            "slope": rows.slope,
            "kind": rows.kind,
            "intflags": rows.intflags,
            "pw_offsets": rows.pw_offsets,
            "pw_starts": rows.pw_starts,
            "pw_slopes": rows.pw_slopes,
        }
        return cls(meta=meta, arrays=arrays)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def to_payload(self) -> SharedPayload:
        """Export the arrays into shared memory (kept alive on ``self``
        until :meth:`release`) and pickle the small meta."""
        blocks: list[tuple[str, str, str, tuple[int, ...]]] = []
        for name in _ARRAY_NAMES:
            arr = np.ascontiguousarray(self.arrays[name])
            if arr.nbytes:
                seg = shared_memory.SharedMemory(create=True, size=arr.nbytes)
                view: "np.ndarray[tuple[int], np.dtype[np.float64]]" = (
                    np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
                )
                view[:] = arr
                self._segments.append(seg)
                blocks.append((name, seg.name, arr.dtype.str, arr.shape))
            else:
                blocks.append((name, "", arr.dtype.str, arr.shape))
        return SharedPayload(
            meta=pickle.dumps(self.meta, protocol=pickle.HIGHEST_PROTOCOL),
            blocks=blocks,
        )

    def release(self) -> None:
        """Close and unlink every shared-memory segment this snapshot
        exported.  Safe to call more than once."""
        for seg in self._segments:
            try:
                seg.close()
                seg.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
        self._segments.clear()

    @classmethod
    def from_payload(cls, payload: SharedPayload) -> "MotionSnapshot":
        """Worker side: attach the shared arrays and *copy* them out, so
        the worker holds no reference into the parent's segments."""
        meta = pickle.loads(payload.meta)
        arrays: dict[str, "np.ndarray[tuple[int], np.dtype[np.float64]]"] = {}
        for name, shm_name, dtype_str, shape in payload.blocks:
            if shm_name == "":
                arrays[name] = np.empty(shape, dtype=np.dtype(dtype_str))
                continue
            seg = _attach_untracked(shm_name)
            try:
                view = np.ndarray(
                    shape, dtype=np.dtype(dtype_str), buffer=seg.buf
                )
                arrays[name] = view.copy()
            finally:
                seg.close()
        return cls(meta=meta, arrays=arrays)

    # ------------------------------------------------------------------
    # Rebuild (worker side)
    # ------------------------------------------------------------------
    def build_database(self) -> tuple[MostDatabase, FutureHistory]:
        """Reconstruct a database replica and its read-through history.

        The replica is private to the calling process and never mutated,
        so the history reads through (``snapshot=False``) at O(1)
        construction cost per evaluation.
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
        pw_offsets = self.arrays["pw_offsets"]
        pw_starts = self.arrays["pw_starts"]
        pw_slopes = self.arrays["pw_slopes"]

        row = 0
        pw_seq = 0
        for c in classes:
            class_statics = statics.get(c.name, {})
            for oid in ids[c.name]:
                dynamic: dict[str, DynamicAttribute] = {}
                for attr in c.all_dynamic:
                    k = int(kind[row])
                    if k == KIND_PICKLED:
                        dynamic[attr] = fallback[row]
                    else:
                        flags = int(intflags[row])
                        v: float | int = float(value[row])
                        if flags & FLAG_VALUE_INT:
                            v = int(v)
                        u: float | int = float(updatetime[row])
                        if flags & FLAG_UPDATETIME_INT:
                            u = int(u)
                        if k == KIND_LINEAR:
                            s: float | int = float(slope[row])
                            if flags & FLAG_SLOPE_INT:
                                s = int(s)
                            fn: LinearFunction | PiecewiseLinearFunction = (
                                LinearFunction(s)
                            )
                        else:
                            lo = int(pw_offsets[pw_seq])
                            hi = int(pw_offsets[pw_seq + 1])
                            fn = PiecewiseLinearFunction(
                                list(
                                    zip(
                                        pw_starts[lo:hi].tolist(),
                                        pw_slopes[lo:hi].tolist(),
                                    )
                                )
                            )
                        dynamic[attr] = DynamicAttribute(
                            value=v, updatetime=u, function=fn
                        )
                    if k == KIND_PIECEWISE:
                        pw_seq += 1
                    row += 1
                db.add_object(
                    c.name,
                    oid,
                    static=class_statics.get(oid),
                    dynamic=dynamic,
                )
        history = FutureHistory(db, start=start, snapshot=False)
        return db, history
