"""Motion columns: one class's dynamic attributes as structure-of-arrays rows.

A dynamic attribute is the triple ``(value, updatetime, function)``
(section 2.1); for the paper's linear motion that is three numbers per
axis.  :class:`MotionColumns` keeps those numbers for one object class
in numpy columns, one row per (object, dynamic attribute): objects in
insertion order, attributes in ``all_dynamic`` order, so object ``i``
owns rows ``i * width`` to ``(i + 1) * width - 1`` and its position axes
are the last ``dim`` of them.

* ``value`` / ``updatetime`` / ``slope`` — float64 coefficients;
* ``kind`` — :data:`KIND_LINEAR` for a plain ``LinearFunction`` whose
  three coefficients are float64-exact ints or floats (NaN excluded);
  :data:`KIND_INEXACT` for a plain ``LinearFunction`` with any other
  coefficient; :data:`KIND_PICKLED` for every other function.  A row
  that is not linear keeps zero coefficients and its original triple in
  ``fallback``;
* ``intflags`` — which coefficients were ``int``-typed
  (:data:`FLAG_VALUE_INT` | :data:`FLAG_UPDATETIME_INT` |
  :data:`FLAG_SLOPE_INT`), so a reader can restore exact value types.

The database writes a row wherever it installs a triple, in O(axes):
:meth:`~repro.core.database.MostDatabase.add_object` encodes the new
object's rows at once; an update (``_write``) only records each triple
against its row, and the next read of the object (or of the whole
class) encodes the rows written since and scatters them into the arrays
in one vectorised assignment — so an update makes no numpy call, and a
heartbeat that rewrites a row many times between reads is encoded at
most once.  Every motion reader gathers rows by index instead of
walking the objects.  The objects' ``DynamicAttribute`` triples stay
the record that updates, the log and listeners carry; the columns are
an index written next to them.  Readers never keep a view of the
arrays: the next read after a write changes them in place.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.motion.functions import LinearFunction

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.database import MostUpdate
    from repro.core.dynamic import DynamicAttribute
    from repro.core.objects import ObjectClass

#: ``kind`` codes of one row.
KIND_LINEAR = 0
KIND_PICKLED = 1
KIND_INEXACT = 2

#: ``intflags`` bits: which coefficients were ``int``-typed.
FLAG_VALUE_INT = 1
FLAG_UPDATETIME_INT = 2
FLAG_SLOPE_INT = 4


class MotionRows:
    """Rows of motion columns: the five coefficient arrays (flat, or
    ``(objects, axes)`` for a position block) and the fallback triples
    of the rows that are not :data:`KIND_LINEAR`, by row number."""

    __slots__ = ("value", "updatetime", "slope", "kind", "intflags", "fallback")

    def __init__(
        self,
        value: np.ndarray,
        updatetime: np.ndarray,
        slope: np.ndarray,
        kind: np.ndarray,
        intflags: np.ndarray,
        fallback: "dict[int, DynamicAttribute]",
    ) -> None:
        self.value = value
        self.updatetime = updatetime
        self.slope = slope
        self.kind = kind
        self.intflags = intflags
        self.fallback = fallback


#: ``intflags`` of a linear row by the types of its three coefficients,
#: for the types a column can carry.
_INTFLAGS = {
    (tv, tu, ts): (tv is int) | (tu is int) << 1 | (ts is int) << 2
    for tv in (float, int)
    for tu in (float, int)
    for ts in (float, int)
}
#: Every int of at most this magnitude is a float64.
_EXACT_INTS = 2**53


def _exact(x: object) -> bool:
    """Whether ``x`` is an int or a non-NaN float that float64 carries
    exactly (a NaN never equals itself, so a column could not keep the
    identity a triple's equality relies on)."""
    if type(x) is float:
        return x == x
    if type(x) is int:
        try:
            return int(float(x)) == x
        except (OverflowError, ValueError):
            return False
    return False


class MotionColumns:
    """One object class's dynamic attributes as structure-of-arrays rows
    (see the module docstring), grown by doubling."""

    __slots__ = (
        "width",
        "dim",
        "ids",
        "index",
        "value",
        "updatetime",
        "slope",
        "kind",
        "intflags",
        "fallback",
        "latest",
        "_column",
        "_pending",
    )

    def __init__(self, object_class: "ObjectClass") -> None:
        attrs = object_class.all_dynamic
        #: Rows per object (its dynamic attributes).
        self.width = len(attrs)
        #: Position axes: the last ``dim`` rows of each object.
        self.dim = object_class.spatial_dimensions
        #: Object ids in insertion order, and id -> object number.
        self.ids: list[object] = []
        self.index: dict[object, int] = {}
        self.value = np.zeros(0)
        self.updatetime = np.zeros(0)
        self.slope = np.zeros(0)
        self.kind = np.zeros(0, dtype=np.int8)
        self.intflags = np.zeros(0, dtype=np.int8)
        self.fallback: "dict[int, DynamicAttribute]" = {}
        #: The largest ``updatetime`` ever installed in the class.
        self.latest: float = -math.inf
        self._column = {attr: j for j, attr in enumerate(attrs)}
        #: Row -> the triple written to it since the last read.
        self._pending: "dict[int, DynamicAttribute]" = {}

    def __len__(self) -> int:
        return len(self.ids)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append(
        self, object_id: object, triples: "Sequence[DynamicAttribute]"
    ) -> None:
        """Add an object's rows, encoded at once: its triples in
        ``all_dynamic`` order."""
        number = len(self.ids)
        row = number * self.width
        if row + self.width > self.value.size:
            self._grow(row + self.width)
        self.ids.append(object_id)
        self.index[object_id] = number
        for triple in triples:
            if triple.updatetime > self.latest:
                self.latest = triple.updatetime
            (
                self.value[row],
                self.updatetime[row],
                self.slope[row],
                self.kind[row],
                self.intflags[row],
            ) = self._encode(row, triple)
            row += 1

    def write(self, object_id: object, updates: "Iterable[MostUpdate]") -> None:
        """Overwrite an object's rows with the triples its update records
        install (``update.new`` into ``update.attribute``'s row): a dict
        store per row and the running max; the next read of the object
        encodes the rows written since (:meth:`_sync`)."""
        base = self.index[object_id] * self.width
        column = self._column
        pending = self._pending
        for update in updates:
            triple = update.new
            if triple.updatetime > self.latest:
                self.latest = triple.updatetime
            pending[base + column[update.attribute]] = triple


    def _sync(self, numbers: "Iterable[int] | None" = None) -> None:
        """Encode the rows written since the last read — of the objects
        ``numbers`` only, or of every object — and scatter them into the
        arrays.  A reader of a few objects encodes their rows alone."""
        pending = self._pending
        if numbers is None:
            written = list(pending.items())
            pending.clear()
        else:
            width = self.width
            written = [
                (row, pending.pop(row))
                for number in numbers
                for row in range(number * width, (number + 1) * width)
                if row in pending
            ]
            if not written:
                return
        rows = np.fromiter((row for row, _ in written), dtype=np.intp, count=len(written))
        encoded = [self._encode(row, triple) for row, triple in written]
        value, updatetime, slope, kind, intflags = zip(*encoded)
        self.value[rows] = np.array(value, dtype=np.float64)
        self.updatetime[rows] = np.array(updatetime, dtype=np.float64)
        self.slope[rows] = np.array(slope, dtype=np.float64)
        self.kind[rows] = np.array(kind, dtype=np.int8)
        self.intflags[rows] = np.array(intflags, dtype=np.int8)

    def _encode(
        self, row: int, triple: "DynamicAttribute"
    ) -> tuple[object, object, object, int, int]:
        """One row's ``(value, updatetime, slope, kind, intflags)``; a
        row that is not linear keeps its triple in ``fallback``."""
        fn = triple.function
        if type(fn) is LinearFunction:
            value, updatetime, slope = triple.value, triple.updatetime, fn.slope
            flags = _INTFLAGS.get((type(value), type(updatetime), type(slope)))
            if flags is not None and (
                # Any int or float this close to 0 is exact (NaN fails).
                (
                    -_EXACT_INTS <= value <= _EXACT_INTS
                    and -_EXACT_INTS <= updatetime <= _EXACT_INTS
                    and -_EXACT_INTS <= slope <= _EXACT_INTS
                )
                or (_exact(value) and _exact(updatetime) and _exact(slope))
            ):
                if self.fallback:
                    self.fallback.pop(row, None)
                return (value, updatetime, slope, KIND_LINEAR, flags)
            kind = KIND_INEXACT
        else:
            kind = KIND_PICKLED
        self.fallback[row] = triple
        return (0.0, 0.0, 0.0, kind, 0)

    def _grow(self, need: int) -> None:
        size = max(need, 2 * self.value.size, 16)
        for name in ("value", "updatetime", "slope", "kind", "intflags"):
            old = getattr(self, name)
            new = np.zeros(size, dtype=old.dtype)
            new[: old.size] = old
            setattr(self, name, new)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def rows(self) -> MotionRows:
        """Every row, flat, as views (read before the next write)."""
        if self._pending:
            self._sync()
        n = len(self.ids) * self.width
        return MotionRows(
            self.value[:n],
            self.updatetime[:n],
            self.slope[:n],
            self.kind[:n],
            self.intflags[:n],
            self.fallback,
        )

    def positions(self, numbers: "Sequence[int] | None" = None) -> MotionRows:
        """The position rows of the objects ``numbers`` (every object
        when ``None``) as ``(objects, dim)`` arrays, in that order.  The
        block's ``fallback`` is empty: a row that is not linear is read
        off ``kind``."""
        if self._pending:
            self._sync(numbers)
        n, width, dim = len(self.ids), self.width, self.dim
        if numbers is None:

            def block(column: np.ndarray) -> np.ndarray:
                return column[: n * width].reshape(n, width)[:, width - dim :]

        else:
            rows = np.fromiter(numbers, dtype=np.intp, count=len(numbers))
            rows = rows[:, None] * width + np.arange(width - dim, width)

            def block(column: np.ndarray) -> np.ndarray:
                return column[rows]

        return MotionRows(
            block(self.value),
            block(self.updatetime),
            block(self.slope),
            block(self.kind),
            block(self.intflags),
            {},
        )

    def attribute(self, attr: str, numbers: "Sequence[int]") -> MotionRows:
        """The rows of dynamic attribute ``attr`` of the objects
        ``numbers``, flat, in that order (encoded first, like
        :meth:`positions`; the block's ``fallback`` is empty)."""
        if self._pending:
            self._sync(numbers)
        rows = np.fromiter(numbers, dtype=np.intp, count=len(numbers))
        rows *= self.width
        rows += self._column[attr]
        return MotionRows(
            self.value[rows],
            self.updatetime[rows],
            self.slope[rows],
            self.kind[rows],
            self.intflags[rows],
            {},
        )

    def token(self, number: int) -> tuple[object, ...]:
        """Object ``number``'s position axes as a hashable value, one
        :meth:`_row_token` per axis.  Two tokens are equal exactly when
        the axes' triples are (``1 == 1.0``, ``0.0 == -0.0``)."""
        if self._pending:
            self._sync((number,))
        stop = (number + 1) * self.width
        rows = range(stop - self.dim, stop)
        return tuple(self._row_token(row) for row in rows)

    def _row_token(self, row: int) -> object:
        """One encoded row as a hashable value equal exactly when the
        triples are: the float coefficients ``(value, updatetime,
        slope)`` of a linear row, the raw coefficients of an inexact one
        and the triple itself otherwise."""
        kind = self.kind[row]
        if kind == KIND_LINEAR:
            return (
                self.value.item(row),
                self.updatetime.item(row),
                self.slope.item(row),
            )
        triple = self.fallback[row]
        if kind == KIND_INEXACT:
            return (triple.value, triple.updatetime, triple.function.slope)
        return triple

    def eventful(self) -> list[object]:
        """The ids of the objects with a :data:`KIND_PICKLED` row — a
        function other than a plain ``LinearFunction`` — in insertion
        order.  While no row is pickled and every row written since the
        last read carries a plain law, there are none, and nothing is
        encoded: a fleet of heartbeats reads this without a sync."""
        pending = self._pending
        if not self.fallback and all(
            type(triple.function) is LinearFunction for triple in pending.values()
        ):
            return []
        if pending:
            self._sync()
        n, width = len(self.ids), self.width
        hit = (self.kind[: n * width] == KIND_PICKLED).reshape(n, width).any(axis=1)
        ids = self.ids
        return [ids[i] for i in np.flatnonzero(hit).tolist()]


def linear_legs(
    rows: MotionRows, start: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The single legs from ``start`` on of a position block's linear
    movers (``rows`` arrays of shape ``(objects, dim)``).

    An object qualifies when every axis is :data:`KIND_LINEAR` and all
    axes share one update time at or before ``start``:
    :meth:`~repro.motion.moving.MovingPoint.linear_pieces` then yields
    exactly one leg over any window from ``start``.  Returns ``(qualifies[n],
    origin[n, dim], slope[n, dim])``; ``origin`` is the leg's position at
    ``start``, computed with the scalar path's operations in the scalar
    path's order, so it is bit-identical to it.  Rows that do not
    qualify hold meaningless numbers.
    """
    updatetime = rows.updatetime
    linear = (
        (rows.kind == KIND_LINEAR).all(axis=1)
        & (updatetime == updatetime[:, :1]).all(axis=1)
        & (updatetime[:, 0] <= start)
    )
    value, slope, flags = rows.value, rows.slope, rows.intflags
    # MostObject.moving_point anchors axis j at t0 = max(u), the first
    # axis's update time, as ``value + slope * (t0 - u_j)``: an int zero
    # when slope, t0 and u_j are all ints (a -0.0 value comes back
    # +0.0), a signed float zero otherwise.
    with np.errstate(all="ignore"):
        shift = slope * (updatetime - updatetime)
        if flags.any():
            int_time = (flags & FLAG_UPDATETIME_INT) != 0
            int_slope = (flags & FLAG_SLOPE_INT) != 0
            shift = np.where(int_time[:, :1] & int_time & int_slope, 0.0, shift)
        origin = (value + shift) + slope * (start - updatetime)
    return linear, origin, slope
