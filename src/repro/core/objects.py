"""Object classes and objects of the MOST model (section 2).

"A database is a set of object-classes ... An object-class is a set of
attributes.  Some object-classes are designated as spatial.  A spatial
object class has three attributes called X.POSITION, Y.POSITION,
Z.POSITION, denoting the object's position in space."

Here every attribute is declared either *static* or *dynamic*
(section 2.1); spatial classes implicitly declare their position
attributes as dynamic.  Objects store static attribute values directly and
dynamic ones as :class:`~repro.core.dynamic.DynamicAttribute` triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.dynamic import DynamicAttribute
from repro.errors import SchemaError
from repro.geometry import Point
from repro.motion.functions import ShiftedFunction, TimeFunction
from repro.motion.moving import MovingPoint

#: Canonical names of the spatial position attributes.  (The paper writes
#: ``X.POSITION``; dots are kept out of attribute names so FTL's
#: ``object.attribute`` syntax stays unambiguous.)
X_POSITION = "x_position"
Y_POSITION = "y_position"
Z_POSITION = "z_position"

_POSITION_NAMES = (X_POSITION, Y_POSITION, Z_POSITION)


@dataclass(frozen=True)
class ObjectClass:
    """An object class: named attributes, each static or dynamic.

    Args:
        name: class name (``MOTELS``, ``aircraft``, ...).
        static_attributes: names of static attributes.
        dynamic_attributes: names of non-positional dynamic attributes
            (temperature, fuel, ...).
        spatial_dimensions: 0 for a plain class; 2 or 3 adds the implicit
            dynamic position attributes.
    """

    name: str
    static_attributes: tuple[str, ...] = ()
    dynamic_attributes: tuple[str, ...] = ()
    spatial_dimensions: int = 0

    def __post_init__(self) -> None:
        if self.spatial_dimensions not in (0, 2, 3):
            raise SchemaError("spatial_dimensions must be 0, 2 or 3")
        everything = (
            list(self.static_attributes)
            + list(self.dynamic_attributes)
            + list(self.position_attributes)
        )
        if len(set(everything)) != len(everything):
            raise SchemaError(
                f"duplicate attribute names in class {self.name}: {everything}"
            )

    @property
    def is_spatial(self) -> bool:
        """Whether the class carries position attributes."""
        return self.spatial_dimensions > 0

    @property
    def position_attributes(self) -> tuple[str, ...]:
        """The implicit dynamic position attribute names."""
        return _POSITION_NAMES[: self.spatial_dimensions]

    @property
    def all_dynamic(self) -> tuple[str, ...]:
        """All dynamic attribute names, positions included."""
        return tuple(self.dynamic_attributes) + self.position_attributes

    def is_dynamic(self, attr: str) -> bool:
        """Whether ``attr`` is dynamic in this class."""
        return attr in self.dynamic_attributes or attr in self.position_attributes

    def has_attribute(self, attr: str) -> bool:
        """Whether ``attr`` is declared (static or dynamic)."""
        return (
            attr in self.static_attributes
            or attr in self.dynamic_attributes
            or attr in self.position_attributes
        )


class MostObject:
    """One object: an id plus static values and dynamic triples."""

    __slots__ = ("object_id", "object_class", "_static", "_dynamic")

    def __init__(
        self,
        object_id: object,
        object_class: ObjectClass,
        static: Mapping[str, object] | None = None,
        dynamic: Mapping[str, DynamicAttribute] | None = None,
    ) -> None:
        static = dict(static or {})
        dynamic = dict(dynamic or {})
        for name in static:
            if name not in object_class.static_attributes:
                raise SchemaError(
                    f"{name!r} is not a static attribute of {object_class.name}"
                )
        for name in dynamic:
            if not object_class.is_dynamic(name):
                raise SchemaError(
                    f"{name!r} is not a dynamic attribute of {object_class.name}"
                )
        missing = [
            name for name in object_class.all_dynamic if name not in dynamic
        ]
        if missing:
            raise SchemaError(
                f"object {object_id!r} missing dynamic attributes {missing}"
            )
        self.object_id = object_id
        self.object_class = object_class
        self._static = static
        self._dynamic = dynamic

    # ------------------------------------------------------------------
    # Attribute access
    # ------------------------------------------------------------------
    def static_value(self, attr: str) -> object:
        """A static attribute's stored value (NULL when never set)."""
        if attr not in self.object_class.static_attributes:
            raise SchemaError(
                f"{attr!r} is not a static attribute of "
                f"{self.object_class.name}"
            )
        return self._static.get(attr)

    def dynamic_attribute(self, attr: str) -> DynamicAttribute:
        """A dynamic attribute's current (value, updatetime, function)."""
        try:
            return self._dynamic[attr]
        except KeyError:
            raise SchemaError(
                f"{attr!r} is not a dynamic attribute of "
                f"{self.object_class.name}"
            ) from None

    def value_at(self, attr: str, t: float) -> object:
        """The attribute's value at time ``t`` — the evaluation rule the
        DBMS applies when a query mentions a dynamic attribute."""
        if self.object_class.is_dynamic(attr):
            return self._dynamic[attr].value_at(t)
        return self.static_value(attr)

    # ------------------------------------------------------------------
    # Spatial view
    # ------------------------------------------------------------------
    def moving_point(self) -> MovingPoint:
        """The object's position as a moving point.

        The per-axis dynamic attributes may have different update times;
        they are re-anchored onto the latest one so a single
        :class:`MovingPoint` describes the object from there on.
        """
        if not self.object_class.is_spatial:
            raise SchemaError(
                f"class {self.object_class.name} is not spatial"
            )
        attrs = [
            self._dynamic[name]
            for name in self.object_class.position_attributes
        ]
        anchor_time = max(a.updatetime for a in attrs)
        anchor = Point(*(a.value_at(anchor_time) for a in attrs))
        functions: list[TimeFunction] = [
            a.function
            if a.updatetime == anchor_time
            else ShiftedFunction(a.function, anchor_time - a.updatetime)
            for a in attrs
        ]
        return MovingPoint(anchor, functions, anchor_time=anchor_time)

    def position_at(self, t: float) -> Point:
        """Position at time ``t`` (spatial classes only)."""
        if not self.object_class.is_spatial:
            raise SchemaError(
                f"class {self.object_class.name} is not spatial"
            )
        return Point(
            *(
                self._dynamic[name].value_at(t)
                for name in self.object_class.position_attributes
            )
        )

    # ------------------------------------------------------------------
    # Mutation (package-internal; go through MostDatabase.update_* so the
    # update log stays authoritative)
    # ------------------------------------------------------------------
    def _set_static(self, attr: str, value: object) -> object:
        old = self.static_value(attr)
        self._static[attr] = value
        return old

    def __repr__(self) -> str:
        return (
            f"MostObject({self.object_id!r}, class={self.object_class.name})"
        )
