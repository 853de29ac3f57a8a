"""Query results: immutable relations (schema + rows).

Every SELECT returns a :class:`Relation`; the FTL evaluator's ``R_g``
relations (appendix) reuse the same shape with an interval-typed last
column handled at the FTL layer.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.dbms.schema import Schema
from repro.errors import SchemaError


class Relation:
    """An immutable bag of typed rows under a schema."""

    __slots__ = ("_schema", "_rows")

    def __init__(
        self, schema: Schema, rows: Iterable[Sequence[object]] = ()
    ) -> None:
        self._schema = schema
        self._rows = tuple(schema.validate_row(r) for r in rows)

    @property
    def schema(self) -> Schema:
        """The result schema."""
        return self._schema

    @property
    def rows(self) -> tuple[tuple[object, ...], ...]:
        """All rows, in result order."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple[object, ...]]:
        return iter(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def column(self, name: str) -> list[object]:
        """All values of one column."""
        idx = self._schema.index_of(name)
        return [r[idx] for r in self._rows]

    def scalar(self) -> object:
        """The single value of a 1×1 result (the paper's atomic queries
        "retrieve single values", section 3.2)."""
        if len(self._rows) != 1 or self._schema.arity != 1:
            raise SchemaError(
                f"expected a 1x1 result, got {len(self._rows)} rows x "
                f"{self._schema.arity} columns"
            )
        return self._rows[0][0]

    def to_set(self) -> set[tuple[object, ...]]:
        """Rows as a set (order-insensitive comparison in tests)."""
        return set(self._rows)

    def __repr__(self) -> str:
        return f"Relation({self._schema.names}, {len(self._rows)} rows)"
