"""The interval relations ``R_g`` of the appendix algorithm.

"For each subformula g of f, our algorithm computes a relation R_g ...
The relation R_g will have (l+1) attributes, the first l attributes
correspond to the l variables, and the last attribute denotes a time
interval."

:class:`FtlRelation` stores, per variable instantiation, the *normalised*
:class:`~repro.temporal.IntervalSet` of satisfaction ticks — which gives
the appendix's non-overlapping, non-consecutive interval invariant for
free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import FtlSemanticsError
from repro.temporal import DISCRETE, IntervalSet

Instantiation = tuple[object, ...]

EMPTY_SET = IntervalSet.empty(DISCRETE)


@dataclass(frozen=True)
class AnswerTuple:
    """One tuple of ``Answer(CQ)``: an instantiation of the query's target
    variables plus the interval ``[begin, end]`` during which it satisfies
    the query (section 2.3)."""

    values: Instantiation
    begin: float
    end: float

    def active_at(self, t: float) -> bool:
        """Whether this tuple is displayed at clock tick ``t``."""
        return self.begin <= t <= self.end


class FtlRelation:
    """A relation from variable instantiations to satisfaction ticks.

    Rows with empty interval sets are never stored; a missing row means
    "never satisfied".

    For incremental continuous-query maintenance the relation keeps an
    optional inverted index (value → instantiations mentioning it), built
    lazily on the first :meth:`rows_touching` or :meth:`matching` call and
    maintained by every subsequent mutation, so the recompute frontier of
    an update, and a delta row's join partners, are found in time
    proportional to the number of affected rows.  Each value's bucket is
    an insertion-ordered dict, so what the index returns comes in an
    order fixed by the mutation history, never by the hash seed.
    """

    __slots__ = ("variables", "_rows", "_index")

    def __init__(
        self,
        variables: Iterable[str],
        rows: dict[Instantiation, IntervalSet] | None = None,
    ) -> None:
        self.variables = tuple(variables)
        self._rows: dict[Instantiation, IntervalSet] = {}
        self._index: dict[object, dict[Instantiation, None]] | None = None
        for inst, iset in (rows or {}).items():
            self.set(inst, iset)

    # ------------------------------------------------------------------
    def set(self, inst: Instantiation, iset: IntervalSet) -> None:
        """Store a row, dropping empty interval sets."""
        if len(inst) != len(self.variables):
            raise FtlSemanticsError(
                f"instantiation arity {len(inst)} != {len(self.variables)}"
            )
        if iset.is_empty:
            if self._rows.pop(inst, None) is not None:
                self._index_remove(inst)
        else:
            if inst not in self._rows:
                self._index_add(inst)
            self._rows[inst] = iset

    def add(self, inst: Instantiation, iset: IntervalSet) -> None:
        """Union an interval set into a row."""
        current = self._rows.get(inst)
        self.set(inst, iset if current is None else current.union(iset))

    def get(self, inst: Instantiation) -> IntervalSet:
        """Satisfaction set of one instantiation (empty when absent)."""
        return self._rows.get(inst, EMPTY_SET)

    def rows(self) -> Iterator[tuple[Instantiation, IntervalSet]]:
        """All stored (non-empty) rows."""
        return iter(self._rows.items())

    def rows_of(
        self, insts: Iterable[Instantiation]
    ) -> list[tuple[Instantiation, IntervalSet]]:
        """The stored rows among ``insts``, in the order given."""
        rows = self._rows
        return [(inst, rows[inst]) for inst in insts if inst in rows]

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    # ------------------------------------------------------------------
    # Inverted index + incremental patching
    # ------------------------------------------------------------------
    def _ensure_index(self) -> dict[object, dict[Instantiation, None]]:
        if self._index is None:
            self._index = {}
            for inst in self._rows:
                self._index_add(inst)
        return self._index

    def _index_add(self, inst: Instantiation) -> None:
        if self._index is not None:
            for value in inst:
                self._index.setdefault(value, {})[inst] = None

    def _index_remove(self, inst: Instantiation) -> None:
        if self._index is not None:
            for value in inst:
                bucket = self._index.get(value)
                if bucket is not None:
                    bucket.pop(inst, None)

    def rows_touching(self, values: Iterable[object]) -> list[Instantiation]:
        """Stored instantiations that mention any of the given values.

        This is the per-relation recompute frontier of an update: the rows
        whose cached interval sets may have been invalidated because one of
        their objects changed.  Rows come value by value, each value's in
        bucket order.
        """
        index = self._ensure_index()
        out: dict[Instantiation, None] = {}
        for value in values:
            bucket = index.get(value)
            if bucket:
                out.update(bucket)
        return list(out)

    def matching(
        self, positions: Sequence[int], key: tuple
    ) -> list[tuple[Instantiation, IntervalSet]]:
        """The rows whose values at ``positions`` equal ``key`` (one value
        per position, at least one position), found through the inverted
        index: the smallest bucket of the key's values, filtered by
        position, in bucket order.  A join's probe side — it costs the
        matches, not the relation."""
        index = self._ensure_index()
        bucket: dict[Instantiation, None] | None = None
        for value in key:
            candidates = index.get(value)
            if not candidates:
                return []
            if bucket is None or len(candidates) < len(bucket):
                bucket = candidates
        rows = self._rows
        if len(positions) == 1:
            (p,), (v,) = positions, key
            return [(inst, rows[inst]) for inst in bucket if inst[p] == v]
        return [
            (inst, rows[inst])
            for inst in bucket
            if all(inst[p] == v for p, v in zip(positions, key))
        ]

    def patch(
        self,
        stale: Iterable[Instantiation],
        replacement: "FtlRelation",
    ) -> "FtlRelation":
        """Splice recomputed rows into this relation, in place.

        Drops every ``stale`` instantiation, then adopts every row of
        ``replacement`` (a freshly recomputed sub-relation over the same
        variables).  Rows carry normalised :class:`IntervalSet` values and
        are replaced wholesale, so the appendix's non-overlapping,
        non-consecutive interval invariant is preserved; a stale row absent
        from the replacement means "no longer satisfied" and is removed.
        """
        if tuple(replacement.variables) != self.variables:
            raise FtlSemanticsError(
                f"cannot patch {self.variables} with rows over "
                f"{replacement.variables}"
            )
        for inst in stale:
            if self._rows.pop(inst, None) is not None:
                self._index_remove(inst)
        for inst, iset in replacement.rows():
            self.set(inst, iset)
        return self

    def clipped(self, lo: float, hi: float) -> "FtlRelation":
        """A copy with every interval set clipped to ``[lo, hi]``."""
        return self.map_sets(lambda s: s.clip(lo, hi))

    # ------------------------------------------------------------------
    def index_of(self, var: str) -> int:
        """Column position of a variable."""
        try:
            return self.variables.index(var)
        except ValueError:
            raise FtlSemanticsError(
                f"variable {var!r} not in relation {self.variables}"
            ) from None

    def map_sets(
        self, fn: Callable[[IntervalSet], IntervalSet]
    ) -> "FtlRelation":
        """Apply an interval-set transform to every row (the unary
        temporal operators)."""
        out = FtlRelation(self.variables)
        for inst, iset in self._rows.items():
            out.set(inst, fn(iset))
        return out

    def project(self, targets: Iterable[str]) -> "FtlRelation":
        """Project onto the target variables, unioning the interval sets
        of rows that collapse together."""
        targets = tuple(targets)
        positions = [self.index_of(v) for v in targets]
        out = FtlRelation(targets)
        for inst, iset in self._rows.items():
            out.add(tuple(inst[p] for p in positions), iset)
        return out

    def satisfied_at(self, t: float) -> set[Instantiation]:
        """Instantiations whose satisfaction set contains ``t`` — the
        answer of the instantaneous query at tick ``t``."""
        return {inst for inst, iset in self._rows.items() if iset.contains(t)}

    def answer_tuples(self) -> list[AnswerTuple]:
        """Flatten into ``Answer(CQ)`` tuples (one per maximal interval)."""
        out: list[AnswerTuple] = []
        for inst, iset in sorted(self._rows.items(), key=lambda kv: str(kv[0])):
            for iv in iset:
                out.append(AnswerTuple(inst, iv.start, iv.end))
        return out

    def __repr__(self) -> str:
        return f"FtlRelation({self.variables}, {len(self._rows)} rows)"


def merge_instantiations(
    vars_out: tuple[str, ...],
    vars_a: tuple[str, ...],
    inst_a: Instantiation,
    vars_b: tuple[str, ...],
    inst_b: Instantiation,
) -> Instantiation:
    """Combine two instantiations into the output variable order (values
    for shared variables are assumed equal — the join guarantees it)."""
    lookup = dict(zip(vars_a, inst_a))
    lookup.update(zip(vars_b, inst_b))
    return tuple(lookup[v] for v in vars_out)
