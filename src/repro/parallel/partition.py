"""Chunking of the split variable's domain into shards.

Partitioning only affects *load balance*, never correctness: every row of
an ``R_g`` relation is computed from the instantiated objects alone, so
the sharded evaluator is exact for any partition of the split variable's
domain (DESIGN.md §12; ``tests/parallel/test_partition_invariance.py``
property-checks it).  The partitioner therefore looks at nothing but the
domain list: contiguous, ±1-balanced chunks in domain order — no
history, no window, no trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import QueryError

__all__ = ["ShardPlan", "partition_ids"]


def partition_ids(
    ids: Sequence[object], shard_count: int
) -> list[list[object]]:
    """Cut ``ids`` into up to ``shard_count`` contiguous chunks.

    Deterministic: the same ids and count always produce the same
    shards, in domain order.  Every id appears in exactly one shard;
    shard sizes differ by at most one; fewer (never empty) shards come
    back when there are fewer ids than requested shards.
    """
    if shard_count < 1:
        raise QueryError(f"shard_count must be >= 1, got {shard_count}")
    shard_count = min(shard_count, len(ids))
    if shard_count == 0:
        return []
    base, extra = divmod(len(ids), shard_count)
    shards: list[list[object]] = []
    cursor = 0
    for s in range(shard_count):
        size = base + (1 if s < extra else 0)
        shards.append(list(ids[cursor : cursor + size]))
        cursor += size
    return shards


@dataclass(frozen=True)
class ShardPlan:
    """The partition of one split variable's class into shards."""

    split_var: str
    class_name: str
    shards: tuple[tuple[object, ...], ...]

    @classmethod
    def build(
        cls,
        split_var: str,
        class_name: str,
        ids: Sequence[object],
        shard_count: int,
    ) -> "ShardPlan":
        """Partition ``ids``, the class population the split variable
        ranges over."""
        return cls(
            split_var=split_var,
            class_name=class_name,
            shards=tuple(tuple(s) for s in partition_ids(ids, shard_count)),
        )

    @property
    def shard_count(self) -> int:
        """Number of (non-empty) shards."""
        return len(self.shards)

    def shard_of(self, oid: object) -> int | None:
        """Index of the shard containing ``oid`` (``None`` when absent)."""
        for i, members in enumerate(self.shards):
            if oid in members:
                return i
        return None
