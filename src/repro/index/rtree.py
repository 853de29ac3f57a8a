"""An R-tree over bounding boxes (Guttman, quadratic split).

Section 7 of the paper plans to "experimentally compare various mechanisms
for indexing dynamic attributes"; the R-tree is the natural competitor to
the region-decomposition scheme of section 4 and is what experiment E3's
ablation compares against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import IndexError_
from repro.spatial.regions import Box


@dataclass
class _Entry:
    box: Box
    child: "_Node | None"  # internal entries
    payload: object | None  # leaf entries


class _Node:
    __slots__ = ("entries", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.entries: list[_Entry] = []

    def mbr(self) -> Box:
        box = self.entries[0].box
        for e in self.entries[1:]:
            box = box.union(e.box)
        return box


def _enlargement(box: Box, extra: Box) -> float:
    return box.union(extra).volume - box.volume


class RTree:
    """An in-memory R-tree mapping boxes to payloads."""

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 4:
            raise IndexError_("R-tree max_entries must be at least 4")
        self._max = max_entries
        self._min = max(2, max_entries // 2)
        self._root = _Node(is_leaf=True)
        self._size = 0
        #: Nodes touched by the last query (experiment E3 reads this).
        self.last_nodes_visited = 0

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert(self, box: Box, payload: object) -> None:
        """Insert one (box, payload) pair."""
        split = self._insert(self._root, _Entry(box, None, payload))
        if split is not None:
            old_root = self._root
            self._root = _Node(is_leaf=False)
            self._root.entries = [
                _Entry(old_root.mbr(), old_root, None),
                _Entry(split.mbr(), split, None),
            ]
        self._size += 1

    def _insert(self, node: _Node, entry: _Entry) -> "_Node | None":
        if node.is_leaf:
            node.entries.append(entry)
        else:
            best = min(
                node.entries,
                key=lambda e: (
                    _enlargement(e.box, entry.box),
                    e.box.volume,
                ),
            )
            split = self._insert(best.child, entry)
            best.box = best.box.union(entry.box)
            if split is not None:
                node.entries.append(_Entry(split.mbr(), split, None))
        if len(node.entries) > self._max:
            return self._split(node)
        return None

    def _split(self, node: _Node) -> _Node:
        """Guttman's quadratic split."""
        entries = node.entries
        # Pick the pair wasting the most area as seeds.
        worst = None
        seeds = (0, 1)
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                waste = (
                    entries[i].box.union(entries[j].box).volume
                    - entries[i].box.volume
                    - entries[j].box.volume
                )
                if worst is None or waste > worst:
                    worst = waste
                    seeds = (i, j)
        group_a = [entries[seeds[0]]]
        group_b = [entries[seeds[1]]]
        rest = [
            e for k, e in enumerate(entries) if k not in seeds
        ]
        box_a = group_a[0].box
        box_b = group_b[0].box
        for e in rest:
            remaining = len(rest) - (len(group_a) + len(group_b) - 2)
            if len(group_a) + remaining <= self._min:
                group_a.append(e)
                box_a = box_a.union(e.box)
                continue
            if len(group_b) + remaining <= self._min:
                group_b.append(e)
                box_b = box_b.union(e.box)
                continue
            da = _enlargement(box_a, e.box)
            db = _enlargement(box_b, e.box)
            if da < db or (da == db and len(group_a) <= len(group_b)):
                group_a.append(e)
                box_a = box_a.union(e.box)
            else:
                group_b.append(e)
                box_b = box_b.union(e.box)
        node.entries = group_a
        sibling = _Node(is_leaf=node.is_leaf)
        sibling.entries = group_b
        return sibling

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, box: Box) -> list[object]:
        """Payloads whose boxes intersect the probe box."""
        self.last_nodes_visited = 0
        out: list[object] = []
        self._search(self._root, box, out)
        return out

    def _search(self, node: _Node, box: Box, out: list[object]) -> None:
        self.last_nodes_visited += 1
        for entry in node.entries:
            if not entry.box.intersects(box):
                continue
            if node.is_leaf:
                out.append(entry.payload)
            else:
                self._search(entry.child, box, out)

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------
    def delete(self, box: Box, payload: object) -> bool:
        """Remove one (box, payload) pair; returns whether it existed.

        Underflowing nodes are dissolved and their entries reinserted
        (Guttman's condense-tree, simplified).
        """
        orphans: list[_Entry] = []
        removed = self._delete(self._root, box, payload, orphans)
        if removed:
            self._size -= 1
            if not self._root.is_leaf and not self._root.entries:
                self._root = _Node(is_leaf=True)
            if not self._root.is_leaf and len(self._root.entries) == 1:
                child = self._root.entries[0].child
                if child is not None:
                    self._root = child
            for entry in orphans:
                split = self._insert(self._root, entry)
                if split is not None:
                    old_root = self._root
                    self._root = _Node(is_leaf=False)
                    self._root.entries = [
                        _Entry(old_root.mbr(), old_root, None),
                        _Entry(split.mbr(), split, None),
                    ]
        return removed

    def _delete(
        self,
        node: _Node,
        box: Box,
        payload: object,
        orphans: list[_Entry],
    ) -> bool:
        if node.is_leaf:
            for i, entry in enumerate(node.entries):
                if entry.payload == payload and entry.box.lo == box.lo and entry.box.hi == box.hi:
                    node.entries.pop(i)
                    return True
            return False
        for entry in node.entries:
            if entry.box.intersects(box) and entry.child is not None:
                if self._delete(entry.child, box, payload, orphans):
                    if entry.child.is_leaf and len(entry.child.entries) < self._min:
                        orphans.extend(entry.child.entries)
                        node.entries.remove(entry)
                    elif not entry.child.entries:
                        # An internal child emptied by leaf dissolution.
                        node.entries.remove(entry)
                    else:
                        entry.box = entry.child.mbr()
                    return True
        return False

    # ------------------------------------------------------------------
    def height(self) -> int:
        """Number of levels."""
        h = 1
        node = self._root
        while not node.is_leaf:
            node = node.entries[0].child
            h += 1
        return h
