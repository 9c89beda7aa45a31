"""B+-tree built from scratch, with per-operation page accounting.

iDistance (§II-C / §VI of the paper) organises one-dimensional keys in a
single B+-tree — the "lightweight index" that replaces the hundreds of hash
tables LSH methods need.  This implementation supports:

* bulk loading from key-sorted items (how every index here is constructed);
* point lookup of a key;
* inclusive range scans over ``[lo, hi]``, either as a leaf walk or as one
  binary search over the bulk-loaded key array (same entries, same charges);
* bidirectional leaf cursors (needed by incremental iDistance kNN search);
* page accounting — every node visited counts as one page read against an
  :class:`repro.storage.AccessCounter`.

Keys may be ints or floats; duplicate keys are allowed and kept in insertion
order within the key.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

import numpy as np

from repro.storage.pagefile import AccessCounter

__all__ = ["BPlusTree", "LeafCursor"]

DEFAULT_ORDER = 64


class _Leaf:
    __slots__ = ("keys", "values", "next", "prev")

    def __init__(self, keys: list, values: list) -> None:
        self.keys = keys
        self.values = values
        self.next: _Leaf | None = None
        self.prev: _Leaf | None = None


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self, keys: list, children: list) -> None:
        # keys[i] is the smallest key reachable under children[i+1].
        self.keys = keys
        self.children = children


def _bisect_left(keys: list, key) -> int:
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _bisect_right(keys: list, key) -> int:
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if key < keys[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


class LeafCursor:
    """Bidirectional cursor over the leaf chain of a :class:`BPlusTree`.

    Crossing into a leaf charges one page to the counter; stepping within a
    leaf is free.  ``key``/``value`` return the current entry; ``valid`` is
    False once the cursor walks off either end.
    """

    def __init__(self, leaf: _Leaf | None, index: int, counter: AccessCounter | None) -> None:
        self._leaf = leaf
        self._index = index
        self._counter = counter
        if leaf is not None and counter is not None:
            counter.add()

    @property
    def valid(self) -> bool:
        return self._leaf is not None and 0 <= self._index < len(self._leaf.keys)

    @property
    def key(self):
        if not self.valid:
            raise IndexError("cursor is exhausted")
        return self._leaf.keys[self._index]

    @property
    def value(self):
        if not self.valid:
            raise IndexError("cursor is exhausted")
        return self._leaf.values[self._index]

    def advance(self) -> bool:
        """Move one entry forward; returns the new validity."""
        if self._leaf is None:
            return False
        self._index += 1
        if self._index >= len(self._leaf.keys):
            self._leaf = self._leaf.next
            self._index = 0
            if self._leaf is not None and self._counter is not None:
                self._counter.add()
        return self.valid

    def retreat(self) -> bool:
        """Move one entry backward; returns the new validity."""
        if self._leaf is None:
            return False
        self._index -= 1
        if self._index < 0:
            self._leaf = self._leaf.prev
            if self._leaf is not None:
                self._index = len(self._leaf.keys) - 1
                if self._counter is not None:
                    self._counter.add()
        return self.valid


class BPlusTree:
    """Bulk-loaded B+-tree with duplicate-key support and page accounting."""

    def __init__(self, root, height: int, n_entries: int, n_nodes: int, order: int,
                 first_leaf: _Leaf | None) -> None:
        self._root = root
        self.height = height
        self.n_entries = n_entries
        self.n_nodes = n_nodes
        self.order = order
        self._first_leaf = first_leaf
        self._flat: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def bulk_load(cls, items: Iterable[tuple[Any, Any]], order: int = DEFAULT_ORDER) -> "BPlusTree":
        """Build a tree from ``(key, value)`` pairs sorted ascending by key.

        Args:
            items: key-sorted pairs; duplicates allowed.
            order: max entries per node (= page fanout).
        """
        if order < 2:
            raise ValueError(f"order must be >= 2, got {order}")
        pairs = list(items)
        for i in range(1, len(pairs)):
            if pairs[i][0] < pairs[i - 1][0]:
                raise ValueError("bulk_load requires items sorted by key")

        if not pairs:
            empty = _Leaf([], [])
            return cls(empty, height=1, n_entries=0, n_nodes=1, order=order, first_leaf=empty)

        # Build the leaf level.
        leaves: list[_Leaf] = []
        for start in range(0, len(pairs), order):
            chunk = pairs[start : start + order]
            leaves.append(_Leaf([k for k, _ in chunk], [v for _, v in chunk]))
        for left, right in zip(leaves, leaves[1:]):
            left.next = right
            right.prev = left

        # Build internal levels bottom-up.
        n_nodes = len(leaves)
        level: list = leaves
        level_min_keys = [leaf.keys[0] for leaf in leaves]
        height = 1
        while len(level) > 1:
            parents: list[_Internal] = []
            parent_min_keys: list = []
            for start in range(0, len(level), order):
                children = level[start : start + order]
                child_mins = level_min_keys[start : start + order]
                parents.append(_Internal(child_mins[1:], children))
                parent_min_keys.append(child_mins[0])
            n_nodes += len(parents)
            level = parents
            level_min_keys = parent_min_keys
            height += 1

        return cls(level[0], height=height, n_entries=len(pairs), n_nodes=n_nodes,
                   order=order, first_leaf=leaves[0])

    # ------------------------------------------------------------------ I/O

    def size_bytes(self, page_size: int) -> int:
        """Index size if each node occupies one page."""
        return self.n_nodes * page_size

    # -------------------------------------------------------------- descent

    def _descend(self, key, counter: AccessCounter | None) -> _Leaf:
        """Walk to the leaf holding the *first* entry with ``entry.key >= key``.

        Uses left-biased descent so that runs of duplicate keys spanning
        several leaves are approached from their first occurrence; the
        forward leaf walk of ``range``/``cursor_at`` absorbs the (at most
        one-leaf) undershoot.
        """
        node = self._root
        while isinstance(node, _Internal):
            if counter is not None:
                counter.add()
            node = node.children[_bisect_left(node.keys, key)]
        return node

    # -------------------------------------------------------------- queries

    def search(self, key, counter: AccessCounter | None = None) -> list:
        """All values stored under ``key`` (may span leaves)."""
        results: list = []
        for k, v in self.range(key, key, counter=counter):
            results.append(v)
        return results

    def range(self, lo, hi, counter: AccessCounter | None = None) -> Iterator[tuple[Any, Any]]:
        """Yield ``(key, value)`` pairs with ``lo <= key <= hi`` in key order."""
        if hi < lo:
            return
        leaf = self._descend(lo, counter)
        if counter is not None:
            counter.add()  # the first leaf
        index = _bisect_left(leaf.keys, lo)
        while True:
            if index >= len(leaf.keys):
                leaf = leaf.next
                if leaf is None:
                    return
                if counter is not None:
                    counter.add()
                index = 0
                continue
            key = leaf.keys[index]
            if key > hi:
                return
            yield key, leaf.values[index]
            index += 1

    def range_values(self, lo, hi, counter: AccessCounter | None = None) -> np.ndarray:
        """Values with ``lo <= key <= hi`` in key order, as one array.

        Returns the entries :meth:`range` yields and charges the same node
        visits, but locates them by binary search over the key array instead
        of walking the leaves.  The charge follows from the bulk-loaded
        layout (leaf ``j`` holds entries ``j·order`` onwards): the left-biased
        descent reads ``height − 1`` internal nodes and lands on the last leaf
        whose first key is below ``lo`` (or the first leaf); the walk then
        reads every leaf up to the one holding the first key above ``hi``
        (or the last leaf).
        """
        if self._flat is None:
            pairs = list(self.items())
            self._flat = (np.array([k for k, _ in pairs]), np.array([v for _, v in pairs]))
        keys, values = self._flat
        if hi < lo:
            return values[:0]
        start = int(np.searchsorted(keys, lo, side="left"))
        stop = int(np.searchsorted(keys, hi, side="right"))
        if counter is not None:
            first_leaf = max(int(np.searchsorted(keys[:: self.order], lo, side="left")) - 1, 0)
            last_leaf = max(min(stop, keys.size - 1), 0) // self.order
            counter.add(self.height - 1 + last_leaf - first_leaf + 1)
        return values[start:stop]

    def cursor_at(self, key, counter: AccessCounter | None = None) -> LeafCursor:
        """Cursor positioned at the first entry with ``entry.key >= key``.

        If every key is smaller, the cursor lands one past the last entry of
        the final leaf (``valid`` is False but ``retreat`` recovers it).
        """
        leaf = self._descend(key, counter)
        index = _bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) and leaf.next is not None:
            leaf = leaf.next
            index = 0
        return LeafCursor(leaf, index, counter)

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All entries in key order (no page accounting; used by tests)."""
        leaf = self._first_leaf
        while leaf is not None:
            yield from zip(leaf.keys, leaf.values)
            leaf = leaf.next

    def __len__(self) -> int:
        return self.n_entries

    def __repr__(self) -> str:
        return (
            f"BPlusTree(entries={self.n_entries}, nodes={self.n_nodes}, "
            f"height={self.height}, order={self.order})"
        )
