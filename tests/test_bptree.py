"""Tests for repro.index.bptree — structure, queries, cursors, accounting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.bptree import BPlusTree
from repro.storage.pagefile import AccessCounter


def _tree_from_keys(keys, order=4):
    pairs = [(k, i) for i, k in enumerate(sorted(keys))]
    return BPlusTree.bulk_load(pairs, order=order), pairs


class TestBulkLoad:
    def test_empty_tree(self):
        tree = BPlusTree.bulk_load([], order=4)
        assert len(tree) == 0
        assert list(tree.range(-10, 10)) == []
        assert tree.search(0) == []

    def test_single_entry(self):
        tree = BPlusTree.bulk_load([(5, "a")], order=4)
        assert tree.search(5) == ["a"]
        assert tree.height == 1

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            BPlusTree.bulk_load([(2, 0), (1, 1)], order=4)

    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            BPlusTree.bulk_load([(1, 0)], order=1)

    def test_items_in_key_order(self):
        keys = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
        tree, pairs = _tree_from_keys(keys)
        assert [k for k, _ in tree.items()] == sorted(keys)

    def test_height_grows_logarithmically(self):
        tree, _ = _tree_from_keys(range(1000), order=8)
        # 1000 entries / order 8 → 125 leaves → ceil(log8(125)) + 1 levels.
        assert 3 <= tree.height <= 4
        assert tree.n_nodes > 125

    def test_size_bytes(self):
        tree, _ = _tree_from_keys(range(100), order=8)
        assert tree.size_bytes(4096) == tree.n_nodes * 4096


class TestSearch:
    def test_point_lookup(self):
        tree, _ = _tree_from_keys(range(0, 100, 2), order=4)
        assert tree.search(40) == [20]  # value is the insertion index
        assert tree.search(41) == []

    def test_duplicate_keys(self):
        pairs = [(1, "a"), (2, "b"), (2, "c"), (2, "d"), (3, "e")]
        tree = BPlusTree.bulk_load(pairs, order=2)
        assert tree.search(2) == ["b", "c", "d"]

    def test_float_keys(self):
        pairs = [(0.5, 0), (1.25, 1), (2.75, 2)]
        tree = BPlusTree.bulk_load(pairs, order=4)
        assert tree.search(1.25) == [1]
        assert [v for _, v in tree.range(0.6, 2.8)] == [1, 2]


class TestRange:
    @given(
        st.lists(st.integers(min_value=0, max_value=200), min_size=0, max_size=300),
        st.integers(min_value=-10, max_value=210),
        st.integers(min_value=-10, max_value=210),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_sorted_list_reference(self, keys, lo, hi):
        tree, pairs = _tree_from_keys(keys, order=4)
        expected = [(k, v) for k, v in pairs if lo <= k <= hi]
        assert list(tree.range(lo, hi)) == expected

    def test_inverted_range_is_empty(self):
        tree, _ = _tree_from_keys(range(10))
        assert list(tree.range(5, 3)) == []

    def test_full_range(self):
        tree, pairs = _tree_from_keys(range(50), order=4)
        assert list(tree.range(-100, 100)) == pairs


class TestPageAccounting:
    def test_range_counts_descent_plus_leaves(self):
        tree, _ = _tree_from_keys(range(256), order=4)
        counter = AccessCounter()
        list(tree.range(0, 255, counter=counter))
        # All 64 leaves plus the internal descent must be charged.
        assert counter.pages >= 64
        assert counter.pages <= tree.n_nodes + tree.height

    def test_narrow_range_is_cheap(self):
        tree, _ = _tree_from_keys(range(256), order=4)
        counter = AccessCounter()
        list(tree.range(10, 11, counter=counter))
        assert counter.pages <= tree.height + 2

    def test_counter_optional(self):
        tree, _ = _tree_from_keys(range(16))
        assert len(list(tree.range(0, 15))) == 16


class TestCursor:
    def test_cursor_walks_forward(self):
        tree, pairs = _tree_from_keys([1, 3, 5, 7, 9], order=2)
        cursor = tree.cursor_at(4)
        seen = []
        while cursor.valid:
            seen.append(cursor.key)
            cursor.advance()
        assert seen == [5, 7, 9]

    def test_cursor_walks_backward(self):
        tree, _ = _tree_from_keys([1, 3, 5, 7, 9], order=2)
        cursor = tree.cursor_at(6)
        assert cursor.key == 7
        cursor.retreat()
        assert cursor.key == 5
        cursor.retreat()
        assert cursor.key == 3

    def test_cursor_past_end(self):
        tree, _ = _tree_from_keys([1, 2, 3], order=2)
        cursor = tree.cursor_at(100)
        assert not cursor.valid
        # Walking back recovers the last entry.
        cursor.retreat()
        assert cursor.valid
        assert cursor.key == 3

    def test_cursor_value_access(self):
        tree = BPlusTree.bulk_load([(1, "x"), (2, "y")], order=4)
        cursor = tree.cursor_at(2)
        assert cursor.value == "y"

    def test_exhausted_cursor_raises(self):
        tree, _ = _tree_from_keys([1], order=2)
        cursor = tree.cursor_at(5)
        with pytest.raises(IndexError):
            _ = cursor.key

    def test_cursor_counts_leaf_pages(self):
        tree, _ = _tree_from_keys(range(64), order=4)
        counter = AccessCounter()
        cursor = tree.cursor_at(0, counter=counter)
        start_pages = counter.pages
        for _ in range(63):
            cursor.advance()
        # 16 leaves of 4 entries each → 15 transitions after the first.
        assert counter.pages - start_pages == 15


class TestLargeTreeInvariants:
    def test_random_workload(self):
        gen = np.random.default_rng(3)
        keys = gen.integers(0, 5000, size=4000).tolist()
        tree, pairs = _tree_from_keys(keys, order=32)
        assert len(tree) == 4000
        for lo, hi in [(0, 100), (2500, 2600), (4999, 5001), (-5, -1)]:
            expected = [(k, v) for k, v in pairs if lo <= k <= hi]
            assert list(tree.range(lo, hi)) == expected


class TestRangeValues:
    """The binary-search range returns what the leaf walk yields and charges
    the same node visits, duplicates and boundary keys included."""

    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.lists(st.integers(-20, 20), max_size=300),
        order=st.integers(2, 9),
        lo=st.integers(-25, 25),
        span=st.integers(-3, 30),
    )
    def test_matches_leaf_walk(self, keys, order, lo, span):
        keys = sorted(keys)
        tree = BPlusTree.bulk_load([(k, i) for i, k in enumerate(keys)], order=order)
        hi = lo + span
        walk, fast = AccessCounter(), AccessCounter()
        expected = [v for _, v in tree.range(lo, hi, counter=walk)]
        got = tree.range_values(lo, hi, counter=fast)
        assert got.tolist() == expected
        assert fast.pages == walk.pages
