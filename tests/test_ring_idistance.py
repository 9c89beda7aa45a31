"""Tests for repro.index.ring_idistance — the paper's §VI partition pattern."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.ring_idistance import RangeResult, RingIDistance
from repro.storage.pagefile import AccessCounter, VectorStore


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(21).standard_normal((1500, 5))


@pytest.fixture(scope="module")
def ring(points):
    return RingIDistance(
        points, kp=4, n_key=12, ksp=4, rng=np.random.default_rng(22)
    )


class TestBuild:
    def test_layout_is_permutation(self, ring, points):
        assert sorted(ring.layout_order.tolist()) == list(range(len(points)))

    def test_subpartitions_cover_all_points(self, ring, points):
        members = np.concatenate([sp.member_ids for sp in ring.subpartitions])
        assert sorted(members.tolist()) == list(range(len(points)))

    def test_subpartition_radii_cover_members(self, ring, points):
        for sp in ring.subpartitions:
            dists = np.linalg.norm(points[sp.member_ids] - sp.pivot, axis=1)
            assert dists.max() <= sp.radius + 1e-9

    def test_keys_follow_formula6(self, ring, points):
        # Every member's key must equal ⌊i·C + dis(p, O_i)/ε⌋ for its
        # partition i — reconstruct from the stored geometry.
        for sp in ring.subpartitions[:20]:
            part = sp.key // ring.C
            ring_idx = sp.key - part * ring.C
            dists = np.linalg.norm(points[sp.member_ids] - ring.centers[part], axis=1)
            assert np.all((dists / ring.epsilon).astype(int) == ring_idx)

    def test_epsilon_override(self, points):
        custom = RingIDistance(
            points, kp=3, n_key=10, ksp=3, rng=np.random.default_rng(1), epsilon=0.5
        )
        assert custom.epsilon == 0.5

    def test_rejects_bad_epsilon(self, points):
        with pytest.raises(ValueError):
            RingIDistance(points, 3, 10, 3, np.random.default_rng(1), epsilon=-1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RingIDistance(np.empty((0, 4)), 3, 10, 3, np.random.default_rng(1))

    def test_rejects_bad_nkey(self, points):
        with pytest.raises(ValueError):
            RingIDistance(points, 3, 0, 3, np.random.default_rng(1))

    def test_selectivity_in_unit_interval(self, ring):
        assert 0.0 < ring.selectivity() < 1.0

    def test_index_size_positive(self, ring):
        assert ring.index_size_bytes(4096) > 0


class TestRangeSearch:
    @pytest.mark.parametrize("radius", [0.4, 1.0, 2.5, 5.0])
    def test_matches_brute_force(self, ring, points, radius):
        query = np.random.default_rng(int(radius * 7)).standard_normal(5)
        ids, dists = ring.range_search(query, radius)
        brute = np.linalg.norm(points - query, axis=1)
        expected = set(np.flatnonzero(brute <= radius).tolist())
        assert set(ids.tolist()) == expected

    def test_results_sorted_by_distance(self, ring):
        query = np.random.default_rng(5).standard_normal(5)
        _, dists = ring.range_search(query, 3.0)
        assert np.all(np.diff(dists) >= 0)

    def test_annulus_excludes_inner_ball(self, ring, points):
        query = np.random.default_rng(6).standard_normal(5)
        ids, dists = ring.range_search(query, 3.0, min_radius=1.5)
        brute = np.linalg.norm(points - query, axis=1)
        expected = set(np.flatnonzero((brute <= 3.0) & (brute > 1.5)).tolist())
        assert set(ids.tolist()) == expected
        assert np.all(dists > 1.5)

    def test_rejects_negative_radius(self, ring):
        with pytest.raises(ValueError):
            ring.range_search(np.zeros(5), -0.1)

    def test_counts_tree_and_data_pages(self, ring, points):
        counter = AccessCounter()
        store = VectorStore(points, page_size=256, layout_order=ring.layout_order)
        reader = store.reader()
        ring.range_search(np.zeros(5), 2.0, tree_counter=counter, reader=reader)
        assert counter.pages > 0
        assert reader.pages_touched > 0

    def test_subpartition_layout_gives_sequential_reads(self, ring, points):
        """Points of one sub-partition must occupy contiguous slots, the
        §VI property that turns candidate fetches into sequential I/O."""
        slot_of = np.empty(len(points), dtype=int)
        slot_of[ring.layout_order] = np.arange(len(points))
        for sp in ring.subpartitions[:30]:
            slots = np.sort(slot_of[sp.member_ids])
            assert np.array_equal(slots, np.arange(slots[0], slots[0] + len(slots)))


class TestKnnIterate:
    def test_yields_in_nondecreasing_distance_order(self, ring):
        query = np.random.default_rng(8).standard_normal(5)
        dists = [d for _, d in zip_take(ring.knn_iterate(query), 200)]
        assert all(a <= b + 1e-12 for a, b in zip(dists, dists[1:]))

    def test_first_yield_is_nearest(self, ring, points):
        query = np.random.default_rng(9).standard_normal(5)
        pid, dist = next(iter(ring.knn_iterate(query)))
        brute = np.linalg.norm(points - query, axis=1)
        assert dist == pytest.approx(brute.min(), abs=1e-9)

    def test_exhausts_whole_dataset(self, points):
        small = RingIDistance(
            points[:120], kp=3, n_key=6, ksp=3, rng=np.random.default_rng(3)
        )
        query = np.random.default_rng(10).standard_normal(5)
        seen = [pid for pid, _ in small.knn_iterate(query)]
        assert sorted(seen) == list(range(120))


def zip_take(iterator, n):
    out = []
    for item in iterator:
        out.append(item)
        if len(out) >= n:
            break
    return out


class TestRangeResult:
    """The lazily sorted result reads exactly like a stable argsort."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        size=st.integers(0, 1500),
        distinct=st.integers(1, 40),
        steps=st.lists(st.integers(1, 600), min_size=1, max_size=8),
    )
    def test_prefixes_match_stable_argsort(self, seed, size, distinct, steps):
        # Few distinct values: ties straddle every partition cut.
        gen = np.random.default_rng(seed)
        dists = gen.integers(0, distinct, size=size) / 4.0
        ids = gen.permutation(size)
        order = np.argsort(dists, kind="stable")
        result = RangeResult(ids, dists)
        assert len(result) == dists.size
        start = 0
        for step in steps:
            got_ids, got_dists = result.take(start, start + step)
            assert np.array_equal(got_ids, ids[order][start : start + step])
            assert np.array_equal(got_dists, dists[order][start : start + step])
            start += step
        all_ids, all_dists = result
        assert np.array_equal(all_ids, ids[order])
        assert np.array_equal(all_dists, dists[order])

    def test_sorts_only_what_is_read(self):
        dists = np.random.default_rng(3).random(10_000)
        result = RangeResult(np.arange(dists.size), dists)
        result.take(0, 32)
        assert result._sorted_ids.size < 1_000
