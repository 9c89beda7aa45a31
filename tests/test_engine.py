"""Tests for repro.core.engine — the shared batch kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import (
    GEMM_PANEL,
    CandidateVerifier,
    TopK,
    batch_inner_products,
    batch_topk,
    project_batch,
    topk_ids_scores,
)
from repro.index.ring_idistance import RangeResult
from repro.stats.chi2 import ChiSquare
from repro.storage.pagefile import VectorStore


@pytest.fixture(scope="module")
def blocks():
    gen = np.random.default_rng(42)
    data = gen.standard_normal((500, 19))
    queries = gen.standard_normal((64, 19))
    return data, queries


class TestBatchInnerProducts:
    def test_values_match_reference(self, blocks):
        data, queries = blocks
        out = batch_inner_products(data, queries)
        assert out.shape == (500, 64)
        assert np.allclose(out, data @ queries.T)

    def test_columns_invariant_to_batch_width(self, blocks):
        """The bit-identity keystone: a query's scores must not depend on how
        many other queries shared its GEMM, nor where in a panel it sat."""
        data, queries = blocks
        full = batch_inner_products(data, queries)
        for width in (1, 2, 3, GEMM_PANEL, GEMM_PANEL + 1, 17):
            sub = batch_inner_products(data, queries[:width])
            assert np.array_equal(sub, full[:, :width]), f"width {width} diverged"

    def test_columns_invariant_at_hostile_shapes(self):
        """Shapes where raw variable-width GEMMs demonstrably diverge on
        OpenBLAS (e.g. 512×64 data) must stay invariant under the fixed-panel
        scheme."""
        gen = np.random.default_rng(5)
        for n, d in [(512, 64), (32, 49), (5, 64)]:
            data = gen.standard_normal((n, d))
            queries = gen.standard_normal((300, d))
            full = batch_inner_products(data, queries)
            for i in (0, 1, GEMM_PANEL - 1, GEMM_PANEL, 137, 299):
                one = batch_inner_products(data, queries[i])
                assert np.array_equal(one[:, 0], full[:, i]), (n, d, i)

    def test_single_query_padding(self, blocks):
        data, queries = blocks
        one = batch_inner_products(data, queries[0])
        assert one.shape == (500, 1)
        assert np.array_equal(one[:, 0], batch_inner_products(data, queries)[:, 0])

    def test_panel_constant(self):
        assert GEMM_PANEL >= 2


class TestProjectBatch:
    def test_rows_invariant_to_batch_size(self, blocks):
        _, queries = blocks
        matrix = np.random.default_rng(7).standard_normal((5, 19))
        full = project_batch(matrix, queries)
        assert full.shape == (64, 5)
        one = project_batch(matrix, queries[:1])
        assert np.array_equal(one[0], full[0])
        assert np.allclose(full, queries @ matrix.T)


class TestTopk:
    def test_matches_sort_reference(self):
        gen = np.random.default_rng(0)
        ips = gen.standard_normal(200)
        ids, scores = topk_ids_scores(ips, 10)
        ref = np.argsort(-ips, kind="stable")[:10]
        assert np.array_equal(ids, ref)
        assert np.array_equal(scores, ips[ref])

    def test_ties_break_by_ascending_id(self):
        ips = np.array([1.0, 2.0, 2.0, 1.0, 2.0])
        ids, _ = topk_ids_scores(ips, 3)
        assert ids.tolist() == [1, 2, 4]

    def test_k_capped_at_n(self):
        ids, scores = topk_ids_scores(np.array([3.0, 1.0]), 10)
        assert ids.tolist() == [0, 1]

    def test_batch_rows_match_single(self):
        gen = np.random.default_rng(3)
        scores = gen.standard_normal((7, 150))
        ids, out = batch_topk(scores, 9)
        assert ids.shape == (7, 9)
        for i in range(7):
            ref_ids, ref_scores = topk_ids_scores(scores[i], 9)
            assert np.array_equal(ids[i], ref_ids)
            assert np.array_equal(out[i], ref_scores)


class TestTopKHeap:
    def test_tracks_kth_and_dedupes(self):
        topk = TopK(2)
        assert topk.kth_ip == -np.inf
        topk.offer(1.0, 0)
        topk.offer(3.0, 1)
        topk.offer(3.0, 1)  # duplicate id ignored
        assert topk.full
        assert topk.kth_ip == 1.0
        topk.offer(2.0, 2)
        ids, ips = topk.result()
        assert ids.tolist() == [1, 2]
        assert ips.tolist() == [3.0, 2.0]


def _verify_one_by_one(topk, ids, dists, query, reader, chi2, max_norm_sq, c, p, q_norm_sq):
    """Reference: offer and test every candidate in turn (32-row fetches)."""
    quantile = chi2.ppf(p)
    base = max_norm_sq + q_norm_sq
    verified = 0
    for start in range(0, ids.size, 32):
        chunk_ids = ids[start : start + 32]
        ips = reader.get_many(chunk_ids) @ query
        for pid, dist, ip in zip(
            chunk_ids.tolist(), dists[start : start + 32].tolist(), ips.tolist()
        ):
            verified += 1
            topk.offer(ip, pid)
            if not topk.full:
                continue
            if topk.kth_ip >= 0.5 * c * base:
                return "condition_a", verified
            if dist * dist >= quantile * (base - 2.0 * topk.kth_ip / c):
                return "condition_b", verified
    return None, verified


class TestCandidateVerifier:
    """Run-at-once verification stops where per-candidate verification does,
    with the same heap and the same pages charged."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 200),
        k=st.integers(1, 12),
        c=st.sampled_from([0.3, 0.6, 0.9]),
        p=st.sampled_from([0.1, 0.5, 0.9]),
        rounds=st.integers(1, 3),
    )
    def test_matches_per_candidate_reference(self, seed, n, k, c, p, rounds):
        gen = np.random.default_rng(seed)
        # Small integer coordinates: many tied inner products and distances.
        data = gen.integers(-2, 3, size=(n, 4)).astype(np.float64)
        query = gen.integers(-2, 3, size=4).astype(np.float64)
        store = VectorStore(data, page_size=40, layout_order=gen.permutation(n))
        chi2 = ChiSquare(3)
        max_norm_sq = float((data * data).sum(axis=1).max())
        q_norm_sq = float(query @ query)
        verifier = CandidateVerifier(chi2, max_norm_sq)
        fast_topk, ref_topk = TopK(k), TopK(k)
        # Sometimes start from a heap filled elsewhere, which may already
        # satisfy Condition A.
        for i in range(gen.integers(0, k + 1)):
            ip = float(gen.integers(-4, 40))
            fast_topk.offer(ip, n + i)
            ref_topk.offer(ip, n + i)
        fast_reader, ref_reader = store.reader(), store.reader()
        dists = np.sqrt(gen.integers(0, 40, size=n).astype(np.float64))
        for _ in range(rounds):
            # Rounds may repeat ids, within and across them: a repeat is
            # counted as verified but never enters the heap twice.
            ids = gen.integers(0, n, size=gen.integers(0, 2 * n))
            got = verifier.verify(
                fast_topk, RangeResult(ids, dists[ids]), query, fast_reader,
                c, p, q_norm_sq,
            )
            order = np.argsort(dists[ids], kind="stable")
            want = _verify_one_by_one(
                ref_topk, ids[order], dists[ids][order], query, ref_reader,
                chi2, max_norm_sq, c, p, q_norm_sq,
            )
            assert got == want
            assert fast_reader.pages_touched == ref_reader.pages_touched
            got_ids, got_ips = fast_topk.result()
            ref_ids, ref_ips = ref_topk.result()
            assert np.array_equal(got_ids, ref_ids)
            assert np.array_equal(got_ips, ref_ips)
            if got[0] is not None:
                break
