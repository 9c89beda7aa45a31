"""Batch/single parity: ``search_many(Q, k)`` must be *bit-identical* to
looping ``search(q, k)`` for every index.

``search`` is a one-row ``search_many``, so this pins down that a query's
row does not depend on the batch around it — the contract the engine's
shape-stable GEMMs exist to uphold (see ``repro.core.engine``): not
approximately equal — ``np.array_equal`` on ids and scores, and matching
per-query page/candidate accounting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import BatchResult, SearchStats
from repro.baselines.exact import ExactMIPS
from repro.baselines.h2alsh import H2ALSH
from repro.baselines.pq import PQBasedMIPS
from repro.baselines.rangelsh import RangeLSH
from repro.baselines.simhash import SimHashMIPS
from repro.core.dynamic import DynamicProMIPS
from repro.core.promips import ProMIPS, ProMIPSParams


def assert_batch_matches_loop(index, queries, k, **kwargs):
    batch = index.search_many(queries, k=k, **kwargs)
    assert len(batch) == len(queries)
    for i, query in enumerate(queries):
        single = index.search(query, k=k, **kwargs)
        assert np.array_equal(single.ids, batch[i].ids), f"ids differ at query {i}"
        assert np.array_equal(single.scores, batch[i].scores), (
            f"scores differ at query {i}"
        )
        assert single.stats.pages == batch.stats[i].pages
        assert single.stats.candidates == batch.stats[i].candidates


@pytest.fixture(scope="module")
def workload(latent_small):
    data, queries = latent_small
    return data, queries[:8]


@pytest.fixture(scope="module")
def native_indexes(workload):
    data, _ = workload
    return {
        "promips": ProMIPS.build(
            data, ProMIPSParams(m=5, kp=3, n_key=10, ksp=4), rng=1
        ),
        "exact": ExactMIPS(data),
        "pq": PQBasedMIPS(
            data, rng=3, n_coarse=12, n_centroids=32, min_local_train=64
        ),
        "simhash": SimHashMIPS(data, rng=3),
    }


class TestNativeParity:
    @pytest.mark.parametrize("name", ["promips", "exact", "pq", "simhash"])
    def test_bit_identical_to_loop(self, native_indexes, workload, name):
        _, queries = workload
        assert_batch_matches_loop(native_indexes[name], queries, k=7)

    @pytest.mark.parametrize("name", ["promips", "exact", "pq", "simhash"])
    def test_single_row_batch(self, native_indexes, workload, name):
        _, queries = workload
        assert_batch_matches_loop(native_indexes[name], queries[:1], k=5)

    @pytest.mark.parametrize("name", ["promips", "exact", "pq", "simhash"])
    def test_duplicate_queries_get_identical_rows(
        self, native_indexes, workload, name
    ):
        _, queries = workload
        dup = np.vstack([queries[0], queries[0], queries[1]])
        batch = native_indexes[name].search_many(dup, k=6)
        assert np.array_equal(batch.ids[0], batch.ids[1])
        assert np.array_equal(batch.scores[0], batch.scores[1])

    @pytest.mark.parametrize("name", ["promips", "exact", "pq", "simhash"])
    def test_k_larger_than_n(self, workload, name):
        data, queries = workload
        small = data[:6]
        builders = {
            "promips": lambda: ProMIPS.build(
                small, ProMIPSParams(m=3, kp=2, n_key=4, ksp=2), rng=1
            ),
            "exact": lambda: ExactMIPS(small),
            "pq": lambda: PQBasedMIPS(
                small, rng=3, n_coarse=2, n_centroids=4, min_local_train=1000
            ),
            "simhash": lambda: SimHashMIPS(small, rng=3),
        }
        index = builders[name]()
        batch = index.search_many(queries[:3], k=50)
        assert batch.ids.shape[1] == 6
        assert_batch_matches_loop(index, queries[:3], k=50)

    def test_wide_batches_on_hostile_shapes(self):
        """Regression: raw variable-width GEMMs diverge from the single-query
        product on shapes like 512×64 once the batch grows past the BLAS
        kernel switch-over; the engine's fixed panels must not."""
        gen = np.random.default_rng(17)
        data = gen.standard_normal((512, 64))
        queries = gen.standard_normal((300, 64))
        exact = ExactMIPS(data)
        batch = exact.search_many(queries, k=5)
        for i in range(0, 300, 23):
            single = exact.search(queries[i], k=5)
            assert np.array_equal(single.ids, batch[i].ids)
            assert np.array_equal(single.scores, batch[i].scores)

        simhash = SimHashMIPS(gen.standard_normal((900, 48)), rng=3)
        q48 = gen.standard_normal((300, 48))
        sbatch = simhash.search_many(q48, k=5)
        for i in range(0, 300, 23):
            single = simhash.search(q48[i], k=5)
            assert np.array_equal(single.ids, sbatch[i].ids)
            assert np.array_equal(single.scores, sbatch[i].scores)

    def test_promips_forwards_c_and_p(self, native_indexes, workload):
        _, queries = workload
        assert_batch_matches_loop(
            native_indexes["promips"], queries[:4], k=5, c=0.8, p=0.7
        )

    def test_rejects_bad_batches(self, native_indexes):
        index = native_indexes["exact"]
        with pytest.raises(ValueError):
            index.search_many(np.ones((2, 24)), k=0)
        with pytest.raises(ValueError):
            index.search_many(np.ones((2, 10)), k=3)

    def test_empty_batch_is_uniformly_empty(self, native_indexes):
        for name, index in native_indexes.items():
            batch = index.search_many(np.empty((0, index.dim)), k=3)
            assert batch.ids.shape == (0, 0), name
            assert batch.scores.shape == (0, 0), name
            assert batch.stats == [], name


class TestFallbackParity:
    """H2-ALSH and Range-LSH, whose ``search_many`` loops over the rows, and
    Dynamic across its mutable states."""

    def test_h2alsh_fallback(self, workload):
        data, queries = workload
        index = H2ALSH(data[:600], rng=3)
        assert_batch_matches_loop(index, queries[:3], k=5)

    def test_rangelsh_fallback(self, workload):
        data, queries = workload
        index = RangeLSH(data, rng=3)
        assert_batch_matches_loop(index, queries[:4], k=5)

    def test_dynamic_is_native_and_bit_identical(self, workload):
        # Dynamic grew a native batch path (one-GEMM delta scan + vectorized
        # tombstone-masked merge); parity must survive every mutable state:
        # delta-only, tombstones-only, and both at once.
        data, queries = workload
        index = DynamicProMIPS(
            data[:500], ProMIPSParams(m=5, kp=3, n_key=10, ksp=4), rng=1
        )
        index.insert(data[900])
        assert_batch_matches_loop(index, queries[:3], k=5)
        index.delete(7)
        index.delete(300)
        assert_batch_matches_loop(index, queries[:3], k=5)
        for row in data[901:905]:
            index.insert(row)
        assert_batch_matches_loop(index, queries[:4], k=6)


class TestBatchResult:
    def test_from_results_pads_ragged_rows(self):
        from repro.api import SearchResult

        long = SearchResult(ids=[3, 1, 2], scores=[9.0, 8.0, 7.0], stats=SearchStats())
        short = SearchResult(ids=[5], scores=[4.0], stats=SearchStats())
        batch = BatchResult.from_results([long, short])
        assert batch.ids.shape == (2, 3)
        assert batch.ids[1, 1] == BatchResult.PAD_ID
        assert np.isneginf(batch.scores[1, 1])
        # Indexing strips the padding again.
        assert len(batch[1]) == 1
        assert batch[1].ids.tolist() == [5]

    def test_iteration_yields_search_results(self):
        from repro.api import SearchResult

        results = [
            SearchResult(ids=[i], scores=[float(i)], stats=SearchStats())
            for i in range(3)
        ]
        batch = BatchResult.from_results(results)
        assert [r.ids[0] for r in batch] == [0, 1, 2]

    def test_rejects_misaligned(self):
        with pytest.raises(ValueError):
            BatchResult(
                ids=np.zeros((2, 3)), scores=np.zeros((2, 2)),
                stats=[SearchStats(), SearchStats()],
            )
        with pytest.raises(ValueError):
            BatchResult(
                ids=np.zeros((2, 3)), scores=np.zeros((2, 3)), stats=[SearchStats()]
            )
