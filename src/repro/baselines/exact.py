"""Exact MIP search by linear scan.

Serves two purposes: the ground truth for overall-ratio and recall metrics,
and the trivially correct reference each approximate method is validated
against in the tests.  Page accounting reflects a full sequential scan of the
data file.

``search_many`` is vectorized: one ``data @ Qᵀ`` GEMM scores the whole
batch and top-k is taken per row via argpartition.  The engine's fixed GEMM
panels make each row independent of the batch it is in, so the inherited
one-row ``search`` agrees bit for bit (see :mod:`repro.core.engine`).
"""

from __future__ import annotations

import numpy as np

from repro.api import (
    BatchResult,
    SearchMixin,
    SearchStats,
    validate_k,
    validate_queries,
)
from repro.core.engine import batch_inner_products, batch_topk, topk_ids_scores
from repro.spec import IndexSpec, register_method
from repro.storage.pagefile import DEFAULT_PAGE_SIZE, VectorStore

__all__ = ["ExactMIPS", "exact_topk"]


def exact_topk(data: np.ndarray, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k ids and inner products by brute force (descending, ties by id)."""
    return topk_ids_scores(data @ query, k)


@register_method("exact", aliases=("Exact", "ExactMIPS"))
class ExactMIPS(SearchMixin):
    """Brute-force MIP index with paged accounting.

    Args:
        data: ``(n, d)`` dataset.
        page_size: disk page size for the sequential-scan accounting.
    """

    def __init__(self, data: np.ndarray, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError(f"data must be a non-empty (n, d) array, got {data.shape}")
        self._data = data
        self.n, self.dim = data.shape
        self.page_size = int(page_size)
        self._store = VectorStore(data, page_size, label="exact")

    # ------------------------------------------------------- registry contract

    @classmethod
    def from_spec(
        cls,
        data: np.ndarray,
        spec: IndexSpec,
        rng: np.random.Generator | int | None = None,
    ) -> "ExactMIPS":
        """Build from a spec, e.g. ``exact(page_size=4096)`` (rng unused)."""
        return cls(data, **spec.params)

    def spec(self) -> IndexSpec:
        return IndexSpec("exact", {"page_size": self.page_size})

    def state(self) -> dict[str, np.ndarray]:
        return {"data": self._data}

    @classmethod
    def from_state(cls, spec: IndexSpec, state: dict[str, np.ndarray]) -> "ExactMIPS":
        return cls(np.asarray(state["data"], dtype=np.float64), **spec.params)

    def index_size_bytes(self) -> int:
        """An exact scan keeps no auxiliary structures."""
        return 0

    def search_many(self, queries: np.ndarray, k: int = 1) -> BatchResult:
        """Exact top-k for a whole batch with one GEMM over the data file.

        The scan itself is shared across the batch — that is the throughput
        win — but each query's :class:`SearchStats` still reports the full
        sequential scan it would cost standalone, keeping the paper's
        cold-query page accounting comparable between both paths.
        """
        k = validate_k(k)
        queries = validate_queries(queries, self.dim)
        if queries.shape[0] == 0:
            return BatchResult.empty()
        reader = self._store.reader()
        data = reader.scan_all()
        # The engine already scores in fixed-width panels; this outer block
        # only bounds the (n, block) score temporaries so they stay
        # cache-resident — measurably faster than one monolithic (n, n_q)
        # matrix, and irrelevant to bit-identity.
        block = 128
        id_blocks: list[np.ndarray] = []
        score_blocks: list[np.ndarray] = []
        for start in range(0, queries.shape[0], block):
            scores = batch_inner_products(data, queries[start : start + block])
            ids, out = batch_topk(scores.T, k)
            id_blocks.append(ids)
            score_blocks.append(out)
        pages = reader.pages_touched
        stats = [
            SearchStats(pages=pages, candidates=self.n) for _ in range(len(queries))
        ]
        return BatchResult(
            ids=np.vstack(id_blocks), scores=np.vstack(score_blocks), stats=stats
        )
