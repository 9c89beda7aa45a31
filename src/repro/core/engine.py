"""Shared batch query engine: shape-stable GEMMs, top-k, candidate verification.

Every index in this repository answers single queries and query batches
through the same numeric kernels, so ``search_many(Q, k)`` is bit-identical
to looping ``search(q, k)`` — a property the parity tests assert exactly.

Achieving that with a BLAS back-end needs care: BLAS picks kernels (and with
them accumulation orders) from the full problem *shape*, so ``X @ q``
(GEMV), column ``i`` of ``X @ Q.T``, and the same column inside a wider
batch can each disagree in the last ulp — which widths agree turns out to be
an unprincipled function of every dimension involved.  What *is* reliable is
that a GEMM of one fixed shape is deterministic, and each output element
depends only on its own row and column operands — position within the panel
and the other columns' contents don't matter.

The engine therefore computes every shared inner-product pass through
:func:`batch_inner_products`, which always issues GEMMs of one fixed shape:
``(n, d) @ (d, GEMM_PANEL)``, zero-padding the last (or only) panel.  A lone
query and a 10k-row batch hit byte-identical kernel invocations, which is
what makes the batch path exact rather than merely close.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING

import numpy as np

from repro.api import BatchResult, validate_k

if TYPE_CHECKING:
    from repro.index.ring_idistance import RangeResult

__all__ = [
    "GEMM_PANEL",
    "MERGE_SENTINEL",
    "batch_inner_products",
    "project_batch",
    "topk_ids_scores",
    "batch_topk",
    "merge_topk_panels",
    "TopK",
    "CandidateVerifier",
]

# Fixed GEMM panel width.  Every shared scoring/projection product runs as
# (n, d) @ (d, GEMM_PANEL) regardless of batch size, so results cannot
# depend on how many queries shared a batch.  16 trades a modest padded
# single-query overhead (~1.3× a GEMV — both stream the same (n, d) block)
# for 16-way data reuse on batches, where the exact scan's throughput
# comes from.
GEMM_PANEL = 16


def batch_inner_products(vectors: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """All pairwise inner products ``⟨vectors_i, queries_j⟩`` as ``(n, n_q)``.

    Computed in column orientation as fixed-shape panels of
    :data:`GEMM_PANEL` queries (last panel zero-padded), so column ``i`` is
    bit-identical no matter the batch size or the query's position in it.

    Args:
        vectors: ``(n, d)`` data block.
        queries: ``(n_q, d)`` query block (``(d,)`` accepted for one query).
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    n_q, dim = queries.shape
    out = np.empty((vectors.shape[0], n_q))
    for start in range(0, n_q, GEMM_PANEL):
        width = min(GEMM_PANEL, n_q - start)
        panel = np.zeros((GEMM_PANEL, dim))
        panel[:width] = queries[start : start + width]
        out[:, start : start + width] = (vectors @ panel.T)[:, :width]
    return out


def project_batch(matrix: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Project queries through an ``(m, d)`` matrix as one GEMM: ``(n_q, m)``.

    Row ``i`` equals the projection the engine computes for query ``i`` alone
    (column orientation + width padding, see module docstring).
    """
    return np.ascontiguousarray(batch_inner_products(matrix, queries).T)


def topk_ids_scores(ips: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k of one score vector, descending, ties broken by ascending id.

    ``O(n + k log k)`` via argpartition + a stable sort of the short-list.
    """
    ips = np.asarray(ips)
    k = validate_k(k)
    k = min(k, ips.shape[0])
    part = np.argpartition(-ips, k - 1)[:k]
    order = part[np.lexsort((part, -ips[part]))]
    return order.astype(np.int64), ips[order].astype(np.float64)


def batch_topk(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise top-k of an ``(n_q, n)`` score matrix → ``(n_q, k')`` arrays.

    One axis-wise argpartition plus one axis-wise lexsort over the short-list
    replace ``n_q`` per-row calls; row ``i`` matches
    ``topk_ids_scores(scores[i], k)`` exactly (the axis implementations run
    the identical per-row select/sort, which the engine tests pin down).
    """
    scores = np.atleast_2d(scores)
    n_q, n = scores.shape
    k = validate_k(k)
    k = min(k, n)
    # One fused pass materialises the (usually transposed-GEMM) input as a
    # C-contiguous *negated* copy — argpartition then needs no second
    # temporary, and negation is exact so the selection matches
    # ``argpartition(-scores)`` bit for bit.
    neg = np.negative(scores, order="C")
    part = np.argpartition(neg, k - 1, axis=1)[:, :k]
    neg_part = np.take_along_axis(neg, part, axis=1)
    order = np.lexsort((part, neg_part), axis=1)
    ids = np.take_along_axis(part, order, axis=1).astype(np.int64)
    out = -np.take_along_axis(neg_part, order, axis=1)
    return ids, out.astype(np.float64)


# Dead/padded candidate slots carry this id so they sort after every real
# candidate under the (-score, id) order; merge_topk_panels re-masks any
# that survive the cut back to BatchResult.PAD_ID.
MERGE_SENTINEL = np.iinfo(np.int64).max


def merge_topk_panels(
    id_blocks: list[np.ndarray],
    score_blocks: list[np.ndarray],
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise top-k across concatenated ``(n_q, k_i)`` candidate panels.

    The composite indexes (sharded cross-shard merge, dynamic
    indexed+delta merge) each gather several per-source candidate panels
    per query and need the best ``k`` of their union in the engine's
    ``(-score, id)`` total order — one axis-wise lexsort over the stacked
    panels instead of a per-query Python loop.  Dead slots (tombstoned
    candidates, under-filled approximate answers) must arrive pre-masked as
    ``(MERGE_SENTINEL, -inf)``; they sort last, and any that survive the
    cut come back as :data:`repro.api.BatchResult.PAD_ID` / ``-inf``.

    Args:
        id_blocks: per-source ``(n_q, k_i)`` id panels.
        score_blocks: matching score panels.
        k: results per query (``k <= sum(k_i)``).

    Returns:
        ``(ids, scores)`` arrays of shape ``(n_q, k)``.
    """
    id_panel = np.hstack(id_blocks)
    score_panel = np.hstack(score_blocks)
    order = np.lexsort((id_panel, -score_panel), axis=-1)[:, :k]
    top_ids = np.take_along_axis(id_panel, order, axis=-1)
    top_scores = np.take_along_axis(score_panel, order, axis=-1)
    top_ids[top_ids == MERGE_SENTINEL] = BatchResult.PAD_ID
    return top_ids, top_scores


class TopK:
    """Running top-k inner products (min-heap of ``(ip, id)``)."""

    __slots__ = ("k", "_heap", "_seen")

    def __init__(self, k: int) -> None:
        self.k = k
        self._heap: list[tuple[float, int]] = []
        self._seen: set[int] = set()

    def offer(self, ip: float, pid: int) -> None:
        if pid in self._seen:
            return
        self._seen.add(pid)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (ip, pid))
        elif ip > self._heap[0][0]:
            heapq.heapreplace(self._heap, (ip, pid))

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.k

    @property
    def kth_ip(self) -> float:
        """Inner product of the current k-th best; −inf until k candidates."""
        if not self.full:
            return -math.inf
        return self._heap[0][0]

    @property
    def weakest_ip(self) -> float:
        """Smallest collected inner product; −inf when empty."""
        if not self._heap:
            return -math.inf
        return self._heap[0][0]

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        ranked = sorted(self._heap, key=lambda t: (-t[0], t[1]))
        ids = np.array([pid for _, pid in ranked], dtype=np.int64)
        ips = np.array([ip for ip, _ in ranked], dtype=np.float64)
        return ids, ips


class CandidateVerifier:
    """Chunked exact verification with the ProMIPS stopping conditions.

    Owns the Theorem 1/2 incremental traversal shared by ``search`` and
    ``search_many``: fetch candidate vectors in page-coalesced chunks, compute
    their inner products with one matrix multiply per chunk, update the
    running top-k, and test the O(1) forms of Conditions A and B against the
    *updated* k-th best.  Condition B is evaluated through
    ``dis²(P(oi), P(q)) ≥ Ψm⁻¹(p) · denom`` — the CDF comparison inverted
    once through the cached chi-square quantile — so no per-candidate CDF
    evaluation is needed.

    Args:
        chi2: the cached ``ChiSquare(m)`` of the index.
        max_norm_sq: ``‖oM‖²`` over the dataset.
        chunk: candidates fetched (and multiplied) per round; chunk results
            are bit-identical to one full multiply, so the chunk size only
            trades page-prefetch granularity against early-stop laziness.
    """

    __slots__ = ("_chi2", "_max_norm_sq", "_chunk")

    def __init__(self, chi2, max_norm_sq: float, chunk: int = 32) -> None:
        self._chi2 = chi2
        self._max_norm_sq = float(max_norm_sq)
        self._chunk = int(chunk)

    def verify(
        self,
        topk: TopK,
        candidates: RangeResult,
        query: np.ndarray,
        orig_reader,
        c: float,
        p: float,
        q_norm_sq: float,
    ) -> tuple[str | None, int]:
        """Verify candidates in ascending projected-distance order.

        Only the chunks of ``candidates`` consumed are ordered and fetched.
        Returns ``(fired_condition, points_verified)`` where
        ``fired_condition`` is ``"condition_a"``, ``"condition_b"`` or None.
        Condition A reduces to ``ip_k ≥ c·(‖oM‖² + ‖q‖²)/2`` and Condition B
        to ``dis² ≥ Ψm⁻¹(p)·(‖oM‖² + ‖q‖² − 2·ip_k/c)``.
        """
        quantile = self._chi2.ppf(p)
        base = self._max_norm_sq + q_norm_sq
        cond_a_threshold = 0.5 * c * base
        verified = 0
        chunk = self._chunk
        for start in range(0, len(candidates), chunk):
            chunk_ids, chunk_dists = candidates.take(start, start + chunk)
            ips = orig_reader.get_many(chunk_ids) @ query
            # Non-decreasing, as the distances are: Condition B first holds
            # where a binary search for its threshold lands.
            d2 = chunk_dists * chunk_dists
            # Only offers that can change the heap run one by one: all of
            # them while it fills, then those above the k-th best (TopK.offer
            # replaces on a strict >).  Between two such offers the k-th best
            # is constant, so each run in between is checked at once:
            # Condition A holds on its first candidate or on none, and
            # Condition B from one position on.  A run's ids need no
            # seen-marking: a repeat carries the same inner product, which
            # cannot beat a k-th best that only rises.
            kth = topk.kth_ip
            size = chunk_ids.size
            movers = (ips > kth).nonzero()[0].tolist() if topk.full else range(size)
            pos = 0
            for stop in (*movers, size):
                if stop > pos:
                    if kth >= cond_a_threshold:
                        return "condition_a", verified + pos + 1
                    threshold = quantile * (base - 2.0 * kth / c)
                    hit = pos + int(np.searchsorted(d2[pos:stop], threshold))
                    if hit < stop:
                        return "condition_b", verified + hit + 1
                if stop == size:
                    break
                topk.offer(float(ips[stop]), int(chunk_ids[stop]))
                pos = stop + 1
                if not topk.full:
                    continue
                kth = topk.kth_ip
                if kth >= cond_a_threshold:
                    return "condition_a", verified + pos
                if d2[stop] >= quantile * (base - 2.0 * kth / c):
                    return "condition_b", verified + pos
            verified += size
        return None, verified
