"""SimHash — sign random projections for cosine similarity (Charikar, STOC 2002).

``h(x) = sign(a · x)`` with ``a ~ N(0, I)`` satisfies
``Pr[h(x) ≠ h(y)] = θ(x, y)/π``, so the Hamming distance between ``b``-bit
codes estimates the angle:  ``θ̂ = π · hamming / b`` and
``cos θ̂ ≈ cos(π · hamming / b)``.

Norm Ranging-LSH builds one shared SimHash over the Simple-LSH-transformed
points of all its norm-range subsets; the per-subset maximum norm then turns
the cosine estimate into an inner-product upper bound used to rank probes.

:class:`SimHashMIPS` turns the codes into a standalone MIPS baseline
(Simple-LSH reduction → Hamming short-list → exact re-rank) with a natively
vectorized ``search_many``: one GEMM encodes the whole query batch and the
Hamming scan runs as blocked XOR/popcount matrix operations.
"""

from __future__ import annotations

import numpy as np

from repro.api import (
    BatchResult,
    SearchMixin,
    SearchResult,
    SearchStats,
    validate_k,
    validate_queries,
)
from repro.baselines.transforms import (
    simple_lsh_transform_data,
    simple_lsh_transform_query,
)
from repro.core.binary_codes import pack_code
from repro.core.engine import batch_inner_products
from repro.core.rng import resolve_rng
from repro.spec import IndexSpec, register_method
from repro.storage.pagefile import DEFAULT_PAGE_SIZE, VectorStore

__all__ = ["SimHash", "SimHashMIPS", "hamming_distance", "hamming_to_cosine"]


def hamming_distance(codes: np.ndarray, query_code: int) -> np.ndarray:
    """Hamming distances between packed codes and one packed query code."""
    codes = np.asarray(codes, dtype=np.uint64)
    return np.bitwise_count(codes ^ np.uint64(query_code)).astype(np.int64)


def hamming_to_cosine(hamming: np.ndarray | float, n_bits: int) -> np.ndarray | float:
    """SimHash cosine estimate ``cos(π · hamming / b)``."""
    return np.cos(np.pi * np.asarray(hamming, dtype=np.float64) / n_bits)


class SimHash:
    """``n_bits`` sign random projections with packed integer codes.

    Args:
        dim: input dimensionality.
        n_bits: code length (≤ 63 so codes pack into one uint64).
        rng: generator or seed for the Gaussian hyperplanes.
        hyperplanes: pre-drawn ``(n_bits, dim)`` hyperplane matrix; when
            given, ``rng`` is unused (the persistence path restores codes
            bit-identically this way).
    """

    def __init__(
        self,
        dim: int,
        n_bits: int,
        rng: np.random.Generator | int | None = None,
        hyperplanes: np.ndarray | None = None,
    ) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if not 1 <= n_bits <= 63:
            raise ValueError(f"n_bits must be in [1, 63], got {n_bits}")
        self.dim = int(dim)
        self.n_bits = int(n_bits)
        if hyperplanes is None:
            self._hyperplanes = resolve_rng(rng).standard_normal((n_bits, dim))
        else:
            hyperplanes = np.asarray(hyperplanes, dtype=np.float64)
            if hyperplanes.shape != (self.n_bits, self.dim):
                raise ValueError(
                    f"hyperplanes must have shape ({self.n_bits}, {self.dim}), "
                    f"got {hyperplanes.shape}"
                )
            self._hyperplanes = hyperplanes

    def encode(self, points: np.ndarray) -> np.ndarray:
        """Packed codes for one point ``(d,)`` or a batch ``(n, d)``."""
        points = np.asarray(points, dtype=np.float64)
        single = points.ndim == 1
        if single:
            points = points[None, :]
        if points.shape[1] != self.dim:
            raise ValueError(
                f"points have dimension {points.shape[1]}, SimHash expects {self.dim}"
            )
        bits = (points @ self._hyperplanes.T >= 0.0).astype(np.uint64)
        weights = np.uint64(1) << np.arange(self.n_bits, dtype=np.uint64)
        codes = (bits * weights[None, :]).sum(axis=1)
        return codes[0] if single else codes

    @property
    def hyperplanes(self) -> np.ndarray:
        """The ``(n_bits, dim)`` Gaussian hyperplane matrix."""
        return self._hyperplanes

    def size_bytes(self) -> int:
        """Footprint of the hyperplane matrix."""
        return self._hyperplanes.nbytes

    def __repr__(self) -> str:
        return f"SimHash(dim={self.dim}, n_bits={self.n_bits})"


@register_method("simhash", aliases=("SimHash", "SimHashMIPS"))
class SimHashMIPS(SearchMixin):
    """SimHash MIPS baseline: Simple-LSH codes, Hamming short-list, exact re-rank.

    The Simple-LSH transform appends ``√(1 − ‖x/U‖²)`` so that the angle
    between transformed vectors is monotone in the inner product; ``n_bits``
    sign projections then let a Hamming scan rank the whole dataset without
    touching the raw vectors.  The ``shortlist·k`` closest codes (ties by id)
    are re-ranked against the full vectors.  There is no accuracy guarantee —
    like PQ, it is a guarantee-free comparison point, but with a far lighter
    index (one packed integer per point).

    ``search_many`` is natively vectorized: one shape-stable GEMM signs all
    queries at once and the Hamming matrix is computed by blocked
    XOR/popcount.  Since Hamming distances are exact integers and re-ranking
    is a per-query multiply, a query's row does not depend on its batch.

    Args:
        data: ``(n, d)`` dataset.
        rng: generator or seed for the hyperplanes.
        n_bits: code length (≤ 63, packed into one uint64 per point).
        shortlist: re-ranked candidates as a multiple of ``k``.
        page_size: page size for the accounting.
        hyperplanes: pre-drawn hyperplane matrix (persistence path); when
            given, ``rng`` is unused.
    """

    def __init__(
        self,
        data: np.ndarray,
        rng: np.random.Generator | int | None = None,
        n_bits: int = 32,
        shortlist: int = 16,
        page_size: int = DEFAULT_PAGE_SIZE,
        hyperplanes: np.ndarray | None = None,
    ) -> None:
        if shortlist <= 0:
            raise ValueError(f"shortlist must be positive, got {shortlist}")
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError(f"data must be a non-empty (n, d) array, got {data.shape}")
        self._data = data
        self.n, self.dim = data.shape
        self.shortlist = int(shortlist)
        self.page_size = int(page_size)

        transformed, self.max_norm = simple_lsh_transform_data(data)
        self.simhash = SimHash(
            self.dim + 1, n_bits, resolve_rng(rng), hyperplanes=hyperplanes
        )
        self._codes = self.simhash.encode(transformed)
        self._store = VectorStore(data, page_size, label="simhash")
        # Packed codes ship as one uint64 per point.
        self._code_pages = max(1, -(-self.n * 8 // int(page_size)))

    @property
    def n_bits(self) -> int:
        return self.simhash.n_bits

    # ------------------------------------------------------- registry contract

    @classmethod
    def from_spec(
        cls,
        data: np.ndarray,
        spec: IndexSpec,
        rng: np.random.Generator | int | None = None,
    ) -> "SimHashMIPS":
        """Build from a spec, e.g. ``simhash(n_bits=32, shortlist=16)``."""
        return cls(data, rng=resolve_rng(rng), **spec.params)

    def spec(self) -> IndexSpec:
        return IndexSpec(
            "simhash",
            {
                "n_bits": self.n_bits,
                "shortlist": self.shortlist,
                "page_size": self.page_size,
            },
        )

    def state(self) -> dict[str, np.ndarray]:
        """Data + hyperplanes; codes are re-derived deterministically."""
        return {"data": self._data, "hyperplanes": self.simhash.hyperplanes}

    @classmethod
    def from_state(cls, spec: IndexSpec, state: dict[str, np.ndarray]) -> "SimHashMIPS":
        return cls(
            np.asarray(state["data"], dtype=np.float64),
            hyperplanes=np.asarray(state["hyperplanes"], dtype=np.float64),
            **spec.params,
        )

    def index_size_bytes(self) -> int:
        """Packed codes + hyperplanes — the lightest index in the repo."""
        return self.n * 8 + self.simhash.size_bytes()

    def _encode_queries(self, queries: np.ndarray) -> np.ndarray:
        """Packed codes for a validated ``(n_q, d)`` batch.

        The sign projections go through the engine's shape-stable GEMM so a
        query's bits never depend on its batch size (the plain
        :meth:`SimHash.encode` row orientation is not batch-width invariant).
        """
        transformed = np.stack(
            [simple_lsh_transform_query(q) for q in queries]
        )
        projections = batch_inner_products(
            self.simhash.hyperplanes, transformed
        ).T  # (n_q, n_bits)
        return pack_code(projections >= 0.0)

    def search_many(self, queries: np.ndarray, k: int = 1) -> BatchResult:
        """Hamming-ranked c-k-AMIP search with exact re-ranking, for a batch:
        one encode GEMM + blocked Hamming matrix scan."""
        k = validate_k(k)
        queries = validate_queries(queries, self.dim)
        if queries.shape[0] == 0:
            return BatchResult.empty()
        k = min(k, self.n)
        n_take = min(self.n, max(self.shortlist * k, self.shortlist))
        query_codes = self._encode_queries(queries)

        results: list[SearchResult] = []
        point_ids = np.arange(self.n, dtype=np.int64)
        # The Hamming matrix is integer-exact, so blocking over queries is
        # purely a memory bound: cap the (block, n) XOR temporary at ~2M
        # uint64 entries (~16MB) regardless of dataset size.
        block = max(1, min(queries.shape[0], 2_000_000 // self.n))
        for start in range(0, queries.shape[0], block):
            q_block = query_codes[start : start + block]
            hammings = np.bitwise_count(self._codes[None, :] ^ q_block[:, None])
            for row, i in enumerate(range(start, start + q_block.shape[0])):
                # Candidates by ascending Hamming distance, ties by id:
                # hamming ≤ 63, so `hamming·n + id` is a collision-free
                # int64 total order and an O(n) argpartition + O(L log L)
                # short-list sort replaces a full O(n log n) lexsort.
                key = hammings[row].astype(np.int64) * self.n + point_ids
                part = np.argpartition(key, n_take - 1)[:n_take]
                cand = part[np.argsort(key[part], kind="stable")]
                reader = self._store.reader()
                vecs = reader.get_many(cand)
                ips = vecs @ queries[i]
                order = np.lexsort((cand, -ips))[:k]
                stats = SearchStats(
                    pages=self._code_pages + reader.pages_touched,
                    candidates=int(n_take),
                    extras={"shortlist": int(n_take)},
                )
                results.append(
                    SearchResult(ids=cand[order], scores=ips[order], stats=stats)
                )
        return BatchResult.from_results(results)

    def __repr__(self) -> str:
        return (
            f"SimHashMIPS(n={self.n}, d={self.dim}, bits={self.n_bits}, "
            f"shortlist={self.shortlist})"
        )
