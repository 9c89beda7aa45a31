"""H2-ALSH (Huang et al., KDD 2018) — benchmark method 1.

H2-ALSH decomposes the dataset into *homocentric hypersphere* shells by norm:
shell ``S_j`` holds the points with ``‖o‖ ∈ (M_j/c0, M_j]`` where ``M_j`` is
the largest remaining norm and ``c0`` the interval ratio (fixed to 2.0 in the
paper's experiments).  Each shell is QNF-transformed with its own ``M_j`` —
eliminating both transformation and distortion error inside the shell — and
indexed with a disk-resident :class:`repro.baselines.qalsh.QALSH` for NN
search in ``R^{d+1}``.

A query walks the shells in descending ``M_j``; since every inner product in
shell ``j`` is at most ``M_j·‖q‖``, the walk stops as soon as the running
k-th best inner product reaches ``c`` times that upper bound.  Inner products
are recovered exactly from transformed distances via
``⟨o, q⟩ = (2M² − dis²(õ, q̃))·‖q‖ / (2M)``, so no second lookup of the
original vectors is needed — matching the original implementation, where the
transformed shells are what lives on disk.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.api import (
    BatchResult,
    SearchMixin,
    SearchResult,
    SearchStats,
    validate_k,
    validate_queries,
)
from repro.baselines.qalsh import QALSH, derive_qalsh_params
from repro.baselines.transforms import (
    qnf_distance_to_ip,
    qnf_transform_data,
    qnf_transform_query,
)
from repro.core.rng import resolve_rng
from repro.spec import IndexSpec, register_method
from repro.storage.pagefile import DEFAULT_PAGE_SIZE, VectorStore

__all__ = ["H2ALSH"]


class _Shell:
    __slots__ = ("max_norm", "global_ids", "qalsh", "store")

    def __init__(self, max_norm: float, global_ids: np.ndarray, qalsh: QALSH,
                 store: VectorStore) -> None:
        self.max_norm = max_norm
        self.global_ids = global_ids
        self.qalsh = qalsh
        self.store = store


@register_method("h2alsh", aliases=("H2-ALSH", "H2ALSH"))
class H2ALSH(SearchMixin):
    """Homocentric-hypersphere ALSH with QNF transform and QALSH shells.

    Args:
        data: ``(n, d)`` dataset.
        c: MIPS approximation ratio used by the early-termination bound.
        c0: norm-interval ratio of the hypersphere partition (paper: 2.0).
        rng: generator (projections inherit determinism from it).
        page_size: disk page size for the accounting.
        max_shells: safety cap; the last shell absorbs any remainder.
        min_shell_size: shells smaller than this are merged into the next one
            (QALSH parameter derivation degenerates on singleton shells).
        shell_vectors: pre-drawn QALSH projection vectors, one array per
            shell (persistence path); when given, ``rng`` is unused.
    """

    def __init__(
        self,
        data: np.ndarray,
        rng: np.random.Generator | int | None = None,
        c: float = 0.9,
        c0: float = 2.0,
        page_size: int = DEFAULT_PAGE_SIZE,
        max_shells: int = 64,
        min_shell_size: int = 16,
        shell_vectors: list[np.ndarray] | None = None,
    ) -> None:
        if not 0.0 < c < 1.0:
            raise ValueError(f"approximation ratio must satisfy 0 < c < 1, got {c}")
        if c0 <= 1.0:
            raise ValueError(f"c0 must exceed 1, got {c0}")
        rng = resolve_rng(rng)
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError(f"data must be a non-empty (n, d) array, got {data.shape}")
        self._data = data
        self.n, self.dim = data.shape
        self.c = float(c)
        self.c0 = float(c0)
        self.page_size = int(page_size)
        self.max_shells = int(max_shells)
        self.min_shell_size = int(min_shell_size)

        norms = np.linalg.norm(data, axis=1)
        desc = np.argsort(-norms, kind="stable")
        self.shells: list[_Shell] = []
        start = 0
        while start < self.n:
            max_norm = float(norms[desc[start]])
            if len(self.shells) == max_shells - 1 or max_norm <= 0.0:
                end = self.n
            else:
                lower = max_norm / self.c0
                end = start + int(np.searchsorted(-norms[desc[start:]], -lower, side="left"))
                end = max(end, start + 1)
                if end - start < min_shell_size:
                    end = min(self.n, start + min_shell_size)
                if self.n - end < min_shell_size:
                    end = self.n
            ids = desc[start:end]
            shell_data = data[ids]
            transformed, used_norm = qnf_transform_data(shell_data, max_norm or None)
            params = derive_qalsh_params(len(ids), c=self.c0)
            vectors = None
            if shell_vectors is not None:
                if len(self.shells) >= len(shell_vectors):
                    raise ValueError(
                        f"got {len(shell_vectors)} shell_vectors but the data "
                        f"partitions into more shells"
                    )
                vectors = shell_vectors[len(self.shells)]
            qalsh = QALSH(
                transformed, rng, params=params, page_size=page_size, vectors=vectors
            )
            store = VectorStore(
                transformed, page_size, label=f"h2alsh-shell{len(self.shells)}"
            )
            self.shells.append(
                _Shell(max_norm=used_norm, global_ids=ids.astype(np.int64),
                       qalsh=qalsh, store=store)
            )
            start = end
        if shell_vectors is not None and len(shell_vectors) != len(self.shells):
            raise ValueError(
                f"got {len(shell_vectors)} shell_vectors for {len(self.shells)} shells"
            )

    @property
    def n_shells(self) -> int:
        return len(self.shells)

    # ------------------------------------------------------- registry contract

    @classmethod
    def from_spec(
        cls,
        data: np.ndarray,
        spec: IndexSpec,
        rng: np.random.Generator | int | None = None,
    ) -> "H2ALSH":
        """Build from a spec, e.g. ``h2alsh(c=0.9, c0=2.0)``."""
        return cls(data, rng=resolve_rng(rng), **spec.params)

    def spec(self) -> IndexSpec:
        return IndexSpec(
            "h2alsh",
            {
                "c": self.c,
                "c0": self.c0,
                "page_size": self.page_size,
                "max_shells": self.max_shells,
                "min_shell_size": self.min_shell_size,
            },
        )

    def state(self) -> dict[str, np.ndarray]:
        """Data + each shell's QALSH projection vectors.

        The shell partition, QNF transforms and hash-table orderings are
        deterministic given the data and the spec, so the vectors are the
        only randomness to pin down.
        """
        state: dict[str, np.ndarray] = {"data": self._data}
        for j, shell in enumerate(self.shells):
            state[f"shell{j}_vectors"] = shell.qalsh.projection_vectors
        return state

    @classmethod
    def from_state(cls, spec: IndexSpec, state: dict[str, np.ndarray]) -> "H2ALSH":
        shell_vectors = []
        while f"shell{len(shell_vectors)}_vectors" in state:
            shell_vectors.append(
                np.asarray(state[f"shell{len(shell_vectors)}_vectors"], np.float64)
            )
        return cls(
            np.asarray(state["data"], dtype=np.float64),
            shell_vectors=shell_vectors,
            **spec.params,
        )

    def index_size_bytes(self) -> int:
        """All shells' hash tables — the "large number of hash tables" cost."""
        return sum(shell.qalsh.index_size_bytes() for shell in self.shells)

    def search_many(self, queries: np.ndarray, k: int = 1) -> BatchResult:
        """c-k-AMIP search over the shells with early termination.

        Queries run one at a time: each walk stops at its own shell.
        """
        k = validate_k(k)
        queries = validate_queries(queries, self.dim)
        k = min(k, self.n)
        return BatchResult.from_results([self._search_one(q, k) for q in queries])

    def _search_one(self, query: np.ndarray, k: int) -> SearchResult:
        """The shell walk for one validated query and clamped ``k``."""
        q_norm = float(np.linalg.norm(query))

        heap: list[tuple[float, int]] = []  # (ip, global_id) min-heap
        index_pages = [0]
        data_pages = 0
        candidates = 0
        shells_probed = 0

        for shell in self.shells:
            upper_bound = shell.max_norm * q_norm
            if len(heap) >= k and heap[0][0] >= self.c * upper_bound:
                break
            shells_probed += 1
            q_t = qnf_transform_query(query, shell.max_norm)
            reader = shell.store.reader()
            local_ids, dists, verified = shell.qalsh.search(
                q_t, k, reader=reader, index_pages=index_pages
            )
            data_pages += reader.pages_touched
            candidates += verified
            for local_id, dist in zip(local_ids.tolist(), dists.tolist()):
                ip = qnf_distance_to_ip(dist * dist, shell.max_norm, q_norm)
                gid = int(shell.global_ids[local_id])
                if len(heap) < k:
                    heapq.heappush(heap, (ip, gid))
                elif ip > heap[0][0]:
                    heapq.heapreplace(heap, (ip, gid))

        ranked = sorted(heap, key=lambda t: (-t[0], t[1]))
        ids = np.array([gid for _, gid in ranked], dtype=np.int64)
        # Report exact inner products for the returned ids (the QNF inversion
        # is exact up to floating point; recomputing keeps metrics honest).
        ips = self._data[ids] @ query if len(ids) else np.empty(0)
        order = np.argsort(-ips, kind="stable")
        stats = SearchStats(
            pages=index_pages[0] + data_pages,
            candidates=candidates,
            extras={"shells_probed": shells_probed, "n_shells": self.n_shells},
        )
        return SearchResult(ids=ids[order], scores=ips[order], stats=stats)

    def __repr__(self) -> str:
        return f"H2ALSH(n={self.n}, d={self.dim}, shells={self.n_shells}, c0={self.c0})"
