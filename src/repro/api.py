"""Shared public types: search results, statistics, and the index protocol.

Every MIPS method in this repository — ProMIPS and the baselines — returns
the same :class:`SearchResult` so the evaluation harness and the examples can
treat them interchangeably.

Batch execution is the one search primitive: a method implements only
``search_many(queries, k)``, returning a :class:`BatchResult`, and inherits
``search(query, k)`` from :class:`SearchMixin`, which answers a single query
as a one-row batch.  ProMIPS, Exact, PQ and SimHash vectorize the batch
through ``repro.core.engine``, whose fixed-shape GEMM panels make a query's
row independent of its batch; H2-ALSH and Range-LSH loop over the rows.  An
empty ``(0, d)`` batch is valid everywhere and returns a ``(0, 0)``-shaped
:class:`BatchResult`.

Beyond search, every method implements the **registry contract** of
:mod:`repro.spec`: the class registers itself under a canonical method name
with the ``@register_method`` decorator and provides

* ``from_spec(data, spec, rng=None)`` — build from a declarative
  :class:`repro.spec.IndexSpec`;
* ``spec()`` — the round-trippable current configuration;
* ``state()`` / ``from_state(spec, state)`` — the built index as plain
  arrays, and its bit-identical reconstruction.

``repro.build_index`` dispatches specs through the registry, and
``repro.save_index`` / ``repro.load_index`` persist **any** registered
method through one versioned ``.npz`` envelope (see
:mod:`repro.core.persist`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "SearchStats",
    "SearchResult",
    "BatchResult",
    "MIPSIndex",
    "SearchMixin",
    "validate_k",
    "validate_query",
    "validate_queries",
]


@dataclass
class SearchStats:
    """Per-query accounting shared by all methods.

    Attributes:
        pages: distinct disk pages read (index pages + data pages).
        candidates: points whose exact inner product was computed.
        extras: method-specific diagnostics (e.g. ProMIPS' probe radius and
            whether the compensation pass ran).
    """

    pages: int = 0
    candidates: int = 0
    extras: dict = field(default_factory=dict)


@dataclass
class SearchResult:
    """Top-k answer of a c-k-AMIP search.

    Attributes:
        ids: ``(k',)`` point ids sorted by descending inner product
            (``k' <= k`` when the dataset is smaller than ``k``).
        scores: matching inner products ``⟨o_i, q⟩``.
        stats: per-query accounting.
    """

    ids: np.ndarray
    scores: np.ndarray
    stats: SearchStats

    def __post_init__(self) -> None:
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.ids.shape != self.scores.shape:
            raise ValueError(
                f"ids and scores must align, got {self.ids.shape} vs {self.scores.shape}"
            )

    def __len__(self) -> int:
        return int(self.ids.size)


@dataclass
class BatchResult:
    """Top-k answers of a whole query batch.

    Rows are queries.  Queries that returned fewer than the row width (an
    approximate method can come up short of ``k``) are right-padded with id
    ``-1`` / score ``-inf``; indexing strips the padding.

    Attributes:
        ids: ``(n_q, k')`` point ids per query, descending inner product.
        scores: matching ``(n_q, k')`` inner products.
        stats: per-query accounting, one :class:`SearchStats` per row.
    """

    ids: np.ndarray
    scores: np.ndarray
    stats: list[SearchStats]

    PAD_ID = -1

    def __post_init__(self) -> None:
        self.ids = np.atleast_2d(np.asarray(self.ids, dtype=np.int64))
        self.scores = np.atleast_2d(np.asarray(self.scores, dtype=np.float64))
        if self.ids.shape != self.scores.shape:
            raise ValueError(
                f"ids and scores must align, got {self.ids.shape} vs {self.scores.shape}"
            )
        if len(self.stats) != self.ids.shape[0]:
            raise ValueError(
                f"need one SearchStats per query, got {len(self.stats)} "
                f"for {self.ids.shape[0]} queries"
            )

    @classmethod
    def empty(cls) -> "BatchResult":
        """The answer to an empty query batch: a ``(0, 0)``-shaped result."""
        return cls(
            ids=np.empty((0, 0), dtype=np.int64),
            scores=np.empty((0, 0), dtype=np.float64),
            stats=[],
        )

    @classmethod
    def from_results(cls, results: list[SearchResult]) -> "BatchResult":
        """Assemble a batch from per-query results, padding short rows.

        An empty result list assembles to the empty batch, mirroring how
        ``search_many`` treats an empty query batch.
        """
        if not results:
            return cls.empty()
        width = max(len(r) for r in results)
        ids = np.full((len(results), width), cls.PAD_ID, dtype=np.int64)
        scores = np.full((len(results), width), -np.inf, dtype=np.float64)
        for i, r in enumerate(results):
            ids[i, : len(r)] = r.ids
            scores[i, : len(r)] = r.scores
        return cls(ids=ids, scores=scores, stats=[r.stats for r in results])

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    def __getitem__(self, i: int) -> SearchResult:
        """The ``i``-th query's answer as a plain :class:`SearchResult`."""
        live = self.ids[i] != self.PAD_ID
        return SearchResult(
            ids=self.ids[i][live], scores=self.scores[i][live], stats=self.stats[i]
        )

    def __iter__(self) -> Iterator[SearchResult]:
        return (self[i] for i in range(len(self)))


@runtime_checkable
class MIPSIndex(Protocol):
    """What the harness requires of a maximum-inner-product index."""

    def search(self, query: np.ndarray, k: int = 1) -> SearchResult:
        """Return the (approximate) top-k MIP points for ``query``."""
        ...

    def search_many(self, queries: np.ndarray, k: int = 1) -> BatchResult:
        """Answer a whole ``(n_q, d)`` batch; row ``i`` matches ``search(queries[i])``."""
        ...

    def index_size_bytes(self) -> int:
        """Size of the auxiliary index structures (excluding the raw data)."""
        ...


class SearchMixin:
    """The shared single-query ``search``: a one-row ``search_many``.

    Every registered method inherits this and implements only
    :meth:`search_many`, so a single query and a batch row run the same
    code and agree bit for bit.
    """

    def search(self, query: np.ndarray, k: int = 1, **kwargs) -> SearchResult:
        """Return the (approximate) top-k MIP points for one ``(d,)`` query."""
        query = validate_query(query, self.dim)
        return self.search_many(query[None, :], k=k, **kwargs)[0]


def validate_k(k) -> int:
    """Normalise a top-k request to a positive Python int — or raise.

    Every registered method's ``search``/``search_many`` funnels ``k``
    through this one check, so an invalid request fails identically
    everywhere (before this audit, ``k=2.5`` silently truncated in some
    methods and surfaced as obscure numpy ``TypeError``s in others).  The
    uniform error is a ``ValueError`` so the serving layer can map every
    bad-request shape to one HTTP 400 path.

    Accepted: positive ints (numpy integers included) and integral floats —
    JSON clients often deliver ``5.0``.  Rejected with the same message:
    zero, negatives, non-integral floats, bools, and non-numbers.
    """
    if isinstance(k, (bool, np.bool_)):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if isinstance(k, (float, np.floating)):
        if not float(k).is_integer():
            raise ValueError(f"k must be a positive integer, got {k!r}")
        k = int(k)
    if not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    k = int(k)
    if k <= 0:
        raise ValueError(f"k must be a positive integer, got {k}")
    return k


def validate_query(query: np.ndarray, dim: int) -> np.ndarray:
    """Normalise a query to a finite 1-D float64 vector of the right width.

    Its squared norm must be finite too (see :func:`_check_norms`).
    """
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    if query.shape[0] != dim:
        raise ValueError(f"query has dimension {query.shape[0]}, index expects {dim}")
    if not np.all(np.isfinite(query)):
        raise ValueError("query contains non-finite values")
    _check_norms(query[None, :], "query")
    return query


def validate_queries(queries: np.ndarray, dim: int) -> np.ndarray:
    """Normalise a batch to a finite ``(n_q, dim)`` float64 array.

    Every row's squared norm must be finite too (see :func:`_check_norms`).

    A single ``(dim,)`` query is promoted to a one-row batch.  An empty
    batch is valid and normalises to ``(0, dim)`` — every ``search_many``
    answers it with the empty :class:`BatchResult`.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 1 and queries.size == 0:
        return np.empty((0, dim), dtype=np.float64)
    queries = np.atleast_2d(queries)
    if queries.ndim != 2:
        raise ValueError(f"queries must be a (n_q, d) array, got {queries.shape}")
    if queries.shape[0] == 0:
        return np.empty((0, dim), dtype=np.float64)
    if queries.shape[1] != dim:
        raise ValueError(
            f"queries have dimension {queries.shape[1]}, index expects {dim}"
        )
    if not np.all(np.isfinite(queries)):
        raise ValueError("queries contain non-finite values")
    _check_norms(queries, "query {}")
    return queries


def _check_norms(queries: np.ndarray, name: str) -> None:
    """Reject rows whose squared norm overflows float64.

    Finite but huge components (e.g. ``1e308``) square to ``inf``; every
    method's geometry (norms, projected distances, the ProMIPS conditions)
    would then turn into NaN deep inside a search.  ``name`` names the
    offending row in the message (``{}`` becomes its index).
    """
    with np.errstate(over="ignore"):
        norms_sq = np.einsum("ij,ij->i", queries, queries)
    bad = np.flatnonzero(~np.isfinite(norms_sq))
    if bad.size:
        raise ValueError(
            f"{name.format(int(bad[0]))} has a squared norm that overflows float64; "
            "scale it down"
        )
