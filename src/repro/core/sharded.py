"""Sharded serving layer: horizontal partitioning with exact top-k merge.

A production deployment outgrows one index long before it outgrows one
machine's arithmetic: build times, rebuild pauses and per-query latency all
scale with ``n``, while the dataset partitions trivially.  ProMIPS is
especially shard-friendly — its index is a small projected file plus an
iDistance tree, so per-shard builds stay cheap — and "To Index or Not to
Index" (Abuzaid et al.) makes the case that partition-level execution is
where exact MIPS serving wins.

:class:`ShardedIndex` partitions the dataset across ``shards`` sub-indexes
(contiguous ranges or a deterministic multiplicative hash of the point id),
builds **any** spec-described method per shard through
:func:`repro.spec.build_index`, and answers ``search_many`` by fanning the
query batch out over the shards on a thread pool — NumPy releases the GIL
inside the BLAS kernels every shard leans on — and exact-merging the
per-shard top-k lists; ``search`` is the shared one-row batch.

The merge is *bit-identical* to the unsharded index for exact inner methods:
shard-local scores come out of the same fixed-shape GEMM panels the full
scan uses (an output element depends only on its own row and query), local
ids remap to global ids through a sorted member table so per-shard
tie-breaking by local id is exactly tie-breaking by global id, and the
cross-shard merge orders by ``(-score, global_id)`` — the same total order
``repro.core.engine.topk_ids_scores`` applies.  The shard-count-invariance
property tests pin this down for shard counts that do not divide ``n``.

Mutable serving works too: with ``inner='dynamic(...)'`` every shard is a
:class:`repro.core.dynamic.DynamicProMIPS`, and :meth:`insert` /
:meth:`delete` route by id — inserts to the least-loaded shard, deletes to
the owning shard via the member table.

Persistence nests one v2 sub-envelope per shard (method + spec + state
arrays, see :func:`repro.core.persist.pack_substate`) inside the composite's
own ``state()``, so a sharded index round-trips through the same
``save_index``/``load_index`` pair as every other method.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.api import (
    BatchResult,
    SearchMixin,
    SearchStats,
    validate_k,
    validate_queries,
    validate_query,
)
from repro.core.engine import MERGE_SENTINEL, merge_topk_panels
from repro.core.persist import pack_substate, unpack_substate
from repro.core.rng import resolve_rng
from repro.spec import IndexSpec, build_index, register_method

__all__ = ["ShardedIndex"]

_ASSIGNMENTS = ("contiguous", "hash")
# Fibonacci-hash multiplier (golden-ratio based): mixes sequential ids into
# uniformly spread shard labels without Python's randomized hash().
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _assign_members(n: int, n_shards: int, assignment: str) -> list[np.ndarray]:
    """Global point ids per shard, each array ascending.

    Ascending member order is load-bearing: shard-local id order then equals
    global id order inside the shard, so the inner index's tie-breaking by
    local id survives the remap unchanged.
    """
    if assignment == "contiguous":
        bounds = np.linspace(0, n, n_shards + 1).astype(np.int64)
        members = [
            np.arange(bounds[s], bounds[s + 1], dtype=np.int64)
            for s in range(n_shards)
        ]
    elif assignment == "hash":
        ids = np.arange(n, dtype=np.uint64)
        shard_of = ((ids * _HASH_MULTIPLIER) >> np.uint64(33)) % np.uint64(n_shards)
        members = [
            np.flatnonzero(shard_of == np.uint64(s)).astype(np.int64)
            for s in range(n_shards)
        ]
    else:
        raise ValueError(
            f"assignment must be one of {_ASSIGNMENTS}, got {assignment!r}"
        )
    # A hash split of a small dataset can leave shards empty; inner methods
    # reject empty data, so empties are dropped (the merge never misses them).
    return [m for m in members if m.size]


@register_method("sharded", aliases=("Sharded", "ShardedIndex"))
class ShardedIndex(SearchMixin):
    """Horizontal partitioning over any registered inner method.

    Use :meth:`build` (or ``repro.build_index`` with a spec like
    ``"sharded(inner='promips(c=0.9)', shards=4)"``); the constructor wires
    pre-built shards together.

    Args:
        shards: built inner indexes, one per non-empty partition.
        members: per-shard ascending global-id arrays aligned with each
            shard's local ids.
        inner_spec: the inner method's declarative spec.
        requested_shards: the configured shard count (the effective count,
            ``len(shards)``, can be lower on small datasets).
        assignment: ``"contiguous"`` or ``"hash"``.
        n_threads: fan-out width for ``search_many``; ``None`` uses
            ``min(len(shards), cpu_count)``.
        next_id: next global id handed to :meth:`insert`.
    """

    def __init__(
        self,
        shards: list,
        members: list[np.ndarray],
        inner_spec: IndexSpec,
        requested_shards: int,
        assignment: str,
        n_threads: int | None = None,
        next_id: int | None = None,
    ) -> None:
        if not shards or len(shards) != len(members):
            raise ValueError(
                f"need one member table per shard, got {len(shards)} shards "
                f"and {len(members)} tables"
            )
        dims = {shard.dim for shard in shards}
        if len(dims) != 1:
            raise ValueError(f"shards disagree on dimensionality: {sorted(dims)}")
        self.shards = list(shards)
        # Member tables carry amortised spare capacity so the mutable path
        # appends in O(1); _shard_members(s) is the live prefix as a view.
        self._member_bufs = [np.array(m, dtype=np.int64) for m in members]
        self._member_counts = [m.size for m in self._member_bufs]
        self.inner_spec = inner_spec
        self.requested_shards = int(requested_shards)
        self.assignment = assignment
        self.n_threads = n_threads
        self.dim = dims.pop()
        self._next_id = (
            int(next_id)
            if next_id is not None
            else int(max(int(m[-1]) for m in self._member_bufs)) + 1
        )
        # Wall-clock seconds each shard spent answering the last
        # ``search_many`` call (the throughput harness reports these).
        self.last_shard_seconds: list[float] | None = None

    # ------------------------------------------------------------------ build

    @classmethod
    def build(
        cls,
        data: np.ndarray,
        inner: IndexSpec | str | dict = "promips()",
        shards: int = 4,
        assignment: str = "contiguous",
        n_threads: int | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> "ShardedIndex":
        """Partition ``data`` and build one inner index per shard.

        Args:
            data: ``(n, d)`` dataset; global ids are the row numbers.
            inner: spec of the per-shard method (any registered method).
            shards: partition count; clamped to ``n`` so no shard is empty.
            assignment: ``"contiguous"`` row ranges or ``"hash"`` of the id.
            n_threads: fan-out width for ``search_many``.
            rng: generator or seed; each shard builds from an independently
                spawned child stream, so builds are deterministic per seed
                regardless of shard count.
        """
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError(f"data must be a non-empty (n, d) array, got {data.shape}")
        if shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        if assignment not in _ASSIGNMENTS:
            raise ValueError(
                f"assignment must be one of {_ASSIGNMENTS}, got {assignment!r}"
            )
        inner_spec = IndexSpec.coerce(inner)
        if inner_spec.method.lower() == "sharded":
            raise ValueError("sharded indexes cannot nest sharded inner methods")
        n = data.shape[0]
        members = _assign_members(n, min(int(shards), n), assignment)
        child_rngs = resolve_rng(rng).spawn(len(members))
        built = [
            build_index(inner_spec, np.ascontiguousarray(data[m]), rng=child)
            for m, child in zip(members, child_rngs)
        ]
        return cls(
            built, members, inner_spec, int(shards), assignment,
            n_threads=n_threads, next_id=n,
        )

    # ------------------------------------------------------- registry contract

    @classmethod
    def from_spec(
        cls,
        data: np.ndarray,
        spec: IndexSpec,
        rng: np.random.Generator | int | None = None,
    ) -> "ShardedIndex":
        """Build from a spec, e.g. ``sharded(inner='promips(c=0.9)', shards=4)``."""
        return cls.build(data, rng=resolve_rng(rng), **spec.params)

    def spec(self) -> IndexSpec:
        return IndexSpec(
            "sharded",
            {
                "inner": str(self.inner_spec),
                "shards": self.requested_shards,
                "assignment": self.assignment,
                "n_threads": self.n_threads,
            },
        )

    def state(self) -> dict[str, np.ndarray]:
        """One v2 sub-envelope per shard plus the member tables.

        Each shard serialises through :func:`repro.core.persist.pack_substate`
        with its *own* resolved spec (a per-shard ProMIPS can resolve a
        different ``m``), so reconstruction does not re-run any build.
        """
        out: dict[str, np.ndarray] = {}
        for i, shard in enumerate(self.shards):
            out.update(pack_substate(shard, f"shard{i}_"))
            out[f"members{i}"] = self._shard_members(i).copy()
        out["next_id"] = np.array([self._next_id], dtype=np.int64)
        return out

    @classmethod
    def from_state(cls, spec: IndexSpec, state: dict[str, np.ndarray]) -> "ShardedIndex":
        shards: list = []
        members: list[np.ndarray] = []
        while f"shard{len(shards)}___meta__" in state:
            i = len(shards)
            shards.append(unpack_substate(state, f"shard{i}_"))
            members.append(np.asarray(state[f"members{i}"], dtype=np.int64))
        if not shards:
            raise ValueError("sharded state holds no shard sub-envelopes")
        return cls(
            shards,
            members,
            IndexSpec.parse(spec.params["inner"]),
            int(spec.params.get("shards", len(shards))),
            spec.params.get("assignment", "contiguous"),
            n_threads=spec.params.get("n_threads"),
            next_id=int(state["next_id"][0]),
        )

    # ------------------------------------------------------------------- sizes

    @property
    def n_shards(self) -> int:
        """Effective shard count (≤ the configured ``shards`` on tiny data)."""
        return len(self.shards)

    def _shard_members(self, s: int) -> np.ndarray:
        """Shard ``s``'s local→global id table (ascending), as a view."""
        return self._member_bufs[s][: self._member_counts[s]]

    @staticmethod
    def _live_count(shard) -> int:
        live = getattr(shard, "n_live", None)
        return int(live) if live is not None else int(shard.n)

    @property
    def n_live(self) -> int:
        """Live points across all shards (tombstones excluded)."""
        return sum(self._live_count(shard) for shard in self.shards)

    def index_size_bytes(self) -> int:
        """Shard structures plus the global↔local member tables."""
        return sum(shard.index_size_bytes() for shard in self.shards) + sum(
            self._shard_members(s).nbytes for s in range(self.n_shards)
        )

    # ------------------------------------------------------------------ search

    def search_many(self, queries: np.ndarray, k: int = 1, **kwargs) -> BatchResult:
        """Fan a batch out over the shards and merge per query.

        Each shard answers the *whole* batch through its own
        ``search_many``; shards run concurrently on a thread pool
        (BLAS releases the GIL, so per-shard GEMMs overlap on real cores).
        Per-shard wall-clock seconds land in :attr:`last_shard_seconds`.

        Args:
            queries: ``(n_q, d)`` batch (one ``(d,)`` query is promoted).
            k: results per query.
            **kwargs: forwarded to every shard (e.g. ProMIPS ``c=0.8``).
        """
        k = validate_k(k)
        queries = validate_queries(queries, self.dim)
        if queries.shape[0] == 0:
            return BatchResult.empty()
        k = min(k, self.n_live)

        timings = [0.0] * self.n_shards

        def run_shard(s: int) -> BatchResult:
            start = time.perf_counter()
            batch = self.shards[s].search_many(queries, k=k, **kwargs)
            timings[s] = time.perf_counter() - start
            return batch

        width = self.n_threads
        if width is None:
            width = min(self.n_shards, os.cpu_count() or 1)
        # A pool wider than the shard count only oversubscribes (each shard
        # is one task) — clamp, so a persisted big-host n_threads tuning
        # stays bounded when the index reloads on a smaller machine.
        width = min(width, self.n_shards)
        if width > 1 and self.n_shards > 1:
            with ThreadPoolExecutor(max_workers=width) as pool:
                shard_batches = list(pool.map(run_shard, range(self.n_shards)))
        else:
            shard_batches = [run_shard(s) for s in range(self.n_shards)]
        self.last_shard_seconds = timings
        return self._merge_batches(shard_batches, queries.shape[0], k)

    def _merge_batches(
        self, shard_batches: list[BatchResult], n_q: int, k: int
    ) -> BatchResult:
        """Vectorized cross-shard merge of whole batches.

        Each query's top-k is ordered by ``(-score, global_id)`` — the total
        order the unsharded engine applies, which is what makes sharding
        invisible for exact inner methods; no shard can contribute more than
        its own top-k to the global top-k, so merging the per-shard
        short-lists loses nothing.  All queries merge at once: each shard's
        ``(n_q, k')`` id block remaps to global ids in one gather, the blocks
        concatenate into ``(n_q, Σk')`` panels, and one axis-wise lexsort
        selects every row's top-k.  Keeping the merge out of a per-query
        Python loop matters because on a many-core host it is the only
        serial stage left after the fan-out.
        """
        # Padded slots (an approximate shard can come up short of k) sort
        # last under (score=-inf, gid=sentinel) and are re-masked after the
        # cut by the shared engine merge.
        gid_blocks: list[np.ndarray] = []
        score_blocks: list[np.ndarray] = []
        for s, batch in enumerate(shard_batches):
            members = self._shard_members(s)
            local = batch.ids
            pad = local == BatchResult.PAD_ID
            gids = members[np.where(pad, 0, local)]
            gids[pad] = MERGE_SENTINEL
            gid_blocks.append(gids)
            score_blocks.append(np.where(pad, -np.inf, batch.scores))
        top_gids, top_scores = merge_topk_panels(gid_blocks, score_blocks, k)

        stats = []
        per_shard_stats = [batch.stats for batch in shard_batches]
        for qi in range(n_q):
            row = [shard_stats[qi] for shard_stats in per_shard_stats]
            per_shard_candidates = [s.candidates for s in row]
            stats.append(
                SearchStats(
                    pages=sum(s.pages for s in row),
                    candidates=sum(per_shard_candidates),
                    extras={
                        "shards": self.n_shards,
                        "per_shard_candidates": per_shard_candidates,
                    },
                )
            )
        return BatchResult(ids=top_gids, scores=top_scores, stats=stats)

    # ---------------------------------------------------------------- updates

    def _require_mutable(self) -> None:
        missing = [
            type(shard).__name__
            for shard in self.shards
            if not (hasattr(shard, "insert") and hasattr(shard, "delete"))
        ]
        if missing:
            raise TypeError(
                f"inner method {self.inner_spec.method!r} does not support "
                f"updates (shards {sorted(set(missing))} lack insert/delete); "
                "use inner='dynamic(...)'"
            )

    def insert(self, vector: np.ndarray) -> int:
        """Insert one point into the least-loaded shard; returns its global id.

        Ties break toward the lowest shard index, so routing is deterministic.
        The new global id is appended to the shard's member table, preserving
        the ascending local→global correspondence the merge relies on.
        """
        self._require_mutable()
        vector = validate_query(vector, self.dim)
        target = min(
            range(self.n_shards), key=lambda s: (self._live_count(self.shards[s]), s)
        )
        local = self.shards[target].insert(vector)
        gid = self._next_id
        self._next_id += 1
        count = self._member_counts[target]
        if local != count:
            raise RuntimeError(
                f"shard {target} assigned local id {local}, expected {count}"
            )
        buf = self._member_bufs[target]
        if count == buf.size:  # amortised doubling keeps inserts O(1)
            grown = np.empty(max(8, 2 * buf.size), dtype=np.int64)
            grown[:count] = buf
            self._member_bufs[target] = buf = grown
        buf[count] = gid
        self._member_counts[target] = count + 1
        return gid

    def maintenance_targets(self) -> list[tuple[str, object]]:
        """Per-shard rebuild hooks for :class:`repro.core.maintenance.
        MaintenanceEngine` (non-empty only for dynamic inners).

        The engine checks targets round-robin and rebuilds one at a time,
        so at most one shard pays build cost at any moment — the remaining
        shards keep answering at full speed and the cross-shard merge never
        sees a half-swapped shard (swaps happen under the serving lock).
        """
        return [
            (f"shard{s}", shard)
            for s, shard in enumerate(self.shards)
            if hasattr(shard, "begin_rebuild")
        ]

    def delete(self, global_id: int) -> None:
        """Delete a point by global id, routed to the owning shard.

        Raises:
            KeyError: unknown or already-deleted id.
            ValueError: deleting would empty the owning shard — the inner
                dynamic index refuses to tombstone its last live point, so
                unlike the unsharded index the composite cannot drain one
                partition completely (a documented sharding limitation; the
                error names the shard so callers can tell it apart from the
                composite running dry).
        """
        self._require_mutable()
        for s, shard in enumerate(self.shards):
            members = self._shard_members(s)
            pos = int(np.searchsorted(members, global_id))
            if pos < members.size and members[pos] == global_id:
                try:
                    shard.delete(pos)
                except ValueError as exc:
                    raise ValueError(
                        f"cannot delete id {global_id}: it is the last live "
                        f"point of shard {s} ({self.n_live} live points "
                        "remain overall); shards cannot be drained empty"
                    ) from exc
                except KeyError as exc:
                    # The inner index names the shard-local id; re-raise in
                    # the caller's global id space.
                    raise KeyError(
                        f"unknown or already-deleted id {global_id}"
                    ) from exc
                return
        raise KeyError(f"unknown id {global_id}")

    def __repr__(self) -> str:
        return (
            f"ShardedIndex(shards={self.n_shards}, inner={self.inner_spec}, "
            f"assignment={self.assignment!r}, live={self.n_live})"
        )
