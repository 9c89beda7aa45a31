"""iDistance with the paper's ring + sub-partition pattern (§VI, Fig. 3).

The pattern differs from standard iDistance in two ways:

1. **Quantized ring keys** (Formula 6): ``I(p) = ⌊i·C + dis(p, O_i)/ε⌋`` with
   ``ε = r_avg / Nkey`` derived from the average cluster radius, so each
   partition is sliced into rings of equal width and one key indexes a whole
   ring instead of a single point.
2. **Sub-partitions**: the points of a ring are clustered again with
   ``ksp``-means; each sub-partition keeps a pivot and radius, so a range
   query can discard whole sub-partitions whose bounding sphere misses the
   query sphere, and the points of a sub-partition are laid out contiguously
   on disk (sequential reads instead of random ones).

The B+-tree maps each ring key to the descriptors of its sub-partitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cluster.kmeans import kmeans
from repro.index.bptree import BPlusTree
from repro.storage.pagefile import AccessCounter, VectorReader

__all__ = ["SubPartition", "RangeResult", "RingIDistance"]


@dataclass(frozen=True)
class SubPartition:
    """Descriptor of one sub-partition (a cluster inside a ring).

    Attributes:
        key: ring key this sub-partition belongs to (Formula 6).
        pivot: cluster centre in the projected space.
        radius: max distance of a member from the pivot.
        member_ids: point ids, stored contiguously on disk in this order.
    """

    key: int
    pivot: np.ndarray
    radius: float
    member_ids: np.ndarray


class RangeResult:
    """Points found by one range search, handed out in ascending distance.

    A stable sort of every in-range point costs milliseconds per query, yet
    the verifier usually stops within the nearest few thousand.  The order
    is therefore built on demand, one distance band at a time: the bands end
    at the distances of the 256th, 512th, 1024th, ... nearest point, and
    :meth:`take` orders the next band only when a caller reads past the
    ordered prefix.  A band includes every tie of its end distance and is
    ordered by ``(distance, position)``, so every prefix equals the same
    prefix of a stable argsort over all points.

    Unpacking (``ids, dists = result``) yields both arrays fully sorted.
    """

    __slots__ = ("_ids", "_dists", "_cuts", "_sorted_ids", "_sorted_dists")

    # Points in the first band; each later band doubles the ordered prefix.
    MIN_PREFIX = 256

    def __init__(self, ids: np.ndarray, dists: np.ndarray) -> None:
        self._ids = ids
        self._dists = dists
        self._cuts: list[float] | None = None  # band bounds, ascending
        self._sorted_ids = ids[:0]  # the ordered prefix
        self._sorted_dists = dists[:0]

    def __len__(self) -> int:
        return self._ids.size

    def __iter__(self):
        return iter(self.take(0, len(self)))

    def take(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Ids and distances of sorted positions ``start..stop`` (exclusive)."""
        while self._sorted_ids.size < min(stop, len(self)):
            self._extend()
        return self._sorted_ids[start:stop], self._sorted_dists[start:stop]

    def _extend(self) -> None:
        """Order the next distance band ``(cuts[0], cuts[1]]``."""
        dists = self._dists
        if self._cuts is None:
            ascending = np.sort(dists)
            self._cuts, size = [-math.inf], self.MIN_PREFIX
            while size < dists.size:
                self._cuts.append(float(ascending[size - 1]))
                size *= 2
            self._cuts.append(math.inf)
        lo, hi = self._cuts[0], self._cuts[1]
        del self._cuts[0]
        band = np.flatnonzero((dists > lo) & (dists <= hi))
        band_dists = dists[band]
        order = np.argsort(band_dists)
        ordered = band_dists[order]
        if (ordered[1:] == ordered[:-1]).any():
            order = np.argsort(band_dists, kind="stable")  # ties keep position order
        self._sorted_ids = np.concatenate((self._sorted_ids, self._ids[band[order]]))
        self._sorted_dists = np.concatenate((self._sorted_dists, band_dists[order]))


class RingIDistance:
    """The paper's iDistance variant (Algorithm 4).

    Args:
        points: ``(n, m)`` projected points to index.
        kp: number of first-stage partitions (paper default 5).
        n_key: rings per average radius, ``Nkey`` (paper default 40).
        ksp: sub-partitions per ring (paper default 10).
        rng: generator for the two k-means stages.
        epsilon: ring width override; default ``r_avg / n_key`` as in §VI.
        order: B+-tree fanout.
    """

    def __init__(
        self,
        points: np.ndarray,
        kp: int,
        n_key: int,
        ksp: int,
        rng: np.random.Generator,
        epsilon: float | None = None,
        order: int = 64,
    ) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError(f"points must be a non-empty 2-D array, got {points.shape}")
        if n_key <= 0:
            raise ValueError(f"n_key must be positive, got {n_key}")
        self._points = points
        self.n, self.dim = points.shape
        self.n_key = int(n_key)
        self.ksp = int(ksp)

        clustering = kmeans(points, kp, rng)
        self.centers = clustering.centers
        self.kp = clustering.n_clusters

        dist_to_center = np.linalg.norm(points - self.centers[clustering.labels], axis=1)
        r_avg = float(clustering.radii.mean())
        if epsilon is None:
            epsilon = r_avg / n_key if r_avg > 0 else 1.0
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = float(epsilon)

        rings = np.floor(dist_to_center / self.epsilon).astype(np.int64)
        # C separates key ranges of different partitions (Formula 6's constant).
        self.C = int(rings.max()) + 2
        self.max_ring = np.full(self.kp, -1, dtype=np.int64)
        for i in range(self.kp):
            members = clustering.labels == i
            if members.any():
                self.max_ring[i] = int(rings[members].max())

        # Second clustering stage: ksp-means inside every (partition, ring).
        self.subpartitions: list[SubPartition] = []
        layout: list[np.ndarray] = []
        group_order = np.lexsort((rings, clustering.labels))
        boundaries = np.flatnonzero(
            np.diff(clustering.labels[group_order]) != 0
        ) + 1
        ring_change = np.flatnonzero(np.diff(rings[group_order]) != 0) + 1
        cuts = np.unique(np.concatenate(([0], boundaries, ring_change, [self.n])))
        tree_items: list[tuple[int, int]] = []
        for start, end in zip(cuts[:-1], cuts[1:]):
            member_idx = group_order[start:end]
            part = int(clustering.labels[member_idx[0]])
            ring = int(rings[member_idx[0]])
            key = part * self.C + ring
            sub = kmeans(points[member_idx], ksp, rng)
            for j in range(sub.n_clusters):
                local = sub.cluster_members(j)
                if local.size == 0:
                    continue
                ids = member_idx[local].astype(np.int64)
                sp = SubPartition(
                    key=key,
                    pivot=sub.centers[j],
                    radius=float(sub.radii[j]),
                    member_ids=ids,
                )
                tree_items.append((key, len(self.subpartitions)))
                self.subpartitions.append(sp)
                layout.append(ids)

        self.layout_order = np.concatenate(layout).astype(np.int64)
        tree_items.sort(key=lambda kv: kv[0])
        self._tree = BPlusTree.bulk_load(tree_items, order=order)
        self._cache_subpartition_arrays()

    def _cache_subpartition_arrays(self) -> None:
        """Vectorized views of the descriptors (hot path of range search)."""
        self._sp_pivots = np.stack([sp.pivot for sp in self.subpartitions])
        self._sp_radii = np.array([sp.radius for sp in self.subpartitions])
        self._sp_sizes = np.array([sp.member_ids.size for sp in self.subpartitions])
        self._sp_starts = np.cumsum(self._sp_sizes) - self._sp_sizes
        self._sp_members = np.concatenate([sp.member_ids for sp in self.subpartitions])

    # -------------------------------------------------------- persistence

    def state(self) -> dict[str, np.ndarray]:
        """Geometry of the index as plain arrays (for serialization).

        Together with the projected points this is sufficient to rebuild the
        index without re-running either k-means stage.
        """
        pivots = np.stack([sp.pivot for sp in self.subpartitions])
        return {
            "centers": self.centers,
            "epsilon": np.array([self.epsilon]),
            "C": np.array([self.C], dtype=np.int64),
            "n_key": np.array([self.n_key], dtype=np.int64),
            "ksp": np.array([self.ksp], dtype=np.int64),
            "max_ring": self.max_ring,
            "sp_keys": np.array([sp.key for sp in self.subpartitions], dtype=np.int64),
            "sp_pivots": pivots,
            "sp_radii": np.array([sp.radius for sp in self.subpartitions]),
            "sp_offsets": np.cumsum(
                [0] + [sp.member_ids.size for sp in self.subpartitions]
            ).astype(np.int64),
            "sp_members": np.concatenate(
                [sp.member_ids for sp in self.subpartitions]
            ).astype(np.int64),
            "layout_order": self.layout_order,
        }

    @classmethod
    def from_state(
        cls, points: np.ndarray, state: dict[str, np.ndarray], order: int = 64
    ) -> "RingIDistance":
        """Rebuild an index from :meth:`state` output (no clustering runs)."""
        self = object.__new__(cls)
        points = np.asarray(points, dtype=np.float64)
        self._points = points
        self.n, self.dim = points.shape
        self.centers = np.asarray(state["centers"], dtype=np.float64)
        self.kp = self.centers.shape[0]
        self.epsilon = float(state["epsilon"][0])
        self.C = int(state["C"][0])
        self.n_key = int(state["n_key"][0])
        self.ksp = int(state["ksp"][0])
        self.max_ring = np.asarray(state["max_ring"], dtype=np.int64)

        offsets = state["sp_offsets"]
        members = state["sp_members"]
        self.subpartitions = []
        tree_items: list[tuple[int, int]] = []
        for i, key in enumerate(state["sp_keys"].tolist()):
            ids = members[offsets[i] : offsets[i + 1]]
            self.subpartitions.append(
                SubPartition(
                    key=int(key),
                    pivot=np.asarray(state["sp_pivots"][i], dtype=np.float64),
                    radius=float(state["sp_radii"][i]),
                    member_ids=np.asarray(ids, dtype=np.int64),
                )
            )
            tree_items.append((int(key), i))
        self.layout_order = np.asarray(state["layout_order"], dtype=np.int64)
        tree_items.sort(key=lambda kv: kv[0])
        self._tree = BPlusTree.bulk_load(tree_items, order=order)
        self._cache_subpartition_arrays()
        return self

    @property
    def tree(self) -> BPlusTree:
        return self._tree

    @property
    def n_subpartitions(self) -> int:
        return len(self.subpartitions)

    def index_size_bytes(self, page_size: int) -> int:
        """B+-tree nodes plus sub-partition descriptors (pivot, radius, extent)."""
        descriptor_bytes = sum(
            sp.pivot.nbytes + 8 + 16 for sp in self.subpartitions
        )
        meta = self.centers.nbytes + self.max_ring.nbytes
        return self._tree.size_bytes(page_size) + descriptor_bytes + meta

    def selectivity(self) -> float:
        """Observed ``µ = 1 / (kp·Nkey·ksp)`` analogue: mean sub-partition fraction."""
        if not self.subpartitions:
            return 0.0
        sizes = np.array([sp.member_ids.size for sp in self.subpartitions])
        return float(sizes.mean()) / self.n

    # ------------------------------------------------------------------ search

    def _candidate_subpartitions(
        self,
        query: np.ndarray,
        radius: float,
        tree_counter: AccessCounter | None,
    ) -> np.ndarray:
        """Indices of the sub-partitions whose bounding sphere intersects the
        query sphere, in key order."""
        center_dists = np.linalg.norm(self.centers - query[None, :], axis=1)
        touched: list[np.ndarray] = []
        for i in range(self.kp):
            if self.max_ring[i] < 0:
                continue
            lo_ring = max(0, int((center_dists[i] - radius) / self.epsilon))
            # +1 guards the floor against a one-ulp undershoot of the ring
            # boundary; sub-partition sphere tests discard any excess.
            hi_ring = int((center_dists[i] + radius) / self.epsilon) + 1
            if lo_ring > self.max_ring[i]:
                continue
            hi_ring = min(hi_ring, int(self.max_ring[i]))
            lo_key = i * self.C + lo_ring
            hi_key = i * self.C + hi_ring
            touched.append(self._tree.range_values(lo_key, hi_key, counter=tree_counter))
        sel = np.concatenate(touched) if touched else np.empty(0, dtype=np.int64)
        # One vectorized sphere-intersection test over all touched
        # descriptors replaces per-descriptor norm computations.
        pivot_dists = np.linalg.norm(self._sp_pivots[sel] - query[None, :], axis=1)
        return sel[pivot_dists <= radius + self._sp_radii[sel]]

    def range_search(
        self,
        query: np.ndarray,
        radius: float,
        tree_counter: AccessCounter | None = None,
        reader: VectorReader | None = None,
        min_radius: float = 0.0,
    ) -> RangeResult:
        """Points with ``min_radius < dis(P(o), P(q)) <= radius``.

        ``min_radius > 0`` turns the search into an annulus scan, used by the
        compensation pass of MIP-Search-II so already-verified points are not
        reported twice.  The result hands points out by ascending distance,
        the order Algorithm 3 consumes them in, sorting lazily (see
        :class:`RangeResult`).
        """
        query = np.asarray(query, dtype=np.float64)
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        chosen = self._candidate_subpartitions(query, radius, tree_counter)
        # Fetch every chosen sub-partition in one batched read: pages are
        # charged identically (the reader dedups) and the distance test
        # vectorizes across the whole candidate set.  Member j of chosen
        # sub-partition i sits at flat position offsets[i] + j.
        sizes = self._sp_sizes[chosen]
        offsets = np.cumsum(sizes) - sizes
        ids = self._sp_members[
            np.repeat(self._sp_starts[chosen] - offsets, sizes) + np.arange(int(sizes.sum()))
        ]
        diff = reader.get_many(ids) if reader is not None else self._points[ids]
        diff -= query
        # np.linalg.norm(diff, axis=1) without its copy for conj().
        dists = np.sqrt(np.add.reduce(diff * diff, axis=1))
        mask = (dists <= radius) & (dists > min_radius)
        return RangeResult(ids[mask], dists[mask])

    def knn_iterate(
        self,
        query: np.ndarray,
        tree_counter: AccessCounter | None = None,
        reader: VectorReader | None = None,
        initial_radius: float | None = None,
    ):
        """Yield ``(point_id, distance)`` in strictly non-decreasing distance order.

        Implements the incremental NN search over this index that Algorithm 1
        (MIP-Search-I) requires: the radius doubles until the dataset is
        exhausted, and points are only emitted once their distance is covered
        by a completed range search.
        """
        query = np.asarray(query, dtype=np.float64)
        radius = initial_radius if initial_radius is not None else max(self.epsilon, 1e-12)
        emitted = 0
        # The annulus lower bound is strict; -1 keeps distance-0 points in
        # the first round.
        prev_radius = -1.0
        while emitted < self.n:
            ids, dists = self.range_search(
                query, radius, tree_counter, reader, min_radius=prev_radius
            )
            for pid, dist in zip(ids.tolist(), dists.tolist()):
                yield pid, dist
                emitted += 1
            prev_radius = radius
            radius *= 2.0
