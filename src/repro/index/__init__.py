"""Index substrate: B+-tree and the two iDistance partition patterns."""

from repro.index.bptree import BPlusTree, LeafCursor
from repro.index.idistance import IDistanceIndex
from repro.index.ring_idistance import RangeResult, RingIDistance, SubPartition

__all__ = [
    "BPlusTree",
    "LeafCursor",
    "IDistanceIndex",
    "RingIDistance",
    "RangeResult",
    "SubPartition",
]
