"""Hash partitioning of intermediates over workers, with skew metrics.

§7.2 proves parallel scalability under the assumption that data "is not
skewed". The cost model follows the paper and divides work evenly; this
module makes the assumption *checkable*: it computes the actual hash
partitioning a shuffle would produce and the resulting skew factor
(max partition / mean partition), which the engines record per stage.
A skew factor near 1.0 validates the even-division model; large factors
flag where the paper's guarantee would degrade on real deployments.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Iterable, List, Sequence

from repro.kba.blockset import BlockSet, block_bytes
from repro.relational.types import Row, row_size


#: key texts whose hash is remembered. A memo of a pure function has no
#: invalidation, only a size: ≈ 180 B an entry for a one-integer key
#: (its text, the int, the cache's links), so ≈ 6 MB full at worst; the
#: e2e benchmark's analytic statements shuffle 3 580 distinct keys,
#: 0.65 MB (``docs/PERFORMANCE.md``, "ISSUE 22")
HASH_MEMO_SIZE = 1 << 15


@lru_cache(maxsize=HASH_MEMO_SIZE)
def _text_hash(text: str) -> int:
    """First 8 bytes of the md5 of ``text``, big-endian."""
    return int.from_bytes(hashlib.md5(text.encode()).digest()[:8], "big")


def _bucket(key: Row, n: int) -> int:
    # memoised on the key's text, never on the key: (1,), (1.0,) and
    # (True,) are one dict key and three different buckets
    return _text_hash(repr(key)) % n


def partition_keys(keys: Iterable[Row], n: int) -> List[int]:
    """Count of keys landing on each of ``n`` workers."""
    counts = [0] * max(1, n)
    for key in keys:
        counts[_bucket(key, max(1, n))] += 1
    return counts


def partition_blockset(blockset: BlockSet, n: int) -> List[int]:
    """Bytes of a block set shipped to each worker when hash-partitioned
    by its key attributes (the repartitioning of an interleaved ∝).

    The vector sums to ``blockset.size_bytes()``, so a stage that needs
    both the shuffle volume and its skew walks the block set once.
    """
    n = max(1, n)
    sizes = [0] * n
    sizing = blockset.sizing
    for key, entries in blockset.data.items():
        sizes[_bucket(key, n)] += block_bytes(key, entries, sizing)
    return sizes


def partition_rows(
    rows: Sequence[Row], key_positions: Sequence[int], n: int
) -> List[int]:
    """Bytes per worker when rows shuffle on the given key positions."""
    sizes = [0] * max(1, n)
    for row in rows:
        key = tuple(row[p] for p in key_positions)
        sizes[_bucket(key, max(1, n))] += row_size(row)
    return sizes


def skew_factor(sizes: Sequence[int]) -> float:
    """max/mean of the partition sizes; 1.0 = perfectly even, the §7.2
    assumption. Empty input reports 1.0 (nothing to skew)."""
    total = sum(sizes)
    if total <= 0 or not sizes:
        return 1.0
    mean = total / len(sizes)
    return max(sizes) / mean


def blockset_skew(blockset: BlockSet, n: int) -> float:
    return skew_factor(partition_blockset(blockset, n))
