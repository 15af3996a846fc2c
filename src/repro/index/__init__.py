"""Secondary-index subsystem: KV-backed hash and ordered indexes.

Extends scan-free (key-based) plans to non-key predicates: a selective
equality or range filter on an indexed attribute becomes an index probe
plus a bounded TaaV ``multi_get`` instead of an O(relation) scan.
"""

from repro.index.indexes import (
    DEFAULT_BUCKET_TARGET,
    HashIndex,
    IndexCounters,
    OrderedIndex,
    SecondaryIndex,
    dependent_index_prefix,
    index_namespace,
)
from repro.index.manager import KINDS, IndexManager
from repro.index.selection import (
    IndexChoice,
    choose_for_alias,
    choose_from_conjuncts,
)

__all__ = [
    "DEFAULT_BUCKET_TARGET",
    "HashIndex",
    "IndexChoice",
    "IndexCounters",
    "IndexManager",
    "KINDS",
    "OrderedIndex",
    "SecondaryIndex",
    "choose_for_alias",
    "choose_from_conjuncts",
    "dependent_index_prefix",
    "index_namespace",
]
