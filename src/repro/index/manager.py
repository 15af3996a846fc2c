"""The index manager: catalog, lookups and write-through fan-out.

One :class:`IndexManager` per system instance owns every secondary index
over that system's cluster. It is three things at once:

* the **catalog** the planners consult (``equality_attrs`` /
  ``range_attrs`` answer "is there a usable index for this predicate?"
  without touching storage);
* the **lookup facade** the executors call (``lookup_eq`` /
  ``lookup_range`` return primary keys to feed a TaaV ``multi_get``);
* the **maintenance bus**: ``apply_updates`` fans a relational Δ out to
  every index of the touched relation, keeping indexes consistent with
  the base data under inserts/deletes.

All indexes share one ``ShardSet`` of
:class:`~repro.index.indexes.IndexCounters` (:attr:`IndexManager.stats`
— written through ``.local()``, read through ``.total()``), so the
engines read a single counter set (the calling thread's live shard,
:meth:`IndexManager.thread_shard`) to attribute index round-trips and
posting reads to plan stages.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ExecutionError
from repro.index.indexes import (
    HashIndex,
    IndexCounters,
    OrderedIndex,
    SecondaryIndex,
)
from repro.kv.cluster import KVCluster
from repro.locks import make_rlock
from repro.relational.relation import Relation
from repro.relational.types import Row
from repro.tally import ShardSet

#: accepted index kinds (the ``kind`` arg of ``create_index``)
KINDS = ("hash", "ordered")


class IndexManager:
    """All secondary indexes of one system, keyed ``(relation, attr, kind)``."""

    def __init__(self, cluster: KVCluster, cache=None) -> None:
        self.cluster = cluster
        self.cache = cache
        self.stats: ShardSet[IndexCounters] = ShardSet(IndexCounters)
        self._indexes: Dict[Tuple[str, str, str], SecondaryIndex] = {}
        #: bumped by every catalog change: a plan kept from one
        #: generation says nothing about the next
        self.generation = 0
        # guards the catalog dict: DDL (create/drop/forget) is rare but
        # must not mutate it under a concurrent planner/executor read;
        # reentrant so a drop cascade can re-enter through the cluster
        self._lock = make_rlock("IndexManager._lock")

    # -- DDL ----------------------------------------------------------------

    def create(
        self, relation: Relation, attr: str, kind: str = "hash"
    ) -> SecondaryIndex:
        """Create and bulk-build an index over ``relation``'s current rows."""
        if kind not in KINDS:
            raise ExecutionError(
                f"unknown index kind {kind!r} (expected one of {KINDS})"
            )
        with self._lock:
            key = (relation.schema.name, attr, kind)
            if key in self._indexes:
                raise ExecutionError(
                    f"index on {key[0]}.{attr} ({kind}) already exists"
                )
            cls = HashIndex if kind == "hash" else OrderedIndex
            index = cls(
                relation.schema,
                attr,
                self.cluster,
                cache=self.cache,
                stats=self.stats,
            )
            index.build(relation.rows)
            self._indexes[key] = index
            self.generation += 1
            return index

    def drop(
        self, relation: str, attr: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> int:
        """Drop matching indexes (all of a relation when ``attr`` is None);
        returns how many were dropped. Entries leave the cluster too."""
        with self._lock:
            doomed = [
                key
                for key in self._indexes
                if key[0] == relation
                and (attr is None or key[1] == attr)
                and (kind is None or key[2] == kind)
            ]
            for key in doomed:
                self._indexes.pop(key).drop()
            self.generation += 1
            return len(doomed)

    def forget(self, relation: str) -> int:
        """Drop a relation's indexes from the catalog only (their cluster
        entries were already removed, e.g. by a namespace drop cascade)."""
        with self._lock:
            doomed = [key for key in self._indexes if key[0] == relation]
            for key in doomed:
                del self._indexes[key]
            self.generation += 1
            return len(doomed)

    # -- catalog (what the planners consult) --------------------------------

    def thread_shard(self) -> IndexCounters:
        """The CALLING THREAD's live counter shard (registered on first
        use) — what a query's probe reads; only this thread mutates it."""
        return self.stats.local()

    def __len__(self) -> int:
        with self._lock:
            return len(self._indexes)

    def __iter__(self):
        with self._lock:
            return iter(list(self._indexes.values()))

    def index_for(
        self, relation: str, attr: str, kind: str
    ) -> Optional[SecondaryIndex]:
        with self._lock:
            return self._indexes.get((relation, attr, kind))

    def equality_attrs(self, relation: str) -> Set[str]:
        """Attributes of ``relation`` with an equality-capable index
        (a hash index, or an ordered one — a point is a tiny range)."""
        with self._lock:
            return {key[1] for key in self._indexes if key[0] == relation}

    def range_attrs(self, relation: str) -> Set[str]:
        """Attributes of ``relation`` with a range-capable (ordered) index."""
        with self._lock:
            return {
                key[1]
                for key in self._indexes
                if key[0] == relation and key[2] == "ordered"
            }

    def describe(self) -> str:
        with self._lock:
            lines = [
                f"{rel}.{attr} [{kind}]"
                for rel, attr, kind in sorted(self._indexes)
            ]
        return "\n".join(lines) if lines else "(no indexes)"

    # -- lookups (what the executors call) ----------------------------------

    def lookup_eq(
        self, relation: str, attr: str, values: Sequence[object]
    ) -> List[Row]:
        """Primary keys matching ``attr IN values`` (hash preferred)."""
        with self._lock:
            index = self._indexes.get((relation, attr, "hash"))
            ordered = self._indexes.get((relation, attr, "ordered"))
        if index is not None:
            return index.lookup(values)
        if ordered is None:
            raise ExecutionError(
                f"no index on {relation}.{attr} serves equality"
            )
        out: List[Row] = []
        seen = set()
        for value in dict.fromkeys(values):
            if value is None:
                continue
            for pk in ordered.lookup_range(lo=value, hi=value):
                if pk not in seen:
                    seen.add(pk)
                    out.append(pk)
        return out

    def lookup_range(
        self,
        relation: str,
        attr: str,
        lo: object = None,
        hi: object = None,
        lo_strict: bool = False,
        hi_strict: bool = False,
    ) -> List[Row]:
        """Primary keys matching a range predicate on ``attr``."""
        with self._lock:
            index = self._indexes.get((relation, attr, "ordered"))
        if index is None:
            raise ExecutionError(
                f"no ordered index on {relation}.{attr} serves ranges"
            )
        return index.lookup_range(
            lo=lo, hi=hi, lo_strict=lo_strict, hi_strict=hi_strict
        )

    def lookup(self, relation: str, probe) -> List[Row]:
        """Primary keys one index access path selects.

        ``probe`` is the planner's description of the path (an
        ``IndexChoice`` or a KBA ``IndexProbe``): equality/IN when it
        carries ``eq_values``, otherwise a range on ``attr``.
        """
        if probe.eq_values:
            return self.lookup_eq(relation, probe.attr, probe.eq_values)
        return self.lookup_range(
            relation,
            probe.attr,
            lo=probe.lo,
            hi=probe.hi,
            lo_strict=probe.lo_strict,
            hi_strict=probe.hi_strict,
        )

    # -- write-through maintenance ------------------------------------------

    def apply_updates(
        self,
        relation: str,
        inserts: Iterable[Row] = (),
        deletes: Iterable[Row] = (),
    ) -> None:
        """Fan a relational Δ out to every index of ``relation``."""
        inserts = list(inserts)
        deletes = list(deletes)
        if not inserts and not deletes:
            return
        with self._lock:
            targets = [
                index
                for key, index in sorted(self._indexes.items())
                if key[0] == relation
            ]
        for index in targets:
            index.apply(inserts, deletes)
