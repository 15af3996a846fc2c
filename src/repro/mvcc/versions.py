"""The version store: a client-side rollback-segment overlay.

The base KV write still happens **in place** (so the WAL, replication,
rebalancing and cache invalidation paths of PRs 3/8 are untouched); what
MVCC adds is an *overlay* that retains each superseded value as an
interval::

    (birth, death, value)     # value None = the key was absent

``birth`` is the commit epoch that installed the value, ``death`` the
epoch that replaced it. Per key the store tracks the **birth of the
current base value** plus the chain of dead intervals (ascending,
contiguous: each entry's death equals the next entry's birth, and the
last entry's death equals the current birth).

The read rule for a snapshot pinned at epoch E:

* current birth ≤ E (or the key was never overwritten) — the **base**
  value is the right one; the overlay stays silent.
* current birth > E — walk the chain newest-first for the entry with
  ``birth ≤ E``; its value is the answer (``None`` = absent at E).
  Entries walked past are the *versions skipped*, surfaced on
  :class:`~repro.parallel.metrics.ExecutionMetrics`.

Because the overlay entry for a write is installed **before** the base
write (see ``KVCluster._record_overwrite``), a reader pinned at E < C
can never observe a commit C half-applied: every key C touches is
either not yet written (base still shows the pre-C value) or already
overlaid (the chain shows the pre-C value) — all-or-nothing either way.

Overlay reads are **client-side**: they touch no storage node, cost
zero ``#get``/round trips (exactly like a cache hit), and are metered
in thread-sharded :class:`VersionStats` instead.

Epoch context travels thread-locally (:meth:`reading` /
:meth:`recording`): a query executes on one thread (the PR-5 design),
so its pinned epoch rides the thread through every storage layer
without threading a parameter through the engines.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.locks import make_lock
from repro.tally import ShardSet, Tally, tally

_Key = Tuple[str, bytes]
#: one superseded version: (birth epoch, death epoch, value-or-absent)
_Entry = Tuple[int, int, Optional[bytes]]
#: scan entries carry an opaque per-pair tag (the serving node); overlay
#: -served pairs get tag ``None`` — no node served them
_Tag = TypeVar("_Tag")


@tally
class VersionStats(Tally):
    """Cumulative overlay accounting (one shard per serving thread)."""

    #: superseded versions captured into chains by commits
    versions_recorded: int = 0
    #: reads served from the overlay instead of the base (zero #get)
    overlay_reads: int = 0
    #: versions walked past to reach the snapshot-visible one (the base
    #: version counts as the first skip)
    versions_skipped: int = 0
    #: dead versions reclaimed by GC
    gc_reclaimed: int = 0

    def __str__(self) -> str:
        return (
            f"recorded={self.versions_recorded} "
            f"overlay_reads={self.overlay_reads} "
            f"skipped={self.versions_skipped} "
            f"gc_reclaimed={self.gc_reclaimed}"
        )


class VersionStore:
    """Superseded-version chains keyed by ``(namespace, key_bytes)``."""

    def __init__(self) -> None:
        #: guards the chains and current-birth maps (leaf lock: nothing
        #: blocking — in particular no node I/O — runs under it)
        self._lock = make_lock("VersionStore._lock")
        #: birth epoch of the CURRENT base value, for overwritten keys
        #: only (absent = never overwritten since tracking began = the
        #: base value is visible at every epoch)
        self._birth: Dict[_Key, int] = {}
        #: dead versions, ascending and contiguous per key
        self._chains: Dict[_Key, List[_Entry]] = {}
        #: high-water mark of every birth epoch ever recorded; only ever
        #: raised (GC and forget_namespace leave it), so it errs towards
        #: walking the chains (see :meth:`nothing_newer`)
        self._newest_birth = 0
        #: per-thread accounting shards (see repro.tally.ShardSet)
        self._shards: ShardSet[VersionStats] = ShardSet(VersionStats)
        #: thread-local epoch context (read pin / recording commit)
        self._ctx = threading.local()

    # -- thread-local epoch context ---------------------------------------

    def read_epoch(self) -> Optional[int]:
        """The calling thread's pinned snapshot epoch (None = unpinned:
        reads see the current base, the pre-MVCC behavior)."""
        return getattr(self._ctx, "read", None)

    def read_at(self, epoch: Optional[int]) -> Optional[int]:
        """Pin the calling thread's reads at ``epoch`` (``None``: unpin);
        returns the pin it replaces."""
        previous = getattr(self._ctx, "read", None)
        self._ctx.read = epoch
        return previous

    @contextmanager
    def reading(self, epoch: int) -> Iterator[int]:
        """Pin the calling thread's reads at ``epoch``."""
        previous = self.read_at(epoch)
        try:
            yield epoch
        finally:
            self._ctx.read = previous

    def recording_epoch(self) -> Optional[int]:
        """The commit epoch the calling thread is installing (None =
        not inside a commit: writes are not versioned)."""
        return getattr(self._ctx, "record", None)

    @contextmanager
    def recording(self, epoch: int) -> Iterator[int]:
        """Mark the calling thread as installing commit ``epoch``."""
        previous = getattr(self._ctx, "record", None)
        self._ctx.record = epoch
        try:
            yield epoch
        finally:
            self._ctx.record = previous

    # -- write side (commit path) -----------------------------------------

    def version_needed(self, namespace: str, key_bytes: bytes,
                       epoch: int) -> bool:
        """Must the committing writer capture this key's old value?

        ``False`` when the current value was already installed by the
        same commit epoch (a re-write within one transaction — e.g. a
        BaaV block split deleting and re-putting a segment): the
        pre-transaction value is already in the chain.
        """
        with self._lock:
            return self._birth.get((namespace, key_bytes), 0) != epoch

    def record_write(
        self,
        namespace: str,
        key_bytes: bytes,
        epoch: int,
        old_value: Optional[bytes],
    ) -> bool:
        """Retain ``old_value`` as the version that dies at ``epoch``.

        Called by the cluster write path *before* the base write, so a
        pinned reader always finds either the old base or the overlay
        entry. Idempotent per (key, epoch); returns whether a version
        was recorded.
        """
        key = (namespace, key_bytes)
        with self._lock:
            birth = self._birth.get(key, 0)
            if birth == epoch:
                return False
            self._chains.setdefault(key, []).append(
                (birth, epoch, old_value)
            )
            self._birth[key] = epoch
            if epoch > self._newest_birth:
                self._newest_birth = epoch
        self._shards.local().versions_recorded += 1
        return True

    # -- read side (snapshot path) ----------------------------------------

    def _visible(
        self, key: _Key, epoch: int
    ) -> Tuple[bool, Optional[bytes], int]:
        """(overlay handles it, value-or-absent, versions skipped)."""
        # repro-lint: holds=_lock -- internal helper of the read surface
        birth = self._birth.get(key)
        if birth is None or birth <= epoch:
            return False, None, 0
        skipped = 1  # the too-new base value itself
        for entry_birth, _death, value in reversed(
            self._chains.get(key, ())
        ):
            if entry_birth <= epoch:
                return True, value, skipped
            skipped += 1
        # every retained version is newer than E: the key did not exist
        # at E (GC keeps everything a pinned epoch can see, so this is
        # the inserted-after-E case)
        return True, None, skipped

    def nothing_newer(self, epoch: int) -> bool:
        """Is every base value visible to a snapshot at ``epoch`` — has
        no write with a later commit epoch ever been recorded?

        O(1) where the chain walk is a dict probe per key, and the
        common case: readers pin the published epoch. Monotone — once
        ``False`` for an epoch it stays ``False`` — and a write is
        recorded *before* its base write, so a reader that fetched base
        values and then gets ``True`` here fetched nothing too new: one
        question is the re-check after a fetch for the whole batch.
        """
        with self._lock:
            return epoch >= self._newest_birth

    def overlay_epoch(self) -> Optional[int]:
        """The calling thread's pin when the overlay may answer its
        reads — some recorded write is newer than it — else ``None``:
        unpinned, or every base value is visible at the pin. Ask again
        after a fetch: :meth:`nothing_newer` is monotone, so a commit
        that raced the fetch shows up then."""
        epoch = self.read_epoch()
        if epoch is None or self.nothing_newer(epoch):
            return None
        return epoch

    def read_visible(
        self, namespace: str, key_bytes: bytes, epoch: int
    ) -> Tuple[bool, Optional[bytes]]:
        """Value of one key as of ``epoch``; ``(False, None)`` when the
        base value is the visible one (the overlay stays silent)."""
        return self.read_visible_many(namespace, [key_bytes], epoch)[0]

    def read_visible_many(
        self, namespace: str, keys: Sequence[bytes], epoch: int
    ) -> List[Tuple[bool, Optional[bytes]]]:
        """Values of ``keys`` as of ``epoch``, positional (see
        :meth:`read_visible`); the chains are walked under one lock
        acquisition."""
        if self.nothing_newer(epoch):
            return [(False, None)] * len(keys)
        out: List[Tuple[bool, Optional[bytes]]] = []
        overlay_reads = 0
        skipped_total = 0
        with self._lock:
            for key_bytes in keys:
                handled, value, skipped = self._visible(
                    (namespace, key_bytes), epoch
                )
                out.append((handled, value))
                if handled:
                    overlay_reads += 1
                    skipped_total += skipped
        if overlay_reads:
            stats = self._shards.local()
            stats.overlay_reads += overlay_reads
            stats.versions_skipped += skipped_total
        return out

    def is_overlaid(
        self, namespace: str, key_bytes: bytes, epoch: int
    ) -> bool:
        """Does a snapshot at ``epoch`` read this key from the overlay?

        Used by the read-through cache to suppress fills whose payload
        came from the overlay rather than the current base.
        """
        with self._lock:
            birth = self._birth.get((namespace, key_bytes))
            return birth is not None and birth > epoch

    def adjust_scan(
        self,
        namespace: str,
        entries: List[Tuple[_Tag, bytes, bytes]],
        epoch: int,
    ) -> List[Tuple[Optional[_Tag], bytes, bytes]]:
        """Rewrite a materialized base scan to state-as-of-``epoch``.

        ``entries`` are ``(tag, stripped_key, value)`` pairs as the
        cluster scanned them (tag = serving node). Pairs whose base
        value is too new are replaced from the chain (tag ``None`` — no
        node served the overlay read), pairs for keys absent at the
        snapshot are dropped, and keys deleted from the base after the
        snapshot are appended back (tag ``None``). Also heals the torn
        cross-node scan: per-node snapshots taken milliseconds apart
        land on the same epoch.
        """
        if self.nothing_newer(epoch):
            return entries
        out, overlay_reads, skipped_total = self._as_of(
            namespace, entries, epoch
        )
        if overlay_reads:
            stats = self._shards.local()
            stats.overlay_reads += overlay_reads
            stats.versions_skipped += skipped_total
        return out

    def adjust_keys(
        self, namespace: str, keys: List[bytes], epoch: int
    ) -> List[bytes]:
        """Key set of a namespace as of ``epoch``: the same walk as
        :meth:`adjust_scan` over value-less entries, unmetered (a key
        listing is planner metadata, not a read)."""
        if self.nothing_newer(epoch):
            return keys
        out, _, _ = self._as_of(
            namespace, [(None, key_bytes, b"") for key_bytes in keys], epoch
        )
        return [key_bytes for _, key_bytes, _ in out]

    def _as_of(
        self,
        namespace: str,
        entries: List[Tuple[_Tag, bytes, bytes]],
        epoch: int,
    ) -> Tuple[List[Tuple[Optional[_Tag], bytes, bytes]], int, int]:
        """The state-as-of-``epoch`` walk behind :meth:`adjust_scan` and
        :meth:`adjust_keys`: ``(entries, overlay reads, versions
        skipped)``."""
        out: List[Tuple[Optional[_Tag], bytes, bytes]] = []
        seen = set()
        overlay_reads = 0
        skipped_total = 0
        with self._lock:
            for tag, stripped, value in entries:
                seen.add(stripped)
                handled, visible, skipped = self._visible(
                    (namespace, stripped), epoch
                )
                if not handled:
                    out.append((tag, stripped, value))
                    continue
                overlay_reads += 1
                skipped_total += skipped
                if visible is not None:
                    out.append((None, stripped, visible))
            # keys the base scan missed (deleted after the snapshot)
            for (entry_ns, key_bytes), birth in self._birth.items():
                if (
                    entry_ns != namespace
                    or birth <= epoch
                    or key_bytes in seen
                ):
                    continue
                handled, visible, skipped = self._visible(
                    (entry_ns, key_bytes), epoch
                )
                if handled:
                    overlay_reads += 1
                    skipped_total += skipped
                    if visible is not None:
                        out.append((None, key_bytes, visible))
        return out, overlay_reads, skipped_total

    # -- GC / lifecycle ----------------------------------------------------

    def gc(self, horizon: int) -> int:
        """Reclaim versions no live (or future) snapshot can see.

        An entry ``(birth, death, value)`` is visible to some snapshot
        at E iff ``birth ≤ E < death``; every pinned epoch is ≥ the
        horizon and new pins only move forward, so entries with
        ``death ≤ horizon`` are unreachable forever. A key whose chain
        empties is forgotten entirely (its base birth is necessarily ≤
        the horizon then, so the base is visible to everyone).
        """
        reclaimed = 0
        with self._lock:
            emptied: List[_Key] = []
            for key, chain in self._chains.items():
                kept = [e for e in chain if e[1] > horizon]
                if len(kept) == len(chain):
                    continue
                reclaimed += len(chain) - len(kept)
                if kept:
                    self._chains[key] = kept
                else:
                    emptied.append(key)
            for key in emptied:
                del self._chains[key]
                self._birth.pop(key, None)
        if reclaimed:
            self._shards.local().gc_reclaimed += reclaimed
        return reclaimed

    def forget_namespace(self, namespace: str) -> int:
        """Drop all version state of a namespace (``drop_namespace`` —
        DDL is exclusive, so no pinned reader is mid-query on it)."""
        with self._lock:
            doomed = [
                key for key in self._birth if key[0] == namespace
            ]
            for key in doomed:
                del self._birth[key]
                self._chains.pop(key, None)
            return len(doomed)

    # -- introspection -----------------------------------------------------

    def tracked_keys(self) -> int:
        """Keys with live overlay state (the leak sweeps assert on it)."""
        with self._lock:
            return len(self._birth)

    def tracked_versions(self) -> int:
        """Retained dead versions across all chains."""
        with self._lock:
            return sum(len(c) for c in self._chains.values())

    def stats(self) -> VersionStats:
        """Aggregate accounting over every serving thread (a snapshot)."""
        with self._lock:
            return self._shards.total()

    def thread_shard(self) -> VersionStats:
        """The CALLING THREAD's live shard (registered on first use) —
        what a query's probe reads; only this thread mutates it."""
        return self._shards.local()

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"VersionStore(keys={len(self._birth)}, "
                f"versions={sum(len(c) for c in self._chains.values())})"
            )
