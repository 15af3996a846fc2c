"""The version store's O(1) answer ≡ the per-key chain walk.

``VersionStore`` keeps the high-water mark of recorded birth epochs and
answers "nothing is newer than your pin" without touching a chain
(:meth:`~repro.mvcc.VersionStore.nothing_newer`). The state machine
below drives a store through commits, GC and namespace drops and holds
every batched read — ``read_visible_many``, ``adjust_scan``,
``adjust_keys``, with their metering — to the walk they replace: one
``_visible`` per key over the store's chains, written out here.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.mvcc import VersionStore

NAMESPACES = ("a", "b")
KEYS = tuple(bytes((n,)) for n in b"klmnop")
VALUES = st.one_of(st.none(), st.sampled_from([b"", b"v1", b"v2"]))


def visible(store: VersionStore, namespace: str, key: bytes, epoch: int):
    """``(handled, value, skipped)`` of one key as of ``epoch``: newest
    retained version born at or before it, else absent."""
    birth = store._birth.get((namespace, key))
    if birth is None or birth <= epoch:
        return False, None, 0
    skipped = 1
    for entry_birth, _death, value in reversed(
        store._chains.get((namespace, key), ())
    ):
        if entry_birth <= epoch:
            return True, value, skipped
        skipped += 1
    return True, None, skipped


def walk_scan(store: VersionStore, namespace: str, entries, epoch: int):
    """``adjust_scan`` one key at a time: ``(entries, reads, skipped)``.
    The scanned pairs first, then the keys the base scan missed (deleted
    since the snapshot) in the order the store tracks them."""
    out, reads, skipped_total = [], 0, 0
    scanned = {key for _, key, _ in entries}
    missed = [
        (None, key, None)
        for ns, key in store._birth
        if ns == namespace and key not in scanned
    ]
    for tag, key, value in list(entries) + missed:
        handled, seen, skipped = visible(store, namespace, key, epoch)
        if handled:
            reads += 1
            skipped_total += skipped
            if seen is not None:
                out.append((None, key, seen))
        elif key in scanned:
            out.append((tag, key, value))
    return out, reads, skipped_total


class OverlayReads(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.store = VersionStore()
        self.clock = 0

    def metered(self, call):
        """``call()`` and the ``(overlay_reads, versions_skipped)`` it
        charged."""
        before = self.store.stats()
        result = call()
        after = self.store.stats()
        return result, (
            after.overlay_reads - before.overlay_reads,
            after.versions_skipped - before.versions_skipped,
        )

    # -- writes ------------------------------------------------------------

    @rule(
        namespace=st.sampled_from(NAMESPACES),
        keys=st.lists(st.sampled_from(KEYS), min_size=1, max_size=3),
        old=VALUES,
        same_epoch=st.booleans(),
    )
    def commit(self, namespace, keys, old, same_epoch):
        """A commit overwrites ``keys`` — possibly the previous commit's
        epoch again (a transaction re-writing its own keys)."""
        if not same_epoch or self.clock == 0:
            self.clock += 1
        for key in keys:
            self.store.record_write(namespace, key, self.clock, old)

    @rule(data=st.data())
    def gc(self, data):
        horizon = data.draw(st.integers(0, self.clock + 1))
        self.store.gc(horizon)

    @rule()
    def gc_everything(self):
        """No pinned reader: the horizon passes every commit and every
        chain empties — the high-water mark stays."""
        self.store.gc(self.clock + 1)
        assert self.store.tracked_keys() == self.store.tracked_versions() == 0

    @rule(namespace=st.sampled_from(NAMESPACES))
    def forget_namespace(self, namespace):
        self.store.forget_namespace(namespace)

    # -- pinned reads at any epoch ---------------------------------------------

    @rule(
        namespace=st.sampled_from(NAMESPACES),
        keys=st.lists(st.sampled_from(KEYS), max_size=8),
        data=st.data(),
    )
    def read_many(self, namespace, keys, data):
        epoch = data.draw(st.integers(0, self.clock + 1))
        expected = [visible(self.store, namespace, key, epoch) for key in keys]
        answers, charged = self.metered(
            lambda: self.store.read_visible_many(namespace, keys, epoch)
        )
        assert answers == [(handled, value) for handled, value, _ in expected]
        assert charged == (
            sum(handled for handled, _, _ in expected),
            sum(skipped for _, _, skipped in expected),
        )

    @rule(
        namespace=st.sampled_from(NAMESPACES),
        keys=st.lists(st.sampled_from(KEYS), max_size=6, unique=True),
        data=st.data(),
    )
    def scan(self, namespace, keys, data):
        epoch = data.draw(st.integers(0, self.clock + 1))
        entries = [(f"n{i}", key, b"base") for i, key in enumerate(keys)]
        expected, reads, skipped = walk_scan(
            self.store, namespace, entries, epoch
        )
        out, charged = self.metered(
            lambda: self.store.adjust_scan(namespace, list(entries), epoch)
        )
        assert out == expected
        assert charged == (reads, skipped)
        # the key listing is the same walk, unmetered
        listed, charged = self.metered(
            lambda: self.store.adjust_keys(namespace, list(keys), epoch)
        )
        assert listed == [key for _, key, _ in expected]
        assert charged == (0, 0)

    # -- what makes the O(1) answer sound ------------------------------------------

    @invariant()
    def nothing_newer_means_no_chain_answers(self):
        births = self.store._birth.values()
        for epoch in range(self.clock + 2):
            if self.store.nothing_newer(epoch):
                assert all(birth <= epoch for birth in births)
        assert self.store.nothing_newer(self.clock)


OverlayReads.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestOverlayReads = OverlayReads.TestCase
