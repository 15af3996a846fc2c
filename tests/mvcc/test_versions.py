"""Unit tests of the version store (chains, visibility, scans, GC)."""

from __future__ import annotations

from repro.mvcc import VersionStore

NS = "rel"


def put(store: VersionStore, key: bytes, epoch: int, old) -> bool:
    """One committed overwrite: retain ``old`` as dying at ``epoch``."""
    return store.record_write(NS, key, epoch, old)


class TestRecord:
    def test_untracked_key_reads_from_base(self):
        store = VersionStore()
        assert store.read_visible(NS, b"k", 5) == (False, None)
        assert store.tracked_keys() == 0

    def test_overwrite_retains_old_value_for_older_snapshots(self):
        store = VersionStore()
        assert put(store, b"k", 1, b"v0") is True
        # a snapshot at the load state still sees v0
        assert store.read_visible(NS, b"k", 0) == (True, b"v0")
        # a snapshot at the commit (or later) reads the base
        assert store.read_visible(NS, b"k", 1) == (False, None)
        assert store.read_visible(NS, b"k", 7) == (False, None)

    def test_record_is_idempotent_per_commit_epoch(self):
        store = VersionStore()
        assert put(store, b"k", 3, b"v0") is True
        # the same transaction re-writes the key (block split): the
        # pre-transaction value must not be displaced
        assert put(store, b"k", 3, b"mid") is False
        assert store.read_visible(NS, b"k", 2) == (True, b"v0")
        assert store.tracked_versions() == 1
        assert store.version_needed(NS, b"k", 3) is False
        assert store.version_needed(NS, b"k", 4) is True

    def test_chain_walks_newest_first_and_counts_skips(self):
        store = VersionStore()
        put(store, b"k", 1, b"v0")
        put(store, b"k", 2, b"v1")
        put(store, b"k", 3, b"v2")
        assert store.read_visible(NS, b"k", 0) == (True, b"v0")
        assert store.read_visible(NS, b"k", 1) == (True, b"v1")
        assert store.read_visible(NS, b"k", 2) == (True, b"v2")
        stats = store.stats()
        assert stats.overlay_reads == 3
        # skips: base + 2 entries, base + 1 entry, base only
        assert stats.versions_skipped == 3 + 2 + 1

    def test_inserted_after_snapshot_reads_absent(self):
        store = VersionStore()
        put(store, b"new", 4, None)  # insert: old value was absent
        handled, value = store.read_visible(NS, b"new", 2)
        assert handled is True and value is None

    def test_namespaces_are_independent(self):
        store = VersionStore()
        store.record_write("a", b"k", 1, b"va")
        assert store.read_visible("b", b"k", 0) == (False, None)

    def test_read_visible_many_matches_singles(self):
        store = VersionStore()
        put(store, b"k1", 2, b"old1")
        put(store, b"k3", 2, None)
        out = store.read_visible_many(NS, [b"k1", b"k2", b"k3"], 1)
        assert out == [(True, b"old1"), (False, None), (True, None)]

    def test_is_overlaid(self):
        store = VersionStore()
        put(store, b"k", 5, b"old")
        assert store.is_overlaid(NS, b"k", 4) is True
        assert store.is_overlaid(NS, b"k", 5) is False
        assert store.is_overlaid(NS, b"other", 4) is False


class TestEpochContext:
    def test_reading_context_is_thread_local_and_nests(self):
        store = VersionStore()
        assert store.read_epoch() is None
        with store.reading(3):
            assert store.read_epoch() == 3
            with store.reading(5):
                assert store.read_epoch() == 5
            assert store.read_epoch() == 3
        assert store.read_epoch() is None

    def test_recording_context(self):
        store = VersionStore()
        assert store.recording_epoch() is None
        with store.recording(7):
            assert store.recording_epoch() == 7
        assert store.recording_epoch() is None


class TestScanAdjust:
    def test_scan_replaces_too_new_values(self):
        store = VersionStore()
        put(store, b"k1", 3, b"old1")
        entries = [("n0", b"k1", b"new1"), ("n1", b"k2", b"v2")]
        out = store.adjust_scan(NS, entries, 2)
        # overlay-served pairs carry tag None (no node served them)
        assert (None, b"k1", b"old1") in out
        assert ("n1", b"k2", b"v2") in out
        assert len(out) == 2

    def test_scan_drops_keys_inserted_after_snapshot(self):
        store = VersionStore()
        put(store, b"k9", 4, None)
        out = store.adjust_scan(NS, [("n0", b"k9", b"v9")], 3)
        assert out == []

    def test_scan_appends_keys_deleted_after_snapshot(self):
        store = VersionStore()
        # delete: the new base value is absent -> base scan misses it,
        # but a snapshot at 1 must still see the old value
        put(store, b"gone", 2, b"vg")
        out = store.adjust_scan(NS, [("n0", b"k", b"v")], 1)
        assert ("n0", b"k", b"v") in out
        assert (None, b"gone", b"vg") in out

    def test_scan_passthrough_at_current_epoch(self):
        store = VersionStore()
        put(store, b"k1", 2, b"old")
        entries = [("n0", b"k1", b"new")]
        assert store.adjust_scan(NS, entries, 2) == entries

    def test_adjust_keys_mirrors_scan_semantics(self):
        store = VersionStore()
        put(store, b"added", 3, None)   # inserted after E=2
        put(store, b"gone", 3, b"vg")   # deleted after E=2 (base absent)
        keys = store.adjust_keys(NS, [b"base", b"added"], 2)
        assert sorted(keys) == [b"base", b"gone"]
        # at the commit epoch the base set is already right
        assert store.adjust_keys(NS, [b"base", b"added"], 3) == [
            b"base", b"added"
        ]


class TestGC:
    def test_gc_reclaims_only_below_horizon(self):
        store = VersionStore()
        put(store, b"k", 1, b"v0")
        put(store, b"k", 2, b"v1")
        # a snapshot at 1 still needs (1, 2, v1); (0, 1, v0) is dead
        assert store.gc(horizon=1) == 1
        assert store.read_visible(NS, b"k", 1) == (True, b"v1")
        assert store.tracked_versions() == 1

    def test_gc_forgets_emptied_keys(self):
        store = VersionStore()
        put(store, b"k", 1, b"v0")
        assert store.gc(horizon=5) == 1
        assert store.tracked_keys() == 0
        assert store.tracked_versions() == 0
        # the base is now visible at every epoch
        assert store.read_visible(NS, b"k", 0) == (False, None)

    def test_gc_counts_into_stats(self):
        store = VersionStore()
        put(store, b"k", 1, b"v0")
        store.gc(horizon=1)
        assert store.stats().gc_reclaimed == 1
        assert store.thread_shard().gc_reclaimed == 1

    def test_gc_noop_returns_zero(self):
        store = VersionStore()
        put(store, b"k", 5, b"v0")
        assert store.gc(horizon=0) == 0

    def test_forget_namespace(self):
        store = VersionStore()
        put(store, b"k", 1, b"v")
        store.record_write("other", b"k", 1, b"v")
        assert store.forget_namespace(NS) == 1
        assert store.tracked_keys() == 1
        assert store.read_visible(NS, b"k", 0) == (False, None)

    def test_repr_reports_sizes(self):
        store = VersionStore()
        put(store, b"k", 1, b"v")
        assert repr(store) == "VersionStore(keys=1, versions=1)"
