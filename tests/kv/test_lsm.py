"""Tests for the LSM storage engine (memtable / runs / bloom / compaction)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kv.lsm import BloomFilter, LSMStore
from repro.kv.memstore import MemStore


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(100)
        keys = [f"key{i}".encode() for i in range(100)]
        for key in keys:
            bloom.add(key)
        assert all(bloom.might_contain(k) for k in keys)

    def test_mostly_true_negatives(self):
        bloom = BloomFilter(100)
        for i in range(100):
            bloom.add(f"key{i}".encode())
        false_positives = sum(
            1
            for i in range(1000)
            if bloom.might_contain(f"other{i}".encode())
        )
        assert false_positives < 100  # ~1% expected at 10 bits/key


class TestLSMBasics:
    """Engine-specific behavior only — the generic store/node contract
    is covered for every engine by ``test_conformance.py``."""

    def test_flush_on_threshold(self):
        store = LSMStore(memtable_limit=10)
        for i in range(25):
            store.put(f"k{i:03d}".encode(), b"v")
        assert store.stats.flushes >= 2
        assert store.memtable_size < 10
        for i in range(25):
            assert store.get(f"k{i:03d}".encode()) == b"v"

    def test_newest_run_wins(self):
        store = LSMStore(memtable_limit=4)
        for round_no in (1, 2, 3):
            for i in range(4):
                store.put(f"k{i}".encode(), f"v{round_no}".encode())
        assert store.get(b"k0") == b"v3"

    def test_tombstone_shadows_older_run(self):
        store = LSMStore(memtable_limit=4)
        for i in range(4):
            store.put(f"k{i}".encode(), b"v")  # flushed to a run
        store.delete(b"k1")
        assert store.get(b"k1") is None
        assert b"k1" not in store
        assert len(store) == 3

    def test_compaction_drops_tombstones(self):
        store = LSMStore(memtable_limit=4, max_runs=2)
        for i in range(8):
            store.put(f"k{i}".encode(), b"v")
        for i in range(8):
            store.delete(f"k{i}".encode())
        for i in range(100, 120):
            store.put(f"k{i}".encode(), b"v")
        assert store.stats.compactions >= 1
        assert all(store.get(f"k{i}".encode()) is None for i in range(8))
        assert len(store) == 20

    def test_bloom_skips_counted(self):
        store = LSMStore(memtable_limit=8)
        for i in range(32):
            store.put(f"k{i:03d}".encode(), b"v")
        store.stats.bloom_skips = 0
        for i in range(50):
            store.get(f"absent{i}".encode())
        assert store.stats.bloom_skips > 0

    def test_write_path_does_not_pollute_read_stats(self):
        """Regression: put/delete probed runs through the counted lookup,
        inflating runs_probed/bloom_skips on every write — read
        amplification counters must reflect reads only."""
        store = LSMStore(memtable_limit=8)
        for i in range(64):
            store.put(f"k{i:03d}".encode(), b"v")  # many flushed runs
        store.stats.runs_probed = 0
        store.stats.bloom_skips = 0
        for i in range(64):
            store.put(f"k{i:03d}".encode(), b"v2")  # overwrites probe runs
        store.delete(b"k000")
        assert store.stats.runs_probed == 0
        assert store.stats.bloom_skips == 0
        # point reads still count
        store.get(b"k001")
        assert store.stats.runs_probed > 0

    def test_merged_snapshot_reused_across_next_key_calls(self):
        """Regression: next_key/size_bytes rebuilt the full sorted key
        list per call (O(n²) scan driving); the merged view is now built
        once per write epoch and reused."""
        store = LSMStore(memtable_limit=4)
        for key in (b"b", b"a", b"c", b"d"):
            store.put(key, b"v")
        store.next_key(None)
        snapshot = store._merged
        assert snapshot is not None
        store.next_key(b"a")
        store.size_bytes()
        list(store.scan())
        assert store._merged is snapshot  # reused, not rebuilt
        store.put(b"e", b"v")
        assert store._merged is None  # writes invalidate the view
        assert store.next_key(b"d") == b"e"

    def test_scan_does_not_probe_runs(self):
        """The sequential path reads the merged view, not per-key probes."""
        store = LSMStore(memtable_limit=4)
        for i in range(16):
            store.put(f"k{i:02d}".encode(), b"v")
        store.stats.runs_probed = 0
        assert len(list(store.scan())) == 16
        assert store.stats.runs_probed == 0


class TestEngineParity:
    """LSMStore behaves exactly like MemStore under any op sequence."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "delete", "get"]),
                st.integers(0, 15),
                st.integers(0, 5),
            ),
            max_size=120,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_random_ops_match_memstore(self, ops):
        mem = MemStore()
        lsm = LSMStore(memtable_limit=7, max_runs=2)
        for op, key_index, value_index in ops:
            key = f"key{key_index}".encode()
            if op == "put":
                value = f"value{value_index}".encode()
                mem.put(key, value)
                lsm.put(key, value)
            elif op == "delete":
                assert mem.delete(key) == lsm.delete(key)
            else:
                assert mem.get(key) == lsm.get(key)
        assert lsm.keys() == mem.keys()
        assert len(lsm) == len(mem)
        assert list(lsm.scan()) == list(mem.scan())


class TestLSMBackedCluster:
    def test_end_to_end_zidian_on_lsm(self, paper_db, paper_baav_schema,
                                      q1_sql):
        """The whole stack runs unchanged on the LSM engine."""
        from repro.baav import BaaVStore
        from repro.core import Zidian
        from repro.kba import ExecContext, execute
        from repro.kv import KVCluster
        from repro.relational.compare import rows_bag_equal
        from repro.sql import execute as ra_execute, plan_sql
        from repro.parallel.engine import Executable
        from repro.sql.executor import Table

        cluster = KVCluster(3, engine="lsm")
        store = BaaVStore.map_database(paper_db, paper_baav_schema, cluster)
        zidian = Zidian(paper_db.schema, paper_baav_schema, store)
        plan, decision = zidian.plan(q1_sql)
        assert decision.is_scan_free
        blockset = execute(plan.root, ExecContext(store))
        got = Executable(plan).top(Table(blockset.attrs, list(blockset.expand())))
        ref_plan, _ = plan_sql(q1_sql, paper_db.schema)
        want = ra_execute(ref_plan, paper_db)
        assert rows_bag_equal(got.rows, want.rows)

    def test_write_amplification_visible(self):
        """Compactions rewrite entries — the LSM trade-off the backend
        profiles price into their write costs."""
        store = LSMStore(memtable_limit=16, max_runs=2)
        for i in range(200):
            store.put(f"k{i:04d}".encode(), b"v")
        assert store.stats.entries_rewritten > 200


class TestClearResetsStats:
    """PR 8 satellite regression: ``clear()`` returns the engine to the
    freshly-constructed state, amplification counters included — a
    cleared store has flushed and compacted nothing, so stale counters
    would stop reconciling with the empty engine."""

    def test_clear_resets_lsm_stats(self):
        store = LSMStore(memtable_limit=4, max_runs=2)
        for i in range(40):
            store.put(f"k{i:03d}".encode(), b"v")
        for i in range(20):
            store.get(f"absent{i}".encode())
        stats = store.stats
        assert stats.flushes > 0 and stats.runs_probed + stats.bloom_skips > 0
        store.clear()
        fresh = LSMStore(memtable_limit=4, max_runs=2)
        assert store.stats == fresh.stats
        assert store.num_runs == 0
        assert store.memtable_size == 0

    def test_stats_accumulate_cleanly_after_clear(self):
        store = LSMStore(memtable_limit=4)
        for i in range(12):
            store.put(f"k{i:02d}".encode(), b"v")
        store.clear()
        for i in range(8):
            store.put(f"p{i:02d}".encode(), b"v")
        assert store.stats.flushes == 2  # 8 puts / limit 4, from zero


class TestDropPrefixBatched:
    """PR 8 satellite regression: ``drop_prefix`` routes through ONE
    ``multi_delete`` batch instead of a delete-per-key loop."""

    def test_drop_prefix_crossing_flush_threshold(self):
        store = LSMStore(memtable_limit=4, max_runs=2)
        for i in range(30):
            store.put(f"ns:{i:03d}".encode(), b"v")
        for i in range(10):
            store.put(f"other:{i:03d}".encode(), b"v")
        # the doomed batch (30 tombstones) is 7x the memtable limit, so
        # the batch itself flushes and compacts mid-delete
        dropped = store.drop_prefix(b"ns:")
        assert len(dropped) == 30
        assert [k for k, _ in store.scan(b"ns:")] == []
        assert len(store) == 10
        for i in range(10):
            assert store.get(f"other:{i:03d}".encode()) == b"v"

    def test_drop_prefix_logs_one_wal_record(self, tmp_path):
        from repro.kv.checkpoint import NodeDurability

        dur = NodeDurability(str(tmp_path / "n0"))
        store = LSMStore(memtable_limit=4)
        dur.open(store)
        store.multi_put([(f"ns:{i:02d}".encode(), b"v") for i in range(20)])
        before = dur.wal_stats()["records"]
        store.drop_prefix(b"ns:")
        assert dur.wal_stats()["records"] == before + 1
        # and that one record replays to the same post-drop state
        dur.abandon()
        replayed = LSMStore(memtable_limit=4)
        NodeDurability(str(tmp_path / "n0")).open(replayed)
        assert list(replayed.scan()) == list(store.scan())
