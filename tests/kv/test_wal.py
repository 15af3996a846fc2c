"""Unit tests for the WAL record codec, log lifecycle and checkpoints.

The crash cases exercise the exact byte-level failure modes recovery
must tolerate: a record cut short mid-payload, a bit flip under the
CRC, an undecodable payload behind a valid CRC, and debris after the
last intact record. Cluster-level crash/recovery lives in
``test_durability.py``; this module stays at the file-format layer.
"""

import os
import struct
import zlib

import pytest

from repro.errors import DurabilityError, WireProtocolError
from repro.kv import checkpoint as ckpt
from repro.kv import wal, wire
from repro.kv.memstore import MemStore

_U32 = struct.Struct(">I")


def _frame(payload: bytes) -> bytes:
    return _U32.pack(len(payload)) + _U32.pack(zlib.crc32(payload)) + payload


# --------------------------------------------------------------------------
# record codec
# --------------------------------------------------------------------------


#: every record shape an engine logs — the wire requests of the mutating
#: opcodes; a single-key put/delete logs a batch of one
RECORD_CASES = [
    (wire.OP_MULTI_PUT, ([(b"key", b"value")],)),
    (wire.OP_MULTI_PUT, ([(b"", b"")],)),
    (wire.OP_MULTI_PUT, ([(b"a", b"1"), (b"b", b"2")],)),
    (wire.OP_MULTI_PUT, ([],)),
    (wire.OP_MULTI_DELETE, ([b"key"],)),
    (wire.OP_MULTI_DELETE, ([b"a", b"b", b"c"],)),
    (wire.OP_DROP_PREFIX, (b"ns:",)),
    (wire.OP_CLEAR, ()),
]

#: a request argument per body shape a non-mutating row takes
_SAMPLE_ARG = {wire.BYTES: b"", wire.OPT_BYTES: None, wire.KEYS: [b"seed"]}

#: requests the wire codec accepts but a log must never carry: one per
#: row of the opcode table that is not a mutation
NON_MUTATING = [
    (row.op,
     () if row.request is wire.NOTHING else (_SAMPLE_ARG[row.request],))
    for row in wire.OPS.values()
    if not row.mutating
]


def _write_log(path, payloads):
    path.write_bytes(b"".join(_frame(p) for p in payloads))
    return str(path)


class TestRecordCodec:
    """A record payload is a wire request of a mutating opcode: the WAL
    has no codec of its own, so these cases go through the log file."""

    def test_cases_cover_the_mutation_vocabulary(self):
        assert {op for op, _ in RECORD_CASES} == set(wire.MUTATING_OPS)

    @pytest.mark.parametrize(
        "op,args", RECORD_CASES,
        ids=[wire.OPS[op].name + str(i) for i, (op, _) in
             enumerate(RECORD_CASES)],
    )
    def test_roundtrip(self, tmp_path, op, args):
        path = str(tmp_path / "wal.log")
        log = wal.WriteAheadLog(path)
        log.append(op, *args)
        log.close()
        assert wal.read_wal(path) == (
            [(op, args)], os.path.getsize(path), False)

    def test_unknown_opcode_refused_both_ways(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path / "wal.log"))
        with pytest.raises(WireProtocolError):
            log.append(0x7F)
        log.close()
        assert log.stats["records"] == 0
        path = _write_log(tmp_path / "bad.log", [bytes([0x7F])])
        assert wal.read_wal(path) == ([], 0, True)

    def test_empty_payload_refused(self, tmp_path):
        path = _write_log(tmp_path / "wal.log", [b""])
        assert wal.read_wal(path) == ([], 0, True)

    def test_trailing_garbage_refused(self, tmp_path):
        payload = wire.encode_request(wire.OP_MULTI_DELETE, [b"k"]) + b"junk"
        path = _write_log(tmp_path / "wal.log", [payload])
        assert wal.read_wal(path) == ([], 0, True)

    def test_truncated_payload_refused(self, tmp_path):
        payload = wire.encode_request(wire.OP_MULTI_PUT, [(b"key", b"value")])
        path = _write_log(tmp_path / "wal.log", [payload[:-2]])
        assert wal.read_wal(path) == ([], 0, True)

    @pytest.mark.parametrize("op,args", RECORD_CASES)
    def test_replay_matches_direct_ops(self, op, args):
        direct, replayed = MemStore(), MemStore()
        for store in (direct, replayed):
            store.multi_put([(b"ns:seed", b"s"), (b"other", b"o")])
        wire.apply_mutation(direct, op, args)  # direct == the op itself
        wire.apply_mutation(replayed, *wire.decode_request(
            wire.encode_request(op, *args)))
        assert list(direct.scan()) == list(replayed.scan())

    @pytest.mark.parametrize(
        "op,args", NON_MUTATING,
        ids=[wire.OPS[op].name for op, _ in NON_MUTATING],
    )
    def test_non_mutating_record_is_a_torn_tail(self, tmp_path, op, args):
        """CRC-valid, decodable, but not a mutation: corruption. The
        log ends there — neither it nor anything behind it is applied."""
        good = wire.encode_request(wire.OP_MULTI_PUT, [(b"seed", b"s")])
        behind = wire.encode_request(wire.OP_MULTI_PUT, [(b"late", b"l")])
        data_dir = tmp_path / "n0"
        data_dir.mkdir()
        log_path = _write_log(
            data_dir / "wal-00000000.log",
            [good, wire.encode_request(op, *args), behind],
        )
        records, valid, torn = wal.read_wal(log_path)
        assert records == [(wire.OP_MULTI_PUT, ([(b"seed", b"s")],))]
        assert (valid, torn) == (len(_frame(good)), True)

        dur, store, report = _durable_store(data_dir)
        assert report.records_replayed == 1 and report.torn_tail
        assert list(store.scan()) == [(b"seed", b"s")]
        assert os.path.getsize(log_path) == len(_frame(good))
        dur.close()

    @pytest.mark.parametrize(
        "op,args", NON_MUTATING,
        ids=[wire.OPS[op].name for op, _ in NON_MUTATING],
    )
    def test_apply_mutation_refuses_non_mutations(self, op, args):
        store = MemStore()
        store.put(b"seed", b"s")
        with pytest.raises(WireProtocolError):
            wire.apply_mutation(store, op, args)
        assert list(store.scan()) == [(b"seed", b"s")]

    def test_validate_fsync_policy(self):
        for policy in wal.FSYNC_POLICIES:
            assert wal.validate_fsync_policy(policy) == policy
        with pytest.raises(ValueError):
            wal.validate_fsync_policy("sometimes")


# --------------------------------------------------------------------------
# read_wal: torn-tail tolerance
# --------------------------------------------------------------------------


class TestReadWal:
    def test_missing_file_is_empty_log(self, tmp_path):
        records, valid, torn = wal.read_wal(str(tmp_path / "absent.log"))
        assert (records, valid, torn) == ([], 0, False)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"")
        assert wal.read_wal(str(path)) == ([], 0, False)

    def test_intact_log(self, tmp_path):
        payloads = [
            wire.encode_request(wire.OP_MULTI_PUT, [(b"k", b"v")]),
            wire.encode_request(wire.OP_MULTI_DELETE, [b"k"]),
        ]
        path = tmp_path / "wal.log"
        path.write_bytes(b"".join(_frame(p) for p in payloads))
        records, valid, torn = wal.read_wal(str(path))
        assert [op for op, _ in records] == [
            wire.OP_MULTI_PUT, wire.OP_MULTI_DELETE]
        assert valid == path.stat().st_size
        assert not torn

    @pytest.mark.parametrize("cut", [1, 4, 7, 9])
    def test_torn_final_record(self, tmp_path, cut):
        good = _frame(wire.encode_request(wire.OP_MULTI_PUT, [(b"k", b"v")]))
        tail = _frame(wire.encode_request(wire.OP_MULTI_PUT, [(b"k2", b"v2")]))
        path = tmp_path / "wal.log"
        path.write_bytes(good + tail[:cut])
        records, valid, torn = wal.read_wal(str(path))
        assert len(records) == 1
        assert valid == len(good)
        assert torn

    def test_crc_mismatch_stops_replay(self, tmp_path):
        good = _frame(wire.encode_request(wire.OP_MULTI_PUT, [(b"k", b"v")]))
        bad = bytearray(_frame(wire.encode_request(wire.OP_MULTI_PUT, [(b"x", b"y")])))
        bad[-1] ^= 0xFF  # flip a payload bit under the CRC
        path = tmp_path / "wal.log"
        path.write_bytes(good + bytes(bad))
        records, valid, torn = wal.read_wal(str(path))
        assert len(records) == 1
        assert valid == len(good)
        assert torn

    def test_insane_declared_length_refused(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(_U32.pack(wal.MAX_RECORD_BYTES + 1) + b"\0" * 64)
        records, valid, torn = wal.read_wal(str(path))
        assert (records, valid, torn) == ([], 0, True)

    def test_valid_crc_undecodable_payload_is_torn(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(_frame(bytes([0x7F, 1, 2, 3])))
        records, valid, torn = wal.read_wal(str(path))
        assert (records, valid, torn) == ([], 0, True)


# --------------------------------------------------------------------------
# WriteAheadLog lifecycle + fsync policies
# --------------------------------------------------------------------------


class TestWriteAheadLog:
    def test_append_then_read_back(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = wal.WriteAheadLog(path)
        log.append(wire.OP_MULTI_PUT, [(b"k", b"v")])
        log.append(wire.OP_MULTI_DELETE, [b"a", b"b"])
        log.close()
        records, _, torn = wal.read_wal(path)
        assert not torn
        assert records == [
            (wire.OP_MULTI_PUT, ([(b"k", b"v")],)),
            (wire.OP_MULTI_DELETE, ([b"a", b"b"],)),
        ]

    def test_append_visible_before_close(self, tmp_path):
        """The process-crash guarantee: every append is flushed, so the
        file (= the page cache a SIGKILL preserves) always holds it."""
        path = str(tmp_path / "wal.log")
        log = wal.WriteAheadLog(path, fsync_policy="never")
        log.append(wire.OP_MULTI_PUT, [(b"k", b"v")])
        records, _, torn = wal.read_wal(path)
        assert len(records) == 1 and not torn
        log.abandon()

    def test_fsync_always(self, tmp_path):
        log = wal.WriteAheadLog(
            str(tmp_path / "w.log"), fsync_policy="always")
        for i in range(5):
            log.append(wire.OP_MULTI_DELETE, [b"k%d" % i])
        assert log.stats["fsyncs"] == 5
        log.close()
        assert log.stats["fsyncs"] == 5  # already synced; close adds none

    def test_fsync_group(self, tmp_path):
        log = wal.WriteAheadLog(
            str(tmp_path / "w.log"), fsync_policy="group", group_size=4)
        for i in range(10):
            log.append(wire.OP_MULTI_DELETE, [b"k%d" % i])
        assert log.stats["fsyncs"] == 2  # at records 4 and 8
        log.close()
        assert log.stats["fsyncs"] == 3  # close drains the window of 2

    def test_fsync_never(self, tmp_path):
        log = wal.WriteAheadLog(
            str(tmp_path / "w.log"), fsync_policy="never")
        for i in range(10):
            log.append(wire.OP_MULTI_DELETE, [b"k%d" % i])
        log.sync()
        log.close()
        assert log.stats["fsyncs"] == 0

    def test_sync_idempotent_when_window_empty(self, tmp_path):
        log = wal.WriteAheadLog(
            str(tmp_path / "w.log"), fsync_policy="group", group_size=4)
        log.append(wire.OP_CLEAR)
        log.sync()
        log.sync()
        assert log.stats["fsyncs"] == 1
        log.close()

    def test_roll_switches_files(self, tmp_path):
        old, new = str(tmp_path / "a.log"), str(tmp_path / "b.log")
        log = wal.WriteAheadLog(old)
        log.append(wire.OP_MULTI_PUT, [(b"k", b"v1")])
        assert log.roll(new) == old
        log.append(wire.OP_MULTI_PUT, [(b"k", b"v2")])
        log.close()
        assert log.path == new
        assert log.stats["rolls"] == 1
        assert len(wal.read_wal(old)[0]) == 1
        assert len(wal.read_wal(new)[0]) == 1

    def test_close_idempotent_appends_refused_after(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path / "w.log"))
        log.close()
        log.close()
        assert log.closed
        with pytest.raises(ValueError):
            log.append(wire.OP_CLEAR)

    def test_abandon_keeps_flushed_records(self, tmp_path):
        path = str(tmp_path / "w.log")
        log = wal.WriteAheadLog(path, fsync_policy="group", group_size=100)
        log.append(wire.OP_MULTI_PUT, [(b"k", b"v")])
        log.abandon()
        log.abandon()
        assert log.closed
        assert len(wal.read_wal(path)[0]) == 1

    def test_bad_args_refused(self, tmp_path):
        with pytest.raises(ValueError):
            wal.WriteAheadLog(str(tmp_path / "w.log"), fsync_policy="nope")
        with pytest.raises(ValueError):
            wal.WriteAheadLog(str(tmp_path / "w.log"), group_size=0)


# --------------------------------------------------------------------------
# checkpoint file format
# --------------------------------------------------------------------------


class TestCheckpointFormat:
    PAIRS = [(b"a", b"1"), (b"b", b""), (b"c" * 40, b"3" * 200)]

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "checkpoint-00000001")
        size = ckpt.write_checkpoint(path, self.PAIRS)
        assert size == os.path.getsize(path)
        assert ckpt.read_checkpoint(path) == self.PAIRS

    def test_empty_snapshot(self, tmp_path):
        path = str(tmp_path / "checkpoint-00000001")
        ckpt.write_checkpoint(path, [])
        assert ckpt.read_checkpoint(path) == []

    def test_no_tmp_debris_after_commit(self, tmp_path):
        ckpt.write_checkpoint(str(tmp_path / "checkpoint-00000001"),
                              self.PAIRS)
        assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(DurabilityError):
            ckpt.read_checkpoint(str(path))

    def test_crc_mismatch(self, tmp_path):
        path = tmp_path / "c"
        ckpt.write_checkpoint(str(path), self.PAIRS)
        blob = bytearray(path.read_bytes())
        blob[len(ckpt.CHECKPOINT_MAGIC) + 9] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DurabilityError):
            ckpt.read_checkpoint(str(path))

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "c"
        ckpt.write_checkpoint(str(path), self.PAIRS)
        path.write_bytes(path.read_bytes()[: len(ckpt.CHECKPOINT_MAGIC) + 2])
        with pytest.raises(DurabilityError):
            ckpt.read_checkpoint(str(path))

    def test_latest_generation(self, tmp_path):
        assert ckpt.latest_generation(str(tmp_path / "absent")) == 0
        assert ckpt.latest_generation(str(tmp_path)) == 0
        (tmp_path / "checkpoint-00000003").write_bytes(b"")
        (tmp_path / "wal-00000005.log").write_bytes(b"")
        (tmp_path / "unrelated.txt").write_bytes(b"")
        assert ckpt.latest_generation(str(tmp_path)) == 5


# --------------------------------------------------------------------------
# NodeDurability: open / recover / checkpoint cycle
# --------------------------------------------------------------------------


def _durable_store(data_dir, **kwargs):
    dur = ckpt.NodeDurability(str(data_dir), **kwargs)
    store = MemStore()
    report = dur.open(store)
    return dur, store, report


class TestNodeDurability:
    def test_pristine_open(self, tmp_path):
        dur, store, report = _durable_store(tmp_path / "n0")
        assert report.seq == 0
        assert report.checkpoint_pairs == 0
        assert report.records_replayed == 0
        assert len(store) == 0
        assert dur.wal is not None and not dur.wal.closed
        dur.close()

    def test_replay_after_abandon(self, tmp_path):
        dur, store, _ = _durable_store(tmp_path / "n0")
        store.multi_put([(b"a", b"1"), (b"b", b"2")])
        store.delete(b"a")
        dur.abandon()  # SIGKILL-equivalent: no close-time sync

        dur2, store2, report = _durable_store(tmp_path / "n0")
        assert report.records_replayed == 2  # multi_put logs ONE record
        assert list(store2.scan()) == [(b"b", b"2")]
        dur2.close()

    def test_checkpoint_truncates_log(self, tmp_path):
        dur, store, _ = _durable_store(tmp_path / "n0")
        store.multi_put([(b"k%d" % i, b"v") for i in range(8)])
        dur.checkpoint(store)
        names = sorted(os.listdir(tmp_path / "n0"))
        assert names == ["checkpoint-00000001", "wal-00000001.log"]
        assert wal.read_wal(str(tmp_path / "n0" / "wal-00000001.log"))[0] == []

        store.put(b"post", b"ckpt")
        dur.abandon()
        dur2, store2, report = _durable_store(tmp_path / "n0")
        assert report.seq == 1
        assert report.checkpoint_pairs == 8
        assert report.records_replayed == 1
        assert store2.get(b"post") == b"ckpt"
        assert len(store2) == 9
        dur2.close()

    def test_maybe_checkpoint_interval(self, tmp_path):
        dur, store, _ = _durable_store(
            tmp_path / "n0", checkpoint_interval=4)
        for i in range(3):
            store.put(b"k%d" % i, b"v")
            assert not dur.maybe_checkpoint(store)
        store.put(b"k3", b"v")
        assert dur.maybe_checkpoint(store)
        assert dur.seq == 1
        # the counter rebased: three more appends stay under the bar
        for i in range(3):
            store.put(b"p%d" % i, b"v")
            assert not dur.maybe_checkpoint(store)
        dur.close()

    def test_torn_tail_truncated_on_open(self, tmp_path):
        dur, store, _ = _durable_store(tmp_path / "n0")
        store.put(b"acked", b"v")
        dur.abandon()
        log_path = ckpt.wal_path(str(tmp_path / "n0"), 0)
        intact = os.path.getsize(log_path)
        with open(log_path, "ab") as handle:  # a record cut mid-header
            handle.write(b"\0\0\0")

        dur2, store2, report = _durable_store(tmp_path / "n0")
        assert report.torn_tail
        assert report.bytes_truncated == 3
        assert os.path.getsize(log_path) == intact  # debris gone
        assert store2.get(b"acked") == b"v"
        # the reopened log appends cleanly after the truncation point
        store2.put(b"next", b"v")
        dur2.abandon()
        _, store3, report3 = _durable_store(tmp_path / "n0")
        assert not report3.torn_tail
        assert store3.get(b"next") == b"v"

    def test_long_replay_folds_into_checkpoint(self, tmp_path):
        dur, store, _ = _durable_store(
            tmp_path / "n0", checkpoint_interval=4)
        dur.abandon()
        # grow the log behind the manager's back so open() replays >= 4
        log = wal.WriteAheadLog(ckpt.wal_path(str(tmp_path / "n0"), 0))
        for i in range(6):
            log.append(wire.OP_MULTI_PUT, [(b"k%d" % i, b"v")])
        log.close()

        dur2, store2, report = _durable_store(
            tmp_path / "n0", checkpoint_interval=4)
        assert report.records_replayed == 6
        assert dur2.seq == 1  # re-checkpointed: next restart replays 0
        assert len(store2) == 6
        dur2.close()

    def test_checkpoint_before_open_refused(self, tmp_path):
        dur = ckpt.NodeDurability(str(tmp_path / "n0"))
        with pytest.raises(ValueError):
            dur.checkpoint(MemStore())

    def test_bad_args_refused(self, tmp_path):
        with pytest.raises(ValueError):
            ckpt.NodeDurability(str(tmp_path / "n0"), fsync_policy="nope")
        with pytest.raises(ValueError):
            ckpt.NodeDurability(str(tmp_path / "n0"), checkpoint_interval=0)

    def test_wal_stats_passthrough(self, tmp_path):
        dur = ckpt.NodeDurability(str(tmp_path / "n0"))
        assert dur.wal_stats() == {
            "records": 0, "bytes": 0, "fsyncs": 0, "rolls": 0}
        store = MemStore()
        dur.open(store)
        store.put(b"k", b"v")
        assert dur.wal_stats()["records"] == 1
        dur.close()
