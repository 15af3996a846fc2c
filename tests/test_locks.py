"""The readers/writer lock (:class:`repro.locks.RWLock`): who may hold it
together, who waits for whom, and what a release of a side the caller
does not hold does. Every thread is joined with a timeout, so a hang
fails the test instead of the run."""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.errors import LockError
from repro.locks import RWLock

JOIN_S = 10.0
#: how long a thread that must stay blocked is given to (wrongly) get in
BLOCKED_S = 0.2


def start(target, *args):
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    return thread


def joined(*threads):
    for thread in threads:
        thread.join(JOIN_S)
    return not any(thread.is_alive() for thread in threads)


def wait_for_writer(lock, count=1):
    """Until ``count`` writers wait on ``lock`` (read under its condition)."""
    for _ in range(int(JOIN_S / 0.005)):
        with lock._cond:
            if lock._writers_waiting >= count:
                return
        threading.Event().wait(0.005)
    raise AssertionError("the writer never started waiting")


def test_readers_hold_the_lock_together():
    lock = RWLock()
    inside = threading.Barrier(3)

    def read():
        with lock.read():
            inside.wait(JOIN_S)  # all three inside at once, or it breaks

    threads = [start(read) for _ in range(2)]
    with lock.read():
        inside.wait(JOIN_S)
    assert joined(*threads)
    assert lock._readers == 0


def test_a_writer_excludes_readers_and_writers():
    lock = RWLock()
    entered = []

    def read():
        with lock.read():
            entered.append("r")

    def write():
        with lock.write():
            entered.append("w")

    lock.acquire_write()
    try:
        reader, writer = start(read), start(write)
        reader.join(BLOCKED_S)
        writer.join(BLOCKED_S)
        assert entered == []
    finally:
        lock.release_write()
    assert joined(reader, writer)
    assert sorted(entered) == ["r", "w"]


def test_a_writer_waits_for_the_readers_and_the_last_release_wakes_it():
    lock = RWLock()
    wrote = threading.Event()

    def write():
        with lock.write():
            wrote.set()

    lock.acquire_read()
    lock.acquire_read()  # two read holds (of this thread, for brevity)
    writer = start(write)
    wait_for_writer(lock)
    lock.release_read()
    assert not wrote.wait(BLOCKED_S)  # one reader still holds it
    lock.release_read()  # the last reader out wakes the waiting writer
    assert wrote.wait(JOIN_S)
    assert joined(writer)


def test_a_new_reader_queues_behind_a_waiting_writer():
    lock = RWLock()
    order = []

    def write():
        with lock.write():
            order.append("writer")

    def read():
        with lock.read():
            order.append("late reader")

    lock.acquire_read()
    writer = start(write)
    wait_for_writer(lock)
    reader = start(read)
    reader.join(BLOCKED_S)
    assert order == []  # the lock is only read-held, yet the reader waits
    lock.release_read()
    assert joined(writer, reader)
    assert order == ["writer", "late reader"]


def test_the_write_side_is_reentrant_and_reads_under_it_are_no_ops():
    lock = RWLock()
    with lock.write():
        with lock.write():
            with lock.read():
                assert lock._readers == 0  # no read hold was taken
            lock.release_read()  # the owner's stray read release: no-op
        assert lock._write_depth == 1
    assert lock._write_owner is None and lock._write_depth == 0
    wrote = []

    def write():
        with lock.write():
            wrote.append(True)

    assert joined(start(write))  # free again: another thread can write
    assert wrote == [True]


def test_a_stray_read_release_raises_and_leaves_writers_working():
    lock = RWLock()
    with pytest.raises(LockError):
        lock.release_read()
    assert lock._readers == 0
    wrote = threading.Event()

    def write():
        with lock.write():
            wrote.set()

    writer = start(write)
    assert wrote.wait(JOIN_S)
    assert joined(writer)


def test_a_write_release_by_a_non_owner_raises():
    lock = RWLock()
    with pytest.raises(LockError):
        lock.release_write()
    lock.acquire_write()
    failed = []

    def release():
        try:
            lock.release_write()
        except LockError:
            failed.append(True)

    assert joined(start(release))
    assert failed == [True]
    lock.release_write()


def test_a_block_that_raises_gives_the_side_back():
    lock = RWLock()
    with pytest.raises(ZeroDivisionError):
        with lock.read():
            1 / 0
    with pytest.raises(ZeroDivisionError):
        with lock.write():
            1 / 0
    assert lock._readers == 0 and lock._write_owner is None


@pytest.mark.stress
def test_mixed_readers_and_writers_keep_the_invariant():
    """Four readers and two writers (more threads than cores): a writer
    moves two counters apart and back together under the write side, so
    a reader that ever sees them differ saw a half-done write."""
    lock = RWLock()
    state = {"a": 0, "b": 0}
    torn = []
    rounds = 300

    def read(seed):
        rng = random.Random(seed)
        for _ in range(rounds):
            with lock.read():
                if state["a"] != state["b"]:
                    torn.append(dict(state))
            if rng.random() < 0.1:
                threading.Event().wait(0.0001)

    def write():
        for _ in range(rounds // 3):
            with lock.write():
                state["a"] += 1
                threading.Event().wait(0.00005)
                state["b"] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the blocks
    try:
        threads = [start(read, seed) for seed in range(4)]
        threads += [start(write) for _ in range(2)]
        assert joined(*threads)
    finally:
        sys.setswitchinterval(interval)
    assert torn == []
    assert state["a"] == state["b"] == 2 * (rounds // 3)
    assert lock._readers == 0 and lock._writers_waiting == 0
    assert lock._write_owner is None
