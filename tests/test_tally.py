"""The counter spine (:mod:`repro.tally`): what ``@tally`` generates and
what ``ShardSet`` promises, stated once for every owner."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import threading

import pytest

import repro
from repro.index import IndexManager
from repro.kv.node import NodeCounters
from repro.relational import AttrType, Attribute, Relation, RelationSchema
from repro.tally import ShardSet, Tally, tally

JOIN_S = 10.0


def primes(n):
    """The first ``n`` primes — a distinct value per field, and no sum
    of two of them is a third."""
    found = []
    candidate = 3  # odd primes only: odd + odd is even, so never a prime
    while len(found) < n:
        if all(candidate % p for p in found):
            found.append(candidate)
        candidate += 2
    return found


def tally_classes():
    """Every counter set declared anywhere under ``repro``."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, Tally) and cls is not Tally:
                found[cls.__qualname__] = cls
    return sorted(found.values(), key=lambda cls: cls.__qualname__)


@tally
class _Extended(NodeCounters):
    """A field added to a counter set needs no further edit."""

    retries: int = 0


# -- (a) add / reset / copy touch exactly dataclasses.fields(cls) ------------


def test_the_walk_finds_the_known_counter_sets():
    names = {cls.__name__ for cls in tally_classes()}
    assert {
        "NodeCounters", "CacheStats", "IndexCounters", "VersionStats",
        "LSMStats",
    } <= names


@pytest.mark.parametrize(
    "cls", tally_classes() + [_Extended], ids=lambda cls: cls.__name__
)
def test_generated_methods_cover_exactly_the_fields(cls):
    names = [field.name for field in dataclasses.fields(cls)]
    values = primes(2 * len(names))
    left = dict(zip(names, values))
    right = dict(zip(names, values[len(names):]))
    one, other = cls(**left), cls(**right)

    clone = one.copy()
    assert type(clone) is cls and clone is not one
    assert vars(clone) == left

    one.add(other)
    assert vars(one) == {name: left[name] + right[name] for name in names}
    assert vars(other) == right and vars(clone) == left

    one.reset()
    assert vars(one) == vars(cls())


def test_a_field_that_cannot_be_summed_is_refused_at_declaration():
    with pytest.raises(TypeError, match="label"):

        @tally
        class _Labelled(Tally):
            hits: int = 0
            label: str = ""


# -- (b) ShardSet: local / thread / total -------------------------------------


def test_total_sums_live_and_retired_shards_and_thread_is_a_private_copy():
    shards: ShardSet[NodeCounters] = ShardSet(NodeCounters)
    shards.local().gets += 5  # the main thread's shard
    counted = threading.Barrier(3)
    release = threading.Event()

    def bump(amount, stay):
        shards.local().gets += amount
        if stay:
            counted.wait(JOIN_S)
            release.wait(JOIN_S)

    finished = threading.Thread(target=bump, args=(7, False))
    finished.start()
    finished.join(JOIN_S)
    assert not finished.is_alive()
    living = [
        threading.Thread(target=bump, args=(amount, True))
        for amount in (11, 13)
    ]
    for thread in living:
        thread.start()
    try:
        counted.wait(JOIN_S)
        assert shards.total().gets == 5 + 7 + 11 + 13
        # the finished thread's shard was folded, not kept registered
        assert shards._retired is not None and shards._retired.gets == 7
        assert len(shards._entries) == 3

        mine = shards.thread()
        assert mine.gets == 5
        mine.gets += 100  # a copy: neither the shard nor the sum moves
        assert shards.local().gets == 5
        assert shards.total().gets == 5 + 7 + 11 + 13

        seen = []

        def never_counted():
            seen.append((shards.thread(), shards.peek()))

        idle = threading.Thread(target=never_counted)
        idle.start()
        idle.join(JOIN_S)
        assert seen == [(NodeCounters(), None)]
        assert len(shards._entries) == 3  # reading registered no shard
    finally:
        release.set()
        for thread in living:
            thread.join(JOIN_S)
    assert not any(thread.is_alive() for thread in living)
    assert shards.total().gets == 5 + 7 + 11 + 13  # all retired now


# -- (c) per-thread attribution through an owner --------------------------------


def test_index_probes_are_attributed_to_the_thread_that_made_them(cluster):
    """What a query's I/O probe relies on: the shard of a serving
    thread counts that thread's index traffic only, while another
    thread probes the same manager."""
    schema = RelationSchema(
        "R", [Attribute("k", AttrType.INT), Attribute("c", AttrType.INT)], ["k"]
    )
    manager = IndexManager(cluster)
    manager.create(Relation(schema, [(i, i % 5) for i in range(50)]), "c")
    start = threading.Barrier(2)
    probes = {}

    def serve(name, lookups):
        start.wait(JOIN_S)
        before = manager.stats.thread()
        for value in range(lookups):
            manager.lookup_eq("R", "c", [value % 5])
            if value == 0:
                start.wait(JOIN_S)  # both threads are mid-query
        probes[name] = manager.stats.thread().probes - before.probes

    threads = [
        threading.Thread(target=serve, args=("a", 3)),
        threading.Thread(target=serve, args=("b", 8)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_S)
    assert not any(thread.is_alive() for thread in threads)
    assert probes == {"a": 3, "b": 8}
    assert manager.stats.thread().probes == 0  # this thread probed nothing
    assert manager.stats.total().probes == 11
