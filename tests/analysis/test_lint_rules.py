"""Per-rule fixtures: each repro-lint rule has at least one snippet
that MUST trigger it and one that MUST NOT.

Fixture files are written under ``tmp_path`` with the module suffixes
the config registry keys on (``repro/kv/cluster.py`` ...), so the
checkers resolve the same guard specs they apply to the real tree.
"""

from __future__ import annotations

import textwrap
from typing import Dict, List, Optional, Set

import pytest

from repro.analysis.cli import all_checkers
from repro.analysis.core import Finding, run_analysis


def lint(
    tmp_path, files: Dict[str, str], rules: Optional[Set[str]] = None
) -> List[Finding]:
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_analysis(
        [str(tmp_path)], all_checkers(), rules=rules, root=tmp_path
    )


def rules_of(findings: List[Finding]) -> List[str]:
    return [finding.rule for finding in findings]


# -- guarded-field -----------------------------------------------------------


def test_guarded_field_triggers_on_unlocked_mutation(tmp_path):
    findings = lint(tmp_path, {
        "repro/kv/cluster.py": """
            class KVCluster:
                def bad(self):
                    self.nodes.append(1)
        """,
    }, rules={"guarded-field"})
    assert rules_of(findings) == ["guarded-field"]
    assert "nodes" in findings[0].message


def test_guarded_field_read_side_is_not_enough_for_rwlock(tmp_path):
    findings = lint(tmp_path, {
        "repro/kv/cluster.py": """
            class KVCluster:
                def bad(self):
                    with self._lock.read():
                        self.nodes = []
        """,
    }, rules={"guarded-field"})
    assert rules_of(findings) == ["guarded-field"]
    assert "write()" in findings[0].message


def test_guarded_field_silent_under_write_lock_and_mutex(tmp_path):
    findings = lint(tmp_path, {
        "repro/kv/cluster.py": """
            class KVCluster:
                def good(self):
                    with self._lock.write():
                        self.nodes.append(1)

                def also_good(self):
                    with self._meta_lock:
                        self._namespaces.add("x")
        """,
    }, rules={"guarded-field"})
    assert findings == []


def test_guarded_field_init_is_exempt(tmp_path):
    findings = lint(tmp_path, {
        "repro/kv/cluster.py": """
            class KVCluster:
                def __init__(self):
                    self.nodes = []
                    self._namespaces = set()
        """,
    }, rules={"guarded-field"})
    assert findings == []


def test_guarded_field_holds_directive_marks_helper(tmp_path):
    findings = lint(tmp_path, {
        "repro/kv/cluster.py": """
            class KVCluster:
                def _locked_helper(self):
                    # repro-lint: holds=_lock -- caller takes the write lock
                    self.nodes.append(1)
        """,
    }, rules={"guarded-field"})
    assert findings == []


def test_guarded_field_placement_generation_needs_the_write_lock(tmp_path):
    """Readers trust a listing's owners while the generation stands, so
    a bump a reader could interleave with is a finding; the real bump
    sits in ``_rebalance``, which every membership change calls with
    the write lock held."""
    findings = lint(tmp_path, {
        "repro/kv/cluster.py": """
            class KVCluster:
                def bad(self):
                    with self._lock.read():
                        self._placement_generation += 1

                def also_bad(self):
                    self._placement_generation += 1

                def good(self):
                    with self._lock.write():
                        self._placement_generation += 1

                def _rebalance(self):
                    # repro-lint: holds=_lock -- membership changes only
                    self._placement_generation += 1
        """,
    }, rules={"guarded-field"})
    assert rules_of(findings) == ["guarded-field"] * 2
    assert all("_placement_generation" in f.message for f in findings)
    assert "write()" in findings[0].message


def test_guarded_field_alias_mutation_is_tracked(tmp_path):
    findings = lint(tmp_path, {
        "repro/kv/cluster.py": """
            class KVCluster:
                def bad(self):
                    live = self.nodes
                    live.append(1)
        """,
    }, rules={"guarded-field"})
    assert rules_of(findings) == ["guarded-field"]


# -- raw-acquire -------------------------------------------------------------


def test_raw_acquire_triggers_without_try_finally(tmp_path):
    findings = lint(tmp_path, {
        "mod.py": """
            class Worker:
                def bad(self):
                    self._lock.acquire()
                    self.count = 1
                    self._lock.release()
        """,
    }, rules={"raw-acquire"})
    assert rules_of(findings) == ["raw-acquire", "raw-acquire"]


def test_raw_acquire_silent_for_with_and_try_finally(tmp_path):
    findings = lint(tmp_path, {
        "mod.py": """
            class Worker:
                def good_with(self):
                    with self._lock:
                        self.count = 1

                def good_try(self):
                    self._lock.acquire()
                    try:
                        self.count = 1
                    finally:
                        self._lock.release()
        """,
    }, rules={"raw-acquire"})
    assert findings == []


# -- lock-blocking-call ------------------------------------------------------


def test_blocking_call_under_lock_triggers(tmp_path):
    findings = lint(tmp_path, {
        "mod.py": """
            import time

            class Worker:
                def bad(self):
                    with self._lock:
                        time.sleep(0.1)
        """,
    }, rules={"lock-blocking-call"})
    assert rules_of(findings) == ["lock-blocking-call"]
    assert "time.sleep" in findings[0].message


def test_blocking_call_outside_lock_is_fine(tmp_path):
    findings = lint(tmp_path, {
        "mod.py": """
            import time

            class Worker:
                def good(self):
                    with self._lock:
                        payload = self.queue.pop()
                    time.sleep(0.1)
        """,
    }, rules={"lock-blocking-call"})
    assert findings == []


def test_socket_io_under_lock_triggers(tmp_path):
    findings = lint(tmp_path, {
        "mod.py": """
            class Worker:
                def bad(self, conn, data):
                    with self._lock:
                        conn.sendall(data)
        """,
    }, rules={"lock-blocking-call"})
    assert rules_of(findings) == ["lock-blocking-call"]


# -- counter-accounting ------------------------------------------------------

_STATS = """
    from repro.tally import ShardSet, Tally, tally

    @tally
    class NodeCounters(Tally):
        gets: int = 0

    class Owner:
        def __init__(self):
            self._shards = ShardSet(NodeCounters)
"""

_BAD_INCREMENT = """
    class Node:
        def bad(self):
            self.stats.gets += 1
"""


def test_counter_increment_on_shared_instance_triggers(tmp_path):
    findings = lint(tmp_path, {
        "stats.py": _STATS,
        "mod.py": _BAD_INCREMENT,
    }, rules={"counter-accounting"})
    assert rules_of(findings) == ["counter-accounting"]
    assert "gets" in findings[0].message


@pytest.mark.parametrize("stats", [
    pytest.param("""
        from dataclasses import dataclass

        @dataclass
        class NodeCounters:
            gets: int = 0

            def add(self, other):
                self.gets += other.gets
    """, id="plain-dataclass-with-add"),
    pytest.param("""
        from repro.tally import Tally, tally

        @tally
        class NodeCounters(Tally):
            gets: int = 0
    """, id="tally-no-shardset-shards"),
])
def test_counter_set_is_a_sharded_tally_class_only(tmp_path, stats):
    """A plain ``@dataclass`` with an ``add`` method is no longer a
    counter set, and neither is a ``@tally`` class with one owner (an
    engine's stats under its node's mutex)."""
    findings = lint(tmp_path, {
        "stats.py": stats,
        "mod.py": _BAD_INCREMENT,
    }, rules={"counter-accounting"})
    assert findings == []


def test_counter_increment_through_shard_is_fine(tmp_path):
    findings = lint(tmp_path, {
        "stats.py": _STATS,
        "mod.py": """
            class Node:
                def good_accessor(self):
                    self.counters.gets += 1

                def good_call(self):
                    self._shards.local().gets += 1

                def good_alias(self):
                    shard = self._shards.local()
                    shard.gets += 1
        """,
    }, rules={"counter-accounting"})
    assert findings == []


def test_counter_fresh_private_instance_is_fine(tmp_path):
    findings = lint(tmp_path, {
        "stats.py": _STATS,
        "mod.py": """
            from stats import NodeCounters

            def fold(shards):
                total = NodeCounters()
                for shard in shards:
                    total.gets += shard.gets
                return total

            def top_up(node):
                mine = node._shards.thread()
                mine.gets += 1
                node._shards.total().gets += 1
        """,
    }, rules={"counter-accounting"})
    assert findings == []


def test_counter_mutating_other_threads_shards_triggers(tmp_path):
    findings = lint(tmp_path, {
        "stats.py": _STATS,
        "mod.py": """
            class Node:
                def bad_fold(self):
                    for shard in self._shards.all():
                        shard.gets += 1
        """,
    }, rules={"counter-accounting"})
    assert rules_of(findings) == ["counter-accounting"]


# -- error taxonomy ----------------------------------------------------------


def test_bare_except_triggers(tmp_path):
    findings = lint(tmp_path, {
        "mod.py": """
            def risky():
                try:
                    work()
                except:
                    pass
        """,
    }, rules={"bare-except"})
    assert rules_of(findings) == ["bare-except"]


def test_broad_except_triggers_and_narrow_does_not(tmp_path):
    findings = lint(tmp_path, {
        "mod.py": """
            def risky():
                try:
                    work()
                except Exception:
                    pass

            def narrow():
                try:
                    work()
                except ValueError:
                    pass
        """,
    }, rules={"broad-except"})
    assert rules_of(findings) == ["broad-except"]
    assert findings[0].line == 5


def test_foreign_raise_triggers_and_taxonomy_raise_does_not(tmp_path):
    findings = lint(tmp_path, {
        "mod.py": """
            from repro.errors import ExecutionError

            def bad():
                raise RuntimeError("boom")

            def local_validation():
                raise ValueError("bad argument")

            def taxonomy():
                raise ExecutionError("boom")
        """,
    }, rules={"foreign-raise"})
    assert rules_of(findings) == ["foreign-raise"]
    assert "RuntimeError" in findings[0].message


# -- recursive-closure ---------------------------------------------------------


def test_recursive_closure_triggers_on_a_self_reference(tmp_path):
    findings = lint(tmp_path, {
        "mod.py": """
            def split(plan, kinds):
                def is_core(node):
                    return isinstance(node, kinds) and all(
                        is_core(child) for child in node.children()
                    )
                return is_core(plan)
        """,
    }, rules={"recursive-closure"})
    assert rules_of(findings) == ["recursive-closure"]
    assert "`is_core` of `split` refers to itself" in findings[0].message


def test_recursive_closure_triggers_through_an_inner_function(tmp_path):
    # the lambda needs `walk`, so `walk` carries its own cell
    findings = lint(tmp_path, {
        "mod.py": """
            class Engine:
                def describe(self, plan):
                    def walk(node):
                        return list(map(lambda child: walk(child), node.children()))
                    return walk(plan)
        """,
    }, rules={"recursive-closure"})
    assert rules_of(findings) == ["recursive-closure"]


def test_recursive_closure_triggers_on_mutual_siblings(tmp_path):
    findings = lint(tmp_path, {
        "mod.py": """
            def parity(n):
                def even(k):
                    return k == 0 or odd(k - 1)
                def odd(k):
                    return k != 0 and even(k - 1)
                return even(n)
        """,
    }, rules={"recursive-closure"})
    assert rules_of(findings) == ["recursive-closure"] * 2
    assert "`odd`, which refers back" in findings[0].message


def test_recursive_closure_silent_on_hoisted_and_one_way_closures(tmp_path):
    findings = lint(tmp_path, {
        "mod.py": """
            def is_core(node, kinds):
                return isinstance(node, kinds) and all(
                    is_core(child, kinds) for child in node.children()
                )

            class Engine:
                def walk(self, node):
                    for child in node.children():
                        self.walk(child)

            def outer(rows):
                def key(row):
                    return row[0]
                def ordered(batch):
                    return sorted(batch, key=key)  # one way: no loop
                def shadow(shadow):
                    return shadow  # its own parameter, not its cell
                return ordered(rows), shadow
        """,
    }, rules={"recursive-closure"})
    assert findings == []


# -- suppression mechanics ---------------------------------------------------


def test_trailing_suppression_silences_one_rule(tmp_path):
    findings = lint(tmp_path, {
        "mod.py": """
            class Worker:
                def shim(self):
                    self._lock.acquire()  # repro-lint: disable=raw-acquire -- shim
                    try:
                        pass
                    finally:
                        self._lock.release()
        """,
    }, rules={"raw-acquire"})
    assert findings == []


def test_standalone_suppression_covers_next_code_line(tmp_path):
    findings = lint(tmp_path, {
        "mod.py": """
            def risky():
                try:
                    work()
                # repro-lint: disable=broad-except -- fixture boundary,
                # spanning a second comment line before the handler
                except Exception:
                    pass
        """,
    }, rules={"broad-except"})
    assert findings == []


def test_disable_all_silences_every_rule_on_the_line(tmp_path):
    findings = lint(tmp_path, {
        "mod.py": """
            def risky():
                try:
                    work()
                except Exception:  # repro-lint: disable=all -- fixture
                    pass
        """,
    })
    assert findings == []


def test_suppression_of_other_rule_does_not_silence(tmp_path):
    findings = lint(tmp_path, {
        "mod.py": """
            def risky():
                try:
                    work()
                except Exception:  # repro-lint: disable=bare-except -- wrong rule
                    pass
        """,
    }, rules={"broad-except"})
    assert rules_of(findings) == ["broad-except"]
