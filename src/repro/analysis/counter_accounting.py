"""Counter-accounting checker: stats increments go through shards.

Every hot counter is *thread-sharded* (:class:`repro.tally.ShardSet`):
each thread increments a private shard, aggregates sum the shards. A
bare ``+=`` on a *shared* stats instance silently loses increments
under concurrency — the exact bug class the sharding removed — so this
checker flags it.

What counts as a stats field is discovered from the tree itself: every
``@tally`` class that some ``ShardSet(<Class>)`` shards
(``NodeCounters``, ``CacheStats``, ``IndexCounters``, ...) is a counter
set, and its annotated field names form the protected vocabulary. (A
``@tally`` class with one owner — an engine's ``LSMStats``, mutated
under its node's mutex — takes plain ``+=``.) An augmented assignment
to one of those field names is then only allowed when the receiver is
provably the calling thread's own shard:

* through a shard accessor property (``self.counters``) or a
  ``.local()`` / ``.peek()`` call;
* through a local alias of one of those;
* on a private instance (``total = NodeCounters()``, or a ``.copy()`` /
  ``.thread()`` / ``.total()`` result);
* inside the counter set's own methods.

Iterating ``.all()`` and mutating the yielded shards is flagged: those
are other threads' live shards (aggregation sweeps may only *read*
them; the one sanctioned fold lives in ``ShardSet`` itself).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis import config
from repro.analysis.core import Checker, Finding, ParsedModule, Project

def _is_tally(node: ast.ClassDef) -> bool:
    return any(
        isinstance(dec, ast.Name) and dec.id == "tally"
        for dec in node.decorator_list
    )


def _stats_classes(project: Project) -> Dict[str, Set[str]]:
    """name → annotated field names, for every sharded ``@tally`` class."""
    declared: Dict[str, Set[str]] = {}
    sharded: Set[str] = set()
    for module in project.modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and _is_tally(node):
                declared[node.name] = {
                    item.target.id
                    for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                }
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "ShardSet"
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                sharded.add(node.args[0].id)
    return {
        name: fields for name, fields in declared.items() if name in sharded
    }


def _terminal_accessor(node: ast.AST) -> Optional[str]:
    """The last attribute/call name of a receiver chain: ``self.counters``
    → ``counters``; ``self._shards.local()`` → ``local`` (call form)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _ordered(body) -> Iterator[ast.stmt]:
    """The statements of ``body`` and of every block nested in them, in
    source order."""
    for stmt in body:
        yield stmt
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                yield from _ordered([child])
            elif hasattr(child, "body") and isinstance(
                child, (ast.ExceptHandler,)
            ):
                yield from _ordered(child.body)


class _FunctionState:
    __slots__ = ("approved", "shared")

    def __init__(self) -> None:
        self.approved: Set[str] = set()
        self.shared: Set[str] = set()


class CounterAccountingChecker(Checker):
    name = "counter-accounting"
    description = (
        "stats-dataclass fields are incremented only through per-thread "
        "shards, never on shared instances"
    )
    rules = ("counter-accounting",)

    def check_module(
        self, module: ParsedModule, project: Project
    ) -> Iterator[Finding]:
        stats_classes = _stats_classes(project)
        field_names: Set[str] = set()
        for fields in stats_classes.values():
            field_names.update(fields)
        if not field_names:
            return iter(())
        findings: List[Finding] = []
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                if node.name in stats_classes:
                    continue  # a counter set's own methods
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        self._scan_function(
                            module, item, stats_classes, field_names,
                            findings,
                        )
            elif isinstance(node, ast.FunctionDef):
                self._scan_function(
                    module, node, stats_classes, field_names, findings
                )
        return iter(findings)

    # -- receiver classification --------------------------------------------

    def _classify(
        self,
        node: ast.AST,
        state: _FunctionState,
        stats_classes: Dict[str, Set[str]],
    ) -> str:
        """``"approved"`` / ``"shared"`` / ``"unknown"`` for a receiver."""
        if isinstance(node, ast.Name):
            if node.id in state.approved:
                return "approved"
            if node.id in state.shared:
                return "shared"
            return "unknown"
        terminal = _terminal_accessor(node)
        if terminal in config.SHARD_ACCESSORS:
            return "approved"
        if isinstance(node, ast.Call):
            if terminal in config.SHARD_CALLS:
                return "approved"
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in stats_classes
            ):
                return "approved"  # fresh private instance
            return "unknown"
        if isinstance(node, ast.Attribute):
            # self.X.field / obj.X.field with X not a shard accessor:
            # X names a shared instance attribute
            if isinstance(node.value, (ast.Name, ast.Attribute)):
                return "shared"
        return "unknown"

    def _note_bindings(
        self,
        stmt: ast.stmt,
        state: _FunctionState,
        stats_classes: Dict[str, Set[str]],
    ) -> None:
        if isinstance(stmt, ast.Assign):
            if len(stmt.targets) == 1 and isinstance(
                stmt.targets[0], ast.Name
            ):
                name = stmt.targets[0].id
                klass = self._classify(stmt.value, state, stats_classes)
                if klass == "approved":
                    state.approved.add(name)
                    state.shared.discard(name)
                elif klass == "shared":
                    state.shared.add(name)
                    state.approved.discard(name)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            # for shard in <x>.all(): — the yielded shards belong to
            # OTHER threads; mutating them races their owners
            if (
                isinstance(stmt.target, ast.Name)
                and isinstance(stmt.iter, ast.Call)
                and _terminal_accessor(stmt.iter) == "all"
            ):
                state.shared.add(stmt.target.id)
                state.approved.discard(stmt.target.id)

    # -- the scan -----------------------------------------------------------

    def _scan_function(
        self,
        module: ParsedModule,
        func: ast.FunctionDef,
        stats_classes: Dict[str, Set[str]],
        field_names: Set[str],
        findings: List[Finding],
    ) -> None:
        state = _FunctionState()

        for stmt in _ordered(func.body):
            self._note_bindings(stmt, state, stats_classes)
            if not isinstance(stmt, ast.AugAssign):
                continue
            target = stmt.target
            if not isinstance(target, ast.Attribute):
                continue
            if target.attr not in field_names:
                continue
            klass = self._classify(target.value, state, stats_classes)
            if klass == "approved" or klass == "unknown":
                continue
            findings.append(
                Finding(
                    path=module.path,
                    line=target.lineno,
                    col=target.col_offset,
                    rule="counter-accounting",
                    message=(
                        f"increment of stats field {target.attr!r} on a "
                        f"shared instance — route it through a per-thread "
                        f"shard (ShardSet .local(), the `counters` "
                        f"accessor) so concurrent increments are not lost"
                    ),
                )
            )
