"""Outside-in span tracing for the end-to-end benchmark.

For a traced pass only, :class:`Tracer` swaps a declared list of
**public** callables (:data:`TARGETS`) for timing shims — class methods
with ``setattr`` on the class that defines them, module functions on
every loaded ``repro.*`` module that holds the original under that name
— and puts the originals back afterwards. Nothing under ``src/`` knows
about it: every layer is timed from outside, at its public boundary.

A span is ``[name, start, end, parent, op, child, dur]``: ``parent`` is
the enclosing span of the same thread (``None`` for a root), ``op`` the
tag the benchmark loop set for the request being served (``("r", 17)``
= reader op 17, ``("w", 3)`` = write 3), ``child`` the time its direct
children covered and ``dur`` its own time on the clock, so a layer's
**self time** is ``dur - child`` and the self times of one request sum
to its root span exactly. For a plain call ``dur = end - start``. A
generator (``KVCluster.scan``, ``KVInstance.scan``) only runs inside
``next()``, so its ``dur`` is the time spent inside those resumptions,
not ``end - start`` (which also holds the consumer's work).

A **leaf** target mutes the shims beneath it: ``decode_entries`` calls
``decode_row`` per row and one span per row would cost more than the
decoding, so the outer call is recorded and the inner ones are not.
"""

from __future__ import annotations

import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

_NAME, _START, _END, _PARENT, _OP, _CHILD, _DUR = range(7)


class Target(NamedTuple):
    """One public callable to time: ``module.owner.attr`` -> span ``name``."""

    name: str
    module: str
    owner: Optional[str]  # class name, or None for a module-level function
    attr: str
    leaf: bool = False


def _targets(
    name: str, module: str, owner: Optional[str], *attrs: str, leaf: bool = False
) -> Tuple[Target, ...]:
    return tuple(Target(name, module, owner, attr, leaf) for attr in attrs)


_SERVICE = "repro.service.service"
_SYSTEMS = "repro.systems.sql_over_nosql"
_CLUSTER = "repro.kv.cluster"
_TAAV = "repro.kv.taav"
_STORE = "repro.baav.store"
_INDEX = "repro.index.manager"

TARGETS: Tuple[Target, ...] = (
    *_targets("service.execute", _SERVICE, "Session", "execute"),
    *_targets("service.apply_updates", _SERVICE, "Session", "apply_updates"),
    *_targets("systems.execute", _SYSTEMS, "ZidianSystem", "execute"),
    *_targets(
        "systems.apply_updates", _SYSTEMS, "TransactionalMixin", "apply_updates"
    ),
    *_targets("sql.parse", "repro.sql.parser", None, "parse", leaf=True),
    *_targets("sql.bind", "repro.sql.planner", None, "bind", leaf=True),
    *_targets("core.plan", "repro.core.middleware", "Zidian", "plan"),
    *_targets("core.decide", "repro.core.middleware", "Zidian", "decide", leaf=True),
    *_targets("parallel.execute", "repro.parallel.engine", "ZidianEngine", "execute"),
    *_targets(
        "parallel.skew", "repro.parallel.partitioner", None, "blockset_skew", leaf=True
    ),
    *_targets("kba.operators", "repro.kba.executor", None, "execute_node"),
    *_targets(
        "kba.size_bytes", "repro.kba.blockset", "BlockSet", "size_bytes", leaf=True
    ),
    *_targets("baav.fetch", _STORE, "KVInstance", "get", "multi_get", "scan"),
    *_targets("baav.fetch", _STORE, "KVInstance", "get_stats"),
    *_targets(
        "baav.maintain", "repro.baav.maintenance", "Maintainer", "insert", "delete"
    ),
    *_targets("kv.taav.fetch", _TAAV, "TaaVRelation", "get", "multi_get"),
    *_targets("kv.taav.fetch", _TAAV, "TaaVRelation", "scan", "fetch_all"),
    *_targets("kv.taav.write", _TAAV, "TaaVRelation", "insert", "delete_row"),
    *_targets(
        "kv.codec.decode",
        "repro.kv.codec",
        None,
        "decode_entries",
        "decode_row",
        leaf=True,
    ),
    *_targets("kv.cluster.read", _CLUSTER, "KVCluster", "get", "multi_get"),
    *_targets("kv.cluster.scan", _CLUSTER, "KVCluster", "scan"),
    *_targets("kv.cluster.write", _CLUSTER, "KVCluster", "put", "multi_put", "delete"),
    *_targets("kv.remote.rpc", "repro.kv.remote", "NodeClient", "request", leaf=True),
    *_targets(
        "kv.wal.append", "repro.kv.wal", "WriteAheadLog", "append", "sync", leaf=True
    ),
    *_targets("mvcc.commit", "repro.mvcc.txn", "Transaction", "commit"),
    *_targets(
        "mvcc.commit", "repro.mvcc.txn", "TransactionManager", "commit_statements"
    ),
    *_targets("index.lookup", _INDEX, "IndexManager", "lookup_eq", "lookup_range"),
    *_targets("index.maintain", _INDEX, "IndexManager", "apply_updates"),
)


class _ThreadState(threading.local):
    """Per-thread open-span stack, leaf mute flag, op tag and span list.

    ``threading.local`` runs ``__init__`` once in every thread that touches
    the object, so each thread's span list registers itself on first use.
    """

    def __init__(self, registry: List[List[list]], lock: threading.Lock) -> None:
        self.stack: List[list] = []
        self.muted = False
        self.op: Optional[tuple] = None
        self.spans: List[list] = []
        with lock:
            registry.append(self.spans)


class Tracer:
    """Records spans in memory while its shims are installed."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._per_thread: List[List[list]] = []
        self._state = _ThreadState(self._per_thread, self._lock)
        #: (holder, attr, original) of every swapped attribute
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def set_op(self, op: Optional[tuple]) -> None:
        """Tag the spans this thread opens from now on with ``op``."""
        self._state.op = op

    def spans(self) -> List[list]:
        """Every closed span so far (all threads, in per-thread order)."""
        with self._lock:
            return [span for spans in self._per_thread for span in spans]

    def clear(self) -> None:
        """Forget the recorded spans (between traced passes)."""
        with self._lock:
            for spans in self._per_thread:
                del spans[:]

    def _call_shim(self, name: str, fn, leaf: bool):
        state = self._state
        clock = time.perf_counter

        def shim(*args, **kwargs):
            if state.muted:
                return fn(*args, **kwargs)
            stack = state.stack
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, state.op, 0.0, 0.0]
            stack.append(span)
            state.muted = leaf
            start = span[_START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = span[_END] = clock()
                span[_DUR] = end - start
                state.muted = False
                stack.pop()
                if parent is not None:
                    parent[_CHILD] += end - start
                state.spans.append(span)

        return shim

    def _generator_shim(self, name: str, fn):
        state = self._state
        clock = time.perf_counter

        def shim(*args, **kwargs):
            if state.muted:
                yield from fn(*args, **kwargs)
                return
            stack = state.stack
            parent = stack[-1] if stack else None
            span = [name, clock(), 0.0, parent, state.op, 0.0, 0.0]
            inner = fn(*args, **kwargs)
            try:
                while True:
                    stack.append(span)
                    resumed = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span[_DUR] += clock() - resumed
                        stack.pop()
                    yield item
            finally:
                inner.close()
                span[_END] = clock()
                if parent is not None:
                    parent[_CHILD] += span[_DUR]
                state.spans.append(span)

        return shim

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Swap every target for its shim (idempotent per tracer)."""
        if self._patched:
            return
        for target in TARGETS:
            module = import_module(target.module)
            original = live(target)
            if target.owner is not None:
                holders = [getattr(module, target.owner)]
            else:
                # `from x import f` copies the binding: patch every
                # repro module that holds the same function object
                holders = [
                    mod
                    for mod_name, mod in list(sys.modules.items())
                    if mod is not None
                    and (mod_name == "repro" or mod_name.startswith("repro."))
                    and getattr(mod, target.attr, None) is original
                ]
            if inspect.isgeneratorfunction(original):
                shim = self._generator_shim(target.name, original)
            else:
                shim = self._call_shim(target.name, original, target.leaf)
            shim.__name__ = getattr(original, "__name__", target.attr)
            shim.__wrapped__ = original
            for holder in holders:
                setattr(holder, target.attr, shim)
                self._patched.append((holder, target.attr, original))

    def uninstall(self) -> None:
        """Put every original back (the exact objects that were there)."""
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def live(target: Target) -> object:
    """The object bound to ``target`` right now (the original, or a shim)."""
    module = import_module(target.module)
    holder = getattr(module, target.owner) if target.owner else module
    return holder.__dict__[target.attr]


def patched_targets() -> List[Target]:
    """Targets whose live attribute is a shim right now (should be empty
    whenever no traced pass is running; the smoke test asserts it)."""
    return [target for target in TARGETS if hasattr(live(target), "__wrapped__")]


# --------------------------------------------------------------------------
# aggregation
# --------------------------------------------------------------------------


class Profile(NamedTuple):
    """Per-layer totals of one traced pass, split by request kind.

    Keys of the dicts are request kinds (``"r"`` reader ops, ``"w"``
    writes); the inner dicts map span name -> seconds / calls.
    """

    self_s: Dict[str, Dict[str, float]]
    calls: Dict[str, Dict[str, int]]
    root_s: Dict[str, float]


def aggregate(spans: List[list]) -> Profile:
    self_s: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    calls: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    root_s: Dict[str, float] = defaultdict(float)
    for span in spans:
        op = span[_OP]
        kind = op[0] if op else "-"
        self_s[kind][span[_NAME]] += span[_DUR] - span[_CHILD]
        calls[kind][span[_NAME]] += 1
        if span[_PARENT] is None:
            root_s[kind] += span[_DUR]
    return Profile(self_s, calls, root_s)


def dump(spans: List[list], path: str) -> None:
    """Write spans as JSON lines: ``id, name, start, end, parent, op, self_ms``.

    ``start``/``end`` are ``time.perf_counter()`` seconds; ``busy_ms`` is
    present only for generator spans (time inside ``next()``).
    """
    ids = {id(span): index for index, span in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as out:
        for index, span in enumerate(spans):
            parent = span[_PARENT]
            record = {
                "id": index,
                "name": span[_NAME],
                "start": span[_START],
                "end": span[_END],
                "parent": ids.get(id(parent)) if parent is not None else None,
                "op": "".join(map(str, span[_OP])) if span[_OP] else None,
                "self_ms": (span[_DUR] - span[_CHILD]) * 1e3,
            }
            elapsed = span[_END] - span[_START]
            if abs(elapsed - span[_DUR]) > 1e-9:
                record["busy_ms"] = span[_DUR] * 1e3
            out.write(json.dumps(record) + "\n")
