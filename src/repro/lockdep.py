"""A runtime lock-order sanitizer (mini-lockdep) for the repro stack.

Deadlocks are ordering bugs: thread 1 takes lock A then B while thread 2
takes B then A. Neither run deadlocks on its own — the bug only fires
when the two interleave, which stress tests hit rarely and CI almost
never. This module removes the interleaving requirement: it records the
*ordering* each thread uses (an edge A→B whenever B is acquired with A
held) into one global graph, and the moment any acquisition would close
a cycle in that graph it raises :class:`repro.errors.LockOrderError`
with the witness stacks of both sides. A latent ABBA deadlock is thus
caught by ANY run that exercises both orderings — even a single-threaded
one, even when no deadlock actually happened.

The sanitizer is **opt-in** and zero-cost when off:

* ``REPRO_LOCKDEP=1`` in the environment (checked once, at import of
  :mod:`repro.locks`) makes the lock factories in ``repro.locks`` return
  instrumented primitives; anything else returns raw ``threading``
  objects with no wrapper at all.
* tests can force it per-instance via :func:`instrument` /
  :class:`LockdepRegistry` regardless of the environment.

What is tracked: ``threading.Lock`` / ``RLock`` / ``Condition`` built
through :func:`repro.locks.make_lock` / ``make_rlock`` /
``make_condition``, and both sides of :class:`repro.locks.RWLock` (the
read and write side map to the same node — a read/write inversion on the
same pair of RWLocks is still an inversion). Each lock is a *node* named
at construction (``"ShardSet._lock"``) so reports speak the
architecture's language, with a serial number to separate instances.

Known limitations, accepted on purpose: ``Condition.wait`` releases the
lock and re-acquires it — we model the re-acquire as a fresh acquisition
(correct for ordering); edges are never forgotten, so the graph
monotonically grows toward the union of all orderings ever seen (that is
the point); per-instance tracking means two instances of the same class
are distinct nodes (a self-join ABBA between two ShardSets is real and
is reported).
"""

from __future__ import annotations

import threading
import traceback
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.env import env_flag
from repro.errors import LockOrderError

__all__ = [
    "LockdepRegistry",
    "enabled",
    "global_registry",
    "instrument",
]


def enabled() -> bool:
    """True when the environment opts into lock-order checking."""
    return env_flag("REPRO_LOCKDEP", False)


def _capture_stack(skip: int = 2) -> str:
    """A compact formatted stack for witness reports (most recent last)."""
    frames = traceback.format_stack()[:-skip]
    return "".join(frames[-6:])


class LockdepRegistry:
    """The global ordering graph plus per-thread held-lock stacks.

    Nodes are instrumented locks (by identity); a directed edge A→B means
    "some thread acquired B while holding A", and carries the stack that
    first created it. Before recording a new edge A→B the registry walks
    the existing graph from B: if A is reachable, the new edge closes a
    cycle and :class:`LockOrderError` is raised with both witnesses.
    """

    def __init__(self) -> None:
        self._mu = threading.Lock()
        #: edges[(holder_name, acquired_name)] = witness stack of first use
        self._edges: Dict[Tuple[str, str], str] = {}
        #: adjacency over node names, for cycle walks
        self._succ: Dict[str, Set[str]] = {}
        self._held = threading.local()
        self._serials: Dict[str, int] = {}

    # -- naming -------------------------------------------------------------

    def name_for(self, base: str) -> str:
        """A unique node name ``base#N`` for a new lock instance."""
        with self._mu:
            serial = self._serials.get(base, 0)
            self._serials[base] = serial + 1
        return f"{base}#{serial}"

    # -- per-thread held stack ----------------------------------------------

    def _stack(self) -> List[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def held_names(self) -> List[str]:
        """The calling thread's currently-held nodes, outermost first."""
        return list(self._stack())

    # -- the two entry points the wrappers call -----------------------------

    def note_acquire(self, name: str) -> None:
        """Record that the calling thread acquired ``name``; raise
        :class:`LockOrderError` if this ordering closes a cycle."""
        stack = self._stack()
        if stack:
            holder = stack[-1]
            if holder != name:  # reentrant re-acquire adds no edge
                self._add_edge(holder, name)
        stack.append(name)

    def note_release(self, name: str) -> None:
        """Record a release. Out-of-stack-order releases are legal (e.g.
        hand-over-hand locking) — the *innermost* matching entry goes."""
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == name:
                del stack[i]
                return
        # releasing something never noted: a wrapper bug, not a user bug
        raise AssertionError(  # pragma: no cover
            f"lockdep: release of {name} which was never acquired"
        )

    # -- graph --------------------------------------------------------------

    def _add_edge(self, holder: str, acquired: str) -> None:
        key = (holder, acquired)
        with self._mu:
            if key in self._edges:
                return
            path = self._find_path(acquired, holder)
            if path is not None:
                witness_fwd = _capture_stack(skip=3)
                # the existing chain acquired→…→holder inverted by this
                inverted = [
                    (a, b, self._edges[(a, b)])
                    for a, b in zip(path, path[1:])
                ]
                raise LockOrderError(self._report(
                    holder, acquired, witness_fwd, inverted
                ))
            self._edges[key] = _capture_stack(skip=3)
            self._succ.setdefault(holder, set()).add(acquired)

    def _find_path(self, src: str, dst: str) -> Optional[List[str]]:
        """A path src→…→dst in the edge graph, or None (iterative DFS;
        called with ``_mu`` held)."""
        if src == dst:
            return [src]
        parent: Dict[str, str] = {}
        todo = [src]
        seen = {src}
        while todo:
            node = todo.pop()
            for nxt in self._succ.get(node, ()):
                if nxt in seen:
                    continue
                parent[nxt] = node
                if nxt == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                seen.add(nxt)
                todo.append(nxt)
        return None

    @staticmethod
    def _report(
        holder: str,
        acquired: str,
        witness_fwd: str,
        inverted: List[Tuple[str, str, str]],
    ) -> str:
        lines = [
            "lock-order inversion (latent deadlock):",
            f"  this thread holds {holder} and is acquiring {acquired}",
            "  but the opposite ordering was already established:",
        ]
        for a, b, stack in inverted:
            lines.append(f"    {a} -> {b}, first seen at:")
            lines.extend("      " + ln for ln in stack.splitlines())
        lines.append(f"  acquisition of {acquired} under {holder} at:")
        lines.extend("    " + ln for ln in witness_fwd.splitlines())
        return "\n".join(lines)

    # -- introspection (tests) ---------------------------------------------

    def edges(self) -> Dict[Tuple[str, str], str]:
        with self._mu:
            return dict(self._edges)


#: process-wide registry used by the ``repro.locks`` factories
global_registry = LockdepRegistry()


class _InstrumentedLock:
    """Wraps a Lock/RLock, reporting acquire/release to a registry.

    Supports the full ``threading.Lock`` surface the repo uses: context
    manager, ``acquire(blocking=..., timeout=...)`` (only a *successful*
    acquire is recorded), ``release``, ``locked``.
    """

    __slots__ = ("_inner", "_name", "_reg")

    def __init__(self, inner: Any, name: str, reg: LockdepRegistry) -> None:
        self._inner = inner
        self._name = name
        self._reg = reg

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        # repro-lint: disable=raw-acquire -- this IS the lock shim; the
        # caller's own with/try-finally discipline applies one level up
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._reg.note_acquire(self._name)
        return got

    def release(self) -> None:
        # repro-lint: disable=raw-acquire -- forwarding shim, see acquire
        self._inner.release()
        self._reg.note_release(self._name)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()  # repro-lint: disable=raw-acquire -- shim

    def __exit__(self, *exc: object) -> None:
        self.release()  # repro-lint: disable=raw-acquire -- shim

    def __repr__(self) -> str:  # pragma: no cover
        return f"<lockdep {self._name} wrapping {self._inner!r}>"


class _InstrumentedRLock(_InstrumentedLock):
    """RLock wrapper: same protocol (reentrancy is handled by the
    registry — a re-acquire of the held name adds no edge), plus the
    internal hooks ``Condition`` uses to release around ``wait``."""

    __slots__ = ()

    def locked(self) -> bool:  # RLock in 3.10/3.11 lacks .locked()
        if hasattr(self._inner, "locked"):  # pragma: no branch
            return self._inner.locked()
        return False  # pragma: no cover

    # Condition(wait) internals: fully release, then restore the depth.
    def _release_save(self) -> Any:
        state = self._inner._release_save()
        self._reg.note_release(self._name)
        return state

    def _acquire_restore(self, state: Any) -> None:
        self._inner._acquire_restore(state)
        self._reg.note_acquire(self._name)

    def _is_owned(self) -> bool:
        return self._inner._is_owned()


def instrument(
    lock: Any, name: str, registry: Optional[LockdepRegistry] = None
) -> Any:
    """Wrap ``lock`` (a ``threading.Lock``/``RLock``) so its orderings are
    checked against ``registry`` (the global one by default)."""
    reg = registry if registry is not None else global_registry
    node = reg.name_for(name)
    if hasattr(lock, "_release_save"):
        return _InstrumentedRLock(lock, node, reg)
    return _InstrumentedLock(lock, node, reg)


def instrument_condition(
    name: str, registry: Optional[LockdepRegistry] = None
) -> threading.Condition:
    """A ``Condition`` over an instrumented RLock: every ``with cond:``
    and every re-acquire after ``wait`` feeds the ordering graph."""
    reg = registry if registry is not None else global_registry
    inner = instrument(threading.RLock(), name, reg)
    return threading.Condition(inner)
