"""The counter spine: a counter set is declared once and sharded once.

Every number the evaluation reports (``#get``, ``#data``, ``comm``, the
simulated time priced from them) is read off a :func:`tally` class routed
through a :class:`ShardSet`. ``docs/ARCHITECTURE.md`` ("Counters") says
which lock each owner holds around its snapshot and why.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import TYPE_CHECKING, Any, Callable, Generic, TypeVar, cast

from repro.locks import make_lock

if TYPE_CHECKING:  # typing.dataclass_transform is 3.11+; mypy ships this
    from typing_extensions import dataclass_transform
else:
    def dataclass_transform() -> Callable[[Any], Any]:
        return lambda decorator: decorator

T = TypeVar("T", bound="Tally")


class Tally:
    """What :func:`tally` writes onto a counter set — the typed face of
    the generated methods; every counter set derives from it."""

    __slots__ = ()

    def add(self: T, other: T) -> None:
        """Fold ``other`` into this set, field by field."""
        raise NotImplementedError

    def reset(self) -> None:
        """Put every field back to its declared default."""
        raise NotImplementedError

    def copy(self: T) -> T:
        """A private instance with the same field values."""
        raise NotImplementedError


@dataclass_transform()
def tally(cls: type[T]) -> type[T]:
    """Class decorator: ``@dataclass`` plus the :class:`Tally` methods,
    written out as straight-line code over ``dataclasses.fields(cls)``
    (the way ``dataclasses`` generates ``__init__`` — the fold costs what
    a hand-written one does). A field added to a counter set is summed,
    zeroed and copied with no further edit."""
    made: Any = dataclasses.dataclass(cls)
    fields = dataclasses.fields(made)
    for field in fields:
        if type(field.default) not in (int, float):
            raise TypeError(
                f"{cls.__name__}.{field.name}: a tally field needs an "
                f"int or float default"
            )
    lines = ["def add(self, other):"]
    lines += [f"    self.{f.name} += other.{f.name}" for f in fields]
    lines += ["def reset(self):"]
    lines += [f"    self.{f.name} = {f.default!r}" for f in fields]
    lines += ["def copy(self):", "    return self.__class__("]
    lines += [f"        self.{f.name}," for f in fields]
    lines += ["    )"]
    namespace: dict[str, Any] = {"__name__": cls.__module__}
    exec("\n".join(lines), namespace)
    for name in ("add", "reset", "copy"):
        namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(made, name, namespace[name])
    return cast("type[T]", made)


class ShardSet(Generic[T]):
    """Per-thread shards of a counter set, with a stable registry.

    Each thread gets a private shard on first use (via
    ``threading.local``, NOT the thread ident — idents are recycled
    after a thread dies, and a recycled ident must not let a new
    thread read or reset a dead thread's counts). Shards are only ever
    *mutated* by their owning thread, so hot-path increments need no
    lock and are never lost.

    Dead threads' history is preserved WITHOUT unbounded growth: the
    registry remembers each shard's owning thread, and aggregation /
    registration sweeps fold shards of finished threads into one
    *retired* accumulator (safe — a finished thread can no longer
    mutate its shard), keeping the registry O(live threads) on
    long-lived stacks with thread churn.
    """

    __slots__ = ("_factory", "_local", "_entries", "_retired", "_lock")

    def __init__(self, factory: Callable[[], T]) -> None:
        self._factory = factory
        self._local = threading.local()
        #: (owning thread, shard) for every live registration
        self._entries: list[tuple[threading.Thread, T]] = []
        #: folded history of finished threads (created lazily)
        self._retired: T | None = None
        self._lock = make_lock("ShardSet._lock")

    def _sweep_locked(self) -> None:
        # repro-lint: holds=_lock -- every caller takes self._lock first
        survivors: list[tuple[threading.Thread, T]] = []
        for thread, shard in self._entries:
            if thread.is_alive():
                survivors.append((thread, shard))
            else:
                if self._retired is None:
                    self._retired = self._factory()
                self._retired.add(shard)
        self._entries = survivors

    def local(self) -> T:
        """The calling thread's shard (created and registered on first
        use) — the only object increments go through."""
        # annotated, not cast(): a call that builds Optional[T] on every
        # counter touch is measurable on the query hot path
        shard: T | None = getattr(self._local, "shard", None)
        if shard is None:
            shard = self._factory()
            with self._lock:
                self._sweep_locked()
                self._entries.append((threading.current_thread(), shard))
            self._local.shard = shard
        return shard

    def peek(self) -> T | None:
        """The calling thread's live shard, or ``None`` if it never
        counted (registers nothing)."""
        shard: T | None = getattr(self._local, "shard", None)
        return shard

    def thread(self) -> T:
        """A copy of the calling thread's shard — zeros if it never
        counted (registers nothing). What a per-query probe diffs."""
        shard = self.peek()
        return self._factory() if shard is None else shard.copy()

    def all(self) -> list[T]:
        """Every live shard plus the retired accumulator (reset sweeps —
        a reset must reset the retired history too)."""
        with self._lock:
            self._sweep_locked()
            out = [shard for _, shard in self._entries]
            if self._retired is not None:
                out.append(self._retired)
            return out

    def total(self) -> T:
        """The sum over every live shard and the retired accumulator.
        Other threads keep counting meanwhile: an owner whose fields are
        tied by an invariant calls this under the lock they count under."""
        total = self._factory()
        for shard in self.all():
            total.add(shard)
        return total
