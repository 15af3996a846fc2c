"""Aggregate accumulators with bag-multiplicity support.

KBA intermediates carry multiplicity counts (block compression, §8.2), so
every accumulator takes ``(value, count)``: adding value ``v`` with count
``c`` behaves like adding ``v`` ``c`` times.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from repro.errors import ExecutionError


class Accumulator:
    """Base aggregate accumulator."""

    def add(self, value: object, count: int = 1) -> None:
        raise NotImplementedError

    def result(self) -> object:
        raise NotImplementedError


class SumAcc(Accumulator):
    def __init__(self) -> None:
        self._total: Optional[float] = None

    def add(self, value: object, count: int = 1) -> None:
        if value is None:
            return
        increment = value * count
        self._total = increment if self._total is None else self._total + increment

    def result(self) -> object:
        return self._total


class CountAcc(Accumulator):
    """COUNT(expr): counts non-NULL values; COUNT(*) passes value=True."""

    def __init__(self) -> None:
        self._count = 0

    def add(self, value: object, count: int = 1) -> None:
        if value is not None:
            self._count += count

    def result(self) -> object:
        return self._count


class AvgAcc(Accumulator):
    def __init__(self) -> None:
        self._total = 0.0
        self._count = 0

    def add(self, value: object, count: int = 1) -> None:
        if value is None:
            return
        self._total += value * count
        self._count += count

    def result(self) -> object:
        if self._count == 0:
            return None
        return self._total / self._count


class MinAcc(Accumulator):
    def __init__(self) -> None:
        self._best: object = None

    def add(self, value: object, count: int = 1) -> None:
        if value is None:
            return
        if self._best is None or value < self._best:
            self._best = value

    def result(self) -> object:
        return self._best


class MaxAcc(Accumulator):
    def __init__(self) -> None:
        self._best: object = None

    def add(self, value: object, count: int = 1) -> None:
        if value is None:
            return
        if self._best is None or value > self._best:
            self._best = value

    def result(self) -> object:
        return self._best


class DistinctAcc(Accumulator):
    """Wrapper implementing DISTINCT: forwards each distinct value once."""

    def __init__(self, inner: Accumulator) -> None:
        self._inner = inner
        self._seen: Set[object] = set()

    def add(self, value: object, count: int = 1) -> None:
        if value is None or value in self._seen:
            return
        self._seen.add(value)
        self._inner.add(value, 1)

    def result(self) -> object:
        return self._inner.result()


_FACTORIES: dict = {
    "SUM": SumAcc,
    "COUNT": CountAcc,
    "AVG": AvgAcc,
    "MIN": MinAcc,
    "MAX": MaxAcc,
}


def make_accumulator(func: str, distinct: bool = False) -> Accumulator:
    """Create an accumulator for aggregate ``func`` (upper-case name)."""
    try:
        factory: Callable[[], Accumulator] = _FACTORIES[func]
    except KeyError:
        raise ExecutionError(f"unknown aggregate function {func!r}") from None
    acc = factory()
    if distinct:
        return DistinctAcc(acc)
    return acc
