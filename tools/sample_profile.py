#!/usr/bin/env python3
"""Sampling profiler over one end-to-end benchmark workload.

``cProfile`` charges every Python call the same fixed cost, so
call-heavy code (a ``row_size`` per value row, a generator expression
per tuple) reads about 3x what it costs untraced; the benchmark's own
``--trace 1`` only times the ~40 public callables it patches. This tool
interrupts the program instead: ``signal.setitimer(ITIMER_PROF)`` fires
every millisecond of CPU time, the handler reads the interrupted stack,
and nothing else is touched, so the shares it prints are shares of the
untraced run.

Per function (``package/module.py:name``) over N passes of a workload's
seeded op list it reports

* **self** — samples whose *innermost* ``repro`` frame was the function
  (time in the C calls it makes — ``struct``, ``hashlib``, ``bisect`` —
  is charged to it, which is what an optimiser wants to know), and
* **cum** — samples with the function anywhere on the stack.

It imports ``benchmarks/e2e`` read-only: the deployment, the op list and
the pass loop are the benchmark's own.

    python tools/sample_profile.py --workload analytic_local --passes 8
    python tools/sample_profile.py --match "D.cause" --gc
    python tools/sample_profile.py --workload scanfree_local --cold
    python tools/sample_profile.py --workload scanfree_local --phases
    python tools/sample_profile.py --smoke

``--phases`` times, instead of sampling, where a statement's wall-clock
goes between the layers (:data:`PHASES`: the service, the system,
binding the plan, building the engine, the walk around the operators,
the operators, the RA top and the result relation), in µs per op.

``--match SUBSTR`` keeps only the ops whose SQL contains the string (one
template's profile); ``--gc`` also prints, per pass, what the cyclic
collector did: collections per generation, milliseconds inside it and
objects it freed (``gc.callbacks``, installed around the sampled passes
only — each pass starts with the benchmark's own ``gc.collect()``,
which is one of the generation-2 collections). Every pass also prints
how many of its statements were bound from a stored plan template and
how many were planned (``Zidian.shape_stats``); ``--cold`` forgets the
templates before every statement, so the profile is the miss path's.
"""

from __future__ import annotations

import argparse
import gc
import signal
import sys
import threading
import time
from importlib import import_module
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import FrameType
from typing import Dict, Iterator, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
_SRC = str(REPO / "src") + "/"

#: sampling interval in seconds of process CPU time
INTERVAL_S = 0.001


class Sampler:
    """Counts, per ``repro`` function, the samples it was innermost in
    (``self_samples``) and the samples it was on the stack of
    (``cum_samples``), while :meth:`running`."""

    def __init__(self) -> None:
        self.total = 0
        self.self_samples: Counter = Counter()
        self.cum_samples: Counter = Counter()
        self._names: Dict[object, Optional[str]] = {}

    def _name(self, frame: FrameType) -> Optional[str]:
        code = frame.f_code
        name = self._names.get(code, "")
        if name == "":
            filename = code.co_filename
            name = self._names[code] = (
                f"{filename[len(_SRC) + len('repro/'):]}:"
                f"{getattr(code, 'co_qualname', code.co_name)}"
                if filename.startswith(_SRC)
                else None
            )
        return name

    def _sample(self, _signum: int, frame: Optional[FrameType]) -> None:
        self.total += 1
        innermost = True
        seen = set()
        while frame is not None:
            name = self._name(frame)
            if name is not None:
                if innermost:
                    self.self_samples[name] += 1
                    innermost = False
                if name not in seen:
                    seen.add(name)
                    self.cum_samples[name] += 1
            frame = frame.f_back

    @contextmanager
    def running(self) -> Iterator["Sampler"]:
        """Sample the calling (main) thread until the block exits."""
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)

    def rows(self, top: int) -> List[Tuple[str, float, float]]:
        """``(function, self share, cumulative share)`` by self share."""
        total = max(1, self.total)
        return [
            (name, count / total, self.cum_samples[name] / total)
            for name, count in self.self_samples.most_common(top)
        ]


#: (phase, module, class or ``None``, attribute): the callables
#: ``--phases`` times. A phase's time is its calls' own, less the calls
#: to the phases nested in them; a callable a tree lacks is skipped, so
#: the table reads the same on a tree before and after a change.
PHASES = (
    ("service", "repro.service.service", "Session", "execute"),
    ("system", "repro.systems.sql_over_nosql", "ZidianSystem", "execute"),
    ("bind (Zidian.planned)", "repro.core.middleware", "Zidian", "planned"),
    ("engine build + prologue", "repro.systems.sql_over_nosql", "KVSystem", "_engine"),
    ("engine build + prologue", "repro.parallel.engine", "_Engine", "_begin"),
    ("walk + meter", "repro.parallel.engine", "ZidianEngine", "execute"),
    ("operators (execute_node)", "repro.kba.executor", None, "execute_node"),
    ("RA top + relation", "repro.parallel.engine", None, "substitute_table"),
    ("RA top + relation", "repro.parallel.engine", None, "ra_run"),
    ("RA top + relation", "repro.parallel.engine", "Executable", "top"),
    ("RA top + relation", "repro.systems.sql_over_nosql", None, "to_relation"),
)


class Phases:
    """Wall seconds per phase of :data:`PHASES`, while :meth:`installed`."""

    def __init__(self) -> None:
        self.seconds: Counter = Counter()
        self.ops = 0
        self._local = threading.local()

    def _timed(self, phase: str, fn):
        local, seconds, clock = self._local, self.seconds, time.perf_counter

        def timed(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                seconds[phase] += took - stack.pop()
                if stack:
                    stack[-1] += took

        return timed

    @contextmanager
    def installed(self) -> Iterator["Phases"]:
        """Swap every callable of :data:`PHASES` for a timing shim — a
        module function in each loaded ``repro`` module holding it — and
        put the originals back afterwards."""
        patched = []
        for phase, module_name, owner, attr in PHASES:
            module = import_module(module_name)
            loaded = [m for n, m in list(sys.modules.items()) if n.startswith("repro")]
            if owner is None:
                original = getattr(module, attr, None)
                holders = [m for m in loaded if getattr(m, attr, None) is original]
            else:
                holder = getattr(module, owner, None)
                original = None if holder is None else vars(holder).get(attr)
                holders = [holder]
            if original is None:
                continue
            for holder in holders:
                patched.append((holder, attr, original))
                setattr(holder, attr, self._timed(phase, original))
        try:
            yield self
        finally:
            for holder, attr, original in reversed(patched):
                setattr(holder, attr, original)

    def lines(self) -> List[str]:
        ops = max(1, self.ops)
        total = sum(self.seconds.values())
        out = [f"{'µs/op':>8}  phase (over {self.ops} ops)"]
        for phase in dict.fromkeys(phase for phase, *_ in PHASES):
            out.append(f"{self.seconds[phase] * 1e6 / ops:8.1f}  {phase}")
        out.append(f"{total * 1e6 / ops:8.1f}  total")
        return out


@dataclass
class PassCollections:
    """What the cyclic collector did during one pass."""

    per_generation: List[int] = field(default_factory=lambda: [0, 0, 0])
    ms: float = 0.0
    collected: int = 0


class CollectorLog:
    """One :class:`PassCollections` per pass, while :meth:`watching`."""

    def __init__(self) -> None:
        self.passes: List[PassCollections] = []
        self._started = 0.0

    def next_pass(self) -> None:
        self.passes.append(PassCollections())

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        current = self.passes[-1]
        current.ms += (time.perf_counter() - self._started) * 1e3
        current.per_generation[info["generation"]] += 1
        current.collected += info["collected"]

    @contextmanager
    def watching(self) -> Iterator["CollectorLog"]:
        gc.callbacks.append(self._on_gc)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)

    def lines(self) -> List[str]:
        return [
            f"# gc pass {index}: collections "
            f"{'/'.join(map(str, each.per_generation))} (gen 0/1/2), "
            f"{each.ms:.1f} ms in the collector, "
            f"{each.collected} objects collected"
            for index, each in enumerate(self.passes)
        ]


def profile(
    workload: str,
    seed: int,
    passes: int,
    smoke: bool,
    match: str = "",
    collector: Optional[CollectorLog] = None,
    cold: bool = False,
    phases: Optional[Phases] = None,
) -> Tuple[Sampler, List[str]]:
    """Sample ``passes`` replays of ``workload``'s op list — of its ops
    whose SQL contains ``match`` — after the benchmark's own answer
    check, which is also the warm-up. ``collector`` logs each pass;
    ``cold`` forgets every plan template before each statement;
    ``phases``, when given, times the passes instead of sampling them.
    Returns the sampler and one plan-reuse line per pass."""
    for path in (str(REPO), _SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.e2e.bench import Runner
    from benchmarks.e2e.workloads import WORKLOADS, Deployment

    sampler = Sampler()
    reuse: List[str] = []
    with Deployment(WORKLOADS[workload], smoke) as deployment:
        system = deployment.system
        shapes = system.middleware.shape_stats
        if cold:
            execute = system.execute

            def cold_execute(sql: str):
                system.middleware.clear_shapes()
                return execute(sql)

            system.execute = cold_execute
        runner = Runner(deployment, seed, smoke)
        runner.ops = [sql for sql in runner.ops if match in sql]
        if not runner.ops:
            raise SystemExit(f"no op of {workload} contains {match!r}")
        _, wrong = runner.check_answers()
        if wrong:
            raise SystemExit(f"{wrong} wrong answers on {workload}")
        watching = nullcontext() if collector is None else collector.watching()
        measuring = sampler.running() if phases is None else phases.installed()
        with watching, measuring:
            for _ in range(passes):
                if collector is not None:
                    collector.next_pass()
                before = shapes.total()
                done = runner.run_pass()
                if done.failed:
                    raise SystemExit(f"failed ops on {workload}")
                if phases is not None:
                    phases.ops += len(done.latencies)
                after = shapes.total()
                hits = after.hits - before.hits
                misses = after.misses - before.misses
                reuse.append(
                    f"# shapes pass {len(reuse)}: {hits} bound, {misses} "
                    f"planned ({hits / max(1, hits + misses):.1%} reused)"
                )
    return sampler, reuse


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="analytic_local")
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--passes", type=int, default=8)
    parser.add_argument("--top", type=int, default=30)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny data, one pass: checks the tool, not the program",
    )
    parser.add_argument(
        "--match",
        default="",
        metavar="SUBSTR",
        help="keep only the ops whose SQL contains SUBSTR",
    )
    parser.add_argument(
        "--gc",
        action="store_true",
        help="also print, per pass, what the cyclic collector did",
    )
    parser.add_argument(
        "--cold",
        action="store_true",
        help="forget every plan template before each statement",
    )
    parser.add_argument(
        "--phases",
        action="store_true",
        help="time the layers of a statement (µs per op) instead of sampling",
    )
    args = parser.parse_args(argv)
    passes = 1 if args.smoke else args.passes
    collector = CollectorLog() if args.gc else None
    phases = Phases() if args.phases else None
    sampler, reuse = profile(
        args.workload,
        args.seed,
        passes,
        args.smoke,
        args.match,
        collector,
        args.cold,
        phases,
    )
    if phases is not None:
        print(f"# {args.workload} seed {args.seed}: {passes} passes, timed")
        print("\n".join(reuse + phases.lines()))
        return 0
    print(
        f"# {args.workload} seed {args.seed}: {sampler.total} samples "
        f"at {INTERVAL_S * 1e3:g} ms over {passes} passes"
    )
    if collector is not None:
        print("\n".join(collector.lines()))
    print("\n".join(reuse))
    print(f"{'self':>7} {'cum':>7}  function")
    for name, self_share, cum_share in sampler.rows(args.top):
        print(f"{self_share:7.1%} {cum_share:7.1%}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
