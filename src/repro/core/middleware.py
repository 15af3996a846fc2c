"""The Zidian middleware facade — modules M1 + M2 glued together (§5.1).

Workflow for a query Q over relational schema R, given BaaV schema R̃:

1. M1: decide whether Q can be answered over R̃ (Condition II on min(Q));
   decide scan-freeness (Condition III) and boundedness (degrees).
2. M2: generate a KBA plan — scan-free only if Q is — falling back to KV
   instance scans (and, when allowed, TaaV scans) for uncovered parts.

Parallelization (M3) lives in :mod:`repro.parallel`; schema design (M4) in
:mod:`repro.core.t2b`.

:meth:`Zidian.planned` is what a system executes through: it plans a
statement's *shape* once and binds each statement's literals into the
result (``docs/ARCHITECTURE.md``, "Statement shapes and plan reuse").
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.baav.schema import BaaVSchema
from repro.baav.store import BaaVStore
from repro.core import preservation, scanfree
from repro.core.candidates import CandidateTable
from repro.core.plangen import PlanGenerator, ZidianPlan
from repro.kba import plan as kp
from repro.locks import make_lock
from repro.relational.schema import DatabaseSchema
from repro.sql import ast
from repro.sql.lexer import literal_value, shape
from repro.sql.minimize import minimize
from repro.sql.parser import parse
from repro.sql.planner import BoundQuery, bind
from repro.sql.spc import SPCAnalysis, analyze
from repro.tally import ShardSet, tally

#: entries the shape map keeps, least recently used first out: one per
#: shape (which of its literals are parameters) and one per template. A
#: template over AIRCA's 100-attribute FLIGHT measures ≈ 42 KB
#: (tracemalloc, 12 templates; its scan-free report's closures), so the
#: map is ≈ 5.4 MB full at worst; the e2e benchmark's four workloads use
#: 19, 12, 12 and 8 entries (``docs/PERFORMANCE.md``, "ISSUE 24")
SHAPE_CACHE_SIZE = 256


@tally
class ShapeCounters:
    """What the shape map of one :class:`Zidian` did."""

    #: statements bound from a stored template / planned afresh
    hits: int = 0
    misses: int = 0
    #: entries dropped for room / for an index catalog or BaaV schema change
    evictions: int = 0
    invalidations: int = 0


@dataclass
class QueryDecision:
    """M1's verdict for one query."""

    bound: BoundQuery
    analysis: SPCAnalysis
    minimized: SPCAnalysis
    preservation: preservation.ResultPreservationReport
    scan_free: scanfree.ScanFreeReport
    bounded: Optional[scanfree.BoundedReport] = None
    #: the candidate table of ``analysis``, for M2 to reuse
    candidates: Optional[CandidateTable] = None

    @property
    def answerable(self) -> bool:
        """Can Q be answered entirely over the BaaV store?"""
        return self.preservation.preserved

    @property
    def is_scan_free(self) -> bool:
        return self.scan_free.scan_free

    @property
    def is_bounded(self) -> bool:
        return self.bounded is not None and self.bounded.bounded

    def summary(self) -> str:
        parts = [
            f"answerable={self.answerable}",
            f"scan_free={self.is_scan_free}",
        ]
        if self.bounded is not None:
            parts.append(f"bounded={self.bounded.bounded}")
        if not self.preservation.preserved:
            parts.append(f"missing={self.preservation.missing}")
        return " ".join(parts)


class Template(tuple):
    """A shape's ``(plan, decision)``, which nothing may mutate, and the
    ``executable`` a system compiled of the plan (``None`` until then)."""

    executable: object = None


class _BoundDecision(QueryDecision):
    """A template's verdict over one statement's values: the degree
    check is made at once, the rest is bound when first read."""

    def __init__(self, template: QueryDecision, binder: ast.Binder, bounded) -> None:
        self.preservation = template.preservation
        self.bounded = bounded
        self.candidates = None
        self._from = (template, binder)

    def __getattr__(self, name: str):
        if name not in ("bound", "analysis", "minimized", "scan_free"):
            raise AttributeError(name)
        template, binder = self._from
        stmt = template.bound.stmt
        if stmt.where is not None:
            stmt = ast.altered(stmt, where=binder.expr(stmt.where))
        bound = BoundQuery(stmt, template.bound.schema, template.bound.aliases)
        analysis = template.analysis.bind(bound, binder)
        minimized = analysis  # min(Q) is Q itself, or a clone with fewer atoms
        if template.minimized is not template.analysis:
            minimized = template.minimized.bind(bound, binder)
        scan_free = template.scan_free
        if scan_free.index_covered:
            covered = scan_free.index_covered.items()
            covered = {alias: choice.bind(binder) for alias, choice in covered}
            scan_free = replace(scan_free, index_covered=covered)
        self.__dict__.update(
            bound=bound, analysis=analysis, minimized=minimized, scan_free=scan_free
        )
        return self.__dict__[name]


class Bound:
    """One SELECT bound from its shape's template: the statement's
    values and verdict. Unpacks as the ``(plan, decision)``
    :meth:`Zidian.plan` returns for it; the plan is built when read."""

    def __init__(self, template: Template, binder: ast.Binder, decision) -> None:
        self.template = template
        self.binder = binder
        self.decision = decision

    @cached_property
    def plan(self) -> ZidianPlan:
        plan = self.template[0]
        root = kp.bind(plan.root, self.binder)
        bound = self.decision.bound
        return ast.altered(plan, root=root, bound=bound, access=dict(plan.access))

    def __iter__(self):
        return iter((self.plan, self.decision))


class Zidian:
    """The middleware: query checking and KBA plan generation."""

    def __init__(
        self,
        schema: DatabaseSchema,
        baav_schema: BaaVSchema,
        store: Optional[BaaVStore] = None,
        degree_bound: int = scanfree.DEFAULT_DEGREE_BOUND,
        allow_taav_fallback: bool = True,
        use_stats: bool = True,
        index_catalog=None,
    ) -> None:
        self.schema = schema
        self.baav_schema = baav_schema
        # derive the schema's query-independent facts (closures,
        # per-relation lists) here rather than inside the first query
        baav_schema.closures()
        self.store = store
        self.degree_bound = degree_bound
        #: live secondary-index catalog (repro.index.IndexManager):
        #: consulted at decide/plan time, so indexes created or dropped
        #: after construction are seen immediately. Index probes fetch
        #: TaaV tuples, so without the TaaV fallback the generator
        #: cannot use an index — the verdict must not claim it either.
        self.index_catalog = (
            index_catalog if allow_taav_fallback else None
        )
        self.generator = PlanGenerator(
            baav_schema,
            allow_taav_fallback=allow_taav_fallback,
            use_stats=use_stats,
            index_catalog=index_catalog,
        )
        #: shape -> its parameter positions; shape key -> its template
        #: (:meth:`planned`), as of ``_shapes_generation``
        self._shapes: "OrderedDict[object, object]" = OrderedDict()
        self._shapes_generation = (0, 0)
        self._shapes_lock = make_lock("Zidian._shapes_lock")
        self.shape_stats: ShardSet[ShapeCounters] = ShardSet(ShapeCounters)

    # -- M1 ------------------------------------------------------------------

    def data_preserving(self) -> preservation.PreservationReport:
        """Condition (I) for the whole database schema."""
        return preservation.is_data_preserving(self.schema, self.baav_schema)

    def _bound(self, query: Union[str, BoundQuery]) -> BoundQuery:
        if isinstance(query, BoundQuery):
            return query
        return bind(parse(query), self.schema)

    def decide(self, query: Union[str, BoundQuery]) -> QueryDecision:
        """Run the M1 checks for one query."""
        bound = self._bound(query)
        analysis = analyze(bound)
        minimized = minimize(analysis)
        pres = preservation.is_result_preserving(
            analysis, self.baav_schema, minimized
        )
        # one candidate table serves the M1 checks (over min(Q)) and M2
        # (over Q) unless minimization removed an atom
        table = CandidateTable(analysis, self.baav_schema)
        sf_report = scanfree.is_scan_free(
            analysis,
            self.baav_schema,
            minimized,
            index_catalog=self.index_catalog,
            table=table if len(minimized.atoms) == len(analysis.atoms) else None,
        )
        return QueryDecision(
            bound=bound,
            analysis=analysis,
            minimized=minimized,
            preservation=pres,
            scan_free=sf_report,
            bounded=self._bounded(analysis, sf_report),
            candidates=table,
        )

    def _bounded(
        self, analysis: SPCAnalysis, report: scanfree.ScanFreeReport
    ) -> Optional[scanfree.BoundedReport]:
        """The degree check over the store as it is now."""
        if self.store is None:
            return None
        return scanfree.is_bounded(
            analysis,
            self.store,
            degree_bound=self.degree_bound,
            scan_free_report=report,
        )

    # -- M2 ------------------------------------------------------------------

    def plan(
        self, query: Union[str, BoundQuery]
    ) -> "tuple[ZidianPlan, QueryDecision]":
        """Decide and generate the KBA plan for a query."""
        decision = self.decide(query)
        plan = self.generator.generate(
            decision.bound, decision.analysis, decision.candidates
        )
        return plan, decision

    # -- shapes ----------------------------------------------------------------

    def planned(self, sql: str):
        """What a system executes for ``sql``: per SELECT of the
        statement a :class:`Bound`, which unpacks as what :meth:`plan`
        returns for it now — a compound statement's nested as
        :class:`ast.CompoundSelect` nests its sides.

        The statement's *shape* is planned once (a miss: today's parse →
        bind → :meth:`plan`, over parameters that remember their slot)
        and kept as a :class:`Template`; a statement of the shape is its
        template and its literals. M1's degree check is made live on
        every statement; the rest of a bound plan and verdict is built
        only when read."""
        skeleton, literals = shape(sql)
        counters = self.shape_stats.local()
        template = key = None
        values: Sequence[object] = ()
        with self._shapes_lock:
            generation = self._sync_shapes(counters)
            slots = self._shapes.get(skeleton) if literals is not None else None
            if slots is not None:
                values, key = _shape_key(skeleton, literals, slots)
                template = self._shapes.get(key)
                if template is not None:
                    self._shapes.move_to_end(skeleton)
                    self._shapes.move_to_end(key)
        if template is not None:
            counters.hits += 1
        else:
            counters.misses += 1
            # a comment would shift the literals' positions: plan such a
            # text as it stands and keep nothing
            found: Optional[List[int]] = None if literals is None else []
            template = _each_select(parse(sql, found), self._template)
            if found is not None:
                if key is None:  # the shape itself is new
                    values, key = _shape_key(skeleton, literals, found)
                self._keep(generation, {skeleton: tuple(found), key: template})
        binder = ast.Binder(values)
        return _each_select(template, lambda each: self._bind(each, binder))

    def _sync_shapes(self, counters: ShapeCounters) -> Tuple[int, int]:
        """Drop every template planned over another index catalog or
        BaaV schema (which only grows: its size is its generation);
        the generation of the two now."""
        # repro-lint: holds=_shapes_lock -- every caller takes it first
        catalog = self.index_catalog
        generation = (
            0 if catalog is None else catalog.generation,
            len(self.baav_schema),
        )
        if generation != self._shapes_generation:
            counters.invalidations += len(self._shapes)
            self._shapes.clear()
            self._shapes_generation = generation
        return generation

    def _keep(self, generation: Tuple[int, int], entries: dict) -> None:
        counters = self.shape_stats.local()
        with self._shapes_lock:
            # planned across a catalog change: fit for this statement
            # (it raced the DDL either way), not for the next
            if self._sync_shapes(counters) == generation:
                for key in entries:
                    self._shapes.pop(key, None)  # so that it lands last
                self._shapes.update(entries)
                while len(self._shapes) > SHAPE_CACHE_SIZE:
                    self._shapes.popitem(last=False)
                    counters.evictions += 1

    def clear_shapes(self) -> None:
        """Forget every shape (profiling the miss path; tests)."""
        with self._shapes_lock:
            self._shapes.clear()

    def _template(self, stmt: ast.SelectStmt) -> "Tuple[ZidianPlan, QueryDecision]":
        plan, decision = self.plan(bind(stmt, self.schema))
        # a template is kept: not with the table M2 has finished with,
        # and with the summary every plan bound from it will show
        decision.candidates = None
        _ = plan.access_summary
        return Template((plan, decision))

    def _bind(self, template: "Template", binder: ast.Binder) -> "Bound":
        # the degree check reads the store as it is now; of the scan-free
        # report, binding changes only its index choices' literals
        decision = template[1]
        bounded = self._bounded(decision.analysis, decision.scan_free)
        return Bound(template, binder, _BoundDecision(decision, binder, bounded))

    # -- diagnostics ------------------------------------------------------------

    def explain(self, query: Union[str, BoundQuery]) -> str:
        """Human-readable account of the M1 checks and the M2 plan.

        Shows the minimized atoms, per-alias X attributes, the GET
        chasing sequence, the Condition (III) witnesses, and the
        generated KBA plan — the trace of Example 7.
        """
        plan, decision = self.plan(query)
        lines = [f"query    : {decision.bound.stmt}"]
        lines.append(f"verdict  : {decision.summary()}")
        minimized = decision.minimized
        lines.append(
            "min(Q)   : " + ", ".join(
                f"{alias}:{rel}" for alias, rel in sorted(
                    minimized.atoms.items()
                )
            )
        )
        for alias in sorted(minimized.atoms):
            x_attrs = ", ".join(sorted(minimized.x_attrs(alias)))
            lines.append(f"  X[{alias}] = {{{x_attrs}}}")
        get = decision.scan_free.get
        if get is not None and get.steps:
            lines.append("chase    :")
            for step in get.steps:
                probes = ", ".join(
                    f"{kv}<-{src}" for kv, src in step.probes
                )
                lines.append(
                    f"  ∝ {step.schema.name} [{step.alias}] on ({probes})"
                )
        if decision.scan_free.witnesses:
            lines.append("witnesses:")
            for alias, entry in sorted(decision.scan_free.witnesses.items()):
                lines.append(f"  {alias}: clo({entry.schema.name})")
        if decision.scan_free.index_covered:
            lines.append("indexes  :")
            for alias, choice in sorted(
                decision.scan_free.index_covered.items()
            ):
                lines.append(f"  {alias}: {choice.describe()}")
        if decision.scan_free.missing:
            lines.append("uncovered:")
            for alias in sorted(decision.scan_free.missing):
                unreached = decision.scan_free.unreachable[alias]
                cause = (
                    f"cannot reach {{{', '.join(sorted(unreached))}}} "
                    "from the query's constants"
                    if unreached
                    else f"no single verifiable combination covers X[{alias}]"
                )
                lines.append(f"  {alias}: {cause}")
        if decision.bounded is not None and decision.bounded.degrees:
            degrees = ", ".join(
                f"{name}={deg}"
                for name, deg in sorted(decision.bounded.degrees.items())
            )
            lines.append(f"degrees  : {degrees} "
                         f"(bound {decision.bounded.degree_bound})")
        lines.append(f"access   : {plan.access}")
        lines.append("plan     :")
        for line in plan.root.describe().splitlines():
            lines.append("  " + line)
        return "\n".join(lines)


def _each_select(stmt, fn: Callable):
    """``fn`` of ``stmt``, or of each side of a compound statement in
    its nesting."""
    if isinstance(stmt, ast.CompoundSelect):
        return ast.CompoundSelect(stmt.op, _each_select(stmt.left, fn), fn(stmt.right))
    return fn(stmt)


def _shape_key(
    skeleton: Tuple[str, ...], literals: Sequence[str], slots: Sequence[int]
) -> "Tuple[List[object], tuple]":
    """The parameter values of a statement, and everything planning its
    shape may have read: the text without its literals, each literal
    that is not a parameter, each parameter's type, and how the
    parameters are ordered among themselves (ties included) — planning
    compares literals with each other and with nothing else."""
    marks: List[object] = list(literals)
    values = []
    for position in slots:
        value = literal_value(literals[position])
        values.append(value)
        marks[position] = type(value)
    if len(values) < 2:  # nothing to order
        return values, (skeleton, tuple(marks), (0,) * len(values))
    # strings after numbers: the two never compare
    ordered = sorted(set(values), key=lambda v: (isinstance(v, str), v))
    ranks = {value: rank for rank, value in enumerate(ordered)}
    return values, (skeleton, tuple(marks), tuple([ranks[v] for v in values]))
