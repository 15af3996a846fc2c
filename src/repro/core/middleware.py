"""The Zidian middleware facade — modules M1 + M2 glued together (§5.1).

Workflow for a query Q over relational schema R, given BaaV schema R̃:

1. M1: decide whether Q can be answered over R̃ (Condition II on min(Q));
   decide scan-freeness (Condition III) and boundedness (degrees).
2. M2: generate a KBA plan — scan-free only if Q is — falling back to KV
   instance scans (and, when allowed, TaaV scans) for uncovered parts.

Parallelization (M3) lives in :mod:`repro.parallel`; schema design (M4) in
:mod:`repro.core.t2b`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.baav.schema import BaaVSchema
from repro.baav.store import BaaVStore
from repro.core import preservation, scanfree
from repro.core.candidates import CandidateTable
from repro.core.plangen import PlanGenerator, ZidianPlan
from repro.relational.schema import DatabaseSchema
from repro.sql.minimize import minimize
from repro.sql.parser import parse
from repro.sql.planner import BoundQuery, bind
from repro.sql.spc import SPCAnalysis, analyze


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
        bounded = None
        if self.store is not None:
            bounded = scanfree.is_bounded(
                analysis,
                self.store,
                degree_bound=self.degree_bound,
                scan_free_report=sf_report,
            )
        return QueryDecision(
            bound=bound,
            analysis=analysis,
            minimized=minimized,
            preservation=pres,
            scan_free=sf_report,
            bounded=bounded,
            candidates=table,
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
            for alias, desc in sorted(
                decision.scan_free.index_covered.items()
            ):
                lines.append(f"  {alias}: {desc}")
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
