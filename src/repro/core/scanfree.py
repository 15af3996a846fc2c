"""Scan-free and bounded query analysis — part of module M1 of Zidian
(§5.1 assigns the checks to M1; the characterization is §6.1).

Implements the paper's characterization:

* ``GET(Q, R̃)`` — retrievable attributes: the fixpoint of
  (a) constant-bound attributes (extended here with IN-lists: finitely many
  constants still mean finitely many gets),
  (b) equality transitivity, and
  (c) key-to-value propagation per KV schema.
* ``VC(Q, R̃)`` — verifiable combinations: per relation occurrence, the
  closures of the KV schemas whose attributes are all retrievable.
* Condition (III), Theorem 4: Q is scan-free over ``R̃`` iff for every
  relation occurrence of ``min(Q)`` its ``X`` attributes sit inside some
  member of ``VC(min(Q), R̃)``.
* Boundedness (§6.1 end): scan-free plus instance degrees below a constant.

``GET`` is computed with a *derivation log* — the chasing sequence of
§6.2. It is the specification, not the plan: the plan generator selects
and replays steps of its own (a ranked subset of what GET derives), and
``tests/properties/test_prop_planner.py`` holds it to this module's
verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.baav.schema import BaaVSchema, KVSchema, attribute_closure
from repro.baav.store import BaaVStore
from repro.core.candidates import CandidateTable
from repro.index.selection import IndexChoice, choose_for_alias
from repro.sql.minimize import minimize
from repro.sql.spc import SPCAnalysis

DEFAULT_DEGREE_BOUND = 64


@dataclass
class ChaseStep:
    """One application of GET rule (c): extend through a KV schema."""

    alias: str
    schema: KVSchema
    #: for each key attribute of the schema (in key order), the qualified
    #: query attribute that supplies its value (a GET member of its term)
    probes: Tuple[Tuple[str, str], ...]  # (kv key attr, supplying query attr)
    #: attributes newly added to GET by this step
    added: Tuple[str, ...]


@dataclass
class GetResult:
    """GET(Q, R̃) plus its derivation."""

    attrs: FrozenSet[str]
    steps: List[ChaseStep]


def compute_get(
    analysis: SPCAnalysis,
    baav: BaaVSchema,
    table: Optional[CandidateTable] = None,
) -> GetResult:
    """Compute GET(Q, R̃) with its chasing sequence (§6.1 rules a–c).

    ``table`` is the query's candidate table when the caller already
    built it (see :class:`~repro.core.candidates.CandidateTable`).
    """
    table = table if table is not None else CandidateTable(analysis, baav)
    get: Set[str] = set()
    steps: List[ChaseStep] = []

    # rule (a): constant-bound attributes (plus IN-bound, see module doc),
    # closed under rule (b) since terms already merge equated attributes.
    for term in analysis.live_terms():
        if term.is_bound:
            get |= term.attrs

    # GET stays closed under rule (b) throughout — whatever enters brings
    # its whole term — so a key attribute is retrievable exactly when it
    # is in GET itself, and it is its own probe supplier.
    pending = list(table.pairs)
    changed = True
    while changed:
        changed = False
        waiting = []
        for cand in pending:
            if not get.issuperset(cand.keys):
                waiting.append(cand)
                continue
            added = [a for a in cand.attrs if a not in get]
            if not added:
                continue
            get.update(added)
            # rule (b): what entered brings its whole term
            for _, term in cand.termed:
                for member in term.attrs:
                    if member not in get:
                        get.add(member)
                        added.append(member)
            probes = tuple(zip(cand.schema.key, cand.keys))
            steps.append(
                ChaseStep(cand.alias, cand.schema, probes, tuple(added))
            )
            changed = True
        pending = waiting
    return GetResult(frozenset(get), steps)


@dataclass
class VCEntry:
    """One member of VC(Q, R̃): a verifiable attribute combination."""

    alias: str
    schema: KVSchema  # the S̃ whose closure this is
    attrs: FrozenSet[str]  # qualified attributes of `alias`


def compute_vc(
    analysis: SPCAnalysis,
    baav: BaaVSchema,
    get: Optional[GetResult] = None,
    table: Optional[CandidateTable] = None,
) -> List[VCEntry]:
    """Compute VC(Q, R̃) per §6.1.

    ``R̃_Q`` holds the (alias, KV schema) pairs whose attributes are all in
    GET; each entry's attribute set is the closure of one member within
    ``R̃_Q`` restricted to its alias (clo chains through primary keys).
    """
    table = table if table is not None else CandidateTable(analysis, baav)
    get = get if get is not None else compute_get(analysis, baav, table)
    entries: List[VCEntry] = []
    for alias in analysis.atoms:
        candidates = [
            c for c in table.by_alias[alias] if c.attr_set <= get.attrs
        ]
        pool = [(c.attr_set, c.pk_set) for c in candidates]
        for start in candidates:
            clo = attribute_closure(start.attr_set, pool)
            entries.append(VCEntry(alias, start.schema, clo))
    return entries


@dataclass
class ScanFreeReport:
    """Outcome of the Condition (III) check (index-extended)."""

    scan_free: bool
    #: alias -> witnessing VC entry (when covered)
    witnesses: Dict[str, VCEntry] = field(default_factory=dict)
    #: aliases of min(Q) that are not covered
    missing: List[str] = field(default_factory=list)
    #: per missing alias, the cause: ``X − GET``, the attributes no chase
    #: reaches; empty when GET holds all of ``X`` but no single verifiable
    #: combination does
    unreachable: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    #: alias -> index access path, for aliases the BaaV schema leaves
    #: uncovered but a secondary index makes bounded
    index_covered: Dict[str, IndexChoice] = field(default_factory=dict)
    get: Optional[GetResult] = None
    vc: List[VCEntry] = field(default_factory=list)
    minimal_aliases: FrozenSet[str] = frozenset()


def is_scan_free(
    analysis: SPCAnalysis,
    baav: BaaVSchema,
    minimized: Optional[SPCAnalysis] = None,
    index_catalog=None,
    table: Optional[CandidateTable] = None,
) -> ScanFreeReport:
    """Condition (III) over ``min(Q)`` (Theorems 4 and 5), extended with
    secondary indexes.

    An alias with an empty ``X`` set (a pure existence check) is never
    scan-free: nothing pins down which blocks to fetch.

    ``index_catalog`` (a :class:`repro.index.IndexManager`, or anything
    with its catalog surface) widens the verdict: an alias Condition
    (III) leaves uncovered still counts as scan-free when one of its
    attributes carries a usable secondary index — an equality-bound
    attribute with a hash/ordered index, or a range residual over an
    ordered index. The index probe retrieves whole tuples by primary
    key, so coverage of the alias's ``X`` attributes is automatic.

    ``table`` is the candidate table of ``min(Q)`` when the caller has it.
    """
    minimal = minimized if minimized is not None else minimize(analysis)
    table = table if table is not None else CandidateTable(minimal, baav)
    get = compute_get(minimal, baav, table)
    vc = compute_vc(minimal, baav, get, table)
    report = ScanFreeReport(
        scan_free=True,
        get=get,
        vc=vc,
        minimal_aliases=frozenset(minimal.atoms),
    )
    by_alias: Dict[str, List[VCEntry]] = {}
    for entry in vc:
        by_alias.setdefault(entry.alias, []).append(entry)
    for alias in minimal.atoms:
        x_attrs = table.x_attrs[alias]
        witness = None
        if x_attrs:
            for entry in by_alias.get(alias, ()):
                if x_attrs <= entry.attrs:
                    witness = entry
                    break
        if witness is not None:
            report.witnesses[alias] = witness
            continue
        choice = (
            choose_for_alias(
                minimal, alias, minimal.atoms[alias], index_catalog
            )
            if index_catalog is not None
            else None
        )
        if choice is not None:
            report.index_covered[alias] = choice
        else:
            report.scan_free = False
            report.missing.append(alias)
            report.unreachable[alias] = x_attrs - get.attrs
    return report


@dataclass
class BoundedReport:
    bounded: bool
    scan_free: bool
    degree_bound: int
    #: KV schema name -> observed degree for the instances involved
    degrees: Dict[str, int] = field(default_factory=dict)


def is_bounded(
    analysis: SPCAnalysis,
    store: BaaVStore,
    degree_bound: int = DEFAULT_DEGREE_BOUND,
    scan_free_report: Optional[ScanFreeReport] = None,
) -> BoundedReport:
    """Boundedness check (§6.1): scan-free plus bounded instance degrees."""
    report = (
        scan_free_report
        if scan_free_report is not None
        else is_scan_free(analysis, store.schema)
    )
    degrees: Dict[str, int] = {}
    if not report.scan_free:
        return BoundedReport(False, False, degree_bound, degrees)
    if report.index_covered:
        # index probes are result-bounded but not constant-bounded: a
        # posting list / bucket walk can grow with the data, so an
        # index-covered query is scan-free without being bounded
        return BoundedReport(False, True, degree_bound, degrees)
    names: Set[str] = set()
    for entry in report.witnesses.values():
        names.add(entry.schema.name)
    if report.get is not None:
        for step in report.get.steps:
            names.add(step.schema.name)
    bounded = True
    for name in sorted(names):
        degree = store.instance(name).degree
        degrees[name] = degree
        if degree > degree_bound:
            bounded = False
    return BoundedReport(bounded, True, degree_bound, degrees)
