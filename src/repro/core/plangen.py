"""Chase-based KBA plan generation — module M2 of Zidian (§6.2).

Given a bound SQL query and the available BaaV schema, the generator
selects a chasing sequence of its own — a greedy, ranked subset of what
GET (§6.1) may derive — and replays it to build a KBA plan:

1. Start from a *constant keyed block* holding the query's constant-bound
   terms (equality constants and IN-lists; their cartesian product is one
   small constant KV instance).
2. Greedily apply ``∝`` extensions whose probe keys are already
   materialized (through equality transitivity), interleaving selections
   (constants, residual predicates, term equalities) and projections that
   prune attributes no longer needed — exactly the T1/T2/T3 chain of
   Example 7.
3. Aliases the chain cannot cover are fetched with KV-instance scans
   (possibly extended within the alias by the same select + replay,
   grown from the scan) or, as the last resort, TaaV scans; these
   sub-plans join into the chain.
4. A trailing group-by (plus HAVING) becomes ``GroupK``/``SelectK``;
   everything above (ORDER BY / LIMIT / final projection / DISTINCT) runs
   on the flattened table by substituting a :class:`TableNode` into the
   original RA plan.

A plan reported scan-free reaches every alias through ``∝`` from
constants only, and only for queries M1 calls scan-free (Theorem 6); the
converse does not hold yet: the greedy walk can miss a chain GET derives
(``tests/properties/test_prop_planner.py`` pins an example).

Every ``∝`` step is admitted in one place, :meth:`_ChainState._candidates`,
chosen in one place, :meth:`_ChainState._select`, and emitted by
:meth:`_ChainState._replay`, which makes no choice — what the selection
counted as covered is what the plan fetches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.baav.schema import BaaVSchema, KVSchema
from repro.core.candidates import Candidate, CandidateTable
from repro.errors import NotPreservedError, PlanError
from repro.index.selection import choose_for_alias
from repro.kba import plan as kp
from repro.sql import algebra, ast
from repro.sql.planner import BoundQuery, build_plan
from repro.sql.spc import SPCAnalysis


@dataclass
class ZidianPlan:
    """A generated KBA plan plus the RA top it plugs back into."""

    #: KBA plan computing the SPJ core (and group-by/having when present)
    root: kp.KBANode
    #: RA plan of the whole query; ``replace_node`` is the subtree whose
    #: result the KBA root computes
    ra_plan: algebra.PlanNode
    replace_node: algebra.PlanNode
    bound: BoundQuery
    #: alias -> access mode: "chain" (scan-free ∝), "index" (secondary-
    #: index probe, also scan-free), "scan_kv", "taav"
    access: Dict[str, str] = field(default_factory=dict)
    scan_free: bool = False
    uses_stats: bool = False

    #: access modes whose data touch is bounded by the result, not the
    #: relation — the scan-free access paths
    BOUNDED_MODES = frozenset({"chain", "index"})

    def kv_schemas_used(self) -> List[str]:
        return kp.kv_schemas_used(self.root)

    def describe(self) -> str:
        lines = [
            f"scan_free={self.scan_free} access={self.access}",
            self.root.describe(),
        ]
        return "\n".join(lines)

    @cached_property
    def access_summary(self) -> str:
        """The access path per alias (EXPLAIN summary). It names no
        literal, so a plan bound from a template inherits its
        template's (``ast.altered`` copies the cached value)."""
        scans: dict = {}
        probes: dict = {}
        for node in kp.walk(self.root):
            if isinstance(node, kp.ScanKV):
                scans[node.alias] = f"kv scan ({node.kv_name})"
            elif isinstance(node, kp.StatsGroup):
                scans[node.alias] = f"stats scan ({node.kv_name})"
            elif isinstance(node, kp.IndexProbe):
                probes[node.alias] = (
                    f"index probe ({node.kind} on {node.attr}) -> multi_get"
                )
        lines = []
        for alias in sorted(self.access):
            mode = self.access[alias]
            relation = self.bound.aliases[alias].name
            if mode == "chain":
                desc = "key fetch (scan-free ∝ chain)"
            elif mode == "index":
                desc = probes.get(alias, "index probe -> multi_get")
            elif mode == "scan_kv":
                desc = scans.get(alias, "kv scan")
            else:
                desc = "taav scan (fetch-all)"
            lines.append(f"{alias} -> {relation}: {desc}")
        return "\n".join(lines)


class PlanGenerator:
    """Generates KBA plans for bound queries over a BaaV schema."""

    def __init__(
        self,
        baav: BaaVSchema,
        allow_taav_fallback: bool = True,
        use_stats: bool = True,
        index_catalog=None,
    ) -> None:
        self.baav = baav
        self.allow_taav_fallback = allow_taav_fallback
        self.use_stats = use_stats
        #: optional secondary-index catalog (repro.index.IndexManager):
        #: aliases the ∝ chain cannot cover are probed through an index
        #: instead of scanned when a usable one exists. Index probes
        #: fetch TaaV tuples, so they require the TaaV fallback store.
        self.index_catalog = index_catalog if allow_taav_fallback else None

    # -- public entry -------------------------------------------------------

    def generate(
        self,
        bound: BoundQuery,
        analysis: SPCAnalysis,
        table: Optional[CandidateTable] = None,
    ) -> ZidianPlan:
        """Plan ``bound``; ``table`` is ``analysis``'s candidate table
        when M1 already built it."""
        ra_plan = build_plan(bound)
        core, replace_node, groupby, having = _split_top(ra_plan)

        if table is None:
            table = CandidateTable(analysis, self.baav)
        state = _ChainState(analysis, table)
        covered = state.stable_coverage()
        root, access = self._build_core(analysis, state, covered)

        scan_free = all(
            mode in ZidianPlan.BOUNDED_MODES for mode in access.values()
        ) and bool(access)
        uses_stats = False

        if groupby is not None:
            stats_plan = self._try_stats_path(analysis, root, groupby, access)
            if stats_plan is not None:
                root = stats_plan
                uses_stats = True
            else:
                root = kp.GroupK(
                    root, tuple(groupby.keys), tuple(groupby.aggs)
                )
            if having is not None:
                root = kp.SelectK(root, having.predicate)

        plan = ZidianPlan(
            root=root,
            ra_plan=ra_plan,
            replace_node=replace_node,
            bound=bound,
            access=access,
            scan_free=scan_free and not uses_stats,
            uses_stats=uses_stats,
        )
        return plan

    # -- core construction -----------------------------------------------------

    def _build_core(
        self,
        analysis: SPCAnalysis,
        state: "_ChainState",
        covered: Set[str],
    ) -> Tuple[kp.KBANode, Dict[str, str]]:
        access: Dict[str, str] = {}
        subplans: List[Tuple[kp.KBANode, Set[str]]] = []
        if covered:
            subplans.append(state.build_chain())
            for alias in covered:
                access[alias] = "chain"

        for alias in sorted(set(analysis.atoms) - covered):
            subplan, attrs, mode = self._scan_subplan(analysis, alias, state)
            access[alias] = mode
            subplans.append((subplan, attrs))

        if not subplans:
            raise PlanError("query has no relations")

        root, root_attrs = subplans[0]
        remaining = subplans[1:]
        applied_residuals = set(state.applied_residuals)
        while remaining:
            # prefer a subplan connected to the current result
            index = 0
            best_pairs: List[Tuple[str, str]] = []
            for i, (_, attrs) in enumerate(remaining):
                pairs = _equi_pairs_between(analysis, root_attrs, attrs)
                if pairs:
                    index, best_pairs = i, pairs
                    break
            subplan, attrs = remaining.pop(index)
            root = kp.JoinK(root, subplan, tuple(best_pairs))
            root_attrs = root_attrs | attrs
            root = _apply_residuals(
                analysis, root, root_attrs, applied_residuals
            )
        return root, access

    def _scan_subplan(
        self, analysis: SPCAnalysis, alias: str, state: "_ChainState"
    ) -> Tuple[kp.KBANode, Set[str], str]:
        """Fetch an uncovered alias: index probe when a usable secondary
        index exists, else by scanning (§6.2 step 3)."""
        relation = analysis.atoms[alias]

        probe = self._index_subplan(analysis, alias, relation)
        if probe is not None:
            plan, attrs = probe
            plan, attrs = _apply_alias_predicates(
                analysis, alias, plan, attrs
            )
            return plan, attrs, "index"

        group = state.table.by_alias[alias]
        need = {a.split(".", 1)[1] for a in state.table.x_attrs[alias]}
        if not need and group:
            # pure existence check: any attribute will do
            need = {group[0].schema.attributes[0]}

        # single instance covering everything
        best_single = None
        for cand in group:
            if cand.schema.attribute_set.issuperset(need) and (
                best_single is None
                or cand.schema.width < best_single.schema.width
            ):
                best_single = cand
        if best_single is not None:
            plan: kp.KBANode = kp.ScanKV(best_single.schema.name, alias)
            attrs = set(best_single.attr_set)
            mode = "scan_kv"
        else:
            grown = state.scan_chain(alias)
            if grown is not None:
                # the alias's predicates already sit on the scanned leaf
                return (*grown, "scan_kv")
            if not self.allow_taav_fallback:
                raise NotPreservedError(
                    f"alias {alias} ({relation}) is not covered by the "
                    f"BaaV schema and TaaV fallback is disabled"
                )
            plan = kp.TaaVScan(relation, alias)
            attrs = {
                f"{alias}.{a}"
                for a in analysis.bound.aliases[alias].attribute_names
            }
            mode = "taav"

        plan, attrs = _apply_alias_predicates(analysis, alias, plan, attrs)
        return plan, attrs, mode

    def _index_subplan(
        self, analysis: SPCAnalysis, alias: str, relation: str
    ) -> Optional[Tuple[kp.KBANode, Set[str]]]:
        """IndexProbe → multi_get for an alias with a usable index.

        Chosen over ScanKV/TaaVScan: the probe touches O(result) data.
        The probe yields the full TaaV tuple, so every attribute of the
        alias is materialized.
        """
        choice = choose_for_alias(
            analysis, alias, relation, self.index_catalog
        )
        if choice is None:
            return None
        plan = kp.IndexProbe(**vars(choice))  # the same fields, by design
        attrs = {
            f"{alias}.{a}"
            for a in analysis.bound.aliases[alias].attribute_names
        }
        return plan, attrs

    # -- statistics fast path ----------------------------------------------------

    def _try_stats_path(
        self,
        analysis: SPCAnalysis,
        root: kp.KBANode,
        groupby: algebra.GroupByNode,
        access: Dict[str, str],
    ) -> Optional[kp.KBANode]:
        """§8.2(2): single-instance scan grouped by its key -> block stats."""
        if not self.use_stats:
            return None
        if not isinstance(root, kp.ScanKV):
            return None
        alias = root.alias
        scanned = self.baav.get(root.kv_name)
        # the scan may have picked an equally-covering schema with a
        # different key; any sibling schema whose key matches the group
        # keys and whose values cover the aggregates works
        for schema in self.baav.over_relation(scanned.relation.name):
            expected_keys = tuple(f"{alias}.{a}" for a in schema.key)
            if tuple(groupby.keys) != expected_keys:
                continue
            if self._aggs_over(schema, alias, groupby.aggs):
                return kp.StatsGroup(schema.name, alias, tuple(groupby.aggs))
        return None

    @staticmethod
    def _aggs_over(schema: KVSchema, alias: str, aggs) -> bool:
        for spec in aggs:
            if spec.distinct or spec.arg is None:
                return False
            if spec.func not in ("SUM", "COUNT", "AVG", "MIN", "MAX"):
                return False
            if not isinstance(spec.arg, ast.Column):
                return False
            name = spec.arg.name
            if not name.startswith(alias + "."):
                return False
            if name.split(".", 1)[1] not in schema.value:
                return False
        return True


# --------------------------------------------------------------------------
# chain construction
# --------------------------------------------------------------------------


#: a candidate extend as the selection ranks it: (score, alias, KV
#: schema name, candidate, probes) — the first three are the rank
_Ranked = Tuple[
    Tuple[int, int, int], str, str, Candidate, List[Tuple[str, str]]
]
_rank = itemgetter(0, 1, 2)

#: a chosen ∝ step: the candidate, its ``(key attribute, supplying query
#: attribute)`` probes, and what it reads from the chain below it — the
#: probe suppliers and, for a secondary fetch, the primary-key attributes
#: its ``#dup`` check compares
_Step = Tuple[Candidate, List[Tuple[str, str]], FrozenSet[str]]


class _ChainState:
    """The greedy ∝ walk of one query: selected once, replayed to emit."""

    def __init__(self, analysis: SPCAnalysis, table: CandidateTable) -> None:
        self.analysis = analysis
        self.table = table
        self.needed = table.needed
        self.leaf = self._constant_leaf()
        #: the steps of the chain run :meth:`stable_coverage` accepted
        self.steps: List[_Step] = []
        self.applied_residuals: Set[int] = set()

    # -- constants ------------------------------------------------------------

    def _constant_leaf(self) -> Optional[kp.Constant]:
        terms = [t for t in self.analysis.live_terms() if t.is_bound]
        if not terms:
            return None
        reps: List[str] = []
        value_sets: List[Tuple[object, ...]] = []
        for term in terms:
            reps.append(min(term.attrs))
            if term.has_constant:
                value_sets.append((term.constant,))
            else:
                value_sets.append(tuple(term.in_values or ()))
        keys = tuple(itertools.product(*value_sets))
        return kp.Constant(tuple(reps), keys)

    # -- candidate extends ---------------------------------------------------------

    def _supplier(self, attr: str, avail: Set[str]) -> Optional[str]:
        if attr in avail:
            return attr
        term = self.analysis.term_of(attr)
        if term is None:
            return None
        for member in sorted(term.attrs):
            if member in avail:
                return member
        return None

    def _first_fetch_probes(
        self, cand: Candidate, avail: Set[str]
    ) -> Optional[List[Tuple[str, str]]]:
        """``(key attribute, supplying query attribute)`` per key of a
        not-yet-fetched alias; ``None`` when some key has no supplier."""
        probes: List[Tuple[str, str]] = []
        for key_attr, key in zip(cand.schema.key, cand.keys):
            supplier = self._supplier(key, avail)
            if supplier is None:
                return None
            probes.append((key_attr, supplier))
        return probes

    def _candidates(
        self,
        avail: Set[str],
        fetched: Dict[str, Set[str]],
        used: Set[Candidate],
        allowed_aliases: Optional[Set[str]],
    ) -> List[_Ranked]:
        out: List[_Ranked] = []
        for cand in self.table.pairs:
            alias = cand.alias
            if allowed_aliases is not None and alias not in allowed_aliases:
                continue
            if cand in used:
                continue
            got = fetched.get(alias)
            if got is None:
                # first fetch: every key attribute has a supplier. It is
                # taken even when it gains nothing needed — the alias
                # then acts as an existence/multiplicity check (e.g.
                # V.vehicle_id = c)
                gain_any = len(cand.attr_set - avail)
                if not gain_any:
                    continue
                first = self._first_fetch_probes(cand, avail)
                if first is None:
                    continue
                probes = first
                gain_needed = len(cand.needed - avail)
            else:
                # secondary fetch — the one rule of combination
                # correctness: it gains something needed that the alias
                # has not *fetched* (available through a term is not
                # verified against the tuple), the instance holds the
                # relation's primary key, what the alias has fetched so
                # far holds it too, and the probe key is available
                gain_needed = len(cand.needed - got)
                if not gain_needed or cand.refetch_pk is None:
                    continue
                if not got.issuperset(cand.pk_set):
                    continue
                if not avail.issuperset(cand.keys):
                    continue
                probes = list(zip(cand.schema.key, cand.keys))
                gain_any = len(cand.attr_set - avail)
            score = (gain_needed, gain_any, -cand.schema.width)
            out.append((score, alias, cand.schema.name, cand, probes))
        return out

    # -- selection ----------------------------------------------------------------

    def _select(
        self,
        avail: Set[str],
        fetched: Dict[str, Set[str]],
        used: Set[Candidate],
        allowed: Optional[Set[str]],
    ) -> List[_Step]:
        """The one greedy walk: from ``avail`` take the best-ranked
        admissible step until none is left. ``avail`` stays *unpruned* —
        what may be dropped is decided afterwards, from the steps chosen
        (:meth:`_replay`); ``fetched`` gains, per alias, the attributes
        the chosen steps fetch."""
        term_of = self.analysis.term_of
        # equality transitivity: everything in a materialized term is
        # available as a supplier. `avail` is kept closed under it by
        # closing the terms each step touches (the leaf's terms ride
        # with the first step, as they always have)
        touched = [term_of(attr) for attr in avail]
        steps: List[_Step] = []
        while True:
            candidates = self._candidates(avail, fetched, used, allowed)
            if not candidates:
                return steps
            _, alias, _, cand, probes = max(candidates, key=_rank)
            reads = {supplier for _, supplier in probes}
            if alias in fetched:
                reads.update(cand.refetch_pk or ())
            steps.append((cand, probes, frozenset(reads)))
            used.add(cand)
            fetched.setdefault(alias, set()).update(cand.attrs)
            avail.update(cand.attrs)
            touched.extend(term for _, term in cand.termed)
            for term in touched:
                if term is not None:
                    avail |= term.attrs
            touched.clear()

    def _holds_x(self, alias: str, got: Set[str]) -> bool:
        """Do the fetched attributes ``got`` hold the alias's ``X``? An
        attribute only *available* through its term does not count: no
        fetch verifies it against the tuple."""
        x_attrs = self.table.x_attrs[alias]
        return bool(x_attrs) and x_attrs <= got

    def stable_coverage(self) -> Set[str]:
        """Fixpoint: restrict the chain to aliases it can fully cover,
        and keep the steps of the run that does."""
        if self.leaf is None:
            return set()
        allowed: Optional[Set[str]] = None
        while True:
            fetched: Dict[str, Set[str]] = {}
            steps = self._select(set(self.leaf.attrs), fetched, set(), allowed)
            covered = {a for a, got in fetched.items() if self._holds_x(a, got)}
            # a run whose every fetched alias is covered is the fixpoint:
            # restricting it to `covered` only drops aliases it never chose
            if len(covered) == len(fetched):
                self.steps = steps
                return covered
            if not covered:
                return set()
            allowed = covered

    # -- replay ---------------------------------------------------------------------

    def build_chain(self) -> Tuple[kp.KBANode, Set[str]]:
        """The accepted chain, grown from the constant leaf, and the
        attributes it materializes."""
        if self.leaf is None:
            raise PlanError("chain requested without constant bindings")
        return self._replay(self.leaf, set(self.leaf.attrs), self.steps)

    def scan_chain(self, alias: str) -> Optional[Tuple[kp.KBANode, Set[str]]]:
        """§6.2 step 3 when no single instance holds the alias's ``X``:
        scan an instance that holds the relation's primary key and grow
        the same select + replay from it, within the alias. The alias
        counts as fetched, so only the secondary-fetch rule of
        :meth:`_candidates` admits a step. ``None`` when no start's walk
        holds ``X``."""
        x_attrs = self.table.x_attrs[alias]
        starts = sorted(
            [c for c in self.table.by_alias[alias] if c.refetch_pk is not None],
            key=lambda c: len(x_attrs & c.attr_set),
            reverse=True,
        )
        for start in starts:
            fetched = {alias: set(start.attrs)}
            steps = self._select(set(start.attrs), fetched, {start}, {alias})
            if not self._holds_x(alias, fetched[alias]):
                continue
            leaf, attrs = _apply_alias_predicates(
                self.analysis,
                alias,
                kp.ScanKV(start.schema.name, alias),
                set(start.attrs),
                self.applied_residuals,
            )
            return self._replay(leaf, attrs, steps)
        return None

    def _replay(
        self, node: kp.KBANode, avail: Set[str], steps: Sequence[_Step]
    ) -> Tuple[kp.KBANode, Set[str]]:
        """Emit ``steps`` above ``node`` (which materializes ``avail``);
        no choice is made here. After step *i* the result is pruned to
        ``needed`` plus what steps *i+1..* read, so an attribute is
        dropped only when nothing above still reads it."""
        keeps: List[FrozenSet[str]] = []
        keep = self.needed
        for _, _, reads in reversed(steps):
            keeps.append(keep)
            keep = keep | reads
        for (cand, probes, _), keep in zip(steps, reversed(keeps)):
            node, avail = self._apply_extend(node, avail, cand, probes, keep)
        return node, avail

    def _apply_extend(
        self,
        plan: kp.KBANode,
        avail: Set[str],
        cand: Candidate,
        probes: List[Tuple[str, str]],
        keep: FrozenSet[str],
    ) -> Tuple[kp.KBANode, Set[str]]:
        analysis = self.analysis
        schema = cand.schema
        # resolve probe suppliers against *materialized* attributes
        on: List[Tuple[str, str]] = []
        for key_attr, supplier in probes:
            if supplier not in avail:
                resolved = self._supplier(supplier, avail)
                if resolved is None:
                    raise PlanError(
                        f"probe supplier {supplier} not materialized"
                    )
                supplier = resolved
            on.append((supplier, key_attr))

        expose: List[Tuple[str, str]] = []
        for key_attr, qualified in zip(schema.key, cand.keys):
            if qualified not in avail and qualified in self.needed:
                expose.append((key_attr, qualified))

        value_attrs: List[str] = []
        dup_checks: List[Tuple[str, str]] = []  # (original, temp)
        new_attrs = [name for _, name in expose]
        for qualified in cand.values:
            if qualified in avail:
                temp = f"{qualified}#dup"
                value_attrs.append(temp)
                dup_checks.append((qualified, temp))
            else:
                value_attrs.append(qualified)
                new_attrs.append(qualified)

        node: kp.KBANode = kp.Extend(
            plan,
            schema.name,
            cand.alias,
            tuple(on),
            tuple(value_attrs),
            tuple(expose),
        )
        avail = set(avail) | set(new_attrs) | set(value_attrs)

        # duplicate-fetch verification, then drop the temporaries
        preds: List[ast.Expr] = [
            ast.Cmp("=", ast.Column(orig), ast.Column(temp))
            for orig, temp in dup_checks
        ]

        # enforce term constraints on newly materialized value attributes
        new_set = set(new_attrs)
        exposed_names = {name for _, name in expose}
        by_term: Dict[int, List[str]] = {}
        for attr, term in cand.termed:
            if attr not in new_set:
                continue
            by_term.setdefault(term.term_id, []).append(attr)
            if attr in exposed_names:
                continue  # equals its probe supplier by construction
            if term.has_constant:
                preds.append(
                    ast.Cmp("=", ast.Column(attr), ast.Lit(term.constant))
                )
            elif term.in_values is not None:
                preds.append(
                    ast.InList(ast.Column(attr), list(term.in_values))
                )
            mates = sorted(
                m for m in term.attrs if m in avail and m != attr
                and m not in new_set
            )
            if mates:
                preds.append(
                    ast.Cmp("=", ast.Column(attr), ast.Column(mates[0]))
                )
        # equalities among multiple new attrs of one term
        for members in by_term.values():
            for extra in members[1:]:
                preds.append(
                    ast.Cmp("=", ast.Column(members[0]), ast.Column(extra))
                )
        if preds:
            node = kp.SelectK(node, ast.make_and(preds))

        # residual predicates that just became applicable
        node = _apply_residuals(
            analysis, node, avail, self.applied_residuals
        )

        # prune to what is still read above (drops #dup temporaries)
        kept = avail & keep
        if kept and len(kept) != len(avail):
            node = kp.ProjectK(node, tuple(sorted(kept)))
            avail = set(kept)

        return node, avail


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def _apply_residuals(
    analysis: SPCAnalysis,
    node: kp.KBANode,
    avail: Set[str],
    applied: Set[int],
) -> kp.KBANode:
    preds: List[ast.Expr] = []
    for index, residual in enumerate(analysis.residuals):
        if index in applied:
            continue
        cols = {c for c in residual.columns() if "." in c}
        if cols <= avail:
            preds.append(residual)
            applied.add(index)
    if preds:
        return kp.SelectK(node, ast.make_and(preds))
    return node


def _apply_alias_predicates(
    analysis: SPCAnalysis,
    alias: str,
    plan: kp.KBANode,
    attrs: Set[str],
    applied: Optional[Set[int]] = None,
) -> Tuple[kp.KBANode, Set[str]]:
    """Constants and alias-local residuals on a scanned alias; the
    residuals placed are recorded in ``applied`` when it is given."""
    preds: List[ast.Expr] = []
    prefix = alias + "."
    for term in analysis.live_terms():
        for attr in term.attrs:
            if not attr.startswith(prefix) or attr not in attrs:
                continue
            if term.has_constant:
                preds.append(
                    ast.Cmp("=", ast.Column(attr), ast.Lit(term.constant))
                )
            # intra-alias equalities within one term
            mates = sorted(
                m
                for m in term.attrs
                if m != attr and m.startswith(prefix) and m in attrs
            )
            for mate in mates:
                if attr < mate:
                    preds.append(
                        ast.Cmp("=", ast.Column(attr), ast.Column(mate))
                    )
    for index, residual in enumerate(analysis.residuals):
        cols = {c for c in residual.columns() if "." in c}
        if cols and cols <= attrs and all(
            c.startswith(prefix) for c in cols
        ):
            preds.append(residual)
            if applied is not None:
                applied.add(index)
    if preds:
        plan = kp.SelectK(plan, ast.make_and(preds))
    return plan, attrs


def _equi_pairs_between(
    analysis: SPCAnalysis, left: Set[str], right: Set[str]
) -> List[Tuple[str, str]]:
    pairs: List[Tuple[str, str]] = []
    for term in analysis.live_terms():
        lefts = sorted(term.attrs & left)
        rights = sorted(term.attrs & right)
        if lefts and rights:
            pairs.append((lefts[0], rights[0]))
    return pairs


_CORE_TYPES = (
    algebra.ScanNode,
    algebra.SelectNode,
    algebra.JoinNode,
    algebra.CrossNode,
)


def _is_core(node: algebra.PlanNode) -> bool:
    """Is the subtree at ``node`` select-project-join only?"""
    if not isinstance(node, _CORE_TYPES):
        return False
    return all(_is_core(c) for c in node.children())


def _split_top(
    ra_plan: algebra.PlanNode,
) -> Tuple[
    algebra.PlanNode,
    algebra.PlanNode,
    Optional[algebra.GroupByNode],
    Optional[algebra.SelectNode],
]:
    """Find the SPJ core of an RA plan and the group-by/having above it.

    Returns ``(core, replace_node, groupby, having)``: ``replace_node`` is
    the subtree whose result the KBA plan computes (core, or group-by, or
    having-select); the engine runs the operators above it over its table.
    """
    # descend through unary top operators to the core
    path: List[algebra.PlanNode] = []
    node = ra_plan
    while not _is_core(node):
        children = node.children()
        if len(children) != 1:
            raise PlanError(
                f"cannot locate SPJ core below {type(node).__name__}"
            )
        path.append(node)
        node = children[0]
    core = node

    groupby: Optional[algebra.GroupByNode] = None
    having: Optional[algebra.SelectNode] = None
    replace_node: algebra.PlanNode = core
    # walk back up: GroupBy directly above the core, optional Select above it
    if path and isinstance(path[-1], algebra.GroupByNode):
        groupby = path[-1]
        replace_node = groupby
        if len(path) >= 2 and isinstance(path[-2], algebra.SelectNode):
            having = path[-2]
            replace_node = having
    return core, replace_node, groupby, having
