"""End-to-end SQL-over-NoSQL systems (Fig. 1).

:class:`SQLOverNoSQL` models the baseline stacks of the evaluation — SoH
(SparkSQL-over-HBase), SoK (over Kudu) and SoC (over Cassandra) — via the
backend cost profiles. :class:`ZidianSystem` deploys Zidian on top: same
cluster, same backend, but with a BaaV store and the interleaved engine.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.baav.maintenance import Maintainer
from repro.baav.schema import BaaVSchema
from repro.baav.store import DEFAULT_SPLIT_THRESHOLD, BaaVStore
from repro.core.middleware import QueryDecision, Zidian
from repro.core.qcs import extract_workload_qcs
from repro.core.t2b import design_schema
from repro.errors import ExecutionError
from repro.index.manager import IndexManager
from repro.kv.backends import BackendProfile, profile as get_profile
from repro.kv.cache import CacheStats, make_cache
from repro.kv.cluster import KVCluster
from repro.kv.taav import TaaVStore
from repro.kba.executor import DEFAULT_BATCH_SIZE
from repro.locks import make_lock
from repro.mvcc import (
    DEFAULT_GC_INTERVAL,
    EpochManager,
    Transaction,
    TransactionManager,
    VersionStore,
)
from repro.mvcc.txn import Statement
from repro.parallel.engine import BaselineEngine, Executable, ZidianEngine
from repro.parallel.metrics import ExecutionMetrics
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.types import Row
from repro.sql.executor import bag_difference, to_relation
from repro.sql import ast
from repro.sql.parser import parse
from repro.sql.planner import bind, bind_any, build_plan_any


@dataclass
class QueryResult:
    """A query's answer plus its execution metrics."""

    relation: Relation
    metrics: ExecutionMetrics
    decision: Optional[QueryDecision] = None
    #: per-side decisions of a compound (UNION/EXCEPT ALL) query
    sub_decisions: Optional[List[QueryDecision]] = None
    #: EXPLAIN-style rendering of the chosen access path per relation
    #: occurrence (scan vs index probe vs key fetch)
    plan_summary: Optional[str] = None

    @property
    def rows(self) -> List[Row]:
        return self.relation.rows


def _parse_index_spec(spec) -> Tuple[str, str, str]:
    """Normalize one ``indexes=`` entry to ``(relation, attr, kind)``.

    Accepts ``"REL.attr"``, ``"REL.attr:kind"``, ``(rel, attr)`` and
    ``(rel, attr, kind)``; the default kind is ``"hash"``.
    """
    if isinstance(spec, str):
        name, _, kind = spec.partition(":")
        relation, _, attr = name.partition(".")
        if not relation or not attr:
            raise ExecutionError(
                f"bad index spec {spec!r} (expected 'REL.attr[:kind]')"
            )
        return relation, attr, kind or "hash"
    spec = tuple(spec)
    if len(spec) == 2:
        return spec[0], spec[1], "hash"
    if len(spec) == 3:
        return spec  # type: ignore[return-value]
    raise ExecutionError(
        f"bad index spec {spec!r} (expected (rel, attr[, kind]))"
    )


def _access_summary(access: Dict[str, str]) -> str:
    """Render the baseline's access path per alias (EXPLAIN summary)."""
    return "\n".join(f"{alias} -> {desc}" for alias, desc in sorted(access.items()))


_INDEXES_NEED_TAAV = (
    "secondary indexes need the TaaV store (keep_taav=True): "
    "index probes fetch tuples by primary key"
)

_S = TypeVar("_S", bound="KVSystem")

#: serializes concurrent enable_transactions() calls (begin() may
#: auto-enable from any service thread); leaf-ordered before the
#: cluster lock that attach_versions takes
_ENABLE_LOCK = make_lock("systems.enable_transactions")


class TransactionalMixin:
    """The MVCC surface both systems share (see :mod:`repro.mvcc`).

    ``enable_transactions()`` attaches a version overlay to the cluster
    and builds the epoch clock + transaction manager whose ``apply_fn``
    is the system's :meth:`_apply_base` (relational rows, TaaV/BaaV
    stores and secondary indexes) and whose ``validate_fn`` is
    :meth:`_validate_updates`, run over a whole transaction before its
    first mutation. From then on:

    * every ``apply_updates`` routes through an auto-commit transaction
      (record superseded values → install base writes → publish);
    * every ``execute`` pins the published epoch for its whole run, so
      it sees exactly one committed state even while writers install
      the next one;
    * :meth:`begin` opens an explicit multi-statement transaction
      spanning several relations (and their indexes) atomically.
    """

    cluster: KVCluster
    transactions: Optional[TransactionManager]

    def _validate_updates(self, statements: Sequence[Statement]) -> None:
        raise NotImplementedError

    def _apply_base(
        self, relation: str, inserts: List[Row], deletes: List[Row]
    ) -> None:
        raise NotImplementedError

    def enable_transactions(
        self,
        snapshot_gc_interval: int = DEFAULT_GC_INTERVAL,
    ) -> TransactionManager:
        """Switch the system to MVCC snapshots + transactions.

        Idempotent (the first call's knob wins). ``snapshot_gc_interval``
        sets how many commits may pass between amortized version-GC
        sweeps.
        """
        with _ENABLE_LOCK:
            if self.transactions is None:
                versions = VersionStore()
                self.cluster.attach_versions(versions)
                self.transactions = TransactionManager(
                    EpochManager(),
                    versions,
                    self._apply_base,
                    gc_interval=snapshot_gc_interval,
                    validate_fn=self._validate_updates,
                )
            return self.transactions

    def begin(self) -> Transaction:
        """Open a multi-statement transaction (auto-enables MVCC)."""
        return self.enable_transactions().begin()

    def apply_updates(
        self,
        relation: str,
        inserts: Iterable[Row] = (),
        deletes: Iterable[Row] = (),
    ) -> None:
        """Apply one Δ; an auto-commit transaction when MVCC is on."""
        if self.transactions is not None:
            with self.transactions.begin() as txn:
                txn.apply_updates(relation, inserts, deletes)
            return
        statement = (
            relation,
            [tuple(row) for row in inserts],
            [tuple(row) for row in deletes],
        )
        self._validate_updates([statement])
        self._apply_base(*statement)

    def _snapshot_execute(self, run) -> "QueryResult":
        """Run a query pinned at the published epoch (when MVCC is on).

        Re-entrant: a thread already holding a snapshot (a compound
        query's sides, a nested call) keeps its epoch. The GC work this
        query's unpin triggered is stamped onto its metrics.
        """
        manager = self.transactions
        if manager is None or manager.versions.read_epoch() is not None:
            return run()
        stats = manager.versions.thread_shard()
        reclaimed = stats.gc_reclaimed
        with manager.snapshot():
            result = run()
        # repro-lint: disable=counter-accounting -- metrics is this
        # query's private result object, not a shared stats instance
        result.metrics.gc_reclaimed += stats.gc_reclaimed - reclaimed
        return result


class KVSystem(TransactionalMixin):
    """What both systems share: one KV cluster and everything wired to it.

    ``cache_capacity_bytes`` enables a client-side read-through block
    cache (0 = off, the conventional stack the paper measures). The
    cache is partitioned per worker — each worker caches the keys it
    owns — and only serves the batched point-read path
    (``batch_size > 1``); the per-key blind scan streams past it.

    ``replication_factor`` keeps every KV pair on that many storage
    nodes (1 = the paper's unreplicated cluster): writes fan out to all
    replicas, a key is read from its first live owner, and the cluster
    keeps serving through ``fail_node``/``recover_node`` churn.

    ``transport=None`` defers to ``REPRO_KV_TRANSPORT`` (default
    ``"local"``); ``"socket"`` puts every storage node in its own OS
    process.

    ``durability``/``data_dir``/``fsync_policy`` make the storage nodes
    crash-consistent (per-node WAL + checkpoints, recovery by replay)
    — see the "Durability" section of :mod:`repro.kv.cluster`.
    ``durability=None`` defers to ``REPRO_KV_DURABILITY`` (default
    ``"off"``); a ``data_dir`` implies ``"wal"``.

    ``indexes`` requests secondary indexes built at load time — specs
    like ``"FLIGHT.tail_id"`` / ``"FLIGHT.arr_delay:ordered"`` or
    ``(rel, attr[, kind])`` tuples. With an index present, a selective
    non-key filter runs as an index probe + ``multi_get`` instead of a
    scan; ``create_index``/``drop_index`` manage them online.

    ``vectorized=True`` runs the KBA operators as columnar kernels
    (PR 10) — same results and counters, less interpreter time.
    """

    def __init__(
        self,
        backend: str = "hbase",
        workers: int = 8,
        storage_nodes: int = 4,
        batch_size: int = 1,
        cache_capacity_bytes: int = 0,
        replication_factor: int = 1,
        transport: Optional[str] = None,
        data_dir: Optional[str] = None,
        durability: Optional[str] = None,
        fsync_policy: str = "group",
        indexes: Sequence = (),
        vectorized: bool = False,
    ) -> None:
        self.profile: BackendProfile = get_profile(backend)
        self.workers = workers
        self.cluster = KVCluster(
            storage_nodes,
            replication_factor=replication_factor,
            transport=transport,
            data_dir=data_dir,
            durability=durability,
            fsync_policy=fsync_policy,
        )
        self.batch_size = batch_size
        self.vectorized = vectorized
        self.cache = make_cache(cache_capacity_bytes, partitions=workers)
        self.indexes = IndexManager(self.cluster, cache=self.cache)
        self._requested_indexes = [_parse_index_spec(s) for s in indexes]
        self.database: Optional[Database] = None
        self.taav: Optional[TaaVStore] = None
        #: MVCC transaction surface (None until enable_transactions())
        self.transactions: Optional[TransactionManager] = None
        #: (what it was built over, the engine): see :meth:`_engine`
        self._built: Optional[tuple] = None

    def cache_stats(self) -> Optional[CacheStats]:
        """Aggregate block-cache statistics (``None`` when cache is off)."""
        return self.cache.stats if self.cache is not None else None

    def _engine(self, engine_cls, *stores):
        """The system's engine over its cluster and stores. It is built
        again when one of its inputs changes — the live node count it
        prices storage over (a membership change), whether an index
        exists, ``vectorized``, the stores (a ``load``) — and holds no
        per-query state, so every thread of a service shares it."""
        inputs = (
            engine_cls,
            self.cluster.placement_generation,
            self.indexes.generation,
            self.vectorized,
            self.taav,
            *stores,
        )
        built = self._built
        if built is None or built[0] != inputs:
            engine = engine_cls(
                *stores,
                self.taav,
                self.cluster,
                self.profile,
                self.workers,
                batch_size=self.batch_size,
                cache=self.cache,
                indexes=self.indexes if len(self.indexes) else None,
                vectorized=self.vectorized,
            )
            built = self._built = (inputs, engine)
        return built[1]

    def _rebuild_indexes(self, database: Database) -> None:
        """(Re)build every index over a freshly loaded database.

        A re-``load()`` must rebuild *all* indexes — the constructor's
        ``indexes=`` specs and any created online since — or stale
        postings built over the previous data would keep serving.
        Indexes over relations the new database lacks are dropped.
        """
        existing = [
            (index.relation.name, index.attr, index.kind)
            for index in self.indexes
        ]
        for relation, attr, kind in dict.fromkeys(existing + self._requested_indexes):
            self.indexes.drop(relation, attr, kind)
            if relation in database:
                self.indexes.create(database.relation(relation), attr, kind)

    def create_index(self, relation: str, attr: str, kind: str = "hash"):
        """Create (and bulk-build) a secondary index on a loaded relation.

        Index probes resolve primary keys against the TaaV store, so the
        system must keep it (``keep_taav=True``).
        """
        if self.database is None:
            raise ExecutionError("load() a database first")
        if self.taav is None:
            raise ExecutionError(_INDEXES_NEED_TAAV)
        return self.indexes.create(
            self.database.relation(relation), attr, kind
        )

    def drop_index(
        self,
        relation: str,
        attr: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> int:
        """Drop matching indexes (and their cluster entries)."""
        return self.indexes.drop(relation, attr, kind)

    def _validate_updates(self, statements: Sequence[Statement]) -> None:
        """Check every statement of one transaction before its first
        mutation: an unknown relation, or a delete of a row the relation
        does not hold once the earlier statements of the same
        transaction are applied, fails with the database, the stores,
        the index postings and the epoch clock all untouched."""
        if self.database is None:
            raise ExecutionError("load() a database first")
        #: per relation, the net copies of each row the earlier
        #: statements add (+) or remove (-)
        pending: Dict[str, Counter] = {}
        for relation, inserts, deletes in statements:
            base = self.database.relation(relation)
            delta = pending.setdefault(relation, Counter())
            for row, copies in Counter(deletes).items():
                if base.rows.count(row) + delta[row] < copies:
                    raise ExecutionError(
                        f"cannot delete {row!r}: {relation} holds fewer "
                        f"than {copies} such row(s)"
                    )
            delta.subtract(deletes)
            delta.update(inserts)

    def _apply_base(
        self, relation: str, inserts: List[Row], deletes: List[Row]
    ) -> None:
        """Apply a validated Δ to the database, the stores and every
        index (see :meth:`_validate_updates`)."""
        assert self.database is not None
        base = self.database.relation(relation)
        for row in deletes:
            base.rows.remove(row)
        base.extend(inserts)
        if self.taav is not None:
            taav = self.taav.relation(relation)
            # deletes first: a same-pk update (delete old + insert new)
            # must not delete the freshly inserted tuple
            for row in deletes:
                taav.delete_row(row)
            for row in inserts:
                taav.insert(row)
        self._apply_store(relation, inserts, deletes)
        self.indexes.apply_updates(relation, inserts, deletes)

    def _apply_store(
        self, relation: str, inserts: List[Row], deletes: List[Row]
    ) -> None:
        """Maintain the stores a subclass keeps beside the TaaV store."""

    def close(self) -> None:
        """Shut the cluster down (reaps node processes; idempotent)."""
        self.cluster.close()

    def __enter__(self: _S) -> _S:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SQLOverNoSQL(KVSystem):
    """A baseline SQL-over-NoSQL system (TaaV storage, fetch-all plans).

    Per-key gets by default — the conventional stack the paper
    measures; raise ``batch_size`` to model a multi-get-capable client.
    """

    @property
    def name(self) -> str:
        return f"So{self.profile.name[0].upper()}"

    def load(self, database: Database) -> None:
        """Load a database into the TaaV store (and build any indexes)."""
        self.database = database
        self.taav = TaaVStore.from_database(
            database, self.cluster, cache=self.cache
        )
        self._rebuild_indexes(database)
        self.cluster.reset_counters()

    def _plan(self, sql: str):
        if self.database is None or self.taav is None:
            raise ExecutionError("load() a database first")
        return build_plan_any(bind_any(parse(sql), self.database.schema))

    def execute(self, sql: str) -> QueryResult:
        return self._snapshot_execute(lambda: self._execute(sql))

    def _execute(self, sql: str) -> QueryResult:
        access: Dict[str, str] = {}
        table, metrics = self._engine(BaselineEngine).execute(self._plan(sql), access)
        summary = _access_summary(access)
        return QueryResult(
            to_relation(table), metrics, plan_summary=summary or None
        )

    def explain(self, sql: str) -> str:
        """The access path each relation occurrence would use (EXPLAIN)."""
        engine = self._engine(BaselineEngine)
        return _access_summary(engine.describe_access(self._plan(sql)))


class ZidianSystem(KVSystem):
    """A baseline system with Zidian plugged in (§8.2 deployment).

    ``batch_size`` is the number of probe keys coalesced per multi-get
    round (1 = per-key probes). The block cache stays off by default —
    paper reproductions measure BaaV's contribution alone. Secondary
    indexes need ``keep_taav``: index probes fetch TaaV tuples.
    """

    def __init__(
        self,
        backend: str = "hbase",
        workers: int = 8,
        storage_nodes: int = 4,
        degree_bound: int = 64,
        compress: bool = True,
        split_threshold: int = DEFAULT_SPLIT_THRESHOLD,
        keep_stats: bool = True,
        use_stats: bool = True,
        keep_taav: bool = True,
        batch_size: int = DEFAULT_BATCH_SIZE,
        **shared,
    ) -> None:
        super().__init__(backend, workers, storage_nodes, batch_size, **shared)
        self.degree_bound = degree_bound
        self.compress = compress
        self.split_threshold = split_threshold
        self.keep_stats = keep_stats
        self.use_stats = use_stats
        self.keep_taav = keep_taav
        self.store: Optional[BaaVStore] = None
        self.middleware: Optional[Zidian] = None
        self.maintainer: Optional[Maintainer] = None

    @property
    def name(self) -> str:
        return f"So{self.profile.name[0].upper()}Zidian"

    def load(
        self,
        database: Database,
        baav_schema: Optional[BaaVSchema] = None,
        workload: Optional[Sequence[str]] = None,
        budget_bytes: Optional[int] = None,
    ) -> None:
        """Load a database; design the BaaV schema with T2B if not given."""
        if baav_schema is None:
            if not workload:
                raise ExecutionError(
                    "provide a BaaV schema or a workload for T2B"
                )
            bound_queries = [
                bind(parse(sql), database.schema) for sql in workload
            ]
            qcs = extract_workload_qcs(bound_queries)
            baav_schema, _ = design_schema(
                database.schema, qcs, database, budget_bytes
            )
        self.database = database
        if self.keep_taav:
            self.taav = TaaVStore.from_database(
                database, self.cluster, cache=self.cache
            )
        self.store = BaaVStore.map_database(
            database,
            baav_schema,
            self.cluster,
            compress=self.compress,
            split_threshold=self.split_threshold,
            keep_stats=self.keep_stats,
            cache=self.cache,
        )
        if self._requested_indexes or len(self.indexes):
            if not self.keep_taav:
                raise ExecutionError(_INDEXES_NEED_TAAV)
            self._rebuild_indexes(database)
        self.middleware = Zidian(
            database.schema,
            baav_schema,
            self.store,
            degree_bound=self.degree_bound,
            allow_taav_fallback=self.keep_taav,
            use_stats=self.use_stats,
            index_catalog=self.indexes,
        )
        self.maintainer = Maintainer(self.store)
        self.cluster.reset_counters()

    def execute(self, sql: str) -> QueryResult:
        if self.middleware is None or self.store is None:
            raise ExecutionError("load() a database first")
        # the snapshot pin wraps the whole statement, so both sides of
        # a compound query read the same epoch
        return self._snapshot_execute(lambda: self._run(self.middleware.planned(sql)))

    def _execute_plan(
        self, plan, decision: QueryDecision, binder: Optional[ast.Binder] = None
    ) -> QueryResult:
        """Run a plan, or a template's :class:`Executable` over the
        statement's ``binder``."""
        if not isinstance(plan, Executable):
            plan = Executable(plan)
        table, metrics = self._engine(ZidianEngine, self.store).execute(plan, binder)
        relation = Relation(plan.schema, table.rows)
        return QueryResult(relation, metrics, decision, plan_summary=plan.summary)

    def explain(self, sql: str) -> str:
        """M1 checks, chase trace, index coverage and the KBA plan; a
        compound statement renders each side under its operator."""
        if self.middleware is None:
            raise ExecutionError("load() a database first")
        return self._explain(parse(sql))

    def _explain(self, stmt) -> str:
        if isinstance(stmt, ast.CompoundSelect):
            keyword = "UNION ALL" if stmt.op == "union" else "EXCEPT ALL"
            return (
                f"{self._explain(stmt.left)}\n{keyword}\n"
                f"{self._explain(stmt.right)}"
            )
        return self.middleware.explain(bind(stmt, self.database.schema))

    def _run(self, stmt) -> QueryResult:
        """Evaluate a planned statement (:meth:`Zidian.planned`); UNION
        ALL / EXCEPT ALL evaluate each side over the BaaV store and
        combine with KBA's bag ∪ / − semantics (§4.2)."""
        if not isinstance(stmt, ast.CompoundSelect):
            # the shape's executable is compiled the first time it runs
            template = stmt.template
            if template.executable is None:
                template.executable = Executable(template[0])
            return self._execute_plan(template.executable, stmt.decision, stmt.binder)
        left, right = self._run(stmt.left), self._run(stmt.right)
        if len(left.relation.schema.attributes) != len(
            right.relation.schema.attributes
        ):
            raise ExecutionError(
                "compound select operands must have equal arity"
            )
        if stmt.op == "union":
            rows = left.relation.rows + right.relation.rows
        else:
            rows = bag_difference(left.relation.rows, right.relation.rows)
        relation = Relation(left.relation.schema, rows)
        metrics = left.metrics
        metrics.merge(right.metrics)
        sub = list(left.sub_decisions or [left.decision])
        sub.append(right.decision)
        return QueryResult(relation, metrics, None, sub_decisions=sub)

    def _apply_store(
        self, relation: str, inserts: List[Row], deletes: List[Row]
    ) -> None:
        """Apply Δ incrementally to the BaaV store."""
        if self.maintainer is None:
            raise ExecutionError("load() a database first")
        self.maintainer.insert(relation, inserts)
        self.maintainer.delete(relation, deletes)
