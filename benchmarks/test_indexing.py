"""Secondary indexes: scan-free plans for selective non-key predicates.

The paper's scan-free machinery needs a predicate to bind a relation
*key*; every other selective filter degenerates to a full fetch-all
scan. This benchmark measures the new index subsystem closing exactly
that gap, three ways:

* **AIR-CA selective filters** — Zipf-skewed equality on
  ``FLIGHT.tail_id`` (≤1% selectivity) and narrow ranges on
  ``FLIGHT.dep_delay``, scan vs index probe on the conventional stack;
* **MOT (kvload-style) filters** — the same comparison on the MOT TEST
  relation (equality on ``vehicle_id`` ~0.1% selectivity, ranges on
  ``odometer``);
* **Zidian ScanKV vs IndexProbe** — a filter on an attribute only a
  wide KV instance covers: the planner swaps the instance scan for an
  index probe + multi_get.

Plus the honest bill: a **maintenance table** showing the write
amplification indexes add to every update batch.
"""

from harness import (
    BACKENDS,
    baav_schema_for,
    dataset,
    fmt,
    metric,
    publish,
    publish_json,
    render_table,
)

from repro.systems import SQLOverNoSQL, ZidianSystem
from repro.workloads.airca import generate_airca
from repro.workloads.generator import selective_workload

SCALE_UNITS = 3
N_QUERIES = 8
EQ_TARGET = 3.0      # acceptance: ≥3x on ≤1%-selectivity equality
RANGE_TARGET = 2.0   # acceptance: ≥2x on narrow range filters


def run_selective(name, relation, eq_attr, range_attr, range_width):
    db = dataset(name, SCALE_UNITS)
    queries = selective_workload(
        db,
        relation,
        eq_attr,
        range_attr,
        n_queries=N_QUERIES,
        seed=101,
        range_width=range_width,
    )
    specs = [f"{relation}.{eq_attr}", f"{relation}.{range_attr}:ordered"]
    results = {}
    for backend in BACKENDS:
        plain = SQLOverNoSQL(backend)
        plain.load(db)
        indexed = SQLOverNoSQL(backend, indexes=specs)
        indexed.load(db)
        sums = {"sel_eq": [0.0, 0.0], "sel_range": [0.0, 0.0]}
        probes = postings = 0
        selectivity = {"sel_eq": [], "sel_range": []}
        for query in queries:
            a = plain.execute(query.sql)
            b = indexed.execute(query.sql)
            assert sorted(a.rows) == sorted(b.rows), query.sql
            assert "index probe" in b.plan_summary, query.sql
            sums[query.template][0] += a.metrics.sim_time_ms
            sums[query.template][1] += b.metrics.sim_time_ms
            probes += b.metrics.index_probes
            postings += b.metrics.index_postings
            selectivity[query.template].append(
                len(a.rows) / max(1, len(db.relation(relation)))
            )
        results[backend] = (sums, probes, postings, selectivity)
    return results


def _selective_report(title, slug, results, relation_note):
    rows = []
    eq_speedups, range_speedups = [], []
    for backend, (sums, probes, postings, selectivity) in results.items():
        eq_scan, eq_idx = sums["sel_eq"]
        rg_scan, rg_idx = sums["sel_range"]
        eq_speedups.append(eq_scan / eq_idx)
        range_speedups.append(rg_scan / rg_idx)
        rows.append(
            [
                backend,
                fmt(eq_scan),
                fmt(eq_idx),
                f"{eq_scan / eq_idx:.2f}x",
                fmt(rg_scan),
                fmt(rg_idx),
                f"{rg_scan / rg_idx:.2f}x",
                str(probes),
                str(postings),
            ]
        )
    any_sel = next(iter(results.values()))[3]
    note = (
        f"{relation_note}; mean selectivity eq="
        f"{100 * sum(any_sel['sel_eq']) / len(any_sel['sel_eq']):.2f}% "
        f"range="
        f"{100 * sum(any_sel['sel_range']) / len(any_sel['sel_range']):.2f}%"
    )
    publish(
        slug,
        render_table(
            f"{title}\n{note}",
            [
                "backend",
                "eq scan ms",
                "eq idx ms",
                "eq speedup",
                "rng scan ms",
                "rng idx ms",
                "rng speedup",
                "probes",
                "postings",
            ],
            rows,
        ),
    )
    return eq_speedups, range_speedups


def test_airca_selective_filters(once):
    results = once(
        run_selective, "airca", "FLIGHT", "tail_id", "dep_delay", 0.02
    )
    eq_speedups, range_speedups = _selective_report(
        "Secondary indexes: AIR-CA selective non-key filters "
        "(scan vs index probe)",
        "indexing_selective_airca",
        results,
        "FLIGHT, hash(tail_id) + ordered(dep_delay)",
    )
    publish_json(
        "indexing_airca",
        [
            metric("min_eq_speedup", min(eq_speedups), "x"),
            metric("min_range_speedup", min(range_speedups), "x"),
        ],
        config={"relation": "FLIGHT", "selectivity": 0.02},
    )
    assert min(eq_speedups) >= EQ_TARGET, eq_speedups
    assert min(range_speedups) >= RANGE_TARGET, range_speedups


def test_mot_selective_filters(once):
    results = once(
        run_selective, "mot", "TEST", "vehicle_id", "odometer", 0.01
    )
    eq_speedups, range_speedups = _selective_report(
        "Secondary indexes: MOT kvload-style selective filters "
        "(scan vs index probe)",
        "indexing_selective_mot",
        results,
        "TEST, hash(vehicle_id) + ordered(odometer)",
    )
    assert min(eq_speedups) >= EQ_TARGET, eq_speedups
    assert min(range_speedups) >= RANGE_TARGET, range_speedups


# --------------------------------------------------------------------------
# Zidian: index probe replacing a wide ScanKV
# --------------------------------------------------------------------------


ZIDIAN_SQL = (
    "select CS.stat_id, CS.flights from CSTAT CS "
    "where CS.metric_01 > 97.0"
)


def run_zidian_scan_vs_probe():
    db = dataset("airca", SCALE_UNITS)
    baav = baav_schema_for("airca")
    results = {}
    for backend in BACKENDS:
        plain = ZidianSystem(backend, batch_size=1)
        plain.load(db, baav)
        indexed = ZidianSystem(
            backend, batch_size=1, indexes=["CSTAT.metric_01:ordered"]
        )
        indexed.load(db, baav)
        a = plain.execute(ZIDIAN_SQL)
        b = indexed.execute(ZIDIAN_SQL)
        assert sorted(a.rows) == sorted(b.rows)
        assert not a.decision.is_scan_free
        assert b.decision.is_scan_free
        assert "index probe" in b.plan_summary
        results[backend] = (a.metrics, b.metrics)
    return results


def test_zidian_index_probe_over_scan_kv(once):
    results = once(run_zidian_scan_vs_probe)
    rows = []
    speedups = []
    for backend, (scan, idx) in results.items():
        speedups.append(scan.sim_time_ms / idx.sim_time_ms)
        rows.append(
            [
                backend,
                fmt(scan.sim_time_ms),
                str(scan.n_get),
                fmt(idx.sim_time_ms),
                str(idx.n_get),
                f"{scan.sim_time_ms / idx.sim_time_ms:.2f}x",
            ]
        )
    publish(
        "indexing_zidian_scan_vs_probe",
        render_table(
            "Zidian: wide ScanKV (cstat_by_id) vs IndexProbe "
            "(ordered on CSTAT.metric_01, ~1% selectivity)",
            [
                "backend",
                "scan ms",
                "scan #get",
                "probe ms",
                "probe #get",
                "speedup",
            ],
            rows,
        ),
    )
    publish_json(
        "indexing_zidian_probe",
        [metric("min_probe_speedup", min(speedups), "x")],
        config={"relation": "CSTAT", "attr": "metric_01"},
    )
    assert min(speedups) >= RANGE_TARGET, speedups


# --------------------------------------------------------------------------
# maintenance: what write-through indexing costs per update batch
# --------------------------------------------------------------------------


N_UPDATE_INSERTS = 150
N_UPDATE_DELETES = 75


def run_maintenance():
    """Identical FLIGHT update batches with and without indexes."""
    systems = {}
    for label, specs in (
        ("no index", []),
        ("hash(tail_id)", ["FLIGHT.tail_id"]),
        (
            "hash+ordered",
            ["FLIGHT.tail_id", "FLIGHT.dep_delay:ordered"],
        ),
    ):
        # private database copies: apply_updates mutates them in place
        system = SQLOverNoSQL("hbase", indexes=specs)
        system.load(generate_airca(scale=1.5 * SCALE_UNITS, seed=31))
        systems[label] = system

    template = next(iter(systems.values())).database.relation("FLIGHT")
    inserts = [
        (1_000_000 + i,) + row[1:]
        for i, row in enumerate(template.rows[:N_UPDATE_INSERTS])
    ]
    deletes = list(template.rows[:N_UPDATE_DELETES])

    out = {}
    for label, system in systems.items():
        system.cluster.reset_counters()
        idx_puts = system.indexes.stats.total().maintenance_puts
        idx_bytes = system.indexes.stats.total().maintenance_bytes
        system.apply_updates("FLIGHT", inserts=inserts, deletes=deletes)
        counters = system.cluster.total_counters()
        out[label] = (
            counters.puts,
            counters.bytes_in,
            system.indexes.stats.total().maintenance_puts - idx_puts,
            system.indexes.stats.total().maintenance_bytes - idx_bytes,
        )
    return out


def test_index_maintenance_overhead(once):
    out = once(run_maintenance)
    base_puts, base_bytes, _, _ = out["no index"]
    rows = []
    for label, (puts, bytes_in, idx_puts, idx_bytes) in out.items():
        rows.append(
            [
                label,
                str(puts),
                fmt(bytes_in),
                str(idx_puts),
                fmt(idx_bytes),
                f"{puts / base_puts:.2f}x",
                f"{bytes_in / base_bytes:.2f}x",
            ]
        )
    publish(
        "indexing_maintenance",
        render_table(
            f"Index write amplification: {N_UPDATE_INSERTS} inserts + "
            f"{N_UPDATE_DELETES} deletes on FLIGHT",
            [
                "indexes",
                "puts",
                "bytes in",
                "idx puts",
                "idx bytes",
                "put amp",
                "byte amp",
            ],
            rows,
        ),
    )
    # write-through is not free, but bounded: every index adds O(|Δ|)
    # puts, far from doubling the base-table byte volume
    for label, (puts, bytes_in, idx_puts, idx_bytes) in out.items():
        if label != "no index":
            assert puts > base_puts, label
            assert idx_puts > 0, label
    worst = max(values[1] / base_bytes for values in out.values())
    assert worst < 2.0, out
