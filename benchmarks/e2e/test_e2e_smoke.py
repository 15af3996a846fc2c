"""Self-test of the end-to-end benchmark (`run.py --smoke`).

Collected by the non-blocking ``pytest benchmarks/`` job, not by tier-1.
It checks the benchmark, not the system: every workload and metric that
``BENCHMARK.json`` names comes out with its unit, the trace attributes a
request's whole time, the timing shims are gone after a traced pass, and
no storage-node process outlives a run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")


@pytest.fixture(scope="module")
def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke_results(contract) -> dict:
    """Run the whole command once in smoke mode and load what it wrote."""
    done = subprocess.run(
        [sys.executable, RUN, "--smoke"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout
    results = {}
    for workload in contract["workloads"]:
        path = os.path.join(HERE, "results", "smoke", f"{workload['name']}.json")
        with open(path, encoding="utf-8") as handle:
            results[workload["name"]] = json.load(handle)
    results["stdout"] = done.stdout
    return results


def test_every_declared_metric_is_reported_with_its_unit(contract, smoke_results):
    for workload in contract["workloads"]:
        result = smoke_results[workload["name"]]
        assert result["correct"] and result["failed_share"] == 0.0
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in contract[section]}
            reported = {n: m["unit"] for n, m in result[section].items()}
            assert reported == declared
            for name in declared:
                assert name in smoke_results["stdout"]
        for metric in result["end_to_end"].values():
            assert metric["value"] > 0


def test_trace_accounts_for_the_whole_request(smoke_results, contract):
    for workload in contract["workloads"]:
        per_layer = smoke_results[workload["name"]]["per_layer"]
        assert abs(per_layer["trace.coverage_share"]["value"] - 1.0) <= 0.05


def test_exact_counts_do_not_depend_on_the_transport(smoke_results):
    from e2e.run import EXACT  # benchmarks/conftest.py put benchmarks/ on the path

    local = smoke_results["analytic_local"]["per_layer"]
    remote = smoke_results["analytic_socket"]["per_layer"]
    for name in EXACT:
        assert local[name]["value"] == remote[name]["value"]
    assert local["kv.remote.rpcs_per_query"]["value"] == 0
    assert remote["kv.remote.rpcs_per_query"]["value"] > 0


def test_no_node_process_or_data_dir_survives(smoke_results):
    pids = smoke_results["analytic_socket"]["node_pids"]
    assert len(pids) == 8  # 4 nodes x (untraced run, traced run)
    for pid in pids:
        assert not os.path.exists(f"/proc/{pid}")
    leftovers = os.path.join(HERE, ".tmp")
    assert not os.path.isdir(leftovers) or not os.listdir(leftovers)


def test_shims_are_removed_after_a_traced_pass():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from importlib import import_module

    from e2e import trace

    def live():
        return [trace.live(target) for target in trace.TARGETS]

    before = live()
    tracer = trace.Tracer()
    with tracer.installed():
        assert trace.patched_targets() == list(trace.TARGETS)
        # a copied binding (`from repro.sql.parser import parse`) is patched too
        systems = import_module("repro.systems.sql_over_nosql")
        assert hasattr(systems.parse, "__wrapped__")
    assert trace.patched_targets() == []
    assert all(a is b for a, b in zip(live(), before))
    assert not hasattr(systems.parse, "__wrapped__")
