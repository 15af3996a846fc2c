"""What `benchmarks/e2e/` needs from `src/` still holds.

The end-to-end benchmark may not be edited by the PRs it measures, and it
reaches into the program two ways: ``trace.py`` patches a declared list
of callables *on the class or module that defines them* (it resolves
through ``holder.__dict__``, so a method moved to a base class silently
turns ``--trace 1`` into a KeyError), and ``workloads.py`` constructs
the system and the service with a fixed set of keywords. Both are checked
here so a refactor fails in tier-1, not in the benchmark driver.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks.e2e import trace, workloads  # noqa: E402
from repro.service import QueryService  # noqa: E402
from repro.systems import ZidianSystem  # noqa: E402


@pytest.mark.parametrize(
    "target", trace.TARGETS, ids=lambda t: f"{t.owner or t.module}.{t.attr}"
)
def test_trace_target_is_defined_where_the_tracer_patches_it(target):
    assert callable(trace.live(target))
    assert not trace.patched_targets()


class _Recorder:
    """Stands in for the system / the service: keeps the keywords."""

    def __init__(self, *args, **kwargs):
        self.kwargs = kwargs

    def load(self, *args, **kwargs):
        pass

    def close(self, **kwargs):
        pass


@pytest.mark.parametrize("name", ["scanfree_local", "mixed_rw_wal"])
def test_benchmark_keywords_are_accepted(monkeypatch, tmp_path, name):
    """Build the real system and service from exactly the keywords the
    benchmark's Deployment passes (volatile and WAL-backed)."""
    monkeypatch.setattr(workloads, "ZidianSystem", _Recorder)
    monkeypatch.setattr(workloads, "QueryService", _Recorder)
    monkeypatch.setattr(workloads, "TMP_DIR", str(tmp_path))
    with workloads.Deployment(workloads.WORKLOADS[name], smoke=True) as recorded:
        system_kwargs = dict(recorded.system.kwargs)
        service_kwargs = dict(recorded.service.kwargs)
    if "data_dir" in system_kwargs:
        system_kwargs["data_dir"] = str(tmp_path / "wal")
    with ZidianSystem(**system_kwargs) as system:
        for key in ("workers", "vectorized"):
            assert getattr(system, key) == system_kwargs[key]
        assert system.cluster.durability == system_kwargs["durability"]
        service = QueryService(system, **service_kwargs)
        try:
            assert service.mvcc is service_kwargs["mvcc"]
        finally:
            service.close()
