"""`benchmarks/compare_baselines.py --exact`: byte identity or exit 1."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks import compare_baselines  # noqa: E402


@pytest.fixture()
def dirs(tmp_path, monkeypatch):
    results, baselines = tmp_path / "results", tmp_path / "baselines"
    results.mkdir()
    baselines.mkdir()
    monkeypatch.setattr(compare_baselines, "RESULTS_DIR", str(results))
    monkeypatch.setattr(compare_baselines, "BASELINES_DIR", str(baselines))
    for name in ("same", "moved"):
        (baselines / f"BENCH_{name}.json").write_text('{"metrics": [1.0]}\n')
    (results / "BENCH_same.json").write_text('{"metrics": [1.0]}\n')
    # equal as JSON, not as bytes
    (results / "BENCH_moved.json").write_text('{"metrics": [1.00]}\n')
    return results, baselines


def test_identical_artifacts_exit_zero(dirs, capsys):
    assert compare_baselines.main(["--exact", "same"]) == 0
    assert "1 of 1 artifact(s) byte-identical" in capsys.readouterr().out


def test_a_differing_or_missing_artifact_exits_one(dirs, capsys):
    assert compare_baselines.main(["--exact", "same", "moved"]) == 1
    out = capsys.readouterr().out
    assert "DIFFERENT: BENCH_moved.json" in out
    assert "1 of 2 artifact(s) byte-identical" in out
    assert compare_baselines.main(["--exact", "never_ran"]) == 1
    assert "BENCH_never_ran.json" in capsys.readouterr().out
