"""The shipped tree must satisfy its own lint gate, and the CLI's exit
codes are the CI contract."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.cli import all_checkers, analyze, main

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_shipped_src_tree_is_lint_clean():
    findings = analyze([str(REPO_ROOT / "src")], root=REPO_ROOT)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_every_checker_declares_rules():
    for checker in all_checkers():
        assert checker.name
        assert checker.rules, checker.name
        assert checker.description


def test_cli_exit_zero_on_clean_tree(capsys):
    assert main([str(REPO_ROOT / "src"), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out or "[]") == []


def test_cli_exit_one_with_findings(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f():\n    try:\n        g()\n    except:\n        pass\n")
    assert main([str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload and payload[0]["rule"] == "bare-except"
    assert payload[0]["line"] == 4


def test_cli_exit_two_on_usage_errors(capsys):
    assert main([]) == 2
    assert main(["--rules", "no-such-rule", "x.py"]) == 2
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in (
        "guarded-field", "raw-acquire", "lock-blocking-call",
        "counter-accounting", "bare-except",
        "broad-except", "foreign-raise", "recursive-closure",
    ):
        assert rule in out, rule
    assert "wire-protocol" not in out
