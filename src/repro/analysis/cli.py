"""``python -m repro.analysis`` — the repro-lint command line.

Usage::

    python -m repro.analysis src/ [tests/ ...] [--format json|text]
                                  [--rules rule1,rule2] [--list-rules]

Exit status: ``0`` when clean, ``1`` when findings survive
suppressions, ``2`` on usage errors. JSON output is a list of
``{path, line, col, rule, message}`` objects (the CI gate parses it).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Set

from repro.analysis.closure_cycles import ClosureCycleChecker
from repro.analysis.core import Checker, Finding, render_findings, run_analysis
from repro.analysis.counter_accounting import CounterAccountingChecker
from repro.analysis.error_taxonomy import ErrorTaxonomyChecker
from repro.analysis.lock_discipline import LockDisciplineChecker


def all_checkers() -> List[Checker]:
    """One instance of every registered checker (the plugin registry)."""
    return [
        LockDisciplineChecker(),
        CounterAccountingChecker(),
        ErrorTaxonomyChecker(),
        ClosureCycleChecker(),
    ]


def analyze(
    paths: Sequence[str],
    rules: Optional[Set[str]] = None,
    root: Optional[Path] = None,
) -> List[Finding]:
    """Library entry point: run every checker over ``paths``."""
    return run_analysis(
        paths, all_checkers(), rules=rules, root=root or Path.cwd()
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "repro-lint: project-specific concurrency/protocol static "
            "analysis (lock discipline, counter accounting, error "
            "taxonomy, closure cycles)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to analyze"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every checker and its rules, then exit",
    )
    args = parser.parse_args(argv)

    checkers = all_checkers()
    if args.list_rules:
        for checker in checkers:
            print(f"{checker.name}: {checker.description}")
            for rule in checker.rules:
                print(f"  - {rule}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print(
            "error: provide at least one path (or --list-rules)",
            file=sys.stderr,
        )
        return 2

    rules: Optional[Set[str]] = None
    if args.rules is not None:
        rules = {rule.strip() for rule in args.rules.split(",") if rule.strip()}
        known = {rule for checker in checkers for rule in checker.rules}
        unknown = rules - known
        if unknown:
            print(
                f"error: unknown rule(s): {', '.join(sorted(unknown))} "
                f"(see --list-rules)",
                file=sys.stderr,
            )
            return 2

    try:
        findings = run_analysis(
            args.paths, checkers, rules=rules, root=Path.cwd()
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(f"error: cannot parse {exc.filename}: {exc}", file=sys.stderr)
        return 2

    output = render_findings(findings, args.format)
    if output:
        print(output)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
