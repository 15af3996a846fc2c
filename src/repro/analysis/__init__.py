"""repro-lint: the project's own static-analysis layer.

AST-based checkers enforcing the concurrency and protocol invariants
that used to live only in docstrings and review comments: lock
discipline, sharded-counter accounting, the error taxonomy and closure
cycles. Run as ``python -m repro.analysis src/`` (a blocking
CI gate); see ``docs/ARCHITECTURE.md`` § "Checked invariants".
"""

from repro.analysis.cli import all_checkers, analyze, main
from repro.analysis.core import (
    Checker,
    Finding,
    ParsedModule,
    Project,
    run_analysis,
)

__all__ = [
    "Checker",
    "Finding",
    "ParsedModule",
    "Project",
    "all_checkers",
    "analyze",
    "main",
    "run_analysis",
]
