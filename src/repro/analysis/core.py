"""The repro-lint core: parsed modules, findings, suppressions, runner.

``repro-lint`` is the project's own static-analysis layer: the
concurrency invariants PR 5/PR 6 introduced (lock-guarded fields,
thread-sharded counters, the error taxonomy) are enforced here by
machine instead of by code review. The framework is deliberately small:

* :class:`ParsedModule` — one source file: its AST, raw lines, and the
  ``# repro-lint: disable=<rule>`` suppression map extracted from the
  token stream (the AST drops comments, so suppressions are collected
  with :mod:`tokenize`).
* :class:`Project` — every parsed module of one run, so a checker can
  consult declarations made in other files.
* :class:`Checker` — the plugin API: a checker declares the rule names
  it can emit and yields :class:`Finding` objects for one module.
* :func:`run_analysis` — parse, run every checker, filter suppressed
  findings, return the survivors sorted by location.

Suppression forms (rule-keyed, so a disable never silences more than
it names):

* trailing on the offending line::

      self._lock.acquire()  # repro-lint: disable=raw-acquire -- why

* a standalone comment on the line directly above the offending line.

Everything after ``--`` is a human justification and is ignored by the
matcher; ``disable=all`` suppresses every rule on that line.
"""

from __future__ import annotations

import ast
import io
import json
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

#: the comment marker every suppression / annotation starts with
MARKER = "# repro-lint:"


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file position."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


def _parse_directive(comment: str) -> Optional[Dict[str, str]]:
    """Parse one ``# repro-lint: key=value`` comment; ``None`` if it is
    not a repro-lint directive. A ``-- justification`` suffix is
    stripped (it is for humans)."""
    text = comment.strip()
    if not text.startswith(MARKER):
        return None
    body = text[len(MARKER):].strip()
    body = body.split("--", 1)[0].strip()
    out: Dict[str, str] = {}
    for part in body.split():
        if "=" not in part:
            continue
        key, _, value = part.partition("=")
        out[key.strip()] = value.strip()
    return out


@dataclass
class ParsedModule:
    """One parsed source file plus its comment-derived metadata."""

    path: str          #: path as given on the command line / to the runner
    relpath: str       #: normalized, repo-relative-ish path for matching
    source: str
    tree: ast.Module
    #: line → rule names disabled on that line ("all" disables any rule)
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: line → lock names asserted held by a ``holds=<lock>`` directive
    #: (scope: the enclosing function, anchored at its ``def`` body)
    holds: Dict[int, Set[str]] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, root: Optional[Path] = None) -> "ParsedModule":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        relpath = str(path)
        if root is not None:
            try:
                relpath = str(path.resolve().relative_to(root.resolve()))
            except ValueError:
                relpath = str(path)
        module = cls(
            path=str(path),
            relpath=relpath.replace("\\", "/"),
            source=source,
            tree=tree,
        )
        module._collect_directives()
        return module

    def _collect_directives(self) -> None:
        reader = io.StringIO(self.source).readline
        try:
            tokens = list(tokenize.generate_tokens(reader))
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            return  # an unparsable token stream has already failed ast.parse
        #: physical lines that hold only a comment (suppress the NEXT line)
        standalone: Set[int] = set()
        code_lines: Set[int] = set()
        for tok in tokens:
            if tok.type in (
                tokenize.NL,
                tokenize.NEWLINE,
                tokenize.INDENT,
                tokenize.DEDENT,
                tokenize.ENCODING,
                tokenize.ENDMARKER,
            ):
                continue
            if tok.type == tokenize.COMMENT:
                directive = _parse_directive(tok.string)
                if directive is None:
                    continue
                line = tok.start[0]
                disabled = directive.get("disable")
                if disabled:
                    rules = {r for r in disabled.split(",") if r}
                    self.suppressions.setdefault(line, set()).update(rules)
                    standalone.add(line)
                held = directive.get("holds")
                if held:
                    locks = {h for h in held.split(",") if h}
                    self.holds.setdefault(line, set()).update(locks)
            else:
                code_lines.add(tok.start[0])
        # a standalone suppression comment covers the next code line,
        # skipping over blank lines and comment continuation lines
        last_code = max(code_lines, default=0)
        for line in standalone:
            if line in code_lines:
                continue  # trailing comment: covers its own line only
            rules = self.suppressions.get(line, set())
            target = line + 1
            while target not in code_lines and target <= last_code:
                target += 1
            self.suppressions.setdefault(target, set()).update(rules)

    def is_suppressed(self, line: int, rule: str) -> bool:
        rules = self.suppressions.get(line)
        if not rules:
            return False
        return rule in rules or "all" in rules

    def held_locks_for(self, node: ast.AST) -> Set[str]:
        """Locks asserted held (``holds=`` directives) inside ``node``'s
        line span — used to mark helper methods whose caller holds the
        lock."""
        start = getattr(node, "lineno", None)
        end = getattr(node, "end_lineno", None)
        if start is None or end is None:
            return set()
        out: Set[str] = set()
        for line, locks in self.holds.items():
            if start <= line <= end:
                out.update(locks)
        return out


@dataclass
class Project:
    """Every module of one analysis run (a checker may need declarations
    made in other files in view)."""

    modules: List[ParsedModule]


class Checker:
    """Base class of one repro-lint checker plugin.

    Subclasses set :attr:`name` (the checker id), :attr:`rules` (every
    rule name they may emit — the suppression keys), and override
    :meth:`check_module`.
    """

    name: str = ""
    description: str = ""
    rules: Sequence[str] = ()

    def check_module(
        self, module: ParsedModule, project: Project
    ) -> Iterator[Finding]:
        return iter(())


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Every ``.py`` file under the given files/directories, skipping
    caches and hidden directories, in a stable order."""
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file() and path.suffix == ".py":
            candidates: Iterable[Path] = [path]
        elif path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for candidate in candidates:
            parts = candidate.parts
            if any(
                part == "__pycache__" or part.startswith(".")
                for part in parts
            ):
                continue
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            yield candidate


def load_project(
    paths: Sequence[str], root: Optional[Path] = None
) -> Project:
    modules = [
        ParsedModule.parse(path, root=root)
        for path in iter_python_files(paths)
    ]
    return Project(modules=modules)


def run_analysis(
    paths: Sequence[str],
    checkers: Sequence[Checker],
    rules: Optional[Set[str]] = None,
    root: Optional[Path] = None,
) -> List[Finding]:
    """Parse ``paths``, run ``checkers``, return unsuppressed findings.

    ``rules`` restricts the run to a subset of rule names (``None`` =
    all). Findings are sorted by (path, line, col, rule).
    """
    project = load_project(paths, root=root)
    by_path = {module.path: module for module in project.modules}
    findings: List[Finding] = []
    for checker in checkers:
        raw: List[Finding] = []
        for module in project.modules:
            raw.extend(checker.check_module(module, project))
        for finding in raw:
            if rules is not None and finding.rule not in rules:
                continue
            module = by_path.get(finding.path)
            if module is not None and module.is_suppressed(
                finding.line, finding.rule
            ):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def render_findings(findings: Sequence[Finding], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            [finding.to_json() for finding in findings], indent=2
        )
    lines = [finding.render() for finding in findings]
    if findings:
        lines.append(f"{len(findings)} finding(s)")
    return "\n".join(lines)
