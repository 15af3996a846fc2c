"""Lock-discipline checker: guarded fields, raw acquires, blocking calls.

Three rules over the locking contracts of ``docs/ARCHITECTURE.md``:

* ``guarded-field`` — a mutation of a field registered in
  :data:`repro.analysis.config.GUARDED_FIELDS` must happen lexically
  inside ``with self.<lock>`` (the write side, for RWLock guards).
  ``__init__`` is exempt (the object is not shared yet); helpers whose
  *caller* holds the lock carry a ``# repro-lint: holds=<lock>``
  directive.
* ``raw-acquire`` — ``.acquire()`` / ``.acquire_read()`` /
  ``.acquire_write()`` outside a ``with`` is flagged unless the very
  next statement is a ``try`` whose ``finally`` releases (the
  context-manager implementation pattern); a bare ``.release*()``
  outside a ``finally`` is flagged symmetrically.
* ``lock-blocking-call`` — a blocking call (``time.sleep``, socket
  I/O, the wire-protocol helpers, subprocess waits) while lexically
  holding any lock is flagged: it turns a shared data-structure guard
  into an I/O convoy.

The lexical model is deliberately conservative: it tracks ``with``
nesting and simple local aliases (``x = self._entries``) inside one
function body; nested ``def``/``lambda`` bodies reset the held-lock
set (a closure runs later, not under the enclosing ``with``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis import config
from repro.analysis.core import Checker, Finding, ParsedModule, Project

#: (owner, lock, mode): owner is "self" or "" (module level); mode is
#: "mutex", "read" or "write"
_HeldToken = Tuple[str, str, str]

_ACQUIRE_NAMES = ("acquire", "acquire_read", "acquire_write")
_RELEASE_NAMES = ("release", "release_read", "release_write")


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _lockish_name(name: str) -> bool:
    lowered = name.lower()
    return any(
        marker in lowered for marker in ("lock", "_gate", "_cond", "mutex")
    )


def _with_tokens(item: ast.withitem) -> List[_HeldToken]:
    """The held-lock tokens one ``with`` item contributes (empty when
    the context manager is not lock-like)."""
    expr = item.context_expr
    # with self._lock.read() / .write()  (and module-level rwlocks)
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in ("read", "write")
    ):
        base = expr.func.value
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            return [("self", base.attr, expr.func.attr)]
        if isinstance(base, ast.Name):
            return [("", base.id, expr.func.attr)]
        return []
    # with self._lock:  /  with _REGISTRY_LOCK:  /  with samples_lock:
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        if _lockish_name(expr.attr):
            return [("self", expr.attr, "mutex")]
        return []
    if isinstance(expr, ast.Name) and _lockish_name(expr.id):
        return [("", expr.id, "mutex")]
    return []


def _specs_for(
    module: ParsedModule,
) -> Optional[Dict[Optional[str], Tuple[config.GuardSpec, ...]]]:
    for suffix, per_class in config.GUARDED_FIELDS.items():
        if module.relpath.endswith(suffix):
            return per_class
    return None


def _targets_of(node: ast.AST) -> Iterator[ast.AST]:
    """The single targets of an assignment target (tuples unpacked)."""
    if isinstance(node, ast.Tuple) or isinstance(node, ast.List):
        for element in node.elts:
            yield from _targets_of(element)
    else:
        yield node


class _FunctionScanner:
    """Scan one function body with lexical held-lock tracking."""

    def __init__(
        self,
        checker: "LockDisciplineChecker",
        module: ParsedModule,
        specs: Sequence[config.GuardSpec],
        func: ast.AST,
        findings: List[Finding],
    ) -> None:
        self.checker = checker
        self.module = module
        self.specs = specs
        self.findings = findings
        #: local name → guarded field it aliases (x = self._entries)
        self.aliases: Dict[str, str] = {}
        self.base_held: Set[_HeldToken] = set()
        for lock in module.held_locks_for(func):
            # a holds= directive asserts the caller took the lock in
            # whatever mode the guard needs
            for mode in ("mutex", "read", "write"):
                self.base_held.add(("self", lock, mode))
                self.base_held.add(("", lock, mode))

    # -- guard resolution ---------------------------------------------------

    def _guard_satisfied(
        self, spec: config.GuardSpec, held: Set[_HeldToken]
    ) -> bool:
        for owner in ("self", ""):
            if spec.kind == config.RWLOCK:
                if (owner, spec.lock, "write") in held:
                    return True
            else:
                if (owner, spec.lock, "mutex") in held:
                    return True
        return False

    def _spec_for_field(self, field: str) -> Optional[config.GuardSpec]:
        for spec in self.specs:
            if field in spec.fields:
                return spec
        return None

    def _resolve_base(self, node: ast.AST) -> Optional[str]:
        """The guarded-field name a mutation base refers to, if any.

        Handles ``self.F``, a module-level ``F``, and one level of
        local aliasing (``x = self.F``).
        """
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            if self._spec_for_field(node.attr) is not None:
                return node.attr
            return None
        if isinstance(node, ast.Name):
            if self._spec_for_field(node.id) is not None:
                return node.id
            return self.aliases.get(node.id)
        return None

    def _mutation_bases(self, stmt: ast.stmt) -> Iterator[Tuple[str, ast.AST]]:
        """Guarded fields this statement mutates, with anchor nodes."""

        def base_of_target(target: ast.AST) -> Optional[str]:
            # self.F = ... | self.F[k] = ... | self.F.attr = ... |
            # alias[k] = ... — all mutate F (one container level deep)
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self._spec_for_field(target.attr) is not None
            ):
                return target.attr  # direct rebinding of the field
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                return self._resolve_base(target.value)
            return None

        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            raw_targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for raw in raw_targets:
                for target in _targets_of(raw):
                    field = base_of_target(target)
                    if field is not None:
                        yield field, target
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                field = base_of_target(target)
                if field is not None:
                    yield field, target
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in config.MUTATING_METHODS
            ):
                field = self._resolve_base(call.func.value)
                if field is not None:
                    yield field, call

    def _note_aliases(self, stmt: ast.stmt) -> None:
        if not isinstance(stmt, ast.Assign):
            return
        if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
            return
        field = self._resolve_base(stmt.value)
        if field is not None:
            self.aliases[stmt.targets[0].id] = field

    # -- statement walk -----------------------------------------------------

    def scan(self, body: Sequence[ast.stmt], check_guards: bool) -> None:
        self._scan_block(
            body, set(self.base_held), check_guards, in_finally=False
        )

    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.module.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )

    def _scan_block(
        self,
        body: Sequence[ast.stmt],
        held: Set[_HeldToken],
        check_guards: bool,
        in_finally: bool,
    ) -> None:
        for index, stmt in enumerate(body):
            self._note_aliases(stmt)
            if check_guards:
                for field, anchor in self._mutation_bases(stmt):
                    spec = self._spec_for_field(field)
                    if spec is None or self._guard_satisfied(spec, held):
                        continue
                    side = (
                        f"with ...{spec.lock}.write()"
                        if spec.kind == config.RWLOCK
                        else f"with ...{spec.lock}"
                    )
                    self._flag(
                        "guarded-field",
                        anchor,
                        f"mutation of lock-guarded field {field!r} "
                        f"outside `{side}` (see GUARDED_FIELDS in "
                        f"repro/analysis/config.py)",
                    )
            self._scan_expressions(stmt, held)
            self._scan_acquires(stmt, body, index, in_finally)
            # recurse into compound statements
            if isinstance(stmt, ast.With):
                inner = set(held)
                for item in stmt.items:
                    inner.update(_with_tokens(item))
                self._scan_block(stmt.body, inner, check_guards, in_finally)
            elif isinstance(stmt, (ast.If, ast.While)):
                self._scan_block(stmt.body, held, check_guards, in_finally)
                self._scan_block(stmt.orelse, held, check_guards, in_finally)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan_block(stmt.body, held, check_guards, in_finally)
                self._scan_block(stmt.orelse, held, check_guards, in_finally)
            elif isinstance(stmt, ast.Try):
                self._scan_block(stmt.body, held, check_guards, in_finally)
                for handler in stmt.handlers:
                    self._scan_block(
                        handler.body, held, check_guards, in_finally
                    )
                self._scan_block(stmt.orelse, held, check_guards, in_finally)
                self._scan_block(
                    stmt.finalbody, held, check_guards, in_finally=True
                )
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                # a nested def runs later: fresh lexical context
                self.checker.scan_function(
                    self.module, self.specs, stmt, self.findings,
                    check_guards=check_guards,
                )

    # -- expression-level rules ---------------------------------------------

    def _scan_expressions(
        self, stmt: ast.stmt, held: Set[_HeldToken]
    ) -> None:
        """Blocking calls under a held lock (any lock-like ``with``)."""
        if not held:
            return
        if isinstance(
            stmt, (ast.With, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            # only this statement's own headers; bodies recurse separately
            nodes: List[ast.AST] = (
                [item.context_expr for item in stmt.items]
                if isinstance(stmt, ast.With)
                else []
            )
        elif isinstance(stmt, (ast.If, ast.While)):
            nodes = [stmt.test]
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            nodes = [stmt.iter]
        elif isinstance(stmt, ast.Try):
            nodes = []
        else:
            nodes = [stmt]
        for root in nodes:
            for node in ast.walk(root):
                if not isinstance(node, ast.Call):
                    continue
                dotted = _dotted_name(node.func)
                blocking = None
                if dotted is not None and dotted in config.BLOCKING_DOTTED:
                    blocking = dotted
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in config.BLOCKING_METHODS
                ):
                    blocking = node.func.attr
                if blocking is not None:
                    locks = ", ".join(sorted(t[1] for t in held))
                    self._flag(
                        "lock-blocking-call",
                        node,
                        f"blocking call {blocking!r} while holding "
                        f"lock(s) {locks} — release before I/O",
                    )

    def _scan_acquires(
        self,
        stmt: ast.stmt,
        body: Sequence[ast.stmt],
        index: int,
        in_finally: bool,
    ) -> None:
        """Raw ``.acquire*()`` / ``.release*()`` outside the sanctioned
        shapes (``with``, or acquire-then-``try/finally``-release)."""
        if not isinstance(stmt, (ast.Expr, ast.Return)):
            return
        value = stmt.value
        if (
            not isinstance(value, ast.Call)
            or not isinstance(value.func, ast.Attribute)
        ):
            return
        name = value.func.attr
        if name in _ACQUIRE_NAMES:
            follower = body[index + 1] if index + 1 < len(body) else None
            if isinstance(follower, ast.Try) and any(
                isinstance(fin_node, ast.Call)
                and isinstance(fin_node.func, ast.Attribute)
                and fin_node.func.attr in _RELEASE_NAMES
                for fin_stmt in follower.finalbody
                for fin_node in ast.walk(fin_stmt)
            ):
                return  # acquire immediately guarded by try/finally release
            self._flag(
                "raw-acquire",
                value,
                f"raw .{name}() — use `with` (or follow immediately "
                f"with try/finally releasing the lock)",
            )
        elif name in _RELEASE_NAMES and not in_finally:
            self._flag(
                "raw-acquire",
                value,
                f".{name}() outside a finally block — an exception "
                f"between acquire and release leaks the lock",
            )


class LockDisciplineChecker(Checker):
    name = "lock-discipline"
    description = (
        "guarded fields mutate under their lock; no raw acquires; "
        "no blocking calls under a lock"
    )
    rules = ("guarded-field", "raw-acquire", "lock-blocking-call")

    def check_module(
        self, module: ParsedModule, project: Project
    ) -> Iterator[Finding]:
        findings: List[Finding] = []
        per_class = _specs_for(module)
        module_specs: Tuple[config.GuardSpec, ...] = ()
        if per_class is not None:
            module_specs = per_class.get(None, ())

        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                class_specs: Tuple[config.GuardSpec, ...] = module_specs
                if per_class is not None:
                    class_specs = class_specs + per_class.get(node.name, ())
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self.scan_function(
                            module, class_specs, item, findings,
                            check_guards=item.name != "__init__",
                        )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.scan_function(
                    module, module_specs, node, findings, check_guards=True
                )
        return iter(findings)

    def scan_function(
        self,
        module: ParsedModule,
        specs: Sequence[config.GuardSpec],
        func: ast.AST,
        findings: List[Finding],
        check_guards: bool = True,
    ) -> None:
        scanner = _FunctionScanner(self, module, specs, func, findings)
        scanner.scan(func.body, check_guards)  # type: ignore[attr-defined]
