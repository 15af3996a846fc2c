"""Closure-cycle checker: a nested function must not refer to itself.

A ``def`` inside a function that loads its own name reads it from a
cell of the enclosing frame, and that cell points at the function whose
closure holds the cell: a reference cycle **per call** of the enclosing
function. Everything else the closure captured — a plan, a result
table with every row — then lives until the cyclic collector's next
pass instead of dying by reference count. Two sibling nested functions
that load each other's names close the same loop through two cells.
One rule:

* ``recursive-closure`` — hoist the function to module (or class)
  level, where its name resolves through globals and no cell exists, or
  pass it what it needs as arguments.

The check is by name: a nested function that rebinds its own name
locally (a parameter, an assignment) shadows the cell and is not
flagged.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.core import Checker, Finding, ParsedModule, Project

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = _FUNCTIONS + (ast.ClassDef,)
_SCOPES = _DEFINITIONS + (ast.Lambda,)


def _own_statements(function: ast.AST) -> Iterator[ast.AST]:
    """Every node of ``function``'s own scope: its body, not the bodies
    of the functions, lambdas and classes nested in it (those nodes
    themselves are yielded)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _bound_names(function: ast.AST) -> Set[str]:
    """Names ``function`` binds in its own scope: parameters, targets
    of stores, nested ``def``/``class`` names."""
    bound: Set[str] = set()
    for node in _own_statements(function):
        if isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, _DEFINITIONS):
            bound.add(node.name)
    return bound


def _free_loads(function: ast.AST) -> Set[str]:
    """Names loaded anywhere inside ``function`` (nested scopes
    included: an inner function that needs a name makes every function
    between it and the binding carry the cell) that ``function`` does
    not bind itself."""
    loads = {
        node.id
        for node in ast.walk(function)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return loads - _bound_names(function)


class ClosureCycleChecker(Checker):
    name = "closure-cycles"
    description = (
        "no nested function refers to itself (or to a sibling that "
        "refers back): each call would leave a reference cycle"
    )
    rules = ("recursive-closure",)

    def check_module(
        self, module: ParsedModule, project: Project
    ) -> Iterator[Finding]:
        for outer in ast.walk(module.tree):
            if not isinstance(outer, _FUNCTIONS):
                continue
            nested: Dict[str, Tuple[ast.AST, Set[str]]] = {
                inner.name: (inner, _free_loads(inner))
                for inner in _own_statements(outer)
                if isinstance(inner, _FUNCTIONS)
            }
            for name, (inner, loads) in nested.items():
                if name in loads:
                    through = "itself"
                else:
                    mates = sorted(
                        mate
                        for mate in loads & nested.keys()
                        if name in nested[mate][1]
                    )
                    if not mates:
                        continue
                    through = f"`{mates[0]}`, which refers back"
                yield Finding(
                    path=module.path,
                    line=inner.lineno,
                    col=inner.col_offset,
                    rule="recursive-closure",
                    message=(
                        f"nested function `{name}` of `{outer.name}` refers "
                        f"to {through}: a closure that refers to itself is "
                        f"a reference cycle per call; hoist it or pass it in"
                    ),
                )
