"""Wire-protocol exhaustiveness checker (cross-file).

The socket transport's correctness rests on a three-way contract:
every opcode declared in ``kv/wire.py`` is (a) encodable *and*
decodable by the request codec, (b) dispatched by exactly one handler
branch per function in ``kv/server.py``, and (c) reachable from a
client call in ``kv/remote.py``. A new opcode that misses any leg
ships a protocol the other side cannot speak — the class of bug the
conformance tests catch only for opcodes someone remembered to test.

Checks (all emitted under the ``wire-protocol`` rule):

* every ``OP_*`` constant appears in ``OP_NAMES``;
* ``encode_request`` and ``decode_request`` each handle every opcode
  (directly or through the ``_PREFIX_OPS`` / ``_NULLARY_OPS`` groups);
* ``kv/server.py`` compares against every opcode somewhere, and no
  function compares against the same opcode twice (one branch per
  opcode per dispatch);
* ``kv/remote.py`` issues a ``request(wire.OP_X, ...)`` for every
  opcode;
* module-level ``encode_<T>`` / ``decode_<T>`` helpers in ``wire.py``
  pair up by suffix, modulo the documented asymmetric helpers
  (:data:`repro.analysis.config.WIRE_PAIR_EXCEPTIONS`);
* the mutation vocabulary is declared once: every member of
  ``wire.MUTATING_OPS`` has exactly one branch in ``apply_mutation``,
  no ``OP_*`` outside the group is dispatched there — so none can reach
  a store-mutating call (the server, the WAL and recovery replay all
  run mutations through that one dispatch) — and ``kv/wal.py`` declares
  no opcode constants of its own: a record payload is a wire request.

The checker is silent when the wire module is outside the analyzed
paths (running repro-lint on a single unrelated file stays quiet).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis import config
from repro.analysis.core import Checker, Finding, ParsedModule, Project

_OP_RE = re.compile(r"^OP_[A-Z0-9_]+$")
_GROUP_RE = re.compile(r"^_?[A-Z0-9_]*OPS$")
_WAL_OPCODE_RE = re.compile(r"^_?(?:WAL|OP)_[A-Z0-9_]+$")
_MUTATION_GROUP = "MUTATING_OPS"
_MUTATION_DISPATCH = "apply_mutation"


def _op_refs(
    tree: ast.AST, groups: Optional[Dict[str, Set[str]]] = None
) -> Set[str]:
    """Every ``OP_*`` referenced as a name or ``wire.OP_*`` attribute;
    with ``groups``, a reference to a declared opcode group (``op in
    wire.MUTATING_OPS``) stands for each of its members."""
    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            ref = node.id
        elif isinstance(node, ast.Attribute):
            ref = node.attr
        else:
            continue
        if _OP_RE.match(ref):
            out.add(ref)
        elif groups is not None:
            out.update(groups.get(ref, ()))
    return out


class _WireDecl:
    """Everything the checker needs from ``kv/wire.py``."""

    def __init__(self, module: ParsedModule) -> None:
        self.module = module
        self.ops: Dict[str, int] = {}          # OP_X → def lineno
        self.groups: Dict[str, Set[str]] = {}  # _PREFIX_OPS → members
        self.named: Set[str] = set()           # keys of OP_NAMES
        self.codec_refs: Dict[str, Set[str]] = {}
        self.encode_helpers: Dict[str, int] = {}
        self.decode_helpers: Dict[str, int] = {}
        self.mutation_dispatch: Optional[ast.FunctionDef] = None
        for node in module.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "OP_NAMES":  # before _OP_RE: it matches too
                    for child in ast.walk(node.value):
                        if isinstance(child, ast.Name) and _OP_RE.match(
                            child.id
                        ):
                            self.named.add(child.id)
                elif _OP_RE.match(target.id):
                    self.ops[target.id] = node.lineno
                elif _GROUP_RE.match(target.id) and isinstance(
                    node.value, (ast.Tuple, ast.List)
                ):
                    self.groups[target.id] = {
                        element.id
                        for element in node.value.elts
                        if isinstance(element, ast.Name)
                        and _OP_RE.match(element.id)
                    }
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if node.target.id == "OP_NAMES" and node.value is not None:
                    for child in ast.walk(node.value):
                        if isinstance(child, ast.Name) and _OP_RE.match(
                            child.id
                        ):
                            self.named.add(child.id)
            elif isinstance(node, ast.FunctionDef):
                if node.name in ("encode_request", "decode_request"):
                    self.codec_refs[node.name] = _op_refs(node, self.groups)
                elif node.name == _MUTATION_DISPATCH:
                    self.mutation_dispatch = node
                elif node.name.startswith("encode_"):
                    self.encode_helpers[node.name[len("encode_"):]] = (
                        node.lineno
                    )
                elif node.name.startswith("decode_"):
                    self.decode_helpers[node.name[len("decode_"):]] = (
                        node.lineno
                    )


class WireProtocolChecker(Checker):
    name = "wire-protocol"
    description = (
        "every opcode is encodable, decodable, server-dispatched exactly "
        "once and client-reachable; codec helpers pair up"
    )
    rules = ("wire-protocol",)

    def check_project(self, project: Project) -> Iterator[Finding]:
        wire = project.find("kv/wire.py")
        if wire is None:
            return iter(())
        decl = _WireDecl(wire)
        findings: List[Finding] = []

        def flag(
            module: ParsedModule, line: int, message: str
        ) -> None:
            findings.append(
                Finding(
                    path=module.path,
                    line=line,
                    col=0,
                    rule="wire-protocol",
                    message=message,
                )
            )

        # -- OP_NAMES totality ---------------------------------------------
        for op, lineno in decl.ops.items():
            if op not in decl.named:
                flag(wire, lineno, f"{op} is missing from OP_NAMES")

        # -- request codec totality ----------------------------------------
        for func in ("encode_request", "decode_request"):
            refs = decl.codec_refs.get(func)
            if refs is None:
                flag(wire, 1, f"wire module defines no {func}()")
                continue
            for op, lineno in decl.ops.items():
                if op not in refs:
                    flag(
                        wire, lineno,
                        f"{op} is not handled by {func}() — the request "
                        f"codec must be total over the opcodes",
                    )

        # -- server dispatch ------------------------------------------------
        server = project.find("kv/server.py")
        if server is not None:
            module_refs: Set[str] = set()
            for node in ast.walk(server.tree):
                if not isinstance(node, ast.FunctionDef):
                    continue
                counts: Dict[str, int] = {}
                for child in ast.walk(node):
                    if not isinstance(child, ast.Compare):
                        continue
                    for ref in _op_refs(child, decl.groups):
                        counts[ref] = counts.get(ref, 0) + 1
                for op, count in counts.items():
                    module_refs.add(op)
                    if count > 1:
                        flag(
                            server, node.lineno,
                            f"{op} is dispatched {count} times inside "
                            f"{node.name}() — exactly one handler branch "
                            f"per opcode",
                        )
            for op, lineno in decl.ops.items():
                if op not in module_refs:
                    where = config.WIRE_LIFECYCLE_OPS.get(op)
                    if where is not None:
                        continue
                    flag(
                        wire, lineno,
                        f"{op} has no handler branch in kv/server.py",
                    )

        # -- client reachability --------------------------------------------
        remote = project.find("kv/remote.py")
        if remote is not None:
            requested: Set[str] = set()
            for node in ast.walk(remote.tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "request"
                    and node.args
                ):
                    first: Optional[ast.AST] = node.args[0]
                    if isinstance(first, ast.Attribute) and _OP_RE.match(
                        first.attr
                    ):
                        requested.add(first.attr)
                    elif isinstance(first, ast.Name) and _OP_RE.match(
                        first.id
                    ):
                        requested.add(first.id)
            for op, lineno in decl.ops.items():
                if op not in requested:
                    flag(
                        wire, lineno,
                        f"{op} has no client call site in kv/remote.py — "
                        f"an unreachable opcode is dead protocol",
                    )

        # -- one mutation vocabulary ----------------------------------------
        dispatch = decl.mutation_dispatch
        if dispatch is not None:
            members = decl.groups.get(_MUTATION_GROUP, set())
            branches: Dict[str, int] = {}
            for node in ast.walk(dispatch):
                if isinstance(node, ast.If):
                    for ref in _op_refs(node.test, decl.groups):
                        branches[ref] = branches.get(ref, 0) + 1
            for op in sorted(members):
                if branches.get(op, 0) != 1:
                    flag(
                        wire, dispatch.lineno,
                        f"{op} has {branches.get(op, 0)} branches in "
                        f"{_MUTATION_DISPATCH}() — exactly one per member "
                        f"of {_MUTATION_GROUP}",
                    )
            for op in sorted(_op_refs(dispatch) & set(decl.ops) - members):
                flag(
                    wire, dispatch.lineno,
                    f"{op} is dispatched by {_MUTATION_DISPATCH}() but is "
                    f"not in {_MUTATION_GROUP} — only a mutating opcode "
                    f"may reach the store's write surface there",
                )
        wal = project.find("kv/wal.py")
        if wal is not None:
            for node in ast.walk(wal.tree):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Store)
                    and _WAL_OPCODE_RE.match(node.id)
                ):
                    flag(
                        wal, node.lineno,
                        f"kv/wal.py declares opcode constant {node.id} — a "
                        f"WAL record is a wire request of "
                        f"wire.{_MUTATION_GROUP}, the log has no vocabulary "
                        f"of its own",
                    )

        # -- encode/decode pairing ------------------------------------------
        for suffix, lineno in decl.encode_helpers.items():
            if (
                suffix not in decl.decode_helpers
                and f"encode_{suffix}" not in config.WIRE_PAIR_EXCEPTIONS
            ):
                flag(
                    wire, lineno,
                    f"encode_{suffix}() has no decode_{suffix}() — codec "
                    f"helpers must pair (or be registered in "
                    f"WIRE_PAIR_EXCEPTIONS with their counterpart)",
                )
        for suffix, lineno in decl.decode_helpers.items():
            if (
                suffix not in decl.encode_helpers
                and f"decode_{suffix}" not in config.WIRE_PAIR_EXCEPTIONS
            ):
                flag(
                    wire, lineno,
                    f"decode_{suffix}() has no encode_{suffix}() — codec "
                    f"helpers must pair (or be registered in "
                    f"WIRE_PAIR_EXCEPTIONS with their counterpart)",
                )
        return iter(findings)
